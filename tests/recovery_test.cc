// Tests for the multi-level recovery extension: log record codec, WAL
// crash semantics, redo replay, and logical (compensation-based) undo of
// loser transactions — including the property that a loser's undo must not
// wipe out a winner's commuting update.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "app/orderentry/order_entry.h"
#include "app/orderentry/workload.h"
#include "core/database.h"
#include "recovery/log_record.h"
#include "recovery/wal.h"

namespace semcc {
namespace {

using namespace orderentry;

// --- log record codec ---------------------------------------------------

TEST(LogRecordCodec, RoundTripAllFields) {
  LogRecord rec;
  rec.lsn = 42;
  rec.type = LogType::kMethodCommit;
  rec.txn = 7;
  rec.subtxn = 8;
  rec.parent = 7;
  rec.object = 99;
  rec.obj_type = 3;
  rec.aux_oid = 55;
  rec.flag = true;
  rec.method = "ShipOrder";
  rec.name = "Items";
  rec.args = {Value(int64_t{1}), Value("shipped"), Value::Ref(12)};
  rec.value = Value(3.25);
  rec.components = {{"a", 1}, {"b", 2}};
  rec.path = {8, 7};
  auto back = LogRecord::Decode(rec.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const LogRecord& b = back.ValueOrDie();
  EXPECT_EQ(b.lsn, rec.lsn);
  EXPECT_EQ(b.type, rec.type);
  EXPECT_EQ(b.txn, rec.txn);
  EXPECT_EQ(b.subtxn, rec.subtxn);
  EXPECT_EQ(b.object, rec.object);
  EXPECT_EQ(b.obj_type, rec.obj_type);
  EXPECT_EQ(b.aux_oid, rec.aux_oid);
  EXPECT_EQ(b.flag, rec.flag);
  EXPECT_EQ(b.method, rec.method);
  EXPECT_EQ(b.name, rec.name);
  EXPECT_EQ(b.args, rec.args);
  EXPECT_EQ(b.value, rec.value);
  EXPECT_EQ(b.components, rec.components);
  EXPECT_EQ(b.path, rec.path);
}

TEST(LogRecordCodec, EmptyRecordRoundTrips) {
  LogRecord rec;
  auto back = LogRecord::Decode(rec.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.ValueOrDie().args.empty());
  EXPECT_TRUE(back.ValueOrDie().path.empty());
}

TEST(LogRecordCodec, TruncationRejected) {
  LogRecord rec;
  rec.method = "M";
  std::string bytes = rec.Encode();
  for (size_t cut = 1; cut < bytes.size(); cut += 7) {
    EXPECT_FALSE(LogRecord::Decode(bytes.substr(0, bytes.size() - cut)).ok());
  }
}

// --- WAL ------------------------------------------------------------------

TEST(Wal, AppendAssignsMonotoneLsns) {
  WriteAheadLog wal;
  LogRecord rec;
  Lsn a = wal.Append(rec);
  Lsn b = wal.Append(rec);
  EXPECT_LT(a, b);
  EXPECT_EQ(wal.total_count(), 2u);
  EXPECT_EQ(wal.stable_count(), 0u);
}

TEST(Wal, CrashDropsVolatileTail) {
  WriteAheadLog wal;
  LogRecord rec;
  rec.type = LogType::kTxnBegin;
  rec.txn = 1;
  wal.Append(rec);
  ASSERT_TRUE(wal.Flush().ok());
  rec.txn = 2;
  wal.Append(rec);
  EXPECT_EQ(wal.total_count(), 2u);
  EXPECT_EQ(wal.stable_count(), 1u);
  wal.LoseVolatileTail();
  auto records = wal.AllRecords().ValueOrDie();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, 1u);
}

TEST(Wal, StableRecordsDecodeInOrder) {
  WriteAheadLog wal;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.type = LogType::kAtomWrite;
    rec.object = static_cast<Oid>(i);
    wal.Append(rec);
  }
  ASSERT_TRUE(wal.Flush().ok());
  auto records = wal.StableRecords().ValueOrDie();
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].object, static_cast<Oid>(i));
    if (i > 0) {
      EXPECT_GT(records[i].lsn, records[i - 1].lsn);
    }
  }
}

// --- end-to-end restart -----------------------------------------------------

struct RecoveryTest : public ::testing::Test {
  std::unique_ptr<Database> MakeWalDb() {
    DatabaseOptions options;
    options.enable_wal = true;
    return std::make_unique<Database>(options);
  }
  /// Fresh database with schema/methods registered but no objects, ready to
  /// replay a log into.
  std::unique_ptr<Database> MakeRecoveryTarget() {
    DatabaseOptions options;
    options.enable_wal = true;
    auto db = std::make_unique<Database>(options);
    InstallOptions iopts;
    iopts.register_only = true;
    (void)Install(db.get(), iopts).ValueOrDie();
    return db;
  }
};

TEST_F(RecoveryTest, CommittedWorkSurvivesRestart) {
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 3;
  spec.orders_per_item = 4;
  spec.initial_qoh = 100;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  ASSERT_TRUE(db->RunTransaction(
                    "t1", T1_ShipTwoOrders(data.item_oids[0], 1,
                                           data.item_oids[1], 2)).ok());
  ASSERT_TRUE(db->RunTransaction(
                    "t2", T2_PayTwoOrders(data.item_oids[0], 1,
                                          data.item_oids[2], 3)).ok());
  const int64_t qoh0 = ReadQohRaw(db.get(), data.item_oids[0]).ValueOrDie();

  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().losers, 0u);
  EXPECT_EQ(stats.ValueOrDie().winners, 2u);

  // Same oids, same state.
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  EXPECT_EQ(items, types.items);
  Oid item0 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  EXPECT_EQ(item0, data.item_oids[0]);
  EXPECT_EQ(ReadQohRaw(db2.get(), item0).ValueOrDie(), qoh0);
  Oid o1 = FindOrder(db2.get(), item0, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1).ValueOrDie(),
            kEventShippedBit | kEventPaidBit);
}

TEST_F(RecoveryTest, LoserShipOrderIsCompensatedAtRestart) {
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  spec.initial_qoh = 50;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  Oid item = data.item_oids[0];

  // An in-flight transaction: ShipOrder committed as a subtransaction, but
  // the top level neither commits nor aborts — then the system "crashes".
  {
    TxnTree tree(TxnTree::NextId(), "loser", kDatabaseOid,
                 Schema::kDatabaseTypeId);
    TxnCtx ctx(db->store(), db->locks(), db->methods(), &tree, db->recovery());
    ASSERT_TRUE(ctx.Invoke(item, "ShipOrder", {Value(1)}).ok());
    ASSERT_TRUE(db->wal()->Flush().ok());  // work reached disk, commit did not
  }
  // The damage is visible pre-crash.
  ASSERT_LT(ReadQohRaw(db.get(), item).ValueOrDie(), 50);

  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().losers, 1u);
  EXPECT_GE(stats.ValueOrDie().inverses_run, 1u);

  // Fully rolled back: QuantityOnHand restored, shipped bit cleared.
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item2 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  EXPECT_EQ(ReadQohRaw(db2.get(), item2).ValueOrDie(), 50);
  Oid o1 = FindOrder(db2.get(), item2, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1).ValueOrDie(), 0);
}

TEST_F(RecoveryTest, LoserUndoPreservesWinnersCommutingUpdate) {
  // The multi-level recovery property at restart (mirrors the online test
  // TxnTestBase.CompensationIsSemanticNotPhysical): T_loser shipped order 1,
  // then T_winner PAID the same order and committed; the crash-time undo of
  // T_loser must remove only the shipped bit.
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  Oid item = data.item_oids[0];
  {
    TxnTree tree(TxnTree::NextId(), "loser", kDatabaseOid,
                 Schema::kDatabaseTypeId);
    TxnCtx ctx(db->store(), db->locks(), db->methods(), &tree, db->recovery());
    ASSERT_TRUE(ctx.Invoke(item, "ShipOrder", {Value(1)}).ok());
    // Winner pays the same order while the loser is still in flight — legal,
    // ShipOrder and PayOrder commute (Figure 2).
    ASSERT_TRUE(db->RunTransaction(
                      "winner", T2_PayTwoOrders(item, 1, data.item_oids[1], 1))
                    .ok());
    ASSERT_TRUE(db->wal()->Flush().ok());
  }
  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().losers, 1u);
  EXPECT_EQ(stats.ValueOrDie().winners, 1u);

  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item2 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid o1 = FindOrder(db2.get(), item2, 1).ValueOrDie();
  const int64_t status = ReadStatusRaw(db2.get(), o1).ValueOrDie();
  EXPECT_EQ(status & kEventShippedBit, 0) << "loser's bit must be gone";
  EXPECT_EQ(status & kEventPaidBit, kEventPaidBit) << "winner's bit survives";
}

TEST_F(RecoveryTest, LoserNewOrderRemovedAtRestart) {
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 1;
  spec.orders_per_item = 2;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  Oid item = data.item_oids[0];
  {
    TxnTree tree(TxnTree::NextId(), "loser", kDatabaseOid,
                 Schema::kDatabaseTypeId);
    TxnCtx ctx(db->store(), db->locks(), db->methods(), &tree, db->recovery());
    auto ono = ctx.Invoke(item, "NewOrder", {Value(9), Value(4)});
    ASSERT_TRUE(ono.ok());
    EXPECT_EQ(ono.ValueOrDie().AsInt(), 3);
    ASSERT_TRUE(db->wal()->Flush().ok());
  }
  auto db2 = MakeRecoveryTarget();
  ASSERT_TRUE(db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie()).ok());
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item2 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid orders = db2->store()->Component(item2, "Orders").ValueOrDie();
  EXPECT_EQ(db2->store()->SetSize(orders).ValueOrDie(), 2u);
  EXPECT_TRUE(db2->store()->SetSelect(orders, Value(3)).status().IsNotFound());
}

TEST_F(RecoveryTest, UncommittedLeafOnlyWorkIsPhysicallyUndone) {
  // A bypassing transaction wrote an atom directly; its enclosing method
  // never existed, so restart must use the leaf before-image.
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 1;
  spec.orders_per_item = 1;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  Oid item = data.item_oids[0];
  Oid o1 = FindOrder(db.get(), item, 1).ValueOrDie();
  Oid status_atom = db->store()->Component(o1, "Status").ValueOrDie();
  {
    TxnTree tree(TxnTree::NextId(), "loser", kDatabaseOid,
                 Schema::kDatabaseTypeId);
    TxnCtx ctx(db->store(), db->locks(), db->methods(), &tree, db->recovery());
    ASSERT_TRUE(ctx.Put(status_atom, Value(int64_t{3})).ok());  // raw bypass
    ASSERT_TRUE(db->wal()->Flush().ok());
  }
  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.ValueOrDie().leaf_undos, 1u);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item2 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid o1b = FindOrder(db2.get(), item2, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1b).ValueOrDie(), 0);
}

TEST_F(RecoveryTest, VolatileTailLossDropsUnflushedWork) {
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 1;
  spec.orders_per_item = 1;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  ASSERT_TRUE(db->wal()->Flush().ok());
  const size_t stable_before = db->wal()->stable_count();
  // A committed transaction forces the log (survives)...
  ASSERT_TRUE(db->RunTransaction("t", T2_PayTwoOrders(data.item_oids[0], 1,
                                                      data.item_oids[0], 1))
                  .ok());
  // ...then an in-flight transaction appends without flushing (lost).
  {
    TxnTree tree(TxnTree::NextId(), "loser", kDatabaseOid,
                 Schema::kDatabaseTypeId);
    TxnCtx ctx(db->store(), db->locks(), db->methods(), &tree, db->recovery());
    ASSERT_TRUE(ctx.Invoke(data.item_oids[0], "ShipOrder", {Value(1)}).ok());
  }
  db->wal()->LoseVolatileTail();
  EXPECT_GT(db->wal()->stable_count(), stable_before);

  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok());
  // The unflushed ShipOrder never happened; the committed PayOrder did.
  EXPECT_EQ(stats.ValueOrDie().losers, 0u);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item2 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid o1 = FindOrder(db2.get(), item2, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1).ValueOrDie(), kEventPaidBit);
}

TEST_F(RecoveryTest, RecoveredDatabaseKeepsWorkingAndChains) {
  auto db = MakeWalDb();
  auto types = Install(db.get()).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  auto data = Load(db.get(), types, spec).ValueOrDie();
  ASSERT_TRUE(db->RunTransaction("t", T2_PayTwoOrders(data.item_oids[0], 1,
                                                      data.item_oids[1], 1))
                  .ok());
  // First restart.
  auto db2 = MakeRecoveryTarget();
  ASSERT_TRUE(db2->RecoverFrom(db->wal()->StableRecords().ValueOrDie()).ok());
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item0 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid item1 = db2->store()->SetSelect(items, Value(2)).ValueOrDie();
  // New work on the recovered database.
  ASSERT_TRUE(db2->RunTransaction("t", T1_ShipTwoOrders(item0, 1, item1, 2)).ok());
  // Second restart, from the NEW database's log (which was seeded by replay).
  auto db3 = MakeRecoveryTarget();
  ASSERT_TRUE(db3->RecoverFrom(db2->wal()->StableRecords().ValueOrDie()).ok());
  Oid items3 = db3->GetNamedRoot("Items").ValueOrDie();
  Oid item0c = db3->store()->SetSelect(items3, Value(1)).ValueOrDie();
  Oid o1 = FindOrder(db3.get(), item0c, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db3.get(), o1).ValueOrDie(),
            kEventShippedBit | kEventPaidBit);
}

TEST_F(RecoveryTest, ConcurrentWorkloadSurvivesRestartConsistently) {
  DatabaseOptions options;
  options.enable_wal = true;
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  WorkloadOptions wopts;
  wopts.load.num_items = 4;
  wopts.load.orders_per_item = 4;
  wopts.load.initial_qoh = 100000;
  wopts.seed = 99;
  OrderEntryWorkload workload(&db, types, wopts);
  ASSERT_TRUE(workload.Setup().ok());
  auto result = workload.Run(/*threads=*/4, /*txns_per_thread=*/50);
  EXPECT_GT(result.committed, 100u);
  // Probe the pre-crash state.
  std::vector<int64_t> qoh_before;
  for (Oid item : workload.data().item_oids) {
    qoh_before.push_back(ReadQohRaw(&db, item).ValueOrDie());
  }
  // Restart.
  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db.wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().losers, 0u);  // everything finished
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  for (size_t i = 0; i < workload.data().item_oids.size(); ++i) {
    Oid item = db2->store()
                   ->SetSelect(items, Value(static_cast<int64_t>(i) + 1))
                   .ValueOrDie();
    EXPECT_EQ(ReadQohRaw(db2.get(), item).ValueOrDie(), qoh_before[i])
        << "item " << i;
  }
}

TEST_F(RecoveryTest, RecoverIntoNonEmptyDatabaseRejected) {
  auto db = MakeWalDb();
  (void)Install(db.get()).ValueOrDie();  // creates the Items set
  auto st = db->RecoverFrom({});
  EXPECT_TRUE(st.status().IsPreconditionFailed());
}

TEST_F(RecoveryTest, GroupCommitIsDurableAndBatchesFlushes) {
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.group_commit = true;
  options.recovery.wal_flush_micros = 200;  // slow fsync: committers pile up
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 8;
  spec.orders_per_item = 2;
  auto data = Load(&db, types, spec).ValueOrDie();

  // Concurrent committers on DISJOINT items (no lock conflicts, so commits
  // genuinely overlap and share group flushes).
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Oid a = data.item_oids[static_cast<size_t>(t) * 2];
      Oid b = data.item_oids[static_cast<size_t>(t) * 2 + 1];
      for (int i = 0; i < 25; ++i) {
        ASSERT_TRUE(db.RunTransaction("t", T2_PayTwoOrders(a, 1, b, 1)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every commit was made durable...
  EXPECT_GE(db.wal()->stable_count(), 100u);
  // ...with fewer device writes than commits (the group-commit win).
  EXPECT_LT(db.wal()->flush_count(), 80u);

  // And the crash-recovery contract still holds.
  db.wal()->LoseVolatileTail();
  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db.wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().winners, 100u);
  EXPECT_EQ(stats.ValueOrDie().losers, 0u);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid o1 = FindOrder(db2.get(), item, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1).ValueOrDie(), kEventPaidBit);
}

TEST_F(RecoveryTest, ReadOnlyTransactionsLeaveTheLogAlone) {
  // A transaction that updates nothing has nothing to make durable: it
  // appends no record and waits for no log sync. A writer logs its begin
  // record lazily, just before its first undo record.
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.group_commit = true;
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  auto data = Load(&db, types, spec).ValueOrDie();
  ASSERT_TRUE(db.wal()->Flush().ok());
  Oid a = data.item_oids[0];
  Oid b = data.item_oids[1];

  const WalStats before = db.wal()->stats();
  ASSERT_TRUE(db.RunTransaction("t3", T3_CheckShipment(a, 1, b, 2)).ok());
  ASSERT_TRUE(db.RunTransaction("t4", T4_CheckPayment(a, 1, b, 2)).ok());
  ASSERT_TRUE(db.RunTransaction("t5", T5_TotalPayment(a)).ok());
  auto refused =
      db.RunTransaction("read-error", [&](TxnCtx& ctx) -> Result<Value> {
        SEMCC_RETURN_NOT_OK(ctx.Invoke(a, "TotalPayment", {}).status());
        return Status::InvalidArgument("application error after a read");
      });
  EXPECT_TRUE(refused.status().IsInvalidArgument());
  const WalStats after_reads = db.wal()->stats();
  EXPECT_EQ(after_reads.appends, before.appends);
  EXPECT_EQ(after_reads.flushes, before.flushes);

  ASSERT_TRUE(db.RunTransaction("t2", T2_PayTwoOrders(a, 1, b, 2)).ok());
  EXPECT_EQ(db.wal()->stable_count(), db.wal()->total_count());
  auto records = db.wal()->StableRecords().ValueOrDie();
  ASSERT_GT(records.size(), before.appends + 2);
  // The writer's records follow the loaded prefix: begin first, then its
  // undo records, and its stable commit last.
  const LogRecord& begin = records[before.appends];
  ASSERT_EQ(begin.type, LogType::kTxnBegin);
  const LogRecord& first_undo = records[before.appends + 1];
  EXPECT_TRUE(first_undo.type == LogType::kLeafPut ||
              first_undo.type == LogType::kLeafSetInsert ||
              first_undo.type == LogType::kLeafSetRemove ||
              first_undo.type == LogType::kMethodCommit)
      << static_cast<int>(first_undo.type);
  EXPECT_EQ(first_undo.txn, begin.txn);
  EXPECT_EQ(records.back().type, LogType::kTxnCommit);
  EXPECT_EQ(records.back().txn, begin.txn);
}

TEST_F(RecoveryTest, CommutingReaderOfLoserNeedsNoForce) {
  // A reader admitted past an uncommitted writer through a commuting
  // ancestor pair (Case 1) does not depend on that writer, so it may
  // commit without forcing the writer's records: whatever restart does to
  // the loser, the reader's answer stands.
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.group_commit = true;
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  spec.initial_qoh = 50;
  spec.pre_paid = 1.0;  // the reader's answer is "paid", not the default 0
  auto data = Load(&db, types, spec).ValueOrDie();
  Oid item = data.item_oids[0];

  Result<Value> answer = Status::Internal("T4 did not run");
  {
    TxnTree tree(TxnTree::NextId(), "loser", kDatabaseOid,
                 Schema::kDatabaseTypeId);
    TxnCtx ctx(db.store(), db.locks(), db.methods(), &tree, db.recovery());
    ASSERT_TRUE(ctx.Invoke(item, "ShipOrder", {Value(1)}).ok());
    ASSERT_TRUE(db.wal()->Flush().ok());  // work reached disk, commit did not

    const uint64_t case1_before = db.locks()->stats().case1_grants;
    const uint64_t appends_before = db.wal()->stats().appends;
    // TestStatus(paid) commutes with the loser's committed
    // ChangeStatus(shipped), so T4's read of the Status atom the loser
    // wrote is granted through Case 1.
    answer = db.RunTransaction("t4", T4_CheckPayment(item, 1,
                                                     data.item_oids[1], 1));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GE(db.locks()->stats().case1_grants - case1_before, 1u);
    EXPECT_EQ(db.wal()->stats().appends, appends_before);
  }

  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db.wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().losers, 1u);
  EXPECT_GE(stats.ValueOrDie().inverses_run, 1u);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item2 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid o1 = FindOrder(db2.get(), item2, 1).ValueOrDie();
  const int64_t status = ReadStatusRaw(db2.get(), o1).ValueOrDie();
  EXPECT_EQ(status & kEventShippedBit, 0) << "loser compensated";
  const bool recovered_paid = (status & kEventPaidBit) != 0;
  EXPECT_EQ((answer.ValueOrDie().AsInt() & 1) != 0, recovered_paid);
  EXPECT_TRUE(recovered_paid);
}

TEST_F(RecoveryTest, BlockedReaderReturnsAfterWritersCommitIsStable) {
  // A reader that conflicts with an in-flight writer waits for the
  // writer's top-level end, which comes only after the writer's commit
  // record is stable. So the reader, which forces nothing itself, never
  // returns an update that a crash could still take back.
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.group_commit = true;
  options.recovery.wal_flush_micros = 200000;  // 200 ms per sync
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  auto data = Load(&db, types, spec).ValueOrDie();
  ASSERT_TRUE(db.wal()->Flush().ok());
  Oid a = data.item_oids[0];
  Oid b = data.item_oids[1];

  const Lsn claimed_before = db.wal()->claimed_lsn();
  std::thread writer([&]() {
    ASSERT_TRUE(db.RunTransaction("t2", T2_PayTwoOrders(a, 1, b, 1)).ok());
  });
  // Wait until the writer's commit record is in its 200 ms sync.
  while (db.wal()->claimed_lsn() == claimed_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t blocked_before = db.locks()->stats().blocked_acquires;
  // TestStatus(paid) conflicts with the writer's ChangeStatus(paid) on
  // order 1, and no commuting ancestor pair relieves it.
  auto answer = db.RunTransaction("t4", T4_CheckPayment(a, 1, b, 2));
  const size_t stable = db.wal()->stable_count();
  const size_t total = db.wal()->total_count();
  writer.join();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GE(db.locks()->stats().blocked_acquires - blocked_before, 1u);
  EXPECT_EQ(stable, total) << "reader returned before the writer's commit "
                              "record was stable";
  EXPECT_EQ(answer.ValueOrDie().AsInt() & 1, 1) << "reader saw the payment";
}

TEST_F(RecoveryTest, CheckpointedRestartReplaysFromImage) {
  // After a truncating checkpoint, the log prefix is gone: restart must
  // rebuild pre-checkpoint state purely from the dumped image, then replay
  // the tail on top of it.
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.checkpoint_truncate = true;
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  auto data = Load(&db, types, spec).ValueOrDie();
  ASSERT_TRUE(db.RunTransaction("pre", T2_PayTwoOrders(data.item_oids[0], 1,
                                                       data.item_oids[1], 1))
                  .ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_GT(db.wal()->truncated_count(), 0u);
  ASSERT_TRUE(db.RunTransaction("post", T1_ShipTwoOrders(data.item_oids[0], 1,
                                                         data.item_oids[1], 2))
                  .ok());

  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db.wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.ValueOrDie().used_checkpoint);
  EXPECT_EQ(stats.ValueOrDie().losers, 0u);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  EXPECT_EQ(items, types.items);
  Oid item0 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  EXPECT_EQ(item0, data.item_oids[0]);
  Oid o1 = FindOrder(db2.get(), item0, 1).ValueOrDie();
  // Paid before the checkpoint, shipped after: both effects survive.
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1).ValueOrDie(),
            kEventShippedBit | kEventPaidBit);
}

TEST_F(RecoveryTest, AutoCheckpointBoundsWalMemory) {
  // The WAL used to retain every record ever appended; with periodic
  // truncating checkpoints its in-memory footprint must plateau instead of
  // growing linearly with committed transactions.
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.checkpoint_every_records = 64;
  options.recovery.checkpoint_truncate = true;
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 1;
  spec.initial_qoh = 1'000'000;
  auto data = Load(&db, types, spec).ValueOrDie();

  size_t retained_half = 0;
  const int kTxns = 300;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(db.RunTransaction("t", T2_PayTwoOrders(data.item_oids[0], 1,
                                                       data.item_oids[1], 1))
                    .ok());
    if (i == kTxns / 2) retained_half = db.wal()->retained_count();
  }
  const size_t retained_full = db.wal()->retained_count();
  const size_t total = db.wal()->total_count();
  EXPECT_GT(db.wal()->truncated_count(), total / 2)
      << "checkpoints did not reclaim the bulk of the log";
  // Doubling the transaction count must not double the retained window:
  // allow one checkpoint cycle of slack, not linear growth.
  EXPECT_LT(retained_full, retained_half + 2 * 64 + 64)
      << "WAL memory still grows linearly with committed transactions "
      << "(half=" << retained_half << " full=" << retained_full << ")";
  // Logical counters stay monotonic across all that truncation.
  EXPECT_EQ(db.wal()->stable_count(),
            db.wal()->truncated_count() + retained_full);
  // And the bounded log still restarts correctly.
  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db.wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.ValueOrDie().used_checkpoint);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  Oid item0 = db2->store()->SetSelect(items, Value(1)).ValueOrDie();
  Oid o1 = FindOrder(db2.get(), item0, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(db2.get(), o1).ValueOrDie(), kEventPaidBit);
}

TEST_F(RecoveryTest, FuzzyCheckpointConcurrentWithWriters) {
  // Checkpoints taken while committers are running: the dump interleaves
  // with live transactions, and restart from the resulting (truncated) log
  // must still reproduce the exact final state.
  DatabaseOptions options;
  options.enable_wal = true;
  options.recovery.group_commit = true;
  options.recovery.checkpoint_truncate = true;
  Database db(options);
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 8;
  spec.orders_per_item = 1;
  spec.initial_qoh = 1'000'000;
  auto data = Load(&db, types, spec).ValueOrDie();

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Oid a = data.item_oids[static_cast<size_t>(t) * 2];
      Oid b = data.item_oids[static_cast<size_t>(t) * 2 + 1];
      for (int i = 0; i < 25; ++i) {
        ASSERT_TRUE(db.RunTransaction("t", T2_PayTwoOrders(a, 1, b, 1)).ok());
      }
    });
  }
  std::thread checkpointer([&]() {
    while (!done.load()) {
      ASSERT_TRUE(db.Checkpoint().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& th : threads) th.join();
  done.store(true);
  checkpointer.join();
  EXPECT_TRUE(db.recovery()->health().ok());

  std::vector<int64_t> qoh_before;
  for (Oid item : data.item_oids) {
    qoh_before.push_back(ReadQohRaw(&db, item).ValueOrDie());
  }
  auto db2 = MakeRecoveryTarget();
  auto stats = db2->RecoverFrom(db.wal()->StableRecords().ValueOrDie());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().losers, 0u);
  Oid items = db2->GetNamedRoot("Items").ValueOrDie();
  for (size_t i = 0; i < data.item_oids.size(); ++i) {
    Oid item = db2->store()
                   ->SetSelect(items, Value(static_cast<int64_t>(i) + 1))
                   .ValueOrDie();
    EXPECT_EQ(ReadQohRaw(db2.get(), item).ValueOrDie(), qoh_before[i])
        << "item " << i;
  }
}

TEST_F(RecoveryTest, NamedRootsAreDurable) {
  auto db = MakeWalDb();
  TypeId num = db->schema()->DefineAtomicType("Num").ValueOrDie();
  Oid a = db->store()->CreateAtomic(num, Value(int64_t{5})).ValueOrDie();
  ASSERT_TRUE(db->SetNamedRoot("answer", a).ok());
  DatabaseOptions options;
  options.enable_wal = true;
  Database db2(options);
  (void)db2.schema()->DefineAtomicType("Num").ValueOrDie();
  ASSERT_TRUE(db2.RecoverFrom(db->wal()->StableRecords().ValueOrDie()).ok());
  Oid back = db2.GetNamedRoot("answer").ValueOrDie();
  EXPECT_EQ(back, a);
  EXPECT_EQ(db2.store()->Get(back).ValueOrDie().AsInt(), 5);
  EXPECT_TRUE(db2.GetNamedRoot("missing").status().IsNotFound());
}

}  // namespace
}  // namespace semcc

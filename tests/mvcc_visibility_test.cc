// MVCC snapshot-read tests (object/versioned_store.h, DESIGN.md §5.7):
// visibility (no uncommitted or later versions, stable repeatable reads),
// watermark GC safety and the chain-length bound under stress, write-path
// equivalence across flag combinations, and the end-to-end snapshot-read
// serializability check.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "app/orderentry/workload.h"
#include "core/database.h"
#include "core/serializability.h"
#include "query/object_assembly.h"
#include "util/sync.h"

namespace semcc {
namespace {

using namespace orderentry;

DatabaseOptions MvccOptions() {
  DatabaseOptions o;
  o.protocol.mvcc_reads = true;
  return o;
}

struct MvccTest : public ::testing::Test {
  MvccTest() : db(MvccOptions()) {}
  void SetUp() override {
    types = Install(&db).ValueOrDie();
    LoadSpec spec;
    spec.num_items = 4;
    spec.orders_per_item = 3;
    spec.initial_qoh = 1000;
    data = Load(&db, types, spec).ValueOrDie();
  }
  Oid StatusAtom(Oid item, int64_t order_no) {
    Oid order = FindOrder(&db, item, order_no).ValueOrDie();
    return db.store()->Component(order, "Status").ValueOrDie();
  }
  Database db;
  OrderEntryTypes types;
  LoadedData data;
};

TEST_F(MvccTest, SnapshotRejectsWrites) {
  Oid item = data.item_oids[0];
  Oid qoh = db.store()->Component(item, "QuantityOnHand").ValueOrDie();
  auto r1 = db.RunReadTransaction("w", [&](TxnCtx& ctx) -> Result<Value> {
    return ctx.Invoke(item, "ShipOrder", {Value(1)});
  });
  EXPECT_TRUE(r1.status().IsPreconditionFailed()) << r1.status().ToString();
  auto r2 = db.RunReadTransaction("w", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_RETURN_NOT_OK(ctx.Put(qoh, Value(int64_t{0})));
    return Value();
  });
  EXPECT_TRUE(r2.status().IsPreconditionFailed()) << r2.status().ToString();
}

TEST_F(MvccTest, SnapshotReadTakesNoLocks) {
  Oid item = data.item_oids[0];
  const uint64_t acquires_before = db.locks()->stats().acquires;
  auto r = db.RunReadTransaction("T5", T5_TotalPayment(item));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db.locks()->stats().acquires, acquires_before);
  EXPECT_EQ(db.locks()->stats().root_waits, 0u);
  const VersionStats vs = db.versions()->stats();
  EXPECT_EQ(vs.snapshots, 1u);
  EXPECT_GT(vs.snapshot_reads + vs.live_reads, 0u);
  // The recorded tree is marked as a snapshot execution.
  auto history = db.history()->Snapshot();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_TRUE(history[0].snapshot);
}

TEST_F(MvccTest, NeverSeesUncommittedWrite) {
  Oid item = data.item_oids[0];
  Oid status = StatusAtom(item, 1);
  ASSERT_EQ(ReadStatusRaw(&db, FindOrder(&db, item, 1).ValueOrDie())
                .ValueOrDie() & kEventShippedBit, 0);
  Semaphore wrote, may_commit;
  std::thread writer([&] {
    auto r = db.RunTransactionOnce("T", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value v, ctx.Invoke(item, "ShipOrder", {Value(1)}));
      (void)v;
      wrote.Post();       // live bytes now carry the uncommitted shipped bit
      may_commit.Wait();  // hold the transaction open
      return Value();
    });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  });
  wrote.Wait();
  // Snapshot while the writer is mid-flight: must see the pre-txn status.
  auto mid = db.RunReadTransaction("r", [&](TxnCtx& ctx) -> Result<Value> {
    return ctx.Get(status);
  });
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid.ValueOrDie().AsInt() & kEventShippedBit, 0)
      << "snapshot observed an uncommitted write";
  may_commit.Post();
  writer.join();
  // After commit a fresh snapshot sees the bit.
  auto after = db.RunReadTransaction("r", [&](TxnCtx& ctx) -> Result<Value> {
    return ctx.Get(status);
  });
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie().AsInt() & kEventShippedBit, kEventShippedBit);
}

TEST_F(MvccTest, SnapshotIsStableAcrossLaterCommits) {
  Oid item = data.item_oids[0];
  Oid status = StatusAtom(item, 1);
  Semaphore first_read_done, writer_committed;
  std::thread writer([&] {
    first_read_done.Wait();
    auto r = db.RunTransaction("T", [&](TxnCtx& ctx) -> Result<Value> {
      return ctx.Invoke(item, "ShipOrder", {Value(1)});
    });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    writer_committed.Post();
  });
  auto r = db.RunReadTransaction("r", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value v1, ctx.Get(status));
    first_read_done.Post();
    writer_committed.Wait();
    // Repeatable read: the commit landed after our snapshot timestamp.
    SEMCC_ASSIGN_OR_RETURN(Value v2, ctx.Get(status));
    EXPECT_EQ(v1.AsInt(), v2.AsInt()) << "snapshot saw a later version";
    return v2;
  });
  writer.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().AsInt() & kEventShippedBit, 0);
}

TEST_F(MvccTest, SetSizeReadsSnapshotAcrossConcurrentInsert) {
  // A snapshot transaction reads an Orders set's size, a NewOrder inserts
  // into that set and commits without waiting (snapshot reads take no
  // locks), and the second read still returns the snapshot's size: it now
  // finds the set's version chain and picks the version below its
  // snapshot timestamp.
  Oid item = data.item_oids[0];
  Oid orders = db.store()->Component(item, "Orders").ValueOrDie();
  Semaphore first_read_done, writer_committed;
  std::thread writer([&] {
    first_read_done.Wait();
    auto r = db.RunTransaction("TN", TN_EnterOrder(item, 77, 5));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    writer_committed.Post();
  });
  const uint64_t snapshot_reads_before = db.versions()->stats().snapshot_reads;
  auto r = db.RunReadTransaction("r", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(size_t first, ctx.SetSize(orders));
    first_read_done.Post();
    writer_committed.Wait();
    SEMCC_ASSIGN_OR_RETURN(size_t second, ctx.SetSize(orders));
    EXPECT_EQ(second, first) << "snapshot saw a later insert";
    return Value(static_cast<int64_t>(second));
  });
  writer.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().AsInt(), 3);
  EXPECT_GT(db.versions()->stats().snapshot_reads, snapshot_reads_before);
  // A fresh snapshot sees the committed insert.
  auto after = db.RunReadTransaction("r", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(size_t n, ctx.SetSize(orders));
    return Value(static_cast<int64_t>(n));
  });
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie().AsInt(), 4);
}

TEST_F(MvccTest, GcNeverReclaimsVisibleVersions) {
  Oid item = data.item_oids[0];
  Oid status = StatusAtom(item, 1);
  VersionedObjectStore* vs = db.versions();
  // First commit: ship order 1 -> installs a version of the status atom.
  ASSERT_TRUE(db.RunTransaction("T", [&](TxnCtx& ctx) -> Result<Value> {
                  return ctx.Invoke(item, "ShipOrder", {Value(1)});
                }).ok());
  const uint64_t s1 = vs->BeginSnapshot();
  uint64_t observed = 0;
  auto v1 = vs->ReadAtomic(status, s1, &observed);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  const int64_t value_at_s1 = (*v1).AsInt();
  // Later commits on the same atom while s1 stays open.
  ASSERT_TRUE(db.RunTransaction("T", [&](TxnCtx& ctx) -> Result<Value> {
                  return ctx.Invoke(item, "PayOrder", {Value(1)});
                }).ok());
  ASSERT_TRUE(db.RunTransaction("T", [&](TxnCtx& ctx) -> Result<Value> {
                  return ctx.Invoke(item, "ShipOrder", {Value(2)});
                }).ok());
  // A sweep with s1 open must not free the version s1 reads.
  vs->SweepVersions();
  ASSERT_TRUE(vs->CheckInvariants().ok());
  auto again = vs->ReadAtomic(status, s1, &observed);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again).AsInt(), value_at_s1);
  // Once s1 ends the watermark advances and the sweep reclaims the tail.
  const uint64_t reclaimed_before = vs->stats().versions_reclaimed;
  vs->EndSnapshot(s1);
  vs->SweepVersions();
  EXPECT_GT(vs->stats().versions_reclaimed, reclaimed_before);
  Status inv = vs->CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

TEST_F(MvccTest, ObjectAssemblyRunsOnSnapshot) {
  Oid item = data.item_oids[0];
  auto r = db.RunReadTransaction("q", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(auto assembled, query::Assemble(ctx, item, 8));
    EXPECT_GT(assembled->NodeCount(), 6u);
    SEMCC_ASSIGN_OR_RETURN(query::PathExpr path,
                           query::PathExpr::Parse("Orders[1].Status"));
    SEMCC_ASSIGN_OR_RETURN(std::vector<Value> vals,
                           path.ReadValues(ctx, item));
    EXPECT_EQ(vals.size(), 1u);
    return Value();
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db.locks()->stats().acquires, 0u);
}

// Two atoms updated together in one transaction must never be observed
// unequal by a snapshot — the all-or-nothing property of commit groups.
TEST(MvccStress, TornSnapshotInvariantAndChainBound) {
  Database db(MvccOptions());
  auto number = db.schema()->DefineAtomicType("N").ValueOrDie();
  Oid x = db.store()->CreateAtomic(number, Value(int64_t{0})).ValueOrDie();
  Oid y = db.store()->CreateAtomic(number, Value(int64_t{0})).ValueOrDie();
  db.history()->SetEnabled(false);  // long run: do not accumulate trees
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kWritesEach = 120;
  constexpr int kReadsEach = 240;
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kWritesEach; ++i) {
        const int64_t v = w * kWritesEach + i + 1;
        auto r = db.RunTransaction("W", [&](TxnCtx& ctx) -> Result<Value> {
          SEMCC_RETURN_NOT_OK(ctx.Put(x, Value(v)));
          SEMCC_RETURN_NOT_OK(ctx.Put(y, Value(v)));
          return Value();
        });
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (int rd = 0; rd < kReaders; ++rd) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsEach; ++i) {
        auto r = db.RunReadTransaction("R", [&](TxnCtx& ctx) -> Result<Value> {
          SEMCC_ASSIGN_OR_RETURN(Value vx, ctx.Get(x));
          SEMCC_ASSIGN_OR_RETURN(Value vy, ctx.Get(y));
          if (vx.AsInt() != vy.AsInt()) torn.fetch_add(1);
          return vx;
        });
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u) << "snapshot observed a torn transaction";
  // Quiesce: every snapshot ended, every writer finished. The sweep must
  // reduce every chain to its boundary and the invariants (strictly
  // descending ts, <= 1 version at or below the watermark) must hold —
  // the hard bound on chain growth.
  VersionedObjectStore* vs = db.versions();
  vs->SweepVersions();
  Status inv = vs->CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  const VersionStats stats = vs->stats();
  EXPECT_GT(stats.versions_installed, 0u);
  EXPECT_GT(stats.versions_reclaimed, 0u);
  // All but the boundary version of the two chains is reclaimable.
  EXPECT_GE(stats.versions_reclaimed + 2, stats.versions_installed);
}

// The same single-threaded workload must leave identical database state
// under every flag combination: mvcc_reads only changes how read-only
// transactions read, never what the write path does.
TEST(MvccAblation, WritePathIsFlagInvariant) {
  struct Combo {
    bool mvcc;
    bool debug_checks;
  };
  const Combo combos[] = {
      {false, false}, {true, false}, {false, true}, {true, true}};
  std::vector<int64_t> totals;
  std::vector<uint64_t> commits;
  for (const Combo& combo : combos) {
    DatabaseOptions o;
    o.protocol.mvcc_reads = combo.mvcc;
    o.protocol.debug_lock_checks = combo.debug_checks;
    Database db(o);
    auto types = Install(&db).ValueOrDie();
    WorkloadOptions wopts;
    wopts.load.num_items = 4;
    wopts.load.orders_per_item = 4;
    wopts.load.pre_paid = 0.25;
    wopts.load.pre_shipped = 0.25;
    wopts.seed = 99;
    wopts.snapshot_readers = true;  // readers go through RunReadTransaction
    wopts.t5_double_scan = true;
    OrderEntryWorkload workload(&db, types, wopts);
    ASSERT_TRUE(workload.Setup().ok());
    auto state = workload.MakeWorkerState(0);
    for (int i = 0; i < 150; ++i) (void)workload.RunOne(state.get());
    // Single-threaded and same seed: every combo runs the identical op
    // sequence, so commit counts and final state must match exactly.
    commits.push_back(state->committed);
    totals.push_back(workload.TotalPaymentAllItems().ValueOrDie());
    if (combo.mvcc) {
      EXPECT_GT(db.versions()->stats().snapshots, 0u);
    }
  }
  for (size_t i = 1; i < totals.size(); ++i) {
    EXPECT_EQ(totals[i], totals[0]) << "flag combo " << i;
    EXPECT_EQ(commits[i], commits[0]) << "flag combo " << i;
  }
}

// End-to-end: concurrent writers + snapshot readers, then validate every
// snapshot read against the version install log — each snapshot must have
// read exactly the committed prefix at its timestamp.
TEST(MvccStress, SnapshotReadsValidateAgainstInstallLog) {
  Database db(MvccOptions());
  auto types = Install(&db).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 4;
  Database* dbp = &db;
  LoadedData data = Load(&db, types, spec).ValueOrDie();
  db.versions()->SetInstallLogEnabled(true);
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([dbp, &data, w] {
      for (int i = 0; i < 40; ++i) {
        Oid item = data.item_oids[static_cast<size_t>((w + i) % 2)];
        const int64_t order = i % 4 + 1;
        auto r = dbp->RunTransaction(
            "T", [&](TxnCtx& ctx) -> Result<Value> {
              return ctx.Invoke(item, i % 2 == 0 ? "ShipOrder" : "PayOrder",
                                {Value(order)});
            });
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (int rd = 0; rd < 2; ++rd) {
    threads.emplace_back([dbp, &data] {
      for (int i = 0; i < 60; ++i) {
        Oid item = data.item_oids[static_cast<size_t>(i % 2)];
        auto r = dbp->RunReadTransaction("T5", T5_TotalPayment(item));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto result = CheckSnapshotReads(dbp->history()->Snapshot(),
                                   dbp->versions()->InstallLog());
  EXPECT_TRUE(result.serializable) << result.ToString();
  EXPECT_FALSE(result.serial_order.empty());  // snapshots were checked
}

}  // namespace
}  // namespace semcc

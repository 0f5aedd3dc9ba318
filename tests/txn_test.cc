// Tests for the Figure 8 execution engine: transaction lifecycle, method
// invocation trees, abort with semantic compensation, and retry handling.
#include <gtest/gtest.h>

#include <thread>

#include "app/orderentry/order_entry.h"
#include "core/database.h"
#include "core/serializability.h"
#include "util/sync.h"

namespace semcc {
namespace {

using namespace orderentry;

struct TxnTestBase : public ::testing::Test {
  void SetUp() override {
    types = Install(&db).ValueOrDie();
    LoadSpec spec;
    spec.num_items = 4;
    spec.orders_per_item = 3;
    spec.initial_qoh = 1000;
    data = Load(&db, types, spec).ValueOrDie();
  }
  Database db;
  OrderEntryTypes types;
  LoadedData data;
};

TEST_F(TxnTestBase, CommitReleasesEverything) {
  Oid item = data.item_oids[0];
  auto r = db.RunTransaction("t", T1_ShipTwoOrders(item, 1, data.item_oids[1], 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db.locks()->LocksOn(LockTarget::ForObject(item)).size(), 0u);
  EXPECT_EQ(db.txns()->stats().commits, 1u);
}

TEST_F(TxnTestBase, MethodTreesAreRecorded) {
  Oid item = data.item_oids[0];
  ASSERT_TRUE(db.RunTransaction("t", T5_TotalPayment(item)).ok());
  auto history = db.history()->Snapshot();
  ASSERT_EQ(history.size(), 1u);
  const TxnRecord& txn = history[0];
  EXPECT_TRUE(txn.committed);
  // Root + TotalPayment + Get(Price) + Scan + 3x Get(Status): >= 7 actions.
  EXPECT_GE(txn.actions.size(), 7u);
  // The TotalPayment node is a child of the root acting on the item.
  bool found = false;
  for (const ActionRecord& a : txn.actions) {
    if (a.method == "TotalPayment") {
      found = true;
      EXPECT_EQ(a.object, item);
      EXPECT_EQ(a.depth, 1);
      EXPECT_GT(a.end_seq, a.grant_seq);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TxnTestBase, ApplicationErrorAborts) {
  Oid item = data.item_oids[0];
  auto r = db.RunTransaction("bad", [&](TxnCtx& ctx) -> Result<Value> {
    // Order 99 does not exist -> NotFound, not retried.
    return ctx.Invoke(item, "ShipOrder", {Value(int64_t{99})});
  });
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(db.txns()->stats().aborts, 1u);
  EXPECT_EQ(db.txns()->stats().commits, 0u);
  EXPECT_EQ(db.txns()->stats().app_errors, 1u);
  auto history = db.history()->Snapshot();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_FALSE(history[0].committed);
}

TEST_F(TxnTestBase, AbortCompensatesShipOrder) {
  Oid item = data.item_oids[0];
  const int64_t qoh_before = ReadQohRaw(&db, item).ValueOrDie();
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a, ctx.Invoke(item, "ShipOrder", {Value(1)}));
    (void)a;
    // Fail after the first action: ShipOrder(1) committed, must compensate.
    return ctx.Invoke(item, "ShipOrder", {Value(int64_t{99})});
  });
  EXPECT_TRUE(r.status().IsNotFound());
  // QuantityOnHand restored; order 1's shipped bit cleared.
  EXPECT_EQ(ReadQohRaw(&db, item).ValueOrDie(), qoh_before);
  Oid o1 = FindOrder(&db, item, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(&db, o1).ValueOrDie() & kEventShippedBit, 0);
}

TEST_F(TxnTestBase, AbortCompensatesNewOrder) {
  Oid item = data.item_oids[0];
  Oid orders = db.store()->Component(item, "Orders").ValueOrDie();
  const size_t before = db.store()->SetSize(orders).ValueOrDie();
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value ono,
                           ctx.Invoke(item, "NewOrder", {Value(42), Value(5)}));
    EXPECT_EQ(ono.AsInt(), 4);  // 3 pre-loaded orders
    return Status::PreconditionFailed("changed my mind");
  });
  EXPECT_TRUE(r.status().IsPreconditionFailed());
  // The order is gone again.
  EXPECT_EQ(db.store()->SetSize(orders).ValueOrDie(), before);
  EXPECT_TRUE(db.store()->SetSelect(orders, Value(4)).status().IsNotFound());
}

TEST_F(TxnTestBase, CompensationIsSemanticNotPhysical) {
  // The multilevel recovery property: aborting T_a must not wipe out a
  // commuting update of T_b that committed *after* T_a's subtransaction.
  Oid item = data.item_oids[0];
  Oid o1 = FindOrder(&db, item, 1).ValueOrDie();
  ScriptedSchedule sched;
  std::thread ta([&]() {
    auto r = db.RunTransactionOnce("Ta", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a, ctx.Invoke(item, "ShipOrder", {Value(1)}));
      (void)a;
      sched.Signal("shipped");
      sched.WaitFor("paid", std::chrono::milliseconds(2000));
      return Status::PreconditionFailed("force abort");  // now compensate
    });
    EXPECT_TRUE(r.status().IsPreconditionFailed());
  });
  std::thread tb([&]() {
    sched.WaitFor("shipped");
    // PayOrder commutes with ShipOrder; it interleaves and commits.
    auto r = db.RunTransaction("Tb", T2_PayTwoOrders(item, 1, data.item_oids[1], 1));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    sched.Signal("paid");
  });
  ta.join();
  tb.join();
  const int64_t status = ReadStatusRaw(&db, o1).ValueOrDie();
  // Ta's shipped bit was compensated away; Tb's paid bit SURVIVES. A
  // physical (value-restoring) undo would have erased it.
  EXPECT_EQ(status & kEventShippedBit, 0);
  EXPECT_EQ(status & kEventPaidBit, kEventPaidBit);
}

TEST_F(TxnTestBase, NestedCompensationUnwindsInReverseOrder) {
  Oid item1 = data.item_oids[0];
  Oid item2 = data.item_oids[1];
  const int64_t qoh1 = ReadQohRaw(&db, item1).ValueOrDie();
  const int64_t qoh2 = ReadQohRaw(&db, item2).ValueOrDie();
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a, ctx.Invoke(item1, "ShipOrder", {Value(1)}));
    SEMCC_ASSIGN_OR_RETURN(Value b, ctx.Invoke(item2, "ShipOrder", {Value(2)}));
    SEMCC_ASSIGN_OR_RETURN(Value c,
                           ctx.Invoke(item1, "NewOrder", {Value(7), Value(3)}));
    (void)a;
    (void)b;
    (void)c;
    return Status::PreconditionFailed("abort after three updates");
  });
  EXPECT_TRUE(r.status().IsPreconditionFailed());
  EXPECT_EQ(ReadQohRaw(&db, item1).ValueOrDie(), qoh1);
  EXPECT_EQ(ReadQohRaw(&db, item2).ValueOrDie(), qoh2);
  Oid orders1 = db.store()->Component(item1, "Orders").ValueOrDie();
  EXPECT_EQ(db.store()->SetSize(orders1).ValueOrDie(), 3u);
}

TEST_F(TxnTestBase, CompensationActionsAreMarkedInHistory) {
  Oid item = data.item_oids[0];
  (void)db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a, ctx.Invoke(item, "ShipOrder", {Value(1)}));
    (void)a;
    return Status::PreconditionFailed("x");
  });
  auto history = db.history()->Snapshot();
  ASSERT_EQ(history.size(), 1u);
  bool saw_compensation = false;
  for (const ActionRecord& a : history[0].actions) {
    if (a.compensation && a.method == "UnchangeStatus") saw_compensation = true;
  }
  EXPECT_TRUE(saw_compensation);
}

TEST_F(TxnTestBase, RunOnceDoesNotRetry) {
  // Self-conflicting methods on one item; RunOnce surfaces system aborts.
  Oid item = data.item_oids[0];
  ScriptedSchedule sched;
  std::thread holder([&]() {
    (void)db.RunTransactionOnce("hold", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a, ctx.Invoke(item, "ShipOrder", {Value(1)}));
      (void)a;
      sched.Signal("held");
      sched.WaitFor("probe.done", std::chrono::milliseconds(3000));
      return Value();
    });
  });
  sched.WaitFor("held");
  // A conflicting ShipOrder from another txn with a tiny timeout: TimedOut.
  DatabaseOptions small;
  (void)small;
  auto r = db.RunTransactionOnce("probe", [&](TxnCtx& ctx) -> Result<Value> {
    return ctx.Invoke(item, "ShipOrder", {Value(2)});
  });
  // Either it waited for commit (holder still parked -> timeout at 10s is
  // too long; the holder releases when we signal). Simplest: signal, then
  // the probe acquires after the holder commits.
  sched.Signal("probe.done");
  holder.join();
  // The probe ran concurrently with the holder; whichever way the race went
  // it must not have committed out of order: accept ok or timeout.
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsTimedOut() || r.status().IsAborted())
        << r.status().ToString();
  }
}

TEST_F(TxnTestBase, RetriesRecoverFromDeadlocks) {
  // Two transactions shipping the same two orders in opposite item order —
  // classic deadlock; Run() retries until both commit.
  Oid i1 = data.item_oids[0];
  Oid i2 = data.item_oids[1];
  std::thread a([&]() {
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(db.RunTransaction("a", T1_ShipTwoOrders(i1, 1, i2, 1)).ok());
    }
  });
  std::thread b([&]() {
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(db.RunTransaction("b", T1_ShipTwoOrders(i2, 1, i1, 1)).ok());
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(db.txns()->stats().commits, 40u);
  SemanticSerializabilityChecker checker(db.compat());
  auto check = checker.Check(db.history()->Snapshot());
  EXPECT_TRUE(check.serializable) << check.ToString();
}

TEST_F(TxnTestBase, MethodOnWrongTypeFails) {
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    Oid o1 = FindOrder(&db, data.item_oids[0], 1).ValueOrDie();
    return ctx.Invoke(o1, "ShipOrder", {Value(1)});  // Order has no ShipOrder
  });
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(TxnTestBase, UpdateMethodWithoutInverseRejectedAtRegistration) {
  MethodDef def;
  def.type = types.item;
  def.name = "Broken";
  def.read_only = false;
  def.body = [](TxnCtx&, Oid, const Args&) -> Result<Value> { return Value(); };
  EXPECT_TRUE(db.RegisterMethod(std::move(def)).IsInvalidArgument());
}

TEST_F(TxnTestBase, HistoryCanBeDisabled) {
  db.history()->Clear();
  db.history()->SetEnabled(false);
  ASSERT_TRUE(db.RunTransaction("t", T5_TotalPayment(data.item_oids[0])).ok());
  EXPECT_EQ(db.history()->size(), 0u);
}

/// Logger whose commit force always fails, counting what it is told.
class FailingCommitLogger : public ActionLogger {
 public:
  explicit FailingCommitLogger(Status failure) : failure_(std::move(failure)) {}
  void OnTxnBegin(TxnId) override { ++begins; }
  Status OnTxnCommit(TxnId) override {
    ++commits;
    return failure_;
  }
  void OnTxnAbort(TxnId) override { ++aborts; }
  void OnMethodCommitted(const SubTxn&, const Value&) override { ++records; }
  void OnLeafPut(const SubTxn&, const Value&) override { ++records; }
  void OnLeafSetInsert(const SubTxn&) override { ++records; }
  void OnLeafSetRemove(const SubTxn&, Oid) override { ++records; }

  int begins = 0, commits = 0, aborts = 0, records = 0;

 private:
  const Status failure_;
};

TEST_F(TxnTestBase, FailedCommitForceIsReturnedNotRetried) {
  FailingCommitLogger logger(Status::IOError("log device lost"));
  TxnManager txns(db.store(), db.locks(), db.methods(), /*recorder=*/nullptr,
                  &logger);
  Oid a = data.item_oids[0];
  Oid b = data.item_oids[1];

  // A read-only body logs nothing, so it has nothing to force.
  auto read = txns.RunOnce("t4", T4_CheckPayment(a, 1, b, 1));
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(logger.begins + logger.records + logger.commits, 0);

  // A writer logs its begin and updates, then reports the failed force.
  auto write = txns.RunOnce("t2", T2_PayTwoOrders(a, 1, b, 1));
  EXPECT_TRUE(write.status().IsIOError()) << write.status().ToString();
  EXPECT_EQ(logger.begins, 1);
  EXPECT_GT(logger.records, 0);
  EXPECT_EQ(logger.commits, 1);
  EXPECT_EQ(logger.aborts, 0);
  // Committed in memory all the same: its locks are gone.
  EXPECT_EQ(db.locks()->LocksOn(LockTarget::ForObject(a)).size(), 0u);

  // Run does not retry it, even when the failure has a retryable code (a
  // stopped group flusher reports Aborted): the updates already applied.
  FailingCommitLogger aborted(Status::Aborted("log flusher stopped"));
  TxnManager txns2(db.store(), db.locks(), db.methods(), nullptr, &aborted);
  auto again = txns2.Run("t1", T1_ShipTwoOrders(a, 2, b, 2));
  EXPECT_TRUE(again.status().IsAborted()) << again.status().ToString();
  EXPECT_EQ(aborted.commits, 1);
  EXPECT_EQ(txns2.stats().retries, 0u);
  EXPECT_EQ(txns2.stats().commits, 1u);
}

}  // namespace
}  // namespace semcc

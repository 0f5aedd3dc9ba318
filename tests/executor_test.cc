// Figure 8 execution-engine edge cases: deep nesting, bypass mixtures,
// protocol variants over identical bodies, and error propagation.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "core/database.h"
#include "core/serializability.h"
#include "util/sync.h"

namespace semcc {
namespace {

using namespace orderentry;

struct ExecutorTest : public ::testing::Test {
  void SetUp() override {
    types = Install(&db).ValueOrDie();
    LoadSpec spec;
    spec.num_items = 2;
    spec.orders_per_item = 2;
    data = Load(&db, types, spec).ValueOrDie();
  }
  Database db;
  OrderEntryTypes types;
  LoadedData data;
};

TEST_F(ExecutorTest, ThreeLevelInvocationTreeHasCorrectDepths) {
  // root (0) -> ShipOrder (1) -> ChangeStatus (2) -> Get/Put (3)
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) {
                  return ctx.Invoke(data.item_oids[0], "ShipOrder", {Value(1)});
                }).ok());
  const TxnRecord txn = db.history()->Snapshot()[0];
  int max_depth = 0;
  for (const ActionRecord& a : txn.actions) max_depth = std::max(max_depth, a.depth);
  EXPECT_EQ(max_depth, 3);
}

TEST_F(ExecutorTest, MethodDefinedViaAnotherMethodNestsFourLevels) {
  // Register an Item method that invokes ShipOrder (method -> method ->
  // method -> leaves): arbitrary nesting, no layering restriction (the
  // paper's §1.2 point against strictly layered multilevel transactions).
  ASSERT_TRUE(db.RegisterMethod(
                    {types.item, "ShipFirstTwo", false,
                     [](TxnCtx& ctx, Oid self, const Args&) -> Result<Value> {
                       SEMCC_ASSIGN_OR_RETURN(
                           Value a, ctx.Invoke(self, "ShipOrder", {Value(1)}));
                       (void)a;
                       return ctx.Invoke(self, "ShipOrder", {Value(2)});
                     },
                     [](TxnCtx& ctx, Oid self, const Args&, const Value&) {
                       auto r1 = ctx.Invoke(self, "UnshipHelper", {Value(1)});
                       auto r2 = ctx.Invoke(self, "UnshipHelper", {Value(2)});
                       return r1.ok() ? (r2.ok() ? Status::OK() : r2.status())
                                      : r1.status();
                     }})
                  .ok());
  ASSERT_TRUE(db.RegisterMethod(
                    {types.item, "UnshipHelper", false,
                     [](TxnCtx& ctx, Oid self, const Args& a) -> Result<Value> {
                       SEMCC_ASSIGN_OR_RETURN(Oid orders,
                                              ctx.Component(self, "Orders"));
                       SEMCC_ASSIGN_OR_RETURN(Oid order,
                                              ctx.SetSelect(orders, a[0]));
                       return ctx.Invoke(order, "UnchangeStatus",
                                         {Value(kShipped)});
                     },
                     [](TxnCtx&, Oid, const Args&, const Value&) {
                       return Status::OK();
                     }})
                  .ok());
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) {
                  return ctx.Invoke(data.item_oids[0], "ShipFirstTwo", {});
                }).ok());
  const TxnRecord txn = db.history()->Snapshot()[0];
  int max_depth = 0;
  for (const ActionRecord& a : txn.actions) max_depth = std::max(max_depth, a.depth);
  EXPECT_EQ(max_depth, 4);  // root>ShipFirstTwo>ShipOrder>ChangeStatus>leaf
  Oid o1 = FindOrder(&db, data.item_oids[0], 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(&db, o1).ValueOrDie(), kEventShippedBit);
}

TEST_F(ExecutorTest, MixedMethodAndBypassInOneTransaction) {
  // One transaction both invokes methods AND bypasses (generic ops).
  auto r = db.RunTransaction("mixed", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a,
                           ctx.Invoke(data.item_oids[0], "PayOrder", {Value(1)}));
    (void)a;
    // Direct (bypassing) read of the same order's status.
    SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(data.item_oids[0], "Orders"));
    SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, Value(1)));
    SEMCC_ASSIGN_OR_RETURN(Value status, ctx.GetField(order, "Status"));
    return status;
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sees its own committed subtransaction's effect (same-root locks never
  // block, retained or not).
  EXPECT_EQ(r.ValueOrDie().AsInt(), kEventPaidBit);
}

TEST_F(ExecutorTest, ErrorInDeepLeafPropagatesToTop) {
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    return ctx.Invoke(data.item_oids[0], "ShipOrder",
                      {Value(int64_t{12345})});  // no such order
  });
  EXPECT_TRUE(r.status().IsNotFound());
  const TxnRecord txn = db.history()->Snapshot()[0];
  EXPECT_FALSE(txn.committed);
  // The ShipOrder node is recorded as aborted, its Select leaf too.
  bool ship_aborted = false;
  for (const ActionRecord& a : txn.actions) {
    if (a.method == "ShipOrder") {
      EXPECT_EQ(a.final_state, TxnState::kAborted);
      ship_aborted = true;
    }
  }
  EXPECT_TRUE(ship_aborted);
}

TEST_F(ExecutorTest, InvokeOnUnknownObjectFails) {
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) {
    return ctx.Invoke(999999, "ShipOrder", {Value(1)});
  });
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ExecutorTest, GetOnTupleObjectRejected) {
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    return ctx.Get(data.item_oids[0]);  // item is a tuple, not an atom
  });
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(ExecutorTest, SameBodyRunsUnderEveryProtocol) {
  for (Protocol protocol :
       {Protocol::kSemanticONT, Protocol::kSemanticNoAncestorWalk,
        Protocol::kSemanticNoRetainedLocks, Protocol::kClosedNested,
        Protocol::kFlat2PLObject, Protocol::kFlat2PLRecord,
        Protocol::kFlat2PLPage}) {
    DatabaseOptions options;
    options.protocol.protocol = protocol;
    Database db2(options);
    auto types2 = Install(&db2).ValueOrDie();
    LoadSpec spec;
    spec.num_items = 2;
    spec.orders_per_item = 2;
    spec.initial_qoh = 10;
    auto data2 = Load(&db2, types2, spec).ValueOrDie();
    const Oid item = data2.item_oids[0];
    const Oid qoh = db2.store()->Component(item, "QuantityOnHand").ValueOrDie();
    const LockTarget qoh_targets[] = {
        LockTarget::ForObject(qoh),
        LockTarget::ForRecord(db2.store()->RidOf(qoh).ValueOrDie()),
        LockTarget::ForPage(db2.store()->PageOf(qoh).ValueOrDie())};
    const LockTarget& named =
        protocol == Protocol::kFlat2PLRecord ? qoh_targets[1]
        : protocol == Protocol::kFlat2PLPage ? qoh_targets[2]
                                             : qoh_targets[0];
    auto r = db2.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value shipped,
                             ctx.Invoke(item, "ShipOrder", {Value(1)}));
      (void)shipped;
      // Only the semantic values lock the method's own object.
      EXPECT_EQ(!db2.locks()->LocksOn(LockTarget::ForObject(item)).empty(),
                IsSemantic(protocol))
          << ProtocolName(protocol);
      // The QuantityOnHand leaf is locked in the space the value names,
      // except under the §3 protocol, which dropped it when ShipOrder
      // completed.
      for (const LockTarget& target : qoh_targets) {
        EXPECT_EQ(!db2.locks()->LocksOn(target).empty(),
                  &target == &named &&
                      protocol != Protocol::kSemanticNoRetainedLocks)
            << ProtocolName(protocol) << " " << target.ToString();
      }
      return ctx.Invoke(data2.item_oids[1], "ShipOrder", {Value(1)});
    });
    ASSERT_TRUE(r.ok()) << ProtocolName(protocol);
    EXPECT_LT(ReadQohRaw(&db2, item).ValueOrDie(), 10)
        << ProtocolName(protocol);
  }
}

TEST_F(ExecutorTest, AbortDuringCompensationIsSurvivable) {
  // Destroy the order between the forward action and the abort: ShipOrder's
  // inverse will fail to find it. The transaction must still finish its
  // abort (best-effort compensation) without hanging or crashing.
  Oid item = data.item_oids[0];
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a, ctx.Invoke(item, "ShipOrder", {Value(1)}));
    (void)a;
    // Sabotage: remove the order out from under the pending compensation.
    SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(item, "Orders"));
    SEMCC_RETURN_NOT_OK(ctx.SetRemove(orders, Value(1)));
    return Status::PreconditionFailed("now abort");
  });
  EXPECT_TRUE(r.status().IsPreconditionFailed());
  // The SetRemove leaf undo re-inserted the order; ShipOrder's inverse ran
  // afterwards (reverse order) and found it again.
  Oid o1 = FindOrder(&db, item, 1).ValueOrDie();
  EXPECT_EQ(ReadStatusRaw(&db, o1).ValueOrDie(), 0);
  EXPECT_EQ(db.Stats().txns.compensation_failures, 0u);
}

TEST_F(ExecutorTest, FailedCompensationIsCountedAndAbortStillCompletes) {
  ASSERT_TRUE(db.RegisterMethod(
                    {types.item, "Irreversible", false,
                     [](TxnCtx&, Oid, const Args&) -> Result<Value> {
                       return Value(int64_t{1});
                     },
                     [](TxnCtx&, Oid, const Args&, const Value&) {
                       return Status::Internal("inverse refuses");
                     }})
                  .ok());
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value v,
                           ctx.Invoke(data.item_oids[0], "Irreversible", {}));
    (void)v;
    return Status::PreconditionFailed("now abort");
  });
  EXPECT_TRUE(r.status().IsPreconditionFailed());
  const DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.txns.compensation_failures, 1u);
  EXPECT_EQ(stats.txns.aborts, 1u);
  EXPECT_EQ(stats.locks.granted_entries, stats.locks.released_entries);
}

TEST_F(ExecutorTest, EmptyTransactionCommits) {
  auto r = db.RunTransaction("noop", [&](TxnCtx&) -> Result<Value> {
    return Value(int64_t{42});
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().AsInt(), 42);
  const TxnRecord txn = db.history()->Snapshot()[0];
  EXPECT_EQ(txn.actions.size(), 1u);  // just the root
}

TEST_F(ExecutorTest, ScanReflectsOwnInserts) {
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value ono,
                           ctx.Invoke(data.item_oids[0], "NewOrder",
                                      {Value(9), Value(1)}));
    SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(data.item_oids[0], "Orders"));
    SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(orders));
    EXPECT_EQ(members.size(), 3u);  // 2 loaded + own new order
    return ono;
  });
  ASSERT_TRUE(r.ok());
}

TEST_F(ExecutorTest, SetMemberAndRangeScanLockOnlyTheKeysTheyRead) {
  Oid orders = kInvalidOid;
  bool has1 = false;
  bool has9 = true;
  std::vector<std::pair<Value, Oid>> range;
  auto r = db.RunTransaction("read", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(orders, ctx.Component(data.item_oids[0], "Orders"));
    SEMCC_ASSIGN_OR_RETURN(has1, ctx.SetMember(orders, Value(1)));
    SEMCC_ASSIGN_OR_RETURN(has9, ctx.SetMember(orders, Value(9)));
    SEMCC_ASSIGN_OR_RETURN(range, ctx.SetRangeScan(orders, Value(2), Value(5)));
    return Value();
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(has1);
  EXPECT_FALSE(has9);
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].first.AsInt(), 2);
  const Oid order1 = FindOrder(&db, data.item_oids[0], 1).ValueOrDie();

  // T1 holds an uncommitted Insert(7) on the set until T3 has blocked.
  ScriptedSchedule sched;
  std::thread t1([&]() {
    auto r1 = db.RunTransactionOnce("t1", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_RETURN_NOT_OK(ctx.SetInsert(orders, Value(7), order1));
      sched.Signal("inserted");
      sched.WaitFor("t3.blocked");
      return Value();
    });
    EXPECT_TRUE(r1.ok()) << r1.status().ToString();
  });
  sched.WaitFor("inserted");
  const LockStats before = db.locks()->stats();

  // Keys other than 7 commute with the insert: granted without a wait.
  auto r2 = db.RunTransaction("t2", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(range, ctx.SetRangeScan(orders, Value(1), Value(2)));
    SEMCC_ASSIGN_OR_RETURN(has9, ctx.SetMember(orders, Value(9)));
    return Value();
  });
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(range.size(), 2u);
  EXPECT_FALSE(has9);
  const LockStats after_t2 = db.locks()->stats();
  EXPECT_EQ(after_t2.blocked_acquires, before.blocked_acquires);
  EXPECT_EQ(after_t2.root_waits, before.root_waits);

  // Member(7) conflicts with the insert, and the insert's only ancestor is
  // T1's root: T3 waits for T1's commit, then sees the new member.
  Result<Value> r3 = Value();
  std::thread t3([&]() {
    r3 = db.RunTransaction("t3", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(bool has7, ctx.SetMember(orders, Value(7)));
      return Value(int64_t{has7 ? 1 : 0});
    });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db.locks()->stats().blocked_acquires == before.blocked_acquires &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Signal("t3.blocked");
  t1.join();
  t3.join();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3.ValueOrDie().AsInt(), 1);
  const LockStats ls = db.locks()->stats();
  EXPECT_EQ(ls.blocked_acquires - before.blocked_acquires, 1u);
  EXPECT_EQ(ls.root_waits - before.root_waits, 1u);
}

}  // namespace
}  // namespace semcc

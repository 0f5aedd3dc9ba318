// Tests for the debug lock-invariant checker (cc/lock_invariants.h):
// the lock-order graph in isolation, the checker's clean bill of health on
// protocol-conformant runs (retained locks, Case-1 grants, a full workload),
// and the detection of a forced lock-order inversion.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>

#include "app/orderentry/workload.h"
#include "cc/compatibility.h"
#include "cc/lock_invariants.h"
#include "cc/lock_manager.h"
#include "cc/subtxn.h"
#include "core/database.h"

namespace semcc {
namespace {

// --- LockOrderGraph unit tests -------------------------------------------

TEST(LockOrderGraph, ChainsStayAcyclic) {
  LockOrderGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_TRUE(g.AddEdge(1, 3));  // shortcut along existing order: fine
  EXPECT_TRUE(g.AddEdge(3, 4));
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.Reachable(1, 4));
  EXPECT_FALSE(g.Reachable(4, 1));
}

TEST(LockOrderGraph, ClosingEdgeIsAnInversion) {
  LockOrderGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_FALSE(g.AddEdge(3, 1));  // closes 1 -> 2 -> 3 -> 1
  // The edge is recorded anyway, so the same inversion reports only once.
  EXPECT_TRUE(g.AddEdge(3, 1));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(LockOrderGraph, SelfEdgeAndClearAreNoops) {
  LockOrderGraph g;
  EXPECT_TRUE(g.AddEdge(7, 7));  // re-acquisition, never an edge
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.AddEdge(1, 2));
  g.Clear();
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.AddEdge(2, 1));  // no longer an inversion after Clear
}

// --- checker over hand-built transaction trees ---------------------------

constexpr TypeId kItemT = 1;
constexpr TypeId kAtomT = 2;
constexpr Oid kObjA = 100;
constexpr Oid kObjB = 200;

// Parameterized over (shard count, fast-path flag mask): the whole suite
// must hold for the default sharded table AND for lock_table_shards = 1 (the
// single-shard configuration equivalent to the pre-sharding lock manager).
// The flag mask is always 0. The suite once also ran under masks 2 and 15
// of the four §5.4 fast-path mechanisms; with those deleted, mask 0 (none
// of them) is the one acquire path left, and keeping it in the parameter
// keeps the `shards<N>_flags0` test IDs unchanged.
struct LockInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
  LockInvariantTest() {
    compat.Define(kItemT, "Ma", "Mb", true);
    compat.Define(kItemT, "Ma", "Ma", false);
    compat.Define(kItemT, "Mb", "Mb", true);
  }

  std::unique_ptr<LockManager> Make() {
    ProtocolOptions o;
    o.debug_lock_checks = true;  // force on even in release builds
    o.wait_timeout = std::chrono::milliseconds(2000);
    o.lock_table_shards = std::get<0>(GetParam());
    return std::make_unique<LockManager>(o, &compat);
  }

  void Complete(LockManager* lm, SubTxn* t) {
    t->set_state(TxnState::kCommitted);
    lm->OnSubTxnCompleted(t);
  }

  CompatibilityRegistry compat;
};

TEST_P(LockInvariantTest, RetainedLocksPassTheChecker) {
  auto lm = Make();
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put = t1.NewNode(ma, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), put);
  Complete(lm.get(), ma);
  // Both locks are now retained (owners completed, entries granted): the
  // §4.1 invariant the checker must accept.
  for (const auto& info : lm->LocksOn(LockTarget::ForObject(kObjB))) {
    EXPECT_TRUE(info.granted);
    EXPECT_TRUE(info.retained);
  }
  EXPECT_GT(lm->invariant_stats().checks.load(), 0u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
  EXPECT_EQ(lm->invariant_stats().leaked_locks.load(), 0u);
}

TEST_P(LockInvariantTest, Case1GrantPathPassesTheChecker) {
  auto lm = Make();
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put = t1.NewNode(ma, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), put);
  Complete(lm.get(), ma);  // committed commuting ancestor -> Case 1

  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* mb = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* get = t2.NewNode(mb, kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(mb, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(get, LockTarget::ForObject(kObjB), false).ok());
  EXPECT_GE(lm->stats().case1_grants, 1u);
  // The grant re-check must accept the Case-1 verdict, not flag it.
  EXPECT_EQ(lm->invariant_stats().grant_violations.load(), 0u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t2.root());
  lm->ReleaseTree(t1.root());
  EXPECT_EQ(lm->invariant_stats().protocol_violations(), 0u);
}

TEST_P(LockInvariantTest, ForcedLockOrderInversionIsCounted) {
  auto lm = Make();
  // T1 locks A then B; T2 locks B then A. All four methods commute, so both
  // transactions get their grants without blocking — a silent inversion of
  // acquisition order that only the order graph notices.
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b1 = t1.NewNode(t1.root(), kObjB, kItemT, "Mb", {});
  SubTxn* b2 = t2.NewNode(t2.root(), kObjB, kItemT, "Mb", {});
  SubTxn* a2 = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(b1, LockTarget::ForObject(kObjB), true).ok());
  ASSERT_TRUE(lm->Acquire(b2, LockTarget::ForObject(kObjB), true).ok());
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(kObjA), true).ok());
  EXPECT_GE(lm->invariant_stats().order_inversions.load(), 1u);
  // An inversion is a diagnostic, not a protocol violation.
  EXPECT_EQ(lm->invariant_stats().protocol_violations(), 0u);
  lm->ReleaseTree(t1.root());
  lm->ReleaseTree(t2.root());
}

TEST_P(LockInvariantTest, ConsistentOrderProducesNoInversions) {
  auto lm = Make();
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b1 = t1.NewNode(t1.root(), kObjB, kItemT, "Mb", {});
  SubTxn* a2 = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* b2 = t2.NewNode(t2.root(), kObjB, kItemT, "Mb", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(b1, LockTarget::ForObject(kObjB), true).ok());
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(b2, LockTarget::ForObject(kObjB), true).ok());
  EXPECT_EQ(lm->invariant_stats().order_inversions.load(), 0u);
  lm->ReleaseTree(t1.root());
  lm->ReleaseTree(t2.root());
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndFastPathConfigs, LockInvariantTest,
    ::testing::Combine(::testing::Values(1, 16), ::testing::Values(0)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_flags" +
             std::to_string(std::get<1>(info.param));
    });

// --- checker over a real concurrent workload -----------------------------

TEST(LockInvariantWorkload, MixedWorkloadRunsViolationFree) {
  DatabaseOptions dopts;
  dopts.protocol.debug_lock_checks = true;
  Database db(dopts);
  auto types = orderentry::Install(&db).ValueOrDie();
  orderentry::WorkloadOptions wopts;
  wopts.load.num_items = 4;
  wopts.load.orders_per_item = 4;
  wopts.seed = 42;
  orderentry::OrderEntryWorkload workload(&db, types, wopts);
  ASSERT_TRUE(workload.Setup().ok());
  auto result = workload.Run(4, 60);
  EXPECT_GT(result.committed, 0u);
  const LockInvariantStats& inv = db.locks()->invariant_stats();
  EXPECT_GT(inv.checks.load(), 0u) << "checker never ran";
  EXPECT_EQ(inv.protocol_violations(), 0u) << inv.ToString();
  EXPECT_EQ(db.locks()->CheckInvariantsNow(), 0u);
}

}  // namespace
}  // namespace semcc

// Unit tests for the lock manager: every branch of the paper's test-conflict
// (Figure 9) plus the baseline conflict rules, FCFS, deadlock detection,
// timeouts and parameter predicates — exercised directly on hand-built
// transaction trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "cc/subtxn.h"
#include "test_env.h"
#include "util/sync.h"

namespace semcc {
namespace {

constexpr TypeId kItemT = 1;   // "Item"-like type: methods Ma, Mb
constexpr TypeId kAtomT = 2;   // atomic leaves via generic Get/Put
constexpr TypeId kFcfsT = 3;   // Fa/Fa commute, Fa/Fb conflict, Fb/Fb conflict
constexpr TypeId kSetT = 5;    // set object via generic Insert/Remove
constexpr TypeId kKrngT = 6;   // Wr/Wr commute iff their keys differ
constexpr Oid kObjA = 100;     // an encapsulated object
constexpr Oid kObjB = 200;     // an implementation atom below it
constexpr Oid kObjC = 300;     // a set object
constexpr Oid kObjF = 400;
constexpr Oid kObjK = 500;

struct LockManagerTest : public ::testing::Test {
  LockManagerTest() {
    compat.Define(kItemT, "Ma", "Mb", true);    // commuting method pair
    compat.Define(kItemT, "Ma", "Ma", false);   // self-conflicting
    compat.Define(kItemT, "Mb", "Mb", true);
    compat.Define(kFcfsT, "Fa", "Fa", true);
    compat.Define(kFcfsT, "Fa", "Fb", false);
    compat.Define(kFcfsT, "Fb", "Fb", false);
    // A parameter predicate (§3): each Wr touches only the key args[0], so
    // Wr(1) and Wr(2) commute while Wr(1) and Wr(1) conflict.
    compat.DefinePredicate(kKrngT, "Wr", "Wr",
                           [](const Args& a, const Args& b) {
                             return !a.empty() && !b.empty() &&
                                    a[0].AsInt() != b[0].AsInt();
                           });
  }

  std::unique_ptr<LockManager> Make(ProtocolOptions o) {
    o.wait_timeout = std::chrono::milliseconds(2000);
    return std::make_unique<LockManager>(o, &compat);
  }

  static ProtocolOptions Semantic() { return ProtocolOptions{}; }

  void Complete(LockManager* lm, SubTxn* t) {
    t->set_state(TxnState::kCommitted);
    lm->OnSubTxnCompleted(t);
  }

  void Release(LockManager* lm, TxnTree* tree, TxnState final_state) {
    tree->root()->set_state(final_state);
    lm->OnSubTxnCompleted(tree->root());
    lm->ReleaseTree(tree->root());
  }

  CompatibilityRegistry compat;
};

// Acquire-path cases that once ran against the four §5.4 fast-path
// mechanisms (grant cache, entry coalescing, verdict memo, entry pool).
// Those are deleted; the cases now check the one acquire path that is left
// and keep their suite and test names, so their test IDs stay unchanged.
struct LockFastPathTest : LockManagerTest {};

TEST_F(LockManagerTest, CommutingMethodsDoNotBlock) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(b, LockTarget::ForObject(kObjA), true).ok());
  EXPECT_EQ(lm->stats().blocked_acquires, 0u);
  EXPECT_GE(lm->stats().commute_grants, 1u);
  EXPECT_EQ(lm->LocksOn(LockTarget::ForObject(kObjA)).size(), 2u);
}

TEST_F(LockManagerTest, ConflictingMethodBlocksUntilTopLevelRelease) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());
  std::atomic<bool> granted{false};
  std::thread blocked([&]() {
    Status st = lm->Acquire(b, LockTarget::ForObject(kObjA), true);
    EXPECT_TRUE(st.ok()) << st.ToString();
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(granted.load());
  EXPECT_EQ(lm->NumWaiters(), 1u);
  // Completing the holder action alone does NOT release (retained lock)...
  Complete(lm.get(), a);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(granted.load());
  // ...only top-level completion does.
  Complete(lm.get(), t1.root());
  lm->ReleaseTree(t1.root());
  blocked.join();
  EXPECT_TRUE(granted.load());
  EXPECT_GE(lm->stats().root_waits, 1u);
}

TEST_F(LockManagerTest, SameTransactionNeverBlocksItself) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});  // conflicts a
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(b, LockTarget::ForObject(kObjA), true).ok());
  EXPECT_EQ(lm->stats().blocked_acquires, 0u);
}

TEST_F(LockManagerTest, Case1CommittedCommutingAncestorGrants) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put = t1.NewNode(ma, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), put);
  Complete(lm.get(), ma);  // ancestor committed -> Case 1 applies

  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* mb = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* get = t2.NewNode(mb, kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(mb, LockTarget::ForObject(kObjA), true).ok());
  // Get conflicts with the retained Put, but (Ma, Mb) commute on kObjA and
  // Ma is committed: grant without blocking.
  ASSERT_TRUE(lm->Acquire(get, LockTarget::ForObject(kObjB), false).ok());
  EXPECT_EQ(lm->stats().blocked_acquires, 0u);
  EXPECT_GE(lm->stats().case1_grants, 1u);
}

TEST_F(LockManagerTest, Case2ActiveCommutingAncestorWaitsForItsCompletion) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put = t1.NewNode(ma, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), put);
  // Ma still active: the paper's Case 2.

  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* mb = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* get = t2.NewNode(mb, kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(mb, LockTarget::ForObject(kObjA), true).ok());
  std::atomic<bool> granted{false};
  std::thread blocked([&]() {
    EXPECT_TRUE(lm->Acquire(get, LockTarget::ForObject(kObjB), false).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(granted.load());
  // Completing just the subtransaction Ma (not the whole T1) resumes T2.
  Complete(lm.get(), ma);
  blocked.join();
  EXPECT_TRUE(granted.load());
  EXPECT_GE(lm->stats().case2_waits, 1u);
  EXPECT_FALSE(t1.root()->completed());  // T1 never committed
}

TEST_F(LockManagerTest, NoRetainModeReleasesDescendantLocksOnCompletion) {
  ProtocolOptions o;
  o.protocol = Protocol::kSemanticNoRetainedLocks;  // the §3 protocol
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put = t1.NewNode(ma, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), put);
  Complete(lm.get(), ma);
  // The Put lock is gone; only Ma's own lock remains (held by the root now).
  EXPECT_TRUE(lm->LocksOn(LockTarget::ForObject(kObjB)).empty());
  EXPECT_EQ(lm->LocksOn(LockTarget::ForObject(kObjA)).size(), 1u);
  // A conflicting access from another transaction slips through — this is
  // exactly the Figure 5 anomaly.
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* get = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kGet, {});
  EXPECT_TRUE(lm->Acquire(get, LockTarget::ForObject(kObjB), false).ok());
  EXPECT_EQ(lm->stats().blocked_acquires, 0u);
}

TEST_F(LockManagerTest, FcfsQueuedRequestBlocksLaterCompatibleOne) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  TxnTree t3(TxnTree::NextId(), "T3", kDatabaseOid, 0);
  SubTxn* h = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kGet, {});
  SubTxn* w = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  SubTxn* r = t3.NewNode(t3.root(), kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(h, LockTarget::ForObject(kObjB), false).ok());
  std::atomic<bool> w_granted{false};
  std::atomic<bool> r_granted{false};
  std::thread tw([&]() {
    EXPECT_TRUE(lm->Acquire(w, LockTarget::ForObject(kObjB), true).ok());
    w_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread tr([&]() {
    EXPECT_TRUE(lm->Acquire(r, LockTarget::ForObject(kObjB), false).ok());
    r_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // r commutes with the *held* Get but must respect the queued Put (FCFS).
  EXPECT_FALSE(w_granted.load());
  EXPECT_FALSE(r_granted.load());
  Complete(lm.get(), h);
  Complete(lm.get(), t1.root());
  lm->ReleaseTree(t1.root());
  tw.join();
  EXPECT_TRUE(w_granted.load());
  Complete(lm.get(), w);
  Complete(lm.get(), t2.root());
  lm->ReleaseTree(t2.root());
  tr.join();
  EXPECT_TRUE(r_granted.load());
}

TEST_F(LockFastPathTest, WarmCacheDoesNotBypassEarlierConflictingWaiter) {
  // A holds Fa twice (the shape a grant cache would be warm for). B's
  // conflicting Fb queues behind it. Then (1) C — a different tree —
  // requests Fa, which commutes with A's granted locks but must still queue
  // behind B's earlier conflicting request (paper footnote 5), and (2) A
  // itself requests Fa a third time. B waits for A's own grants, so A3
  // passes B's waiting entry (queueing behind it would close the cycle
  // A3 -> B -> A) and is granted at once; C's waiting Fa commutes with it.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(20000);
  auto lm = std::make_unique<LockManager>(o, &compat);

  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  SubTxn* a1 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(kObjF), true).ok());
  SubTxn* a2 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(kObjF), true).ok());

  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  SubTxn* b1 = tb.NewNode(tb.root(), kObjF, kFcfsT, "Fb", {});
  SubTxn* c1 = tc.NewNode(tc.root(), kObjF, kFcfsT, "Fa", {});
  SubTxn* a3 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});

  Status st_b, st_c;
  std::thread thread_b([&]() {
    st_b = lm->Acquire(b1, LockTarget::ForObject(kObjF), true);
    Release(lm.get(), &tb, TxnState::kCommitted);
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_c([&]() {
    st_c = lm->Acquire(c1, LockTarget::ForObject(kObjF), true);
  });
  while (lm->NumWaiters() != 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Status st_a3 = lm->Acquire(a3, LockTarget::ForObject(kObjF), true);
  EXPECT_TRUE(st_a3.ok()) << st_a3.ToString();
  // B and C were genuinely queued, C despite commuting with every granted
  // lock; A3 was not.
  EXPECT_EQ(lm->stats().blocked_acquires, 2u);
  EXPECT_EQ(lm->NumWaiters(), 2u);

  // A's end admits B, and B's admits C.
  Release(lm.get(), &ta, TxnState::kCommitted);
  thread_b.join();
  thread_c.join();
  EXPECT_TRUE(st_b.ok()) << st_b.ToString();
  EXPECT_TRUE(st_c.ok()) << st_c.ToString();
  EXPECT_EQ(lm->stats().deadlocks, 0u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(tc.root());
}

TEST_F(LockManagerTest, AbortRequestUnblocksWaiter) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());
  std::thread blocked([&]() {
    Status st = lm->Acquire(b, LockTarget::ForObject(kObjA), true);
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // External aborts must go through the lock manager so the sleeping waiter
  // is actually woken (there is no polling fallback).
  lm->OnAbortRequested(t2.root());
  blocked.join();
  EXPECT_TRUE(t2.root()->abort_requested());
}

TEST_F(LockManagerTest, DeadlockDetectedAndYoungestVictimChosen) {
  auto lm = Make(Semantic());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b1 = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  SubTxn* a2 = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kPut, {Value(2)});
  SubTxn* b2 = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(kObjB), true).ok());
  Status st1, st2;
  // On failure each thread emulates the executor's unwind: abort the tree
  // and release its locks so the survivor can proceed.
  auto unwind = [&](TxnTree* tree) {
    tree->root()->set_state(TxnState::kAborted);
    lm->OnSubTxnCompleted(tree->root());
    lm->ReleaseTree(tree->root());
  };
  std::thread th1([&]() {
    st1 = lm->Acquire(b1, LockTarget::ForObject(kObjB), true);
    if (!st1.ok()) unwind(&t1);
  });
  std::thread th2([&]() {
    st2 = lm->Acquire(b2, LockTarget::ForObject(kObjA), true);
    if (!st2.ok()) unwind(&t2);
  });
  // One side must be chosen as victim (Deadlock for the detector thread, or
  // Aborted when the flag is observed on the other side).
  th1.join();
  th2.join();
  const bool one_failed = (!st1.ok()) != (!st2.ok());
  EXPECT_TRUE(one_failed) << "st1=" << st1.ToString()
                          << " st2=" << st2.ToString();
  EXPECT_GE(lm->stats().deadlocks, 1u);
  // The victim is the younger transaction (higher root id): T2.
  if (!st2.ok()) {
    EXPECT_TRUE(st2.IsDeadlock() || st2.IsAborted()) << st2.ToString();
  }
}

TEST_F(LockManagerTest, WaitTimeoutFiresWithoutDetection) {
  // A plain conflict with no wait cycle: the deadlock detector finds
  // nothing to break, so only wait_timeout ends the wait.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(150);
  auto lm = std::make_unique<LockManager>(o, &compat);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());
  Status st = lm->Acquire(b, LockTarget::ForObject(kObjA), true);
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  EXPECT_GE(lm->stats().timeouts, 1u);
}

TEST_F(LockManagerTest, WaitReachingTimeoutCountsEvenWhenFinalRescanGrants) {
  // Case 2, shaped like Figure 7: T2's Get waits for T1's active commuting
  // ancestor Ma. Ma then commits without OnSubTxnCompleted — a wake-up the
  // manager never sees — so the wait runs to its deadline, where the
  // re-scan finds Case 1 relief and grants. That wait still hit
  // wait_timeout, and `timeouts` must count it.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(200);
  auto lm = std::make_unique<LockManager>(o, &compat);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put = t1.NewNode(ma, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), put);

  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* mb = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* get = t2.NewNode(mb, kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(mb, LockTarget::ForObject(kObjA), true).ok());
  Status st;
  std::thread waiter([&]() {
    st = lm->Acquire(get, LockTarget::ForObject(kObjB), false);
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ma->set_state(TxnState::kCommitted);
  waiter.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(lm->stats().case2_waits, 1u);
  EXPECT_EQ(lm->stats().timeouts, 1u);
  lm->ReleaseTree(t2.root());
  lm->ReleaseTree(t1.root());
}

// --- closed nested baseline ---------------------------------------------------

TEST_F(LockManagerTest, ClosedNestedInheritsToParentAndBlocksOthers) {
  ProtocolOptions o;
  o.protocol = Protocol::kClosedNested;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* child = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(child, LockTarget::ForObject(kObjB), true).ok());
  Complete(lm.get(), child);
  // Lock anti-inherited by the root; a sibling of the same txn may pass...
  SubTxn* sibling = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(sibling, LockTarget::ForObject(kObjB), false).ok());
  // ...but another transaction stays blocked until t1 ends.
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* foreign = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kGet, {});
  std::atomic<bool> granted{false};
  std::thread blocked([&]() {
    EXPECT_TRUE(lm->Acquire(foreign, LockTarget::ForObject(kObjB), false).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(granted.load());
  Complete(lm.get(), sibling);
  Complete(lm.get(), t1.root());
  lm->ReleaseTree(t1.root());
  blocked.join();
}

TEST_F(LockManagerTest, ClosedNestedSharedReadsPass) {
  ProtocolOptions o;
  o.protocol = Protocol::kClosedNested;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* r1 = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kGet, {});
  SubTxn* r2 = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(r1, LockTarget::ForObject(kObjB), false).ok());
  ASSERT_TRUE(lm->Acquire(r2, LockTarget::ForObject(kObjB), false).ok());
  EXPECT_EQ(lm->stats().blocked_acquires, 0u);
}

TEST_F(LockManagerTest, LocksOnNamesTheClosedNestedOwner) {
  // LocksOn reports the entry's owner, which anti-inheritance moves up the
  // tree: the committed child's lock belongs to its parent, then the root.
  ProtocolOptions o;
  o.protocol = Protocol::kClosedNested;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* parent = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put =
      t1.NewNode(parent, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  ASSERT_TRUE(lm->Acquire(put, LockTarget::ForObject(kObjB), true).ok());
  auto owner_of_b = [&]() {
    const auto locks = lm->LocksOn(LockTarget::ForObject(kObjB));
    EXPECT_EQ(locks.size(), 1u);
    EXPECT_EQ(locks.at(0).root_id, t1.root()->id());
    EXPECT_EQ(locks.at(0).method, generic_ops::kPut);
    EXPECT_TRUE(locks.at(0).granted);
    return std::make_pair(locks.at(0).owner_id, locks.at(0).retained);
  };
  EXPECT_EQ(owner_of_b(), std::make_pair(put->id(), false));
  Complete(lm.get(), put);
  EXPECT_EQ(owner_of_b(), std::make_pair(parent->id(), false));
  Complete(lm.get(), parent);
  EXPECT_EQ(owner_of_b(), std::make_pair(t1.root()->id(), false));
  Complete(lm.get(), t1.root());
  EXPECT_EQ(owner_of_b(), std::make_pair(t1.root()->id(), true));
  lm->ReleaseTree(t1.root());
  EXPECT_TRUE(lm->LocksOn(LockTarget::ForObject(kObjB)).empty());
}

// --- flat 2PL baseline ---------------------------------------------------------

TEST_F(LockManagerTest, FlatSharedAndExclusiveModes) {
  ProtocolOptions o;
  o.protocol = Protocol::kFlat2PLObject;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* r1 = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kGet, {});
  SubTxn* r2 = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kGet, {});
  ASSERT_TRUE(lm->Acquire(r1, LockTarget::ForObject(kObjB), false).ok());
  ASSERT_TRUE(lm->Acquire(r2, LockTarget::ForObject(kObjB), false).ok());
  SubTxn* w = t2.NewNode(t2.root(), kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  std::atomic<bool> granted{false};
  std::thread blocked([&]() {
    EXPECT_TRUE(lm->Acquire(w, LockTarget::ForObject(kObjB), true).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(granted.load());  // writer waits for the foreign reader
  Complete(lm.get(), r1);
  Complete(lm.get(), t1.root());
  lm->ReleaseTree(t1.root());
  blocked.join();
  EXPECT_TRUE(granted.load());
}

TEST_F(LockManagerTest, DistinctTargetSpacesDoNotCollide) {
  ProtocolOptions o;
  o.protocol = Protocol::kFlat2PLObject;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), 5, kAtomT, generic_ops::kPut, {Value(1)});
  SubTxn* b = t2.NewNode(t2.root(), 5, kAtomT, generic_ops::kPut, {Value(2)});
  // Same numeric key in different spaces: object 5 vs page 5.
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(5), true).ok());
  ASSERT_TRUE(lm->Acquire(b, LockTarget::ForPage(5), true).ok());
  EXPECT_EQ(lm->stats().blocked_acquires, 0u);
}

// --- parameter predicates (§3) ---------------------------------------------

TEST_F(LockFastPathTest, KeyrangeRelievesDisjointMatrixConflict) {
  // Two foreign Wr invocations on different keys: the Wr/Wr cell is a
  // predicate that commutes them, so the second acquisition is granted
  // as a commute verdict. The same key still blocks, and under a static
  // conflict cell for the same pair the verdict stands unrelieved.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(50);
  auto lm = std::make_unique<LockManager>(o, &compat);
  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  SubTxn* w1 = ta.NewNode(ta.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w2 = tb.NewNode(tb.root(), kObjK, kKrngT, "Wr", {Value(2)});
  SubTxn* w1x = tc.NewNode(tc.root(), kObjK, kKrngT, "Wr", {Value(1)});
  ASSERT_TRUE(lm->Acquire(w1, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_TRUE(lm->Acquire(w2, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_EQ(lm->stats().commute_grants, 1u);
  EXPECT_TRUE(
      lm->Acquire(w1x, LockTarget::ForObject(kObjK), true).IsTimedOut());
  lm->ReleaseTree(tc.root());
  lm->ReleaseTree(tb.root());
  lm->ReleaseTree(ta.root());

  CompatibilityRegistry literal;
  literal.Define(kKrngT, "Wr", "Wr", false);
  auto lm2 = std::make_unique<LockManager>(o, &literal);
  TxnTree td(TxnTree::NextId(), "D", kDatabaseOid, 0);
  TxnTree te(TxnTree::NextId(), "E", kDatabaseOid, 0);
  SubTxn* w3 = td.NewNode(td.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w4 = te.NewNode(te.root(), kObjK, kKrngT, "Wr", {Value(2)});
  ASSERT_TRUE(lm2->Acquire(w3, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_TRUE(
      lm2->Acquire(w4, LockTarget::ForObject(kObjK), true).IsTimedOut());
  EXPECT_EQ(lm2->stats().commute_grants, 0u);
  lm2->ReleaseTree(te.root());
  lm2->ReleaseTree(td.root());
}

TEST_F(LockFastPathTest, KeyrangeFcfsQueuesBehindOverlappingRangeWaiter) {
  // FCFS (footnote 5) with key predicates: D's Insert(7) commutes with
  // every GRANTED lock, but an earlier-queued RangeScan[1,9] waiter covers
  // key 7 — D must queue behind it, not jump the line because the granted
  // locks let it pass.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(20000);
  auto lm = std::make_unique<LockManager>(o, &compat);
  const LockTarget target = LockTarget::ForObject(kObjC);

  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  SubTxn* a1 = ta.NewNode(ta.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(5)});
  ASSERT_TRUE(lm->Acquire(a1, target, true).ok());

  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  TxnTree td(TxnTree::NextId(), "D", kDatabaseOid, 0);
  SubTxn* b1 = tb.NewNode(tb.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(5)});
  SubTxn* c1 = tc.NewNode(tc.root(), kObjC, kSetT, generic_ops::kRangeScan,
                          {Value(1), Value(9)});
  SubTxn* d1 = td.NewNode(td.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(7)});

  Status st_b, st_c, st_d;
  std::thread thread_b([&]() {
    st_b = lm->Acquire(b1, target, true);
    if (st_b.ok()) Complete(lm.get(), b1);
    Release(lm.get(), &tb, TxnState::kCommitted);
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_c([&]() {
    st_c = lm->Acquire(c1, target, false);
    if (st_c.ok()) Complete(lm.get(), c1);
    Release(lm.get(), &tc, TxnState::kCommitted);
  });
  while (lm->NumWaiters() != 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_d([&]() { st_d = lm->Acquire(d1, target, true); });
  while (lm->NumWaiters() != 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // D is genuinely queued: its key 7 passes A's granted and B's waiting
  // Insert(5), but C's earlier-queued RangeScan over [1,9] holds it.
  EXPECT_EQ(lm->NumWaiters(), 3u);

  // Release the chain: A's commit admits B, B's admits C, C's admits D.
  Complete(lm.get(), a1);
  Release(lm.get(), &ta, TxnState::kCommitted);
  thread_b.join();
  thread_c.join();
  thread_d.join();
  EXPECT_TRUE(st_b.ok()) << st_b.ToString();
  EXPECT_TRUE(st_c.ok()) << st_c.ToString();
  EXPECT_TRUE(st_d.ok()) << st_d.ToString();
  EXPECT_GE(lm->stats().commute_grants, 2u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(td.root());
}

// --- verdict equivalence across the verdict-preserving flags -------------

// Runs a fixed single-threaded history touching every verdict family —
// commuting grants, Case-1 relief, same-tree repeat acquisitions,
// retained-lock root waits (as timeouts), key-dependent generic conflicts,
// abort, compensation, a fresh tree after release — and returns the
// sequence of status codes. Blocked acquires deterministically surface as
// TimedOut via the short wait_timeout.
std::vector<int> RunVerdictScript(CompatibilityRegistry* compat, int mask) {
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(50);
  // Neither the invariant checker nor the table's sharding may change a
  // verdict.
  o.debug_lock_checks = (mask & 1) != 0;
  o.lock_table_shards = (mask & 2) != 0 ? 1 : 16;
  LockManager lm(o, compat);
  std::vector<int> codes;
  auto rec = [&codes](const Status& st) {
    codes.push_back(static_cast<int>(st.code()));
  };
  auto obj = [](Oid oid) { return LockTarget::ForObject(oid); };

  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  TxnTree t3(TxnTree::NextId(), "T3", kDatabaseOid, 0);
  TxnTree t4(TxnTree::NextId(), "T4", kDatabaseOid, 0);

  // Retained-lock + Case-1 setup: T1 runs Ma{Put} and completes both.
  SubTxn* ma1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put1 = t1.NewNode(ma1, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  rec(lm.Acquire(ma1, obj(kObjA), true));
  rec(lm.Acquire(put1, obj(kObjB), true));
  put1->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(put1);
  ma1->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(ma1);

  // T2: commuting grant on kObjA, then Case-1 grant on the leaf below.
  SubTxn* mb1 = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* get1 = t2.NewNode(mb1, kObjB, kAtomT, generic_ops::kGet, {});
  rec(lm.Acquire(mb1, obj(kObjA), true));
  rec(lm.Acquire(get1, obj(kObjB), false));

  // T2 acquires its own class twice more.
  for (int i = 0; i < 2; ++i) {
    SubTxn* again = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
    rec(lm.Acquire(again, obj(kObjA), true));
  }

  // T3 conflicts with T1's retained Ma: root wait -> TimedOut.
  SubTxn* ma2 = t3.NewNode(t3.root(), kObjA, kItemT, "Ma", {});
  rec(lm.Acquire(ma2, obj(kObjA), true));

  // Key-addressed generics: T2 inserts 7 and 8; T4's Insert(7) conflicts,
  // its Insert(9) commutes.
  SubTxn* i7 = t2.NewNode(t2.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(7)});
  SubTxn* i8 = t2.NewNode(t2.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(8)});
  rec(lm.Acquire(i7, obj(kObjC), true));
  rec(lm.Acquire(i8, obj(kObjC), true));
  SubTxn* i7x = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kInsert,
                           {Value(7)});
  SubTxn* i9 = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(9)});
  rec(lm.Acquire(i7x, obj(kObjC), true));
  rec(lm.Acquire(i9, obj(kObjC), true));

  // Abort request: T4's next acquire fails fast; its compensating Remove(9)
  // is exempt and still goes through.
  lm.OnAbortRequested(t4.root());
  SubTxn* i10 = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kInsert,
                           {Value(10)});
  rec(lm.Acquire(i10, obj(kObjC), true));
  SubTxn* comp = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kRemove,
                            {Value(9)});
  comp->set_compensation(true);
  rec(lm.Acquire(comp, obj(kObjC), true));

  // Tear down in a fixed order, then lock the emptied queue afresh.
  t1.root()->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(t1.root());
  lm.ReleaseTree(t1.root());
  t2.root()->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(t2.root());
  lm.ReleaseTree(t2.root());
  t4.root()->set_state(TxnState::kAborted);
  lm.OnSubTxnCompleted(t4.root());
  lm.ReleaseTree(t4.root());
  lm.ReleaseTree(t3.root());

  TxnTree t5(TxnTree::NextId(), "T5", kDatabaseOid, 0);
  SubTxn* ma3 = t5.NewNode(t5.root(), kObjA, kItemT, "Ma", {});
  rec(lm.Acquire(ma3, obj(kObjA), true));
  lm.ReleaseTree(t5.root());

  codes.push_back(static_cast<int>(lm.CheckInvariantsNow()));
  return codes;
}

TEST_F(LockFastPathTest, VerdictsIdenticalUnderEveryFlagCombination) {
  const std::vector<int> baseline = RunVerdictScript(&compat, 0);
  // The script must have exercised both grant and block verdicts.
  EXPECT_GE(baseline.size(), 12u);
  EXPECT_NE(std::count(baseline.begin(), baseline.end(),
                       static_cast<int>(StatusCode::kTimedOut)),
            0);
  EXPECT_EQ(baseline.back(), 0);  // no invariant violations
  // Bits: 1 debug_lock_checks, 2 single-shard table.
  for (int mask = 1; mask < 4; ++mask) {
    EXPECT_EQ(RunVerdictScript(&compat, mask), baseline)
        << "verdict divergence with flag mask " << mask;
  }
}

TEST_F(LockFastPathTest, CoalescingOffKeepsOneEntryPerAcquisition) {
  // Identical acquisitions by one tree are never merged: each appends and
  // grants its own queue entry, so acquires == granted_entries (§5.5).
  ProtocolOptions o;
  o.debug_lock_checks = true;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  for (int i = 0; i < 3; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
    ASSERT_TRUE(lm->Acquire(n, LockTarget::ForObject(kObjA), true).ok());
  }
  EXPECT_EQ(lm->LocksOn(LockTarget::ForObject(kObjA)).size(), 3u);
  EXPECT_EQ(lm->stats().acquires, 3u);
  EXPECT_EQ(lm->stats().granted_entries, 3u);
  EXPECT_EQ(lm->stats().coalesced_grants, 0u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
}

TEST_F(LockManagerTest, BlockedAcquiresRaceTheirBlockersCompletions) {
  // Each round, a requester blocks on a Case 2 verdict (it waits for the
  // holder's commuting ancestor p1 to complete) while this thread completes
  // p1 at about the same moment. A completion reads the waits count without
  // a lock; if it skipped a waiter that was registering, that waiter would
  // sleep until its wait timeout, which is short here and counted. Every
  // fourth round completes only once the requester is parked, so both
  // orders occur.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(1000);
  auto lm = std::make_unique<LockManager>(o, &compat);
  const int rounds = 4 * test_env::IterCount("SEMCC_STRESS_ITERS", 200);
  for (int round = 0; round < rounds; ++round) {
    TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
    TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
    SubTxn* p1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
    SubTxn* c1 =
        t1.NewNode(p1, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
    SubTxn* p2 = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
    SubTxn* c2 =
        t2.NewNode(p2, kObjB, kAtomT, generic_ops::kPut, {Value(2)});
    ASSERT_TRUE(lm->Acquire(p1, LockTarget::ForObject(kObjA), true).ok());
    ASSERT_TRUE(lm->Acquire(c1, LockTarget::ForObject(kObjB), true).ok());
    ASSERT_TRUE(lm->Acquire(p2, LockTarget::ForObject(kObjA), true).ok());
    Complete(lm.get(), c1);
    Status st;
    std::thread waiter([&]() {
      st = lm->Acquire(c2, LockTarget::ForObject(kObjB), true);
    });
    if (round % 4 == 0) {
      while (lm->NumWaiters() == 0) std::this_thread::yield();
    } else {
      for (int spin = 0; spin < (round % 64) * 200; ++spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
    }
    Complete(lm.get(), p1);
    waiter.join();
    ASSERT_TRUE(st.ok()) << st.ToString();
    Complete(lm.get(), c2);
    Complete(lm.get(), p2);
    Release(lm.get(), &t1, TxnState::kCommitted);
    Release(lm.get(), &t2, TxnState::kCommitted);
  }
  const LockStats ls = lm->stats();
  EXPECT_EQ(ls.timeouts, 0u);
  EXPECT_GE(ls.blocked_acquires, static_cast<uint64_t>(rounds / 4));
  EXPECT_EQ(lm->NumWaiters(), 0u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
}

TEST(LockTarget, FactoriesAndToString) {
  EXPECT_EQ(LockTarget::ForObject(7).ToString(), "obj:7");
  EXPECT_EQ(LockTarget::ForPage(3).ToString(), "page:3");
  Rid rid{2, 9};
  LockTarget t = LockTarget::ForRecord(rid);
  EXPECT_EQ(t.ToString(), "rec:" + std::to_string((2ull << 16) | 9));
  EXPECT_NE(LockTargetHash()(LockTarget::ForObject(7)),
            LockTargetHash()(LockTarget::ForPage(7)));
}

TEST(ProtocolNames, Strings) {
  EXPECT_STREQ(ProtocolName(Protocol::kSemanticONT), "semantic-ont");
  EXPECT_STREQ(ProtocolName(Protocol::kSemanticNoAncestorWalk),
               "semantic-no-walk");
  EXPECT_STREQ(ProtocolName(Protocol::kSemanticNoRetainedLocks),
               "semantic-no-retain");
  EXPECT_STREQ(ProtocolName(Protocol::kClosedNested), "closed-nested");
  EXPECT_STREQ(ProtocolName(Protocol::kFlat2PLObject), "2pl-object");
  EXPECT_STREQ(ProtocolName(Protocol::kFlat2PLRecord), "2pl-record");
  EXPECT_STREQ(ProtocolName(Protocol::kFlat2PLPage), "2pl-page");
}

}  // namespace
}  // namespace semcc

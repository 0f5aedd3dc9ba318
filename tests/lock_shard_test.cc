// Tests for the sharded lock table and the targeted-wakeup protocol:
// shard dispersion of the target hash, shard-count clamping, FCFS grant
// order within one queue (paper footnote 5) under sharding, deadlock cycles
// spanning multiple shards, and wakeup liveness — a waiter must wake
// promptly on its unblocking event, never by riding out a timeout (there is
// no polling fallback to hide a lost notification).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "cc/subtxn.h"
#include "util/annotations.h"

namespace semcc {
namespace {

constexpr TypeId kItemT = 1;  // methods Ma (self-conflicting), Mb
constexpr TypeId kAtomT = 2;  // atomic leaves via generic Get/Put
constexpr Oid kObjA = 100;

// Parameterized over a fast-path flag mask that is always 0. The suite once
// also ran under masks 2 and 15 of the four §5.4 fast-path mechanisms; with
// those deleted, mask 0 (none of them) is the one acquire path left, and
// keeping it as the parameter keeps the `flags0` test IDs unchanged.
struct LockShardTest : public ::testing::TestWithParam<int> {
  LockShardTest() {
    compat.Define(kItemT, "Ma", "Ma", false);
    compat.Define(kItemT, "Ma", "Mb", true);
    compat.Define(kItemT, "Mb", "Mb", true);
  }

  std::unique_ptr<LockManager> Make(ProtocolOptions o) {
    return std::make_unique<LockManager>(o, &compat);
  }

  void Complete(LockManager* lm, SubTxn* t) {
    t->set_state(TxnState::kCommitted);
    lm->OnSubTxnCompleted(t);
  }

  CompatibilityRegistry compat;
};

// --- hash dispersion ------------------------------------------------------

TEST_P(LockShardTest, ShardCountClampsToPowerOfTwo) {
  ProtocolOptions o;
  o.lock_table_shards = 0;
  EXPECT_EQ(Make(o)->num_shards(), 1);
  o.lock_table_shards = 1;
  EXPECT_EQ(Make(o)->num_shards(), 1);
  o.lock_table_shards = 3;
  EXPECT_EQ(Make(o)->num_shards(), 4);
  o.lock_table_shards = 16;
  EXPECT_EQ(Make(o)->num_shards(), 16);
  o.lock_table_shards = 100000;
  EXPECT_EQ(Make(o)->num_shards(), LockManager::kMaxShards);
}

TEST_P(LockShardTest, SequentialOidsDisperseAcrossShards) {
  auto lm = Make(ProtocolOptions{});  // default 16 shards
  const int shards = lm->num_shards();
  ASSERT_EQ(shards, 16);
  std::vector<int> hits(shards, 0);
  const int kKeys = 512;
  for (Oid oid = 1; oid <= kKeys; ++oid) {
    ++hits[lm->ShardIndexOf(LockTarget::ForObject(oid))];
  }
  // A good mixer keeps every shard populated and no shard dominant; the
  // bounds are loose (expected load is 32 per shard).
  for (int i = 0; i < shards; ++i) {
    EXPECT_GT(hits[i], 0) << "shard " << i << " never hit";
    EXPECT_LT(hits[i], kKeys / 4) << "shard " << i << " is a hot spot";
  }
}

TEST_P(LockShardTest, SlotZeroRecordsDisperseAcrossShards) {
  // ForRecord({page, 0}) keys are all multiples of 1<<16 — the structured
  // pattern that defeated the previous `key * 3 + space` hash (std::hash of
  // an integer is the identity on this platform, so every such key landed
  // in shard 0).
  auto lm = Make(ProtocolOptions{});
  const int shards = lm->num_shards();
  std::vector<int> hits(shards, 0);
  const int kKeys = 512;
  for (PageId page = 1; page <= kKeys; ++page) {
    ++hits[lm->ShardIndexOf(LockTarget::ForRecord(Rid{page, 0}))];
  }
  for (int i = 0; i < shards; ++i) {
    EXPECT_GT(hits[i], 0) << "shard " << i << " never hit";
    EXPECT_LT(hits[i], kKeys / 4) << "shard " << i << " is a hot spot";
  }
}

TEST_P(LockShardTest, SequentialPagesDisperseAcrossShards) {
  auto lm = Make(ProtocolOptions{});
  const int shards = lm->num_shards();
  std::vector<int> hits(shards, 0);
  const int kKeys = 512;
  for (PageId page = 1; page <= kKeys; ++page) {
    ++hits[lm->ShardIndexOf(LockTarget::ForPage(page))];
  }
  for (int i = 0; i < shards; ++i) {
    EXPECT_GT(hits[i], 0) << "shard " << i << " never hit";
  }
}

// --- FCFS grant order under sharding --------------------------------------

TEST_P(LockShardTest, FcfsGrantOrderWithinQueue) {
  // One holder + K staggered conflicting waiters on a single target: the
  // grant order must equal the arrival order (paper footnote 5), with each
  // waiter's queued entry blocking all later arrivals even while ungranted.
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(20000);
  auto lm = Make(o);
  constexpr int kWaiters = 4;

  TxnTree holder(TxnTree::NextId(), "H", kDatabaseOid, 0);
  SubTxn* h = holder.NewNode(holder.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(h, LockTarget::ForObject(kObjA), true).ok());

  std::vector<std::unique_ptr<TxnTree>> trees;
  std::vector<SubTxn*> actions;
  for (int i = 0; i < kWaiters; ++i) {
    trees.push_back(std::make_unique<TxnTree>(
        TxnTree::NextId(), std::string("W").append(std::to_string(i)),
        kDatabaseOid, 0));
    actions.push_back(
        trees[i]->NewNode(trees[i]->root(), kObjA, kItemT, "Ma", {}));
  }

  std::vector<int> grant_order;
  Mutex order_mu;
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i]() {
      Status st = lm->Acquire(actions[i], LockTarget::ForObject(kObjA), true);
      ASSERT_TRUE(st.ok()) << st.ToString();
      {
        MutexLock g(order_mu);
        grant_order.push_back(i);
      }
      // Retire this transaction so the next-in-line waiter can be granted.
      Complete(lm.get(), actions[i]);
      Complete(lm.get(), trees[i]->root());
      lm->ReleaseTree(trees[i]->root());
    });
    // Stagger arrivals: each waiter must be enqueued (blocked) before the
    // next one arrives so the queue order is deterministic.
    while (lm->NumWaiters() != static_cast<size_t>(i + 1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Complete(lm.get(), h);
  Complete(lm.get(), holder.root());
  lm->ReleaseTree(holder.root());
  for (auto& t : threads) t.join();

  std::vector<int> expected(kWaiters);
  for (int i = 0; i < kWaiters; ++i) expected[i] = i;
  EXPECT_EQ(grant_order, expected);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
}

// --- cross-shard deadlock -------------------------------------------------

TEST_P(LockShardTest, DeadlockCycleSpanningTwoShardsIsDetected) {
  ProtocolOptions o;
  o.wait_timeout = std::chrono::milliseconds(20000);
  auto lm = Make(o);
  ASSERT_GT(lm->num_shards(), 1);

  // Pick two objects that land in different shards so the wait cycle spans
  // two shard condvars and the victim wakeup must cross shards.
  const Oid oid_a = kObjA;
  Oid oid_b = kObjA + 1;
  while (lm->ShardIndexOf(LockTarget::ForObject(oid_b)) ==
         lm->ShardIndexOf(LockTarget::ForObject(oid_a))) {
    ++oid_b;
  }

  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a1 = t1.NewNode(t1.root(), oid_a, kItemT, "Ma", {});
  SubTxn* b1 = t1.NewNode(t1.root(), oid_b, kItemT, "Ma", {});
  SubTxn* a2 = t2.NewNode(t2.root(), oid_b, kItemT, "Ma", {});
  SubTxn* b2 = t2.NewNode(t2.root(), oid_a, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(oid_a), true).ok());
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(oid_b), true).ok());

  Status st1, st2;
  auto unwind = [&](TxnTree* tree) {
    tree->root()->set_state(TxnState::kAborted);
    lm->OnSubTxnCompleted(tree->root());
    lm->ReleaseTree(tree->root());
  };
  std::thread th1([&]() {
    st1 = lm->Acquire(b1, LockTarget::ForObject(oid_b), true);
    if (!st1.ok()) unwind(&t1);
  });
  std::thread th2([&]() {
    st2 = lm->Acquire(b2, LockTarget::ForObject(oid_a), true);
    if (!st2.ok()) unwind(&t2);
  });
  th1.join();
  th2.join();
  const bool one_failed = (!st1.ok()) != (!st2.ok());
  EXPECT_TRUE(one_failed) << "st1=" << st1.ToString()
                          << " st2=" << st2.ToString();
  EXPECT_GE(lm->stats().deadlocks, 1u);
}

// --- wakeup liveness ------------------------------------------------------

// With a 60 s timeout, a waiter that only wakes on its unblocking event has
// a hard upper bound far below the timeout; these tests fail loudly (and
// slowly) if a wakeup is lost and the waiter rides out the full timeout.
constexpr auto kLivenessTimeout = std::chrono::milliseconds(60000);
constexpr auto kWakeBound = std::chrono::milliseconds(5000);

TEST_P(LockShardTest, ReleaseWakesRootWaiterPromptly) {
  ProtocolOptions o;
  o.wait_timeout = kLivenessTimeout;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());

  std::atomic<bool> granted{false};
  std::chrono::steady_clock::time_point granted_at;
  std::thread blocked([&]() {
    Status st = lm->Acquire(b, LockTarget::ForObject(kObjA), true);
    EXPECT_TRUE(st.ok()) << st.ToString();
    granted_at = std::chrono::steady_clock::now();
    granted = true;
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Complete(lm.get(), a);
  Complete(lm.get(), t1.root());
  const auto released_at = std::chrono::steady_clock::now();
  lm->ReleaseTree(t1.root());
  blocked.join();
  ASSERT_TRUE(granted.load());
  EXPECT_LT(granted_at - released_at, kWakeBound);
}

TEST_P(LockShardTest, Case2CompletionWakesWaiterPromptly) {
  // Case 2 (Figure 9): the waiter awaits a *subtransaction* completion, not
  // a release — the completion path must find and wake it via the waits-for
  // graph without touching the lock table.
  ProtocolOptions o;
  o.wait_timeout = kLivenessTimeout;
  auto lm = Make(o);
  constexpr Oid kLeaf = 900;
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* anc1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* leaf1 = t1.NewNode(anc1, kLeaf, kAtomT, generic_ops::kPut, {Value(1)});
  SubTxn* anc2 = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* leaf2 = t2.NewNode(anc2, kLeaf, kAtomT, generic_ops::kPut, {Value(2)});
  ASSERT_TRUE(lm->Acquire(anc1, LockTarget::ForObject(kObjA), true).ok());
  ASSERT_TRUE(lm->Acquire(leaf1, LockTarget::ForObject(kLeaf), true).ok());
  ASSERT_TRUE(lm->Acquire(anc2, LockTarget::ForObject(kObjA), true).ok());

  std::atomic<bool> granted{false};
  std::chrono::steady_clock::time_point granted_at;
  std::thread blocked([&]() {
    // Put/Put conflict; the commuting active ancestor pair (Ma, Mb) on
    // kObjA makes this a Case-2 wait for anc1's completion.
    Status st = lm->Acquire(leaf2, LockTarget::ForObject(kLeaf), true);
    EXPECT_TRUE(st.ok()) << st.ToString();
    granted_at = std::chrono::steady_clock::now();
    granted = true;
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(granted.load());
  EXPECT_GE(lm->stats().case2_waits, 1u);
  Complete(lm.get(), leaf1);
  const auto completed_at = std::chrono::steady_clock::now();
  Complete(lm.get(), anc1);
  blocked.join();
  ASSERT_TRUE(granted.load());
  EXPECT_LT(granted_at - completed_at, kWakeBound);
}

TEST_P(LockShardTest, AbortRequestWakesWaiterPromptly) {
  ProtocolOptions o;
  o.wait_timeout = kLivenessTimeout;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());

  std::atomic<bool> done{false};
  std::chrono::steady_clock::time_point done_at;
  std::thread blocked([&]() {
    Status st = lm->Acquire(b, LockTarget::ForObject(kObjA), true);
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
    done_at = std::chrono::steady_clock::now();
    done = true;
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto flagged_at = std::chrono::steady_clock::now();
  lm->OnAbortRequested(t2.root());
  blocked.join();
  ASSERT_TRUE(done.load());
  EXPECT_LT(done_at - flagged_at, kWakeBound);
}

TEST_P(LockShardTest, SingleShardConfigStillWorks) {
  ProtocolOptions o;
  o.lock_table_shards = 1;
  o.wait_timeout = std::chrono::milliseconds(20000);
  auto lm = Make(o);
  EXPECT_EQ(lm->num_shards(), 1);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* a = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* b = t2.NewNode(t2.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(a, LockTarget::ForObject(kObjA), true).ok());
  std::atomic<bool> granted{false};
  std::thread blocked([&]() {
    EXPECT_TRUE(lm->Acquire(b, LockTarget::ForObject(kObjA), true).ok());
    granted = true;
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(granted.load());
  Complete(lm.get(), a);
  Complete(lm.get(), t1.root());
  lm->ReleaseTree(t1.root());
  blocked.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FastPathConfigs, LockShardTest,
                         ::testing::Values(0),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "flags" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace semcc

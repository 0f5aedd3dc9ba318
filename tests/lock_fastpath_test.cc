// Tests for the §5.4 acquisition fast path (DESIGN.md): grant-cache hits,
// entry coalescing, nil-verdict memoization, and entry pooling — plus the
// properties that make them admissible:
//  * FCFS regression — a warm grant cache must NOT let a new identical
//    acquisition jump over an earlier-queued conflicting waiter (paper
//    footnote 5): the queue append epoch invalidates the published slot;
//  * verdict equivalence — a scripted single-threaded history must produce
//    byte-identical status sequences under every combination of the four
//    fast-path flags;
//  * zero allocation — a warm same-class re-acquire performs no heap
//    allocation (measured with a counting global operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "cc/subtxn.h"

// --- counting global allocator --------------------------------------------
// Counts heap allocations on this thread while t_counting is set; used by
// the zero-allocation test. Counting is thread-local so background gtest or
// sanitizer machinery on other threads cannot pollute the window.

namespace {
thread_local bool t_counting = false;
thread_local uint64_t t_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) ++t_alloc_count;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  if (t_counting) ++t_alloc_count;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace semcc {
namespace {

constexpr TypeId kItemT = 1;  // Ma/Mb commute, Ma/Ma conflict, Mb/Mb commute
constexpr TypeId kAtomT = 2;  // atomic leaves via generic Get/Put
constexpr TypeId kFcfsT = 3;  // Fa/Fa commute, Fa/Fb conflict, Fb/Fb conflict
constexpr TypeId kSetT = 5;   // set object via generic Insert/Remove
constexpr TypeId kKrngT = 6;  // Wr/Wr matrix-CONFLICT + point key footprint
constexpr Oid kObjA = 100;
constexpr Oid kObjB = 200;
constexpr Oid kObjC = 300;
constexpr Oid kObjF = 400;
constexpr Oid kObjK = 500;

struct LockFastPathTest : public ::testing::Test {
  LockFastPathTest() {
    compat.Define(kItemT, "Ma", "Mb", true);
    compat.Define(kItemT, "Ma", "Ma", false);
    compat.Define(kItemT, "Mb", "Mb", true);
    compat.Define(kFcfsT, "Fa", "Fa", true);
    compat.Define(kFcfsT, "Fa", "Fb", false);
    compat.Define(kFcfsT, "Fb", "Fb", false);
    // The keyrange escalation shape (§5.8): the matrix says Wr always
    // conflicts with Wr, but a non-exact footprint says each invocation
    // only touches the point key args[0] — so with keyrange_locks the lock
    // manager can prove Wr(1) and Wr(2) independent and skip the cell.
    compat.Define(kKrngT, "Wr", "Wr", false);
    MethodSpec wr;
    wr.reads = KeyRef::Point(0);
    wr.writes = KeyRef::Point(0);
    wr.exact = false;
    compat.DefineMethodSpec(kKrngT, "Wr", wr);
  }

  /// All four fast-path mechanisms on, checker off (the lock-free path is
  /// auto-disabled while debug_lock_checks is set).
  static ProtocolOptions FastOpts() {
    ProtocolOptions o;
    o.debug_lock_checks = false;
    o.lock_fast_path = true;
    o.coalesce_entries = true;
    o.memoize_conflicts = true;
    o.pool_entries = true;
    o.wait_timeout = std::chrono::milliseconds(20000);
    return o;
  }

  std::unique_ptr<LockManager> Make(ProtocolOptions o) {
    return std::make_unique<LockManager>(o, &compat);
  }

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

// --- coalescing -----------------------------------------------------------

TEST_F(LockFastPathTest, CoalescingMergesIdenticalAcquisitions) {
  // Coalescing is a mutex-path mechanism, so it must work (and be checked)
  // with the invariant checker on and the lock-free cache consequently off.
  ProtocolOptions o = FastOpts();
  o.debug_lock_checks = true;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  for (int i = 0; i < 3; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
    ASSERT_TRUE(lm->Acquire(n, LockTarget::ForObject(kObjA), true).ok());
  }
  auto locks = lm->LocksOn(LockTarget::ForObject(kObjA));
  ASSERT_EQ(locks.size(), 1u);
  EXPECT_EQ(locks[0].count, 3u);
  EXPECT_EQ(lm->stats().coalesced_grants, 2u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
}

TEST_F(LockFastPathTest, CoalescingOffKeepsOneEntryPerAcquisition) {
  ProtocolOptions o = FastOpts();
  o.debug_lock_checks = true;
  o.coalesce_entries = false;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  for (int i = 0; i < 3; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
    ASSERT_TRUE(lm->Acquire(n, LockTarget::ForObject(kObjA), true).ok());
  }
  auto locks = lm->LocksOn(LockTarget::ForObject(kObjA));
  EXPECT_EQ(locks.size(), 3u);
  for (const auto& info : locks) EXPECT_EQ(info.count, 1u);
  EXPECT_EQ(lm->stats().coalesced_grants, 0u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
}

TEST_F(LockFastPathTest, ArgSensitiveMethodsDoNotCoalesceAcrossKeys) {
  // Insert's commutativity depends on the key argument, so Insert(7) and
  // Insert(8) are distinct conflict classes and must keep distinct entries;
  // a repeat of Insert(7) coalesces onto the first.
  ProtocolOptions o = FastOpts();
  o.debug_lock_checks = true;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* i7 = t1.NewNode(t1.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(7)});
  SubTxn* i8 = t1.NewNode(t1.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(8)});
  SubTxn* i7b = t1.NewNode(t1.root(), kObjC, kSetT, generic_ops::kInsert,
                           {Value(7)});
  ASSERT_TRUE(lm->Acquire(i7, LockTarget::ForObject(kObjC), true).ok());
  ASSERT_TRUE(lm->Acquire(i8, LockTarget::ForObject(kObjC), true).ok());
  ASSERT_TRUE(lm->Acquire(i7b, LockTarget::ForObject(kObjC), true).ok());
  auto locks = lm->LocksOn(LockTarget::ForObject(kObjC));
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_EQ(locks[0].count + locks[1].count, 3u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
}

TEST_F(LockFastPathTest, ArgInsensitivePutCoalescesAcrossValues) {
  // Put/Put conflicts regardless of the stored value — the value argument
  // never enters the verdict — so Put(1) and Put(2) are one conflict class.
  ProtocolOptions o = FastOpts();
  o.debug_lock_checks = true;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* p1 = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kPut,
                          {Value(1)});
  SubTxn* p2 = t1.NewNode(t1.root(), kObjB, kAtomT, generic_ops::kPut,
                          {Value(2)});
  ASSERT_TRUE(lm->Acquire(p1, LockTarget::ForObject(kObjB), true).ok());
  ASSERT_TRUE(lm->Acquire(p2, LockTarget::ForObject(kObjB), true).ok());
  auto locks = lm->LocksOn(LockTarget::ForObject(kObjB));
  ASSERT_EQ(locks.size(), 1u);
  EXPECT_EQ(locks[0].count, 2u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
}

// --- grant cache ----------------------------------------------------------

TEST_F(LockFastPathTest, WarmReacquireHitsTheGrantCache) {
  auto lm = Make(FastOpts());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* first = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
  ASSERT_TRUE(lm->Acquire(first, LockTarget::ForObject(kObjA), true).ok());
  EXPECT_EQ(lm->stats().fast_path_hits, 0u);
  for (int i = 0; i < 5; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
    ASSERT_TRUE(lm->Acquire(n, LockTarget::ForObject(kObjA), true).ok());
  }
  EXPECT_EQ(lm->stats().fast_path_hits, 5u);
  // Fast-path hits ride the published entry; the queue does not grow.
  EXPECT_EQ(lm->LocksOn(LockTarget::ForObject(kObjA)).size(), 1u);
  lm->ReleaseTree(t1.root());
}

TEST_F(LockFastPathTest, DifferentClassMissesTheCache) {
  auto lm = Make(FastOpts());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  SubTxn* mb = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
  ASSERT_TRUE(lm->Acquire(mb, LockTarget::ForObject(kObjA), true).ok());
  // Same target, different method: not the published class.
  SubTxn* ma = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(ma, LockTarget::ForObject(kObjA), true).ok());
  EXPECT_EQ(lm->stats().fast_path_hits, 0u);
  // Different parent (nested under mb, not under the root): also a miss —
  // the ancestor chain enters the verdict, so the class key includes it.
  SubTxn* nested = t1.NewNode(mb, kObjA, kItemT, "Mb", {});
  ASSERT_TRUE(lm->Acquire(nested, LockTarget::ForObject(kObjA), true).ok());
  EXPECT_EQ(lm->stats().fast_path_hits, 0u);
  lm->ReleaseTree(t1.root());
}

// --- FCFS regression (paper footnote 5) -----------------------------------

TEST_F(LockFastPathTest, WarmCacheDoesNotBypassEarlierConflictingWaiter) {
  // A holds Fa (published, warm). B's conflicting Fb queues behind it. Then
  // (1) C — a different tree — requests Fa, which commutes with A's granted
  // lock but must still queue behind B's earlier conflicting request, and
  // (2) A itself re-requests Fa, which must NOT be served from the now-stale
  // cache slot for the same reason: B's append bumped the queue epoch.
  ProtocolOptions o = FastOpts();
  o.deadlock_detection = false;  // A->B->A wait cycle is broken manually
  auto lm = Make(o);

  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  SubTxn* a1 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(kObjF), true).ok());
  SubTxn* a2 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(kObjF), true).ok());
  ASSERT_EQ(lm->stats().fast_path_hits, 1u);  // cache is warm

  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  SubTxn* b1 = tb.NewNode(tb.root(), kObjF, kFcfsT, "Fb", {});
  SubTxn* c1 = tc.NewNode(tc.root(), kObjF, kFcfsT, "Fa", {});
  SubTxn* a3 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});

  Status st_b, st_c, st_a3;
  std::thread thread_b([&]() {
    st_b = lm->Acquire(b1, LockTarget::ForObject(kObjF), true);
    Release(lm.get(), &tb, TxnState::kAborted);
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
  std::thread thread_a3([&]() {
    st_a3 = lm->Acquire(a3, LockTarget::ForObject(kObjF), true);
  });
  while (lm->NumWaiters() != 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // All three are genuinely queued: C despite commuting with every granted
  // lock, and A despite its warm cache slot. No further fast-path hits.
  EXPECT_EQ(lm->stats().fast_path_hits, 1u);
  EXPECT_GE(lm->stats().blocked_acquires, 3u);

  // Break the B<->A wait cycle by aborting B; C and A must then be granted
  // (their remaining verdicts are all nil).
  lm->OnAbortRequested(tb.root());
  thread_b.join();
  thread_c.join();
  thread_a3.join();
  EXPECT_TRUE(st_b.IsAborted()) << st_b.ToString();
  EXPECT_TRUE(st_c.ok()) << st_c.ToString();
  EXPECT_TRUE(st_a3.ok()) << st_a3.ToString();
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(tc.root());
  lm->ReleaseTree(ta.root());
}

// --- memoization ----------------------------------------------------------

TEST_F(LockFastPathTest, BlockedRescanReusesMemoizedNilVerdicts) {
  // Requester Ma blocks on one conflicting Ma holder while 4 commuting Mb
  // holders sit in the same queue: the wake-up rescan must answer the 4 nil
  // verdicts from the memo instead of re-walking ancestors.
  auto lm = Make(FastOpts());
  std::vector<std::unique_ptr<TxnTree>> commuters;
  for (int i = 0; i < 4; ++i) {
    commuters.push_back(std::make_unique<TxnTree>(
        TxnTree::NextId(), "H" + std::to_string(i), kDatabaseOid, 0));
    SubTxn* n = commuters.back()->NewNode(commuters.back()->root(), kObjA,
                                          kItemT, "Mb", {});
    ASSERT_TRUE(lm->Acquire(n, LockTarget::ForObject(kObjA), true).ok());
  }
  TxnTree blocker(TxnTree::NextId(), "X", kDatabaseOid, 0);
  SubTxn* xa = blocker.NewNode(blocker.root(), kObjA, kItemT, "Ma", {});
  ASSERT_TRUE(lm->Acquire(xa, LockTarget::ForObject(kObjA), true).ok());

  TxnTree req(TxnTree::NextId(), "R", kDatabaseOid, 0);
  SubTxn* ra = req.NewNode(req.root(), kObjA, kItemT, "Ma", {});
  Status st;
  std::thread blocked([&]() {
    st = lm->Acquire(ra, LockTarget::ForObject(kObjA), true);
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Complete(lm.get(), xa);
  Release(lm.get(), &blocker, TxnState::kCommitted);
  blocked.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(lm->stats().memo_hits, 4u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(req.root());
  for (auto& t : commuters) lm->ReleaseTree(t->root());
}

// --- zero allocation ------------------------------------------------------

TEST_F(LockFastPathTest, WarmReacquireAllocatesNothing) {
  auto lm = Make(FastOpts());
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  // Pre-create the action nodes: NewNode allocates, Acquire must not.
  SubTxn* first = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
  constexpr int kWarmAcquires = 64;
  std::vector<SubTxn*> nodes;
  for (int i = 0; i < kWarmAcquires; ++i) {
    nodes.push_back(t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {}));
  }
  const LockTarget target = LockTarget::ForObject(kObjA);
  ASSERT_TRUE(lm->Acquire(first, target, true).ok());  // publishes the slot

  t_alloc_count = 0;
  t_counting = true;
  for (SubTxn* n : nodes) {
    Status st = lm->Acquire(n, target, true);
    if (!st.ok()) break;  // EXPECTs allocate; report outside the window
  }
  t_counting = false;
  EXPECT_EQ(t_alloc_count, 0u) << "warm re-acquire allocated";
  EXPECT_EQ(lm->stats().fast_path_hits,
            static_cast<uint64_t>(kWarmAcquires));
  lm->ReleaseTree(t1.root());
}

// --- key-range locks (§5.8) ------------------------------------------------

TEST_F(LockFastPathTest, KeyrangeRelievesDisjointMatrixConflict) {
  // Two foreign Wr invocations: the matrix cell is CONFLICT, but the key
  // intervals [1,1] and [2,2] are disjoint, so with keyrange_locks the
  // second acquisition is granted without a conflict test. Same key still
  // blocks, and with the flag off the matrix verdict stands unrelieved.
  ProtocolOptions o = FastOpts();
  o.keyrange_locks = true;
  o.wait_timeout = std::chrono::milliseconds(50);
  auto lm = Make(o);
  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  SubTxn* w1 = ta.NewNode(ta.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w2 = tb.NewNode(tb.root(), kObjK, kKrngT, "Wr", {Value(2)});
  SubTxn* w1x = tc.NewNode(tc.root(), kObjK, kKrngT, "Wr", {Value(1)});
  ASSERT_TRUE(lm->Acquire(w1, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_TRUE(lm->Acquire(w2, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_GE(lm->stats().keyrange_skips, 1u);
  EXPECT_GE(lm->stats().commute_grants, 1u);
  EXPECT_TRUE(
      lm->Acquire(w1x, LockTarget::ForObject(kObjK), true).IsTimedOut());
  lm->ReleaseTree(tc.root());
  lm->ReleaseTree(tb.root());
  lm->ReleaseTree(ta.root());

  ProtocolOptions off = o;
  off.keyrange_locks = false;
  auto lm2 = Make(off);
  TxnTree td(TxnTree::NextId(), "D", kDatabaseOid, 0);
  TxnTree te(TxnTree::NextId(), "E", kDatabaseOid, 0);
  SubTxn* w3 = td.NewNode(td.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w4 = te.NewNode(te.root(), kObjK, kKrngT, "Wr", {Value(2)});
  ASSERT_TRUE(lm2->Acquire(w3, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_TRUE(
      lm2->Acquire(w4, LockTarget::ForObject(kObjK), true).IsTimedOut());
  EXPECT_EQ(lm2->stats().keyrange_skips, 0u);
  lm2->ReleaseTree(te.root());
  lm2->ReleaseTree(td.root());
}

TEST_F(LockFastPathTest, KeyrangeFcfsQueuesBehindOverlappingRangeWaiter) {
  // FCFS (footnote 5) with intervals: D's Insert(7) is disjoint from every
  // GRANTED lock, but an earlier-queued RangeScan[1,9] waiter overlaps key
  // 7 — D must queue behind it, not jump the line via the disjointness
  // precheck.
  ProtocolOptions o = FastOpts();
  o.keyrange_locks = true;
  auto lm = Make(o);
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
  // D is genuinely queued: its interval [7,7] passes A's granted [5,5] and
  // B's waiting [5,5], but C's earlier-queued overlapping [1,9] holds it.
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
  EXPECT_GE(lm->stats().keyrange_skips, 2u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(td.root());
}

TEST_F(LockFastPathTest, KeyrangeIntervalsGateCoalescingAndGrantCache) {
  // Wr is argument-INsensitive (conflict cell, no predicates), yet with
  // keyrange_locks each invocation carries its own interval — so the §5.4
  // reuse machinery must compare intervals, not just conflict classes:
  // coalescing may only merge interval-identical entries, and a published
  // grant-cache slot only serves re-acquires with the identical interval.
  ProtocolOptions o = FastOpts();
  o.keyrange_locks = true;
  o.debug_lock_checks = true;  // mutex path: exercises FindCoalescible
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  const LockTarget target = LockTarget::ForObject(kObjK);
  SubTxn* w1 = t1.NewNode(t1.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w2 = t1.NewNode(t1.root(), kObjK, kKrngT, "Wr", {Value(2)});
  SubTxn* w1b = t1.NewNode(t1.root(), kObjK, kKrngT, "Wr", {Value(1)});
  ASSERT_TRUE(lm->Acquire(w1, target, true).ok());
  ASSERT_TRUE(lm->Acquire(w2, target, true).ok());  // interval differs
  ASSERT_TRUE(lm->Acquire(w1b, target, true).ok()); // merges onto w1's entry
  auto locks = lm->LocksOn(target);
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_EQ(locks[0].count + locks[1].count, 3u);
  EXPECT_EQ(lm->stats().coalesced_grants, 1u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());

  ProtocolOptions fast = FastOpts();
  fast.keyrange_locks = true;
  auto lm2 = Make(fast);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  SubTxn* v1 = t2.NewNode(t2.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* v2 = t2.NewNode(t2.root(), kObjK, kKrngT, "Wr", {Value(2)});
  SubTxn* v2b = t2.NewNode(t2.root(), kObjK, kKrngT, "Wr", {Value(2)});
  ASSERT_TRUE(lm2->Acquire(v1, target, true).ok());  // publishes [1,1]
  ASSERT_TRUE(lm2->Acquire(v2, target, true).ok());  // miss: interval [2,2]
  EXPECT_EQ(lm2->stats().fast_path_hits, 0u);
  ASSERT_TRUE(lm2->Acquire(v2b, target, true).ok()); // hit: slot now [2,2]
  EXPECT_EQ(lm2->stats().fast_path_hits, 1u);
  lm2->ReleaseTree(t2.root());
}

// --- verdict equivalence across all flag combinations ---------------------

// Runs a fixed single-threaded history touching every verdict family —
// commuting grants, Case-1 relief, retained-lock root waits (as timeouts),
// key-dependent generic conflicts, abort, compensation, pooled reuse — and
// returns the sequence of status codes. Blocked acquires deterministically
// surface as TimedOut via the short wait_timeout.
std::vector<int> RunVerdictScript(CompatibilityRegistry* compat, int mask) {
  ProtocolOptions o;
  o.debug_lock_checks = false;
  o.wait_timeout = std::chrono::milliseconds(50);
  o.lock_fast_path = (mask & 1) != 0;
  o.coalesce_entries = (mask & 2) != 0;
  o.memoize_conflicts = (mask & 4) != 0;
  o.pool_entries = (mask & 8) != 0;
  // Key-range locks must be verdict-preserving on this script: every cell
  // they skip (disjoint generic set keys) is one the key predicates already
  // resolve to commute, and overlapping/same-key pairs fall through to the
  // ordinary conflict test.
  o.keyrange_locks = (mask & 16) != 0;
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

  // T2 re-acquires its own class twice (cache/coalesce candidates).
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

  // Tear down in a fixed order, then reuse the (possibly pooled) entries.
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
  // Bits: 1 fast_path, 2 coalesce, 4 memoize, 8 pool, 16 keyrange.
  for (int mask = 1; mask < 32; ++mask) {
    EXPECT_EQ(RunVerdictScript(&compat, mask), baseline)
        << "verdict divergence with flag mask " << mask;
  }
}

}  // namespace
}  // namespace semcc

// Micro-benchmarks of the lock manager (paper §1.1 asks for "avoiding
// excessive overhead for managing locks or performing conflict tests"):
// acquire/release cycles per protocol, the cost of the Figure 9 conflict
// test as ancestor chains deepen and lock tables fill, and the raw
// commutativity lookup.
#include <benchmark/benchmark.h>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"

namespace semcc {
namespace {

constexpr TypeId kT = 1;

CompatibilityRegistry* Registry() {
  static CompatibilityRegistry* reg = [] {
    auto* r = new CompatibilityRegistry();
    r->Define(kT, "Ma", "Mb", true);
    r->Define(kT, "Ma", "Ma", false);
    r->Define(kT, "Mb", "Mb", true);
    r->DefinePredicate(kT, "Pa", "Pb", [](const Args& a, const Args& b) {
      return !a.empty() && !b.empty() && !(a[0] == b[0]);
    });
    return r;
  }();
  return reg;
}

void BM_SemanticAcquireRelease(benchmark::State& state) {
  ProtocolOptions opts;
  LockManager lm(opts, Registry());
  for (auto _ : state) {
    TxnTree tree(TxnTree::NextId(), "T", kDatabaseOid, 0);
    SubTxn* n = tree.NewNode(tree.root(), 7, kT, "Ma", {});
    benchmark::DoNotOptimize(lm.Acquire(n, LockTarget::ForObject(7), true));
    n->set_state(TxnState::kCommitted);
    lm.OnSubTxnCompleted(n);
    tree.root()->set_state(TxnState::kCommitted);
    lm.OnSubTxnCompleted(tree.root());
    lm.ReleaseTree(tree.root());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SemanticAcquireRelease);

void BM_Flat2plAcquireRelease(benchmark::State& state) {
  ProtocolOptions opts;
  opts.protocol = Protocol::kFlat2PLObject;
  LockManager lm(opts, Registry());
  for (auto _ : state) {
    TxnTree tree(TxnTree::NextId(), "T", kDatabaseOid, 0);
    SubTxn* n = tree.NewNode(tree.root(), 7, kT, generic_ops::kPut, {});
    benchmark::DoNotOptimize(lm.Acquire(n, LockTarget::ForObject(7), true));
    n->set_state(TxnState::kCommitted);
    lm.OnSubTxnCompleted(n);
    tree.root()->set_state(TxnState::kCommitted);
    lm.OnSubTxnCompleted(tree.root());
    lm.ReleaseTree(tree.root());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Flat2plAcquireRelease);

/// Cost of the Figure 9 test against a holder tree of the given depth, with
/// the commuting pair sitting at the top (worst-case full chain walk).
void BM_TestConflictAncestorWalk(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  ProtocolOptions opts;
  LockManager lm(opts, Registry());
  // Holder: root -> Ma(obj 1) -> Ma(obj 2) -> ... -> leaf Put(obj 99).
  TxnTree holder(TxnTree::NextId(), "H", kDatabaseOid, 0);
  SubTxn* cur = holder.root();
  for (int d = 0; d < depth; ++d) {
    cur = holder.NewNode(cur, static_cast<Oid>(d == 0 ? 1 : 100 + d), kT, "Ma", {});
    (void)lm.Acquire(cur, LockTarget::ForObject(cur->object()), true);
  }
  SubTxn* leaf = holder.NewNode(cur, 99, 0, generic_ops::kPut, {Value(1)});
  (void)lm.Acquire(leaf, LockTarget::ForObject(99), true);
  // Complete bottom-up so the locks are retained and Case 1 applies.
  leaf->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(leaf);
  for (SubTxn* n = cur; n != holder.root(); n = n->parent()) {
    n->set_state(TxnState::kCommitted);
    lm.OnSubTxnCompleted(n);
  }
  for (auto _ : state) {
    TxnTree req(TxnTree::NextId(), "R", kDatabaseOid, 0);
    SubTxn* mb = req.NewNode(req.root(), 1, kT, "Mb", {});
    SubTxn* get = req.NewNode(mb, 99, 0, generic_ops::kGet, {});
    benchmark::DoNotOptimize(lm.Acquire(mb, LockTarget::ForObject(1), true));
    benchmark::DoNotOptimize(lm.Acquire(get, LockTarget::ForObject(99), false));
    lm.ReleaseTree(req.root());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TestConflictAncestorWalk)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Scan cost against a queue of n compatible retained locks on one object.
void BM_AcquireWithManyHolders(benchmark::State& state) {
  const int holders = static_cast<int>(state.range(0));
  ProtocolOptions opts;
  LockManager lm(opts, Registry());
  std::vector<std::unique_ptr<TxnTree>> trees;
  for (int i = 0; i < holders; ++i) {
    trees.push_back(
        std::make_unique<TxnTree>(TxnTree::NextId(), "H", kDatabaseOid, 0));
    SubTxn* n = trees.back()->NewNode(trees.back()->root(), 7, kT, "Mb", {});
    (void)lm.Acquire(n, LockTarget::ForObject(7), true);
  }
  for (auto _ : state) {
    TxnTree req(TxnTree::NextId(), "R", kDatabaseOid, 0);
    SubTxn* n = req.NewNode(req.root(), 7, kT, "Mb", {});
    benchmark::DoNotOptimize(lm.Acquire(n, LockTarget::ForObject(7), true));
    lm.ReleaseTree(req.root());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcquireWithManyHolders)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

/// Acquire and release a one-entry tree while n other trees hold locks on
/// other objects of the same shard. The release walks only the tree's own
/// entries, so its cost should not grow with n.
void BM_ReleaseTreeAmongForeignEntries(benchmark::State& state) {
  const auto foreign = static_cast<size_t>(state.range(0));
  ProtocolOptions opts;
  LockManager lm(opts, Registry());
  const uint32_t shard = lm.ShardIndexOf(LockTarget::ForObject(7));
  std::vector<std::unique_ptr<TxnTree>> trees;
  for (Oid oid = 1000; trees.size() < foreign; ++oid) {
    if (lm.ShardIndexOf(LockTarget::ForObject(oid)) != shard) continue;
    trees.push_back(
        std::make_unique<TxnTree>(TxnTree::NextId(), "F", kDatabaseOid, 0));
    SubTxn* n = trees.back()->NewNode(trees.back()->root(), oid, kT, "Mb", {});
    (void)lm.Acquire(n, LockTarget::ForObject(oid), true);
  }
  for (auto _ : state) {
    TxnTree tree(TxnTree::NextId(), "T", kDatabaseOid, 0);
    SubTxn* n = tree.NewNode(tree.root(), 7, kT, "Mb", {});
    benchmark::DoNotOptimize(lm.Acquire(n, LockTarget::ForObject(7), true));
    lm.ReleaseTree(tree.root());
  }
  for (auto& t : trees) lm.ReleaseTree(t->root());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReleaseTreeAmongForeignEntries)->Arg(0)->Arg(64)->Arg(1024);

void BM_CommuteStaticLookup(benchmark::State& state) {
  CompatibilityRegistry* reg = Registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg->Commute(kT, "Ma", {}, "Mb", {}));
  }
}
BENCHMARK(BM_CommuteStaticLookup);

void BM_CommutePredicateLookup(benchmark::State& state) {
  CompatibilityRegistry* reg = Registry();
  Args a{Value(1)};
  Args b{Value(2)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg->Commute(kT, "Pa", a, "Pb", b));
  }
}
BENCHMARK(BM_CommutePredicateLookup);

void BM_CommuteGenericRule(benchmark::State& state) {
  CompatibilityRegistry* reg = Registry();
  Args a{Value(1), Value::Ref(5)};
  Args b{Value(2)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reg->Commute(99, generic_ops::kInsert, a, generic_ops::kRemove, b));
  }
}
BENCHMARK(BM_CommuteGenericRule);

}  // namespace
}  // namespace semcc

BENCHMARK_MAIN();

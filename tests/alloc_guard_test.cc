// Allocation guard for the action path: once the lock table and the
// transaction's first node chunk are warm, a lock-taking action allocates
// nothing (DESIGN.md §5.2).
//
// This executable replaces the global operator new and delete with versions
// that count, per thread, the allocations made while that thread's guard is
// armed, and only then. Each check runs its transaction once to warm up and
// counts a second run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "core/database.h"

namespace {

thread_local bool t_armed = false;
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (t_armed) ++t_allocs;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocNoThrow(std::size_t n, std::size_t align) noexcept {
  try {
    return CountedAlloc(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace semcc {
namespace {

DatabaseOptions GuardOptions() {
  DatabaseOptions o;
  // Both switched off as in production runs: the lock-invariant checker
  // records every tree's lock order, and the history recorder copies every
  // node, so each allocates per action by design.
  o.protocol.debug_lock_checks = false;
  o.record_history = false;
  return o;
}

/// Allocations of the calling thread during one run of `body`, after one
/// warm-up run.
uint64_t CountRun(Database* db, const TxnManager::Body& body) {
  const std::string name = "guard";
  EXPECT_TRUE(db->RunTransaction(name, body).ok());
  t_allocs = 0;
  t_armed = true;
  const Result<Value> r = db->RunTransaction(name, body);
  t_armed = false;
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return t_allocs;
}

TEST(AllocGuard, ExtraLeafGetsAllocateNothing) {
  Database db(GuardOptions());
  const TypeId number = db.schema()->DefineAtomicType("Number").ValueOrDie();
  std::vector<Oid> atoms;
  for (int64_t i = 0; i < 64; ++i) {
    atoms.push_back(db.store()->CreateAtomic(number, Value(i)).ValueOrDie());
  }
  auto gets = [&atoms](size_t n) -> TxnManager::Body {
    return [&atoms, n](TxnCtx& ctx) -> Result<Value> {
      for (size_t i = 0; i < n; ++i) {
        SEMCC_RETURN_NOT_OK(ctx.Get(atoms[i]).status());
      }
      return Value();
    };
  };
  const TxnManager::Body one = gets(1);
  const TxnManager::Body many = gets(atoms.size());
  const uint64_t one_allocs = CountRun(&db, one);
  const uint64_t many_allocs = CountRun(&db, many);
  // 63 more Gets on 63 more objects: at most a few node chunks more.
  EXPECT_LE(many_allocs, one_allocs + 8)
      << "1 Get: " << one_allocs << " allocations, 64 Gets: " << many_allocs;
}

TEST(AllocGuard, ShipTwoOrdersStaysUnderItsBound) {
  Database db(GuardOptions());
  const orderentry::OrderEntryTypes types =
      orderentry::Install(&db).ValueOrDie();
  orderentry::LoadSpec spec;
  spec.num_items = 8;
  spec.orders_per_item = 16;
  const orderentry::LoadedData data =
      orderentry::Load(&db, types, spec).ValueOrDie();
  const TxnManager::Body t1 = orderentry::T1_ShipTwoOrders(
      data.item_oids[1], 3, data.item_oids[5], 7, /*think_micros=*/0);
  // T1 runs 17 actions. Its method bodies build 10 argument vectors (the
  // Args of the two ShipOrder and ChangeStatus invocations and of the
  // Select and two Puts below each ShipOrder); nothing else may allocate.
  constexpr uint64_t kBound = 10;
  const uint64_t allocs = CountRun(&db, t1);
  EXPECT_LE(allocs, kBound);
}

}  // namespace
}  // namespace semcc

#include "cc/method_interner.h"

#include "cc/compatibility.h"
#include "util/logging.h"

namespace semcc {

MethodInterner& MethodInterner::Global() {
  static MethodInterner* interner = new MethodInterner();
  return *interner;
}

MethodInterner::MethodInterner() {
  // Pre-intern the generic operations at their fixed ids (generic_ids).
  const char* kGenericNames[] = {
      generic_ops::kGet,    generic_ops::kPut,    generic_ops::kInsert,
      generic_ops::kRemove, generic_ops::kSelect, generic_ops::kScan,
      generic_ops::kSize,   generic_ops::kMember, generic_ops::kRangeScan};
  MutexLock guard(mu_);
  snapshots_.push_back(std::make_unique<Snapshot>());
  current_.store(snapshots_.back().get(), std::memory_order_release);
  for (const char* name : kGenericNames) AddName(name);
  SEMCC_CHECK(Current()->names.size() == generic_ids::kNumGenericOps);
}

MethodId MethodInterner::AddName(const std::string& name) {
  auto next = std::make_unique<Snapshot>(*Current());
  const std::string_view stored = names_.emplace_back(name);
  const MethodId id = static_cast<MethodId>(next->names.size());
  next->names.push_back(stored);
  next->ids.emplace(stored, id);
  current_.store(next.get(), std::memory_order_release);
  snapshots_.push_back(std::move(next));
  return id;
}

MethodId MethodInterner::Intern(const std::string& name) {
  const MethodId id = Lookup(name);
  if (id != kInvalidMethodId) return id;
  MutexLock guard(mu_);
  // Another writer may have added it since the lock-free lookup.
  const MethodId raced = Lookup(name);
  return raced != kInvalidMethodId ? raced : AddName(name);
}

MethodId MethodInterner::Lookup(const std::string& name) const {
  const Snapshot* snap = Current();
  auto it = snap->ids.find(name);
  return it == snap->ids.end() ? kInvalidMethodId : it->second;
}

std::string MethodInterner::NameOf(MethodId id) const {
  const Snapshot* snap = Current();
  if (id >= snap->names.size()) return "?";
  return std::string(snap->names[id]);
}

size_t MethodInterner::size() const { return Current()->names.size(); }

}  // namespace semcc

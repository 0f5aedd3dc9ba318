#include "cc/compatibility.h"

#include <algorithm>

#include "util/logging.h"

namespace semcc {

namespace {
using PairKey = std::pair<std::string, std::string>;

PairKey MakeKey(const std::string& m1, const std::string& m2, bool* swapped) {
  if (m1 <= m2) {
    *swapped = false;
    return {m1, m2};
  }
  *swapped = true;
  return {m2, m1};
}
}  // namespace

void CompatibilityRegistry::DeclareMethod(TypeId type,
                                          const std::string& method) {
  MethodInterner::Global().Intern(method);
  WriterMutexLock guard(mu_);
  auto& list = methods_[type];
  if (std::find(list.begin(), list.end(), method) == list.end()) {
    list.push_back(method);
  }
}

void CompatibilityRegistry::Define(TypeId type, const std::string& m1,
                                   const std::string& m2, bool compatible) {
  bool swapped = false;
  PairKey key = MakeKey(m1, m2, &swapped);
  WriterMutexLock guard(mu_);
  Entry e;
  e.is_predicate = false;
  e.compatible = compatible;
  table_[type][key] = std::move(e);
  Recompile();
}

void CompatibilityRegistry::DefinePredicate(TypeId type, const std::string& m1,
                                            const std::string& m2,
                                            Predicate pred) {
  bool swapped = false;
  PairKey key = MakeKey(m1, m2, &swapped);
  WriterMutexLock guard(mu_);
  Entry e;
  e.is_predicate = true;
  e.pred = std::move(pred);
  e.swapped = swapped;
  table_[type][key] = std::move(e);
  Recompile();
}

void CompatibilityRegistry::Recompile() {
  auto compiled = std::make_unique<Compiled>();
  MethodInterner& interner = MethodInterner::Global();
  std::map<TypeId, Compiled::TypeTable> tables;
  for (const auto& [type, entries] : table_) {
    Compiled::TypeTable& table = tables[type];
    // Every registered name is interned here (cold path), so the table
    // covers all ids the conflict test can ever present for this type;
    // names interned later read kUnknown via the dim bound check.
    for (const auto& [key, entry] : entries) {
      interner.Intern(key.first);
      interner.Intern(key.second);
    }
    table.dim = static_cast<uint32_t>(interner.size());
    table.cells.assign(static_cast<size_t>(table.dim) * table.dim,
                       static_cast<uint8_t>(kUnknown));
    for (const auto& [key, entry] : entries) {
      const MethodId a = interner.Lookup(key.first);
      const MethodId b = interner.Lookup(key.second);
      SEMCC_CHECK(a != kInvalidMethodId && b != kInvalidMethodId);
      const Cell cell = entry.is_predicate
                            ? kPredicate
                            : (entry.compatible ? kCompatible : kConflict);
      table.cells[static_cast<size_t>(a) * table.dim + b] =
          static_cast<uint8_t>(cell);
      table.cells[static_cast<size_t>(b) * table.dim + a] =
          static_cast<uint8_t>(cell);
      if (entry.is_predicate) {
        // (a, b) is the canonical (sorted) key; entry.swapped says whether
        // the registration order was reversed relative to it. Store both
        // query directions with the arg order pre-resolved so the lookup
        // does no canonicalization: querying in registration order hands
        // args through unchanged.
        PredRef fwd;  // query (a, b): a1 belongs to canonical-first method
        fwd.pred = entry.pred;
        fwd.args_in_order = !entry.swapped;
        PredRef rev;  // query (b, a)
        rev.pred = entry.pred;
        rev.args_in_order = entry.swapped;
        table.preds.emplace(std::make_pair(a, b), std::move(fwd));
        if (a != b) table.preds.emplace(std::make_pair(b, a), std::move(rev));
      }
    }
  }
  for (auto& [type, table] : tables) {
    SEMCC_CHECK(type <= kMaxDenseTypeId);
    if (compiled->dense_types.size() <= type) {
      compiled->dense_types.resize(type + 1);
    }
    compiled->dense_types[type] = std::move(table);
  }
  compiled_.store(compiled.get(), std::memory_order_release);
  snapshots_.push_back(std::move(compiled));
}

const CompatibilityRegistry::Entry* CompatibilityRegistry::FindEntry(
    TypeId type, const std::string& m1, const std::string& m2,
    bool* swapped) const {
  auto tit = table_.find(type);
  if (tit == table_.end()) return nullptr;
  PairKey key = MakeKey(m1, m2, swapped);
  auto eit = tit->second.find(key);
  if (eit == tit->second.end()) return nullptr;
  return &eit->second;
}

bool CompatibilityRegistry::Commute(TypeId type, MethodId m1, const Args& a1,
                                    MethodId m2, const Args& a2) const {
  const Compiled* compiled = compiled_.load(std::memory_order_acquire);
  if (compiled != nullptr) {
    const Compiled::TypeTable* table = compiled->TableFor(type);
    if (table != nullptr) {
      switch (table->CellAt(m1, m2)) {
        case kCompatible:
          return true;
        case kConflict:
          return false;
        case kPredicate: {
          auto it = table->preds.find({m1, m2});
          SEMCC_CHECK(it != table->preds.end());
          const PredRef& ref = it->second;
          return ref.args_in_order ? ref.pred(a1, a2) : ref.pred(a2, a1);
        }
        case kUnknown:
          break;
      }
    }
  }
  std::optional<bool> generic = GenericCommute(m1, a1, m2, a2);
  if (generic.has_value()) return *generic;
  return false;  // safe default: conflict
}

bool CompatibilityRegistry::Commute(TypeId type, const std::string& m1,
                                    const Args& a1, const std::string& m2,
                                    const Args& a2) const {
  MethodInterner& interner = MethodInterner::Global();
  return Commute(type, interner.Intern(m1), a1, interner.Intern(m2), a2);
}

std::optional<bool> CompatibilityRegistry::GenericCommute(MethodId m1,
                                                          const Args& a1,
                                                          MethodId m2,
                                                          const Args& a2) {
  using namespace generic_ids;
  if (m1 >= kNumGenericOps || m2 >= kNumGenericOps) return std::nullopt;

  auto keys_differ = [](const Args& x, const Args& y) {
    if (x.empty() || y.empty()) return false;  // unknown: assume clash
    return !(x[0] == y[0]);
  };

  // Atomic objects: only Get/Get commutes.
  if (m1 == kGet && m2 == kGet) return true;
  const bool m1_atomic = (m1 == kGet || m1 == kPut);
  const bool m2_atomic = (m2 == kGet || m2 == kPut);
  if (m1_atomic && m2_atomic) return false;
  if (m1_atomic || m2_atomic) {
    return false;  // atomic op vs set op: nonsensical pairing, be safe
  }

  // Set objects.
  auto is_read = [](MethodId m) {
    return m == kSelect || m == kScan || m == kSize || m == kMember ||
           m == kRangeScan;
  };
  const bool m1_read = is_read(m1);
  const bool m2_read = is_read(m2);
  if (m1_read && m2_read) return true;
  // One side updates (Insert/Remove).
  const MethodId other = m1_read ? m1 : m2;
  const Args& upd_args = m1_read ? a2 : a1;
  const Args& other_args = m1_read ? a1 : a2;
  if (other == kScan || other == kSize) {
    return false;  // membership-sensitive reads conflict with updates
  }
  if (other == kRangeScan) {
    // Update vs range read: commute iff the updated key falls outside the
    // closed scan range [lo, hi]; missing arguments assume a clash.
    if (upd_args.empty() || other_args.size() < 2) return false;
    const Value& k = upd_args[0];
    return k < other_args[0] || other_args[1] < k;
  }
  // Key-addressed pairs (Insert/Remove/Select/Member in any combination):
  // commute iff they address different keys.
  return keys_differ(upd_args, other_args);
}

std::vector<std::string> CompatibilityRegistry::MethodsOf(TypeId type) const {
  ReaderMutexLock guard(mu_);
  auto it = methods_.find(type);
  if (it == methods_.end()) return {};
  return it->second;
}

std::optional<bool> CompatibilityRegistry::StaticEntry(
    TypeId type, const std::string& m1, const std::string& m2) const {
  ReaderMutexLock guard(mu_);
  bool swapped = false;
  const Entry* e = FindEntry(type, m1, m2, &swapped);
  if (e == nullptr || e->is_predicate) return std::nullopt;
  return e->compatible;
}

bool CompatibilityRegistry::HasPredicate(TypeId type, const std::string& m1,
                                         const std::string& m2) const {
  ReaderMutexLock guard(mu_);
  bool swapped = false;
  const Entry* e = FindEntry(type, m1, m2, &swapped);
  return e != nullptr && e->is_predicate;
}

CompatibilityRegistry::CellKind CompatibilityRegistry::CompiledCell(
    TypeId type, MethodId m1, MethodId m2) const {
  const Compiled* compiled = compiled_.load(std::memory_order_acquire);
  if (compiled == nullptr) return CellKind::kCellUnknown;
  const Compiled::TypeTable* table = compiled->TableFor(type);
  if (table == nullptr) return CellKind::kCellUnknown;
  return static_cast<CellKind>(table->CellAt(m1, m2));
}

uint32_t CompatibilityRegistry::CompiledDim(TypeId type) const {
  const Compiled* compiled = compiled_.load(std::memory_order_acquire);
  if (compiled == nullptr) return 0;
  const Compiled::TypeTable* table = compiled->TableFor(type);
  return table == nullptr ? 0 : table->dim;
}

std::vector<TypeId> CompatibilityRegistry::RegisteredTypes() const {
  ReaderMutexLock guard(mu_);
  std::vector<TypeId> types;
  types.reserve(table_.size());
  for (const auto& [type, entries] : table_) {
    if (!entries.empty()) types.push_back(type);
  }
  return types;
}

std::vector<std::pair<std::string, std::string>>
CompatibilityRegistry::RegisteredPairs(TypeId type) const {
  ReaderMutexLock guard(mu_);
  std::vector<std::pair<std::string, std::string>> pairs;
  auto it = table_.find(type);
  if (it == table_.end()) return pairs;
  pairs.reserve(it->second.size());
  for (const auto& [key, entry] : it->second) pairs.push_back(key);
  return pairs;
}

bool CompatibilityRegistry::TestOnlyCorruptCell(TypeId type,
                                               const std::string& m1,
                                               const std::string& m2,
                                               CellKind cell) {
  MethodInterner& interner = MethodInterner::Global();
  const MethodId a = interner.Lookup(m1);
  const MethodId b = interner.Lookup(m2);
  if (a == kInvalidMethodId || b == kInvalidMethodId) return false;
  // The snapshot is immutable by contract; tests break that contract on
  // purpose (and at quiescence) to seed a defect the verifier must reject.
  auto* compiled = const_cast<Compiled*>(
      compiled_.load(std::memory_order_acquire));
  if (compiled == nullptr) return false;
  auto* table = const_cast<Compiled::TypeTable*>(compiled->TableFor(type));
  if (table == nullptr || a >= table->dim || b >= table->dim) return false;
  table->cells[static_cast<size_t>(a) * table->dim + b] =
      static_cast<uint8_t>(cell);
  return true;
}

}  // namespace semcc

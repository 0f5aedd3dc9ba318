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

// --- derivation algebra helpers (DESIGN.md §5.8) ---------------------------

/// Can footprints f and g ever / always overlap, knowing only their shapes?
enum class Overlap : uint8_t { kNever, kArgDep, kAlways };

Overlap FootOverlap(const KeyRef& f, const KeyRef& g) {
  using Kind = KeyRef::Kind;
  if (f.kind == Kind::kNone || g.kind == Kind::kNone) return Overlap::kNever;
  if (f.kind == Kind::kAll || g.kind == Kind::kAll) return Overlap::kAlways;
  return Overlap::kArgDep;
}

/// A footprint bound to one invocation's actual arguments. Keys stay at the
/// Value level — comparisons use Value's total order, so string keys behave
/// exactly like the generic rules' key tests.
struct ConcreteFoot {
  KeyRef::Kind kind = KeyRef::Kind::kNone;
  const Value* a = nullptr;  ///< point key / range low
  const Value* b = nullptr;  ///< range high
  bool unknown = false;      ///< referenced argument missing: assume overlap
};

ConcreteFoot Resolve(const KeyRef& f, const Args& args) {
  ConcreteFoot c;
  c.kind = f.kind;
  auto bind = [&args](uint8_t i, const Value** out) {
    if (i >= args.size()) return false;
    *out = &args[i];
    return true;
  };
  switch (f.kind) {
    case KeyRef::Kind::kNone:
    case KeyRef::Kind::kAll:
      break;
    case KeyRef::Kind::kPoint:
      c.unknown = !bind(f.arg_a, &c.a);
      break;
    case KeyRef::Kind::kRange:
      c.unknown = !bind(f.arg_a, &c.a) || !bind(f.arg_b, &c.b);
      break;
  }
  return c;
}

bool FeetOverlap(const ConcreteFoot& x, const ConcreteFoot& y) {
  using Kind = KeyRef::Kind;
  if (x.kind == Kind::kNone || y.kind == Kind::kNone) return false;
  if (x.unknown || y.unknown) return true;  // safe default: clash
  if (x.kind == Kind::kAll || y.kind == Kind::kAll) return true;
  if (x.kind == Kind::kPoint && y.kind == Kind::kPoint) return *x.a == *y.a;
  // A point p against a closed range overlaps as the range [p, p] would.
  const Value& x_hi = x.kind == Kind::kRange ? *x.b : *x.a;
  const Value& y_hi = y.kind == Kind::kRange ? *y.b : *y.a;
  return !(x_hi < *y.a) && !(y_hi < *x.a);
}

/// One method's result depends on the membership count the other changes —
/// a conflict no key reasoning can dissolve.
bool SizeCoupled(const MethodSpec& s1, const MethodSpec& s2) {
  return (s1.observes_size && s2.size_delta != 0) ||
         (s2.observes_size && s1.size_delta != 0);
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

CompatibilityRegistry::DerivedCell CompatibilityRegistry::DeriveCell(
    const MethodSpec& s1, const MethodSpec& s2) {
  if (SizeCoupled(s1, s2)) return DerivedCell::kConflict;
  // Commutativity needs every (write, write/read) footprint pair disjoint;
  // read/read intersection is harmless.
  const Overlap terms[] = {FootOverlap(s1.writes, s2.writes),
                           FootOverlap(s1.writes, s2.reads),
                           FootOverlap(s1.reads, s2.writes)};
  DerivedCell cell = DerivedCell::kCompatible;
  for (Overlap o : terms) {
    if (o == Overlap::kAlways) return DerivedCell::kConflict;
    if (o == Overlap::kArgDep) cell = DerivedCell::kPredicate;
  }
  return cell;
}

bool CompatibilityRegistry::SpecsCommute(const MethodSpec& s1, const Args& a1,
                                         const MethodSpec& s2,
                                         const Args& a2) {
  if (SizeCoupled(s1, s2)) return false;
  const ConcreteFoot w1 = Resolve(s1.writes, a1);
  const ConcreteFoot r1 = Resolve(s1.reads, a1);
  const ConcreteFoot w2 = Resolve(s2.writes, a2);
  const ConcreteFoot r2 = Resolve(s2.reads, a2);
  return !FeetOverlap(w1, w2) && !FeetOverlap(w1, r2) && !FeetOverlap(r1, w2);
}

void CompatibilityRegistry::DefineMethodSpec(TypeId type,
                                             const std::string& method,
                                             const MethodSpec& spec) {
  MethodInterner::Global().Intern(method);
  WriterMutexLock guard(mu_);
  auto& list = methods_[type];
  if (std::find(list.begin(), list.end(), method) == list.end()) {
    list.push_back(method);
  }
  specs_[type][method] = spec;
  auto& type_entries = table_[type];
  for (const auto& [other, other_spec] : specs_[type]) {
    bool swapped = false;
    const PairKey key = MakeKey(method, other, &swapped);
    // A hand-written (or previously derived — same algebra, same result)
    // cell wins; derivation only fills pairs nobody specified. The matrix
    // verifier still re-derives every spec pair, so a hand-written cell
    // that contradicts the specs is reported, not silently kept.
    if (type_entries.find(key) != type_entries.end()) continue;
    Entry e;
    switch (DeriveCell(spec, other_spec)) {
      case DerivedCell::kCompatible:
        e.compatible = true;
        break;
      case DerivedCell::kConflict:
        e.compatible = false;
        break;
      case DerivedCell::kPredicate: {
        e.is_predicate = true;
        const MethodSpec s1 = spec;
        const MethodSpec s2 = other_spec;
        e.pred = [s1, s2](const Args& a1, const Args& a2) {
          return SpecsCommute(s1, a1, s2, a2);
        };
        // The predicate contract hands the first registered method's args
        // first; registration order here is (method, other) == (s1, s2).
        e.swapped = swapped;
        break;
      }
    }
    type_entries[key] = std::move(e);
  }
  Recompile();
}

std::optional<MethodSpec> CompatibilityRegistry::MethodSpecOf(
    TypeId type, MethodId m) const {
  const Compiled* compiled = compiled_.load(std::memory_order_acquire);
  if (compiled != nullptr) {
    const Compiled::TypeTable* table = compiled->TableFor(type);
    if (table != nullptr) {
      auto it = table->specs.find(m);
      if (it != table->specs.end()) return it->second;
    }
  }
  return GenericMethodSpec(m);
}

std::optional<MethodSpec> CompatibilityRegistry::GenericMethodSpec(
    MethodId m) {
  using namespace generic_ids;
  MethodSpec s;
  switch (m) {
    case kInsert:
      s.writes = KeyRef::Point(0);
      s.size_delta = 1;
      return s;
    case kRemove:
      s.reads = KeyRef::Point(0);  // observes presence of the key
      s.writes = KeyRef::Point(0);
      s.size_delta = -1;
      return s;
    case kSelect:
    case kMember:
      s.reads = KeyRef::Point(0);
      return s;
    case kRangeScan:
      s.reads = KeyRef::Range(0, 1);
      return s;
    case kScan:
      s.reads = KeyRef::All();
      return s;
    case kSize:
      s.observes_size = true;
      return s;
    default:
      return std::nullopt;  // Get/Put: atomic objects have no key space
  }
}

std::vector<std::string> CompatibilityRegistry::SpecMethodsOf(
    TypeId type) const {
  ReaderMutexLock guard(mu_);
  std::vector<std::string> out;
  auto it = specs_.find(type);
  if (it == specs_.end()) return out;
  for (const auto& entry : it->second) {
    out.push_back(entry.first);  // std::map iteration: already name-ordered
  }
  return out;
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
  // Attach compiled specs. A type with specs but no entries still gets a
  // table — with dim 0, so every cell reads kUnknown — purely to carry the
  // specs for MethodSpecOf.
  for (const auto& [type, spec_map] : specs_) {
    Compiled::TypeTable& table = tables[type];
    for (const auto& [name, spec] : spec_map) {
      table.specs[interner.Intern(name)] = spec;
    }
  }
  for (auto& [type, table] : tables) {
    if (type <= kMaxDenseTypeId) {
      if (compiled->dense_types.size() <= type) {
        compiled->dense_types.resize(type + 1);
      }
      compiled->dense_types[type] = std::move(table);
    } else {
      compiled->overflow_types.emplace(type, std::move(table));
    }
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

bool CompatibilityRegistry::TestOnlyCorruptSpec(TypeId type,
                                                const std::string& method,
                                                const MethodSpec& spec) {
  const MethodId id = MethodInterner::Global().Lookup(method);
  if (id == kInvalidMethodId) return false;
  auto* compiled = const_cast<Compiled*>(
      compiled_.load(std::memory_order_acquire));
  if (compiled == nullptr) return false;
  auto* table = const_cast<Compiled::TypeTable*>(compiled->TableFor(type));
  if (table == nullptr) return false;
  auto it = table->specs.find(id);
  if (it == table->specs.end()) return false;
  // Swap the spec WITHOUT re-deriving the cells it once produced — the
  // published matrix now disagrees with the published footprints, which is
  // exactly the defect the derivation-agreement check must catch.
  it->second = spec;
  return true;
}

}  // namespace semcc

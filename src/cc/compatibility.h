// Commutativity-based compatibility of method invocations (paper §2.2, §3).
//
// Two method invocations f and g on the same object commute iff the two
// sequential executions fg and gf are behaviorally equivalent: same return
// values for f and g, and same return values for every later invocation.
// Compatibility is specified per object type, either as a state-independent
// matrix entry or as a parameter-dependent predicate ("taking into account
// the actual input parameters of operations"), e.g. ChangeStatus(o, e1)
// commutes with TestStatus(o, e2) iff e1 != e2 (paper Figure 3).
//
// Hot-path layout: every Define/DefinePredicate recompiles the registered
// entries into an immutable snapshot of dense per-type tables indexed by
// interned MethodId pairs (cc/method_interner.h). The id-based Commute()
// overload — the one the lock manager's conflict test calls — is an atomic
// snapshot-pointer load plus two indexed loads for static entries; only
// predicate entries and the string-keyed legacy overload ever take a lock.
// Old snapshots are kept alive until the registry dies, so readers never
// synchronize with writers.
#ifndef SEMCC_CC_COMPATIBILITY_H_
#define SEMCC_CC_COMPATIBILITY_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cc/method_interner.h"
#include "object/oid.h"
#include "object/value.h"
#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

/// Names of the built-in generic operations on atomic and set objects
/// (paper §2.2). The registry knows their commutativity out of the box.
namespace generic_ops {
inline constexpr const char* kGet = "Get";
inline constexpr const char* kPut = "Put";
inline constexpr const char* kInsert = "Insert";   // args: [key, member-ref]
inline constexpr const char* kRemove = "Remove";   // args: [key]
inline constexpr const char* kSelect = "Select";   // args: [key]
inline constexpr const char* kScan = "Scan";       // args: []
inline constexpr const char* kSize = "Size";       // args: []
inline constexpr const char* kMember = "Member";   // args: [key]
inline constexpr const char* kRangeScan = "RangeScan";  // args: [lo, hi]
}  // namespace generic_ops

/// \brief Where a method's key footprint lives in its argument list.
///
/// One footprint describes the set of member keys a method may read or
/// write inside its object, as a function of the actual arguments: nothing,
/// one point key, a closed range, or every key.
struct KeyRef {
  enum class Kind : uint8_t {
    kNone = 0,   ///< no keyed access
    kPoint = 1,  ///< exactly the key in args[arg_a]
    kRange = 2,  ///< the closed range [args[arg_a], args[arg_b]]
    kAll = 3,    ///< every key (whole-set scan)
  };
  Kind kind = Kind::kNone;
  uint8_t arg_a = 0;  ///< argument index of the point / range-low key
  uint8_t arg_b = 0;  ///< argument index of the range-high key (kRange)

  static KeyRef None() { return {}; }
  static KeyRef Point(uint8_t arg) { return {Kind::kPoint, arg, 0}; }
  static KeyRef Range(uint8_t lo_arg, uint8_t hi_arg) {
    return {Kind::kRange, lo_arg, hi_arg};
  }
  static KeyRef All() { return {Kind::kAll, 0, 0}; }
};

/// \brief Declarative pre/postcondition footprint of one method over the
/// keyed members of a set-like object: which keys it reads, which it
/// writes, and how it interacts with the membership count.
///
/// A spec is complete: everything the method depends on or changes inside
/// the object is captured. For a pair of specs the commutativity verdict
/// (static cell or key-overlap predicate) is therefore *computed* from the
/// two footprints instead of hand-written (CompatibilityRegistry::
/// DefineMethodSpec), and tools/matrix_verify re-derives every such cell to
/// prove the published tables agree with the algebra (DESIGN.md §5.8).
struct MethodSpec {
  KeyRef reads;
  KeyRef writes;
  /// The method's result depends on the membership count (e.g. Size);
  /// conflicts with any size_delta != 0 method regardless of keys.
  bool observes_size = false;
  /// Net membership-count change (+1 insert, -1 remove, 0 otherwise).
  int size_delta = 0;
};

/// \brief Per-type compatibility specification.
///
/// Unknown pairs **conflict** — the safe default; it also makes transaction
/// roots (actions on the "Database" object) mutually conflicting, which is
/// the paper's worst case ("waiting for the top-level commit").
class CompatibilityRegistry {
 public:
  /// Symmetric predicate; receives the argument lists of the two invocations
  /// in the order the pair was registered (m1's args first).
  using Predicate = std::function<bool(const Args&, const Args&)>;

  CompatibilityRegistry() = default;
  SEMCC_DISALLOW_COPY_AND_ASSIGN(CompatibilityRegistry);

  /// Register a state-independent matrix entry (symmetric).
  void Define(TypeId type, const std::string& m1, const std::string& m2,
              bool compatible);

  /// Register a parameter-dependent entry (symmetric).
  void DefinePredicate(TypeId type, const std::string& m1,
                       const std::string& m2, Predicate pred);

  /// Declare a method name so it shows up in MethodsOf() / matrix printing.
  void DeclareMethod(TypeId type, const std::string& method);

  /// Register the declarative footprint of (type, method) and — for every
  /// pair of specs of this type that has no hand-written entry yet — derive
  /// and install the matrix cell from the two footprints: a static
  /// commute/conflict cell when the verdict is argument-independent, a
  /// key-overlap predicate (SpecsCommute over the actual arguments)
  /// otherwise. Also declares the method.
  void DefineMethodSpec(TypeId type, const std::string& method,
                        const MethodSpec& spec);

  /// The spec of (type, m) from the compiled snapshot, falling back to the
  /// built-in generic-operation specs; nullopt if neither exists.
  std::optional<MethodSpec> MethodSpecOf(TypeId type, MethodId m) const;

  /// Built-in footprints of the generic set operations (Insert, Remove,
  /// Select, Member, RangeScan, Scan, Size). nullopt for Get/Put (atomic
  /// objects have no key space) and for non-generic ids.
  static std::optional<MethodSpec> GenericMethodSpec(MethodId m);

  // --- derivation algebra (static; also used by cc/matrix_verifier to
  // re-derive and cross-check every published cell) ------------------------

  enum class DerivedCell : uint8_t { kCompatible, kConflict, kPredicate };

  /// The cell the two footprints imply: conflict if any write footprint
  /// always overlaps the other's read/write footprint or the pair is
  /// size-coupled (one observes the count the other changes); predicate if
  /// some overlap depends on the actual arguments; compatible otherwise.
  static DerivedCell DeriveCell(const MethodSpec& s1, const MethodSpec& s2);

  /// Runtime evaluation of a derived predicate cell: the invocations
  /// commute iff no (write, write/read) footprint pair overlaps under the
  /// actual arguments and the pair is not size-coupled. A footprint whose
  /// argument is missing is assumed to overlap everything (safe default,
  /// mirroring the generic rules' empty-args clash).
  static bool SpecsCommute(const MethodSpec& s1, const Args& a1,
                           const MethodSpec& s2, const Args& a2);

  /// Methods of `type` with a registered spec, in name order.
  std::vector<std::string> SpecMethodsOf(TypeId type) const;

  /// Do invocations (m1, a1) and (m2, a2) on the same object of `type`
  /// commute? Hot path: dense compiled tables over interned ids; static
  /// entries never lock or hash, predicates fall back to the id-keyed
  /// snapshot entry, unknown pairs fall through to the generic rules, else
  /// conflict.
  bool Commute(TypeId type, MethodId m1, const Args& a1, MethodId m2,
               const Args& a2) const;

  /// String-keyed convenience overload (tests, matrix printing, callers
  /// without a cached id). Interns and delegates.
  bool Commute(TypeId type, const std::string& m1, const Args& a1,
               const std::string& m2, const Args& a2) const;

  /// Built-in commutativity of generic operations by fixed id
  /// (generic_ids); nullopt if (m1, m2) is not a generic pair.
  static std::optional<bool> GenericCommute(MethodId m1, const Args& a1,
                                            MethodId m2, const Args& a2);

  /// Declared methods of a type, in declaration order.
  std::vector<std::string> MethodsOf(TypeId type) const;

  // --- verification introspection (tools/matrix_verify) -------------------
  // The build-time matrix verifier (cc/matrix_verifier.h) checks the
  // compiled dense tables against the registration-level view: symmetry of
  // cells, predicate/dense agreement, and matrix totality. These read-only
  // accessors expose exactly what it needs; the hot path never touches them.

  /// Kind of one compiled dense cell (mirrors the private Cell encoding).
  enum class CellKind : uint8_t {
    kCellUnknown = 0,     ///< unregistered: generic rules, else conflict
    kCellCompatible = 1,  ///< static entry: commute
    kCellConflict = 2,    ///< static entry: conflict
    kCellPredicate = 3,   ///< parameter-dependent
  };

  /// The compiled dense cell for (m1, m2) of `type` in the published
  /// snapshot. kCellUnknown when no snapshot, no table, or out of range.
  CellKind CompiledCell(TypeId type, MethodId m1, MethodId m2) const;

  /// Dimension (interner size at compile time) of `type`'s compiled table;
  /// 0 if the type has no table.
  uint32_t CompiledDim(TypeId type) const;

  /// Types that have at least one registered entry.
  std::vector<TypeId> RegisteredTypes() const;

  /// All registered (canonically ordered) method-name pairs of `type`.
  std::vector<std::pair<std::string, std::string>> RegisteredPairs(
      TypeId type) const;

  // --- test-only mutation hooks (tests/matrix_verify_test.cc) -------------
  // Corrupt the PUBLISHED snapshot in place so the verifier's rejection of
  // each defect class can be exercised. One direction only — Define() always
  // writes symmetric cells, so a broken matrix can otherwise not be built
  // through the public API. Never call outside tests.

  /// Overwrite the single cell (m1, m2) — not (m2, m1) — with `cell`
  /// (a raw CellKind value). Returns false if the cell is out of range.
  bool TestOnlyCorruptCell(TypeId type, const std::string& m1,
                           const std::string& m2, CellKind cell);

  /// Overwrite the published snapshot's spec for (type, method) WITHOUT
  /// recompiling or re-deriving — seeds a spec/matrix disagreement for the
  /// verifier's derivation-agreement mutation tests. Returns false if the
  /// method has no compiled spec.
  bool TestOnlyCorruptSpec(TypeId type, const std::string& method,
                           const MethodSpec& spec);

  /// For matrix printing: the static entry, or nullopt if the pair is
  /// predicate-based or unregistered.
  std::optional<bool> StaticEntry(TypeId type, const std::string& m1,
                                  const std::string& m2) const;
  bool HasPredicate(TypeId type, const std::string& m1,
                    const std::string& m2) const;

 private:
  struct Entry {
    bool is_predicate = false;
    bool compatible = false;
    Predicate pred;
    bool swapped = false;  // true if stored under (m2, m1)
  };
  using PairKey = std::pair<std::string, std::string>;

  /// One dense cell of a compiled per-type table.
  enum Cell : uint8_t {
    kUnknown = 0,     ///< pair not registered: generic rules, else conflict
    kCompatible = 1,  ///< static entry: commute
    kConflict = 2,    ///< static entry: conflict
    kPredicate = 3,   ///< parameter-dependent: see preds
  };

  /// A predicate reference with the argument order pre-resolved for one
  /// query direction (the predicate contract hands the first registered
  /// method's args first).
  struct PredRef {
    Predicate pred;
    bool args_in_order;  ///< pred(a1, a2) if true, pred(a2, a1) otherwise
  };

  /// Immutable compiled snapshot of the registry.
  struct Compiled {
    /// Dense id-pair tables for types in [0, dense_types.size()).
    struct TypeTable {
      uint32_t dim = 0;                ///< interner size at compile time
      std::vector<uint8_t> cells;      ///< dim * dim Cell values
      /// Directional predicate refs keyed by (m1, m2) ids; consulted only
      /// when the cell says kPredicate.
      std::map<std::pair<MethodId, MethodId>, PredRef> preds;
      /// Registered method specs by id (MethodSpecOf); the generic-op
      /// fallback is layered on in MethodSpecOf, not stored.
      std::map<MethodId, MethodSpec> specs;

      Cell CellAt(MethodId m1, MethodId m2) const {
        if (m1 >= dim || m2 >= dim) return kUnknown;
        return static_cast<Cell>(cells[static_cast<size_t>(m1) * dim + m2]);
      }
    };
    std::vector<TypeTable> dense_types;
    /// Types whose id exceeded the dense bound (never in practice; schema
    /// ids are sequential and small).
    std::map<TypeId, TypeTable> overflow_types;

    const TypeTable* TableFor(TypeId type) const {
      if (type < dense_types.size()) return &dense_types[type];
      if (overflow_types.empty()) return nullptr;
      auto it = overflow_types.find(type);
      return it == overflow_types.end() ? nullptr : &it->second;
    }
  };

  /// Largest TypeId stored in the dense vector (inclusive).
  static constexpr TypeId kMaxDenseTypeId = 4095;

  const Entry* FindEntry(TypeId type, const std::string& m1,
                         const std::string& m2, bool* swapped) const
      SEMCC_REQUIRES_SHARED(mu_);

  /// Rebuild the compiled snapshot from table_ and publish it.
  void Recompile() SEMCC_REQUIRES(mu_);

  mutable SharedMutex mu_;
  std::map<TypeId, std::map<PairKey, Entry>> table_ SEMCC_GUARDED_BY(mu_);
  std::map<TypeId, std::vector<std::string>> methods_ SEMCC_GUARDED_BY(mu_);
  /// Registered method specs (DefineMethodSpec), by type and method name;
  /// compiled into each snapshot's TypeTable::specs at Recompile time.
  std::map<TypeId, std::map<std::string, MethodSpec>> specs_
      SEMCC_GUARDED_BY(mu_);

  /// Published snapshot; old versions stay alive in snapshots_ so readers
  /// can keep dereferencing a stale pointer without coordination.
  std::atomic<const Compiled*> compiled_{nullptr};
  std::vector<std::unique_ptr<Compiled>> snapshots_ SEMCC_GUARDED_BY(mu_);
};

}  // namespace semcc

#endif  // SEMCC_CC_COMPATIBILITY_H_

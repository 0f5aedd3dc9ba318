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
// snapshot-pointer load plus two indexed loads for static entries; a
// predicate cell adds a lookup in the snapshot's predicate map, still with
// no lock. Only the string-keyed overload can take a mutex: the interner's,
// for a name it has not seen. Pairs with no cell (every pair of a set type)
// fall through to the generic set rules (GenericCommute). Old snapshots are
// kept alive until the registry dies, so readers never synchronize with
// writers.
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

      Cell CellAt(MethodId m1, MethodId m2) const {
        if (m1 >= dim || m2 >= dim) return kUnknown;
        return static_cast<Cell>(cells[static_cast<size_t>(m1) * dim + m2]);
      }
    };
    std::vector<TypeTable> dense_types;

    const TypeTable* TableFor(TypeId type) const {
      return type < dense_types.size() ? &dense_types[type] : nullptr;
    }
  };

  /// Largest TypeId a registry accepts (Schema hands out sequential ids).
  static constexpr TypeId kMaxDenseTypeId = 4095;

  const Entry* FindEntry(TypeId type, const std::string& m1,
                         const std::string& m2, bool* swapped) const
      SEMCC_REQUIRES_SHARED(mu_);

  /// Rebuild the compiled snapshot from table_ and publish it.
  void Recompile() SEMCC_REQUIRES(mu_);

  mutable SharedMutex mu_;
  std::map<TypeId, std::map<PairKey, Entry>> table_ SEMCC_GUARDED_BY(mu_);
  std::map<TypeId, std::vector<std::string>> methods_ SEMCC_GUARDED_BY(mu_);

  /// Published snapshot; old versions stay alive in snapshots_ so readers
  /// can keep dereferencing a stale pointer without coordination.
  std::atomic<const Compiled*> compiled_{nullptr};
  std::vector<std::unique_ptr<Compiled>> snapshots_ SEMCC_GUARDED_BY(mu_);
};

}  // namespace semcc

#endif  // SEMCC_CC_COMPATIBILITY_H_

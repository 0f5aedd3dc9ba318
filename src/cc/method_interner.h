// Process-wide interning of method names to dense integer ids.
//
// The conflict test of paper §4.2 runs once per (holder, requester) pair per
// ancestor-walk step on every lock acquisition; keying it by std::string
// makes the hot path hash strings and chase heap. Interning every method
// name once — at SubTxn creation and at compatibility registration, both
// cold paths — lets the conflict test work on 32-bit ids: the
// CompatibilityRegistry compiles its per-type matrices into dense id-indexed
// tables (see cc/compatibility.h) and the lock manager's TestConflict never
// touches a string.
//
// Ids are assigned process-wide (not per registry) so a SubTxn's cached id
// is meaningful against any CompatibilityRegistry. The generic operations of
// paper §2.2 get fixed ids 0..6 so their built-in commutativity rules can
// switch on small constants.
#ifndef SEMCC_CC_METHOD_INTERNER_H_
#define SEMCC_CC_METHOD_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

using MethodId = uint32_t;
constexpr MethodId kInvalidMethodId = UINT32_MAX;

/// Fixed ids of the built-in generic operations (paper §2.2), pre-interned
/// by MethodInterner::Global() in this order.
namespace generic_ids {
inline constexpr MethodId kGet = 0;
inline constexpr MethodId kPut = 1;
inline constexpr MethodId kInsert = 2;
inline constexpr MethodId kRemove = 3;
inline constexpr MethodId kSelect = 4;
inline constexpr MethodId kScan = 5;
inline constexpr MethodId kSize = 6;
inline constexpr MethodId kMember = 7;
inline constexpr MethodId kRangeScan = 8;
inline constexpr MethodId kNumGenericOps = 9;
}  // namespace generic_ids

/// \brief Thread-safe append-only string-to-id table.
///
/// Intern() runs once per action (every SubTxn constructor interns its
/// method name) and at compatibility registration. The conflict test uses
/// the cached ids and never comes here.
///
/// Readers take no lock: the table is an immutable snapshot reached through
/// an atomic pointer, as in CompatibilityRegistry. Interning a new name
/// copies the snapshot under the writers' mutex, adds the name and publishes
/// the copy with release. Old snapshots stay alive until the interner dies,
/// so a reader may keep using the one it loaded; the name strings live once,
/// in `names_`, and the snapshots hold views of them.
class MethodInterner {
 public:
  /// The process-wide interner (generic operations pre-interned).
  static MethodInterner& Global();

  MethodInterner();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(MethodInterner);

  /// Id of `name`, assigning a fresh one on first sight.
  MethodId Intern(const std::string& name) SEMCC_EXCLUDES(mu_);

  /// Id of `name`, or kInvalidMethodId if it was never interned.
  MethodId Lookup(const std::string& name) const;

  /// The name behind `id`.
  std::string NameOf(MethodId id) const;

  /// Number of distinct interned names (== smallest unassigned id).
  size_t size() const;

 private:
  struct Snapshot {
    std::unordered_map<std::string_view, MethodId> ids;
    std::vector<std::string_view> names;  ///< index = id
  };

  const Snapshot* Current() const {
    return current_.load(std::memory_order_acquire);
  }
  /// Copy the current snapshot, add `name` at the next id, publish.
  MethodId AddName(const std::string& name) SEMCC_REQUIRES(mu_);

  Mutex mu_;
  /// Backing store of every interned name (deque: elements never move).
  std::deque<std::string> names_ SEMCC_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Snapshot>> snapshots_ SEMCC_GUARDED_BY(mu_);
  std::atomic<const Snapshot*> current_{nullptr};
};

}  // namespace semcc

#endif  // SEMCC_CC_METHOD_INTERNER_H_

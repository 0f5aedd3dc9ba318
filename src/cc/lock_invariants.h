// Debug-mode invariant checking for the semantic lock manager.
//
// The locking protocol of paper §4.2 is exactly the kind of logic where a
// latent bug survives every unit test and then invalidates a benchmark: a
// grant that slips past the compatibility matrix, a lock that leaks across
// top-level commit, a wait-for cycle the deadlock detector fails to see.
// When ProtocolOptions::debug_lock_checks is on, the LockManager re-derives
// the protocol invariants from first principles on every grant and release
// (under its table mutex) and funnels violations through the counters here,
// which tests assert to be zero — turning latent protocol bugs into test
// failures.
//
// Checked invariants:
//  * grant soundness — at the moment a request is granted, every other
//    granted (or earlier-queued, FCFS) entry on the target must pass
//    test-conflict: same transaction, commuting invocations, or a commuting
//    ancestor pair with the holder side committed (Case 1);
//  * retained-lock ownership — a lock entry still *waiting* in the queue
//    must never belong to a completed subtransaction (only granted locks
//    are retained past completion), and every lock of a finished top-level
//    transaction must be gone once ReleaseTree returns;
//  * wait-graph acyclicity — the waits-for graph (plus the completion
//    dependencies through incomplete children) must be acyclic once
//    victims are excluded: a surviving cycle means DetectDeadlock missed a
//    deadlock;
//  * lock-order discipline (diagnostic only) — the global
//    "transaction holding A acquired B" graph is tracked, and closing a
//    cycle in it is counted as an order inversion. Inversions are legal
//    under this protocol (the deadlock detector resolves them) but each one
//    is a potential deadlock, so tests can assert their absence.
#ifndef SEMCC_CC_LOCK_INVARIANTS_H_
#define SEMCC_CC_LOCK_INVARIANTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace semcc {

/// \brief Cumulative counters of the invariant checker. `checks` counts
/// grant/release check passes (proof the checker actually ran); the
/// violation counters stay zero on a correct protocol.
struct LockInvariantStats {
  std::atomic<uint64_t> checks{0};
  /// A granted request conflicted with a held/earlier entry.
  std::atomic<uint64_t> grant_violations{0};
  /// A waiting (non-granted) entry owned by a completed subtransaction.
  std::atomic<uint64_t> retained_violations{0};
  /// Entries still present after their tree's ReleaseTree.
  std::atomic<uint64_t> leaked_locks{0};
  /// Wait-for cycle with no deadlock victim chosen.
  std::atomic<uint64_t> wait_cycle_violations{0};
  /// Lock-order graph cycles (potential deadlocks; diagnostic only).
  std::atomic<uint64_t> order_inversions{0};

  /// Violations that indicate a protocol bug (everything except the
  /// diagnostic order inversions).
  uint64_t protocol_violations() const {
    return grant_violations.load() + retained_violations.load() +
           leaked_locks.load() + wait_cycle_violations.load();
  }

  std::string ToString() const;
};

/// \brief Directed graph over lock targets recording the order in which
/// transactions acquire them; a cycle is a potential deadlock.
///
/// Thread-compatible: the LockManager calls it under its table mutex.
/// Nodes are packed LockTarget keys (see LockManager); the graph only ever
/// grows — lock-ordering discipline is a whole-run property, so edges are
/// not removed when locks are released.
class LockOrderGraph {
 public:
  LockOrderGraph() = default;

  /// Record that some transaction holding `from` acquired `to`. Returns
  /// false iff the new edge closes a cycle (an order inversion); the edge
  /// is recorded either way so repeated inversions over the same pair are
  /// reported once.
  bool AddEdge(uint64_t from, uint64_t to);

  /// Is `to` reachable from `from` over recorded edges?
  bool Reachable(uint64_t from, uint64_t to) const;

  size_t num_edges() const;
  void Clear();

 private:
  std::map<uint64_t, std::set<uint64_t>> adj_;
};

}  // namespace semcc

#endif  // SEMCC_CC_LOCK_INVARIANTS_H_

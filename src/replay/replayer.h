// Trace replay engine (DESIGN.md §5.9): turn a binary lock-trace capture
// (util/trace.h, SEMCC_TRACE_CAPTURE) back into a schedule of lock-manager
// operations and re-execute it against a live LockManager.
//
// The capture records, per lock decision, the acquirer's subtxn id, root
// id, tree depth, method name, object type id, up to two integer method
// arguments, and the lock target — enough to rebuild each transaction tree
// (depth-stack parent inference) and re-drive LockManager::Acquire through
// the real commutativity matrix. Two modes:
//
//  * verify — single-threaded, events in capture order, wait_timeout
//    clamped to zero so a would-block acquisition returns TimedOut
//    immediately instead of parking. Deterministic: the same capture
//    always yields the same verdict counts (the replay determinism test
//    and the CI replay-smoke leg assert exactly this).
//  * bench — closed loop: captured roots are dealt round-robin to N
//    threads, each thread re-executes its transactions' full lock
//    schedules back-to-back. Reports wall time and replayed-root
//    throughput; useful for re-running a production-shaped contention
//    pattern against different ProtocolOptions (tools/trace_replay).
//
// Only lock/transaction events drive the replay; WAL and checkpoint
// events are ignored.
#ifndef SEMCC_REPLAY_REPLAYER_H_
#define SEMCC_REPLAY_REPLAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "util/trace.h"

namespace semcc {
namespace replay {

enum class ReplayMode {
  kVerify = 0,  ///< single-threaded, capture order, non-blocking
  kBench = 1,   ///< closed-loop multi-threaded re-execution
};

struct ReplayOptions {
  ReplayMode mode = ReplayMode::kVerify;
  /// Worker threads (bench mode; verify is always single-threaded).
  int threads = 4;
  /// Lock-manager configuration to replay against. wait_timeout is
  /// overridden to 0 in verify mode.
  ProtocolOptions protocol;
};

/// \brief What one replay did (plain data).
struct ReplayResult {
  uint64_t roots = 0;       ///< transaction trees rebuilt and re-executed
  uint64_t actions = 0;     ///< lock acquisitions replayed
  uint64_t granted = 0;     ///< ... that came back OK
  uint64_t denied = 0;      ///< ... TimedOut / Deadlock / Aborted
  uint64_t skipped_events = 0;  ///< capture events not usable for replay
  uint64_t wall_micros = 0;     ///< bench mode: wall time of the replay
  LockStats locks;          ///< replaying lock manager's final counters

  /// The determinism fingerprint: the verdict breakdown plus grant/deny
  /// totals, as one JSON object (stable field order).
  std::string VerdictJson() const;
  std::string ToJson() const;
};

/// \brief Replay `events` (a capture loaded with trace::ReadBinary) against
/// a fresh LockManager built from `opts.protocol` and `compat`. The
/// registry must define the method compatibilities of the captured
/// workload's types (e.g. orderentry::Install's schema for captures taken
/// from the stock benches); unknown method pairs default to conflicting,
/// which still replays but skews verdicts.
ReplayResult Replay(const std::vector<trace::Event>& events,
                    CompatibilityRegistry* compat, const ReplayOptions& opts);

}  // namespace replay
}  // namespace semcc

#endif  // SEMCC_REPLAY_REPLAYER_H_

// Per-thread ring-buffer event tracer for protocol decisions.
//
// Each thread that emits gets its own fixed-capacity ring of POD events
// (no allocation, no locking on the emit path after the first event);
// when a ring is full the oldest events are overwritten and counted as
// dropped. Dumping merges every thread's ring and sorts by the global
// sequence number stamped at emit time.
//
// Turning it on: the `SEMCC_TRACE` environment variable — "0"/unset is
// off; any other value enables tracing process-wide, and a value other than
// "1"/"on" is additionally treated as an output path that the process dumps
// JSON-lines to at exit (convenient for benches:
// `SEMCC_TRACE=/tmp/fig5.trace ./bench_fig5_bypass`). Tests call Enable().
// scripts/trace_report.py interprets the dump.
//
// When tracing is off the instrumentation call sites reduce to one
// predicted-false branch on a relaxed atomic load — the emit path, the
// rings, and the seq counter are never touched (DESIGN.md §5.5).
//
// Dump at quiescent points: SnapshotEvents/ToJsonLines read the rings
// without synchronizing against concurrent Emit calls on other threads
// (the emit path must stay wait-free), so readers must run after the
// traced threads are joined — which is when every consumer here (tests,
// the atexit hook, post-run bench dumps) runs anyway.
#ifndef SEMCC_UTIL_TRACE_H_
#define SEMCC_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/macros.h"
#include "util/status.h"

namespace semcc {
namespace trace {

enum class EventKind : uint8_t {
  kGrant = 1,          ///< lock granted on the first (pre-append) scan
  kBlock = 3,          ///< request blocked; `other` = blocker id
  kGrantAfterWait = 4, ///< blocked request finally granted; `value` = wait us
  kDeadlockVictim = 5, ///< requester chosen as deadlock victim
  kLockTimeout = 6,    ///< wait exceeded ProtocolOptions::wait_timeout
  kAbortedWait = 7,    ///< wait abandoned: transaction abort requested
  kComplete = 8,       ///< subtransaction completed (locks become retained)
  kRelease = 9,        ///< top-level release of the whole tree's locks
  kWakeup = 10,        ///< a shard's waiters were notified; `shard` = which
  kTxnBegin = 11,
  kTxnCommit = 12,
  kTxnAbort = 13,
  kTxnRetry = 14,      ///< system abort being retried; `value` = attempt
  kWalAppend = 15,     ///< `txn` = lsn
  kWalFlush = 16,      ///< `other` = records in batch, `value` = micros
  kWalDegrade = 17,    ///< flush retries exhausted; WAL now read-only
  kSnapshotRead = 18,  ///< MVCC read, no lock; `other` = snapshot ts,
                       ///< `value` = version ts observed
  kWalCheckpoint = 19, ///< log prefix truncated; `txn` = trunc LSN,
                       ///< `other` = records dropped, `value` = bytes freed
};

const char* EventKindName(EventKind k);

/// Event flag bits.
inline constexpr uint8_t kFlagBlockerRetained = 1;  ///< blocking entry was a
                                                    ///< retained lock

/// \brief One trace event. Plain data; `method` is a truncated copy so the
/// event stays valid after the SubTxn it describes is destroyed.
struct Event {
  uint64_t seq = 0;     ///< global emit order (stamped by Emit)
  uint64_t micros = 0;  ///< since process trace start (stamped by Emit)
  uint64_t txn = 0;     ///< subtxn id (WAL events: lsn)
  uint64_t root = 0;    ///< top-level transaction id
  uint64_t other = 0;   ///< blocker subtxn id / batch records / ...
  uint64_t value = 0;   ///< wait micros / flush micros / retry attempt / ...
  uint64_t target = 0;  ///< lock-target key
  uint32_t shard = 0;
  uint16_t depth = 0;
  uint8_t target_space = 0;  ///< LockTarget::Space
  uint8_t kind = 0;          ///< EventKind
  uint8_t verdict = 0;       ///< ConflictOutcome
  uint8_t flags = 0;
  char method[26] = {0};  ///< NUL-terminated, truncated

  void set_method(const std::string& m);
  std::string ToJson() const;
};

namespace internal {
/// Process-wide enable flag. Exposed so Active() compiles down to one
/// inline relaxed load + predicted-false branch — an out-of-line call per
/// instrumented operation is measurable on the lock fast path. Written by
/// Enable() and the SEMCC_TRACE env init, which trace.cc runs from a
/// static initializer (before main), so ordinary code never observes a
/// pre-init false when the env var is set.
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// The gate instrumented components use: is tracing on (SEMCC_TRACE env,
/// or Enable())? Relaxed load.
inline bool Active() {
  return SEMCC_PREDICT_FALSE(
      internal::g_enabled.load(std::memory_order_relaxed));
}

/// Programmatic enable/disable (overrides the env decision; tests).
void Enable(bool on);

/// Stamp seq + timestamp and append to this thread's ring.
void Emit(Event e);

/// Events currently buffered across all rings, in seq order.
std::vector<Event> SnapshotEvents();

/// Total events overwritten by ring wraparound, across all rings.
uint64_t TotalDropped();

/// All buffered events as JSON-lines (one object per line, seq order).
std::string ToJsonLines();

/// Write ToJsonLines() to `path`.
Status WriteJsonLines(const std::string& path);

/// Drop all buffered events and reset the dropped counters (rings stay
/// registered). Does not change the enabled state or the seq counter.
void ResetForTesting();

/// Set the per-thread ring capacity (rounded up to a power of two) and
/// clear existing rings to the new size. Default: 8192 events.
void SetRingCapacityForTesting(size_t capacity);

}  // namespace trace
}  // namespace semcc

#endif  // SEMCC_UTIL_TRACE_H_

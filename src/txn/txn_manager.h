// TxnManager: top-level transaction lifecycle — run, commit, abort with
// compensation, deadlock-victim retry.
#ifndef SEMCC_TXN_TXN_MANAGER_H_
#define SEMCC_TXN_TXN_MANAGER_H_

#include <functional>
#include <string>

#include "cc/lock_manager.h"
#include "txn/history.h"
#include "txn/method_registry.h"
#include "txn/txn_context.h"
#include "util/macros.h"
#include "util/metrics.h"

namespace semcc {

/// \brief Point-in-time snapshot of transaction statistics (plain data;
/// returned by value from TxnManager::stats()).
struct TxnStats {
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t retries = 0;
  uint64_t app_errors = 0;
  /// Compensating actions (inverses and leaf undos) that returned an error
  /// during an abort's rollback. Each one is an update the abort failed to
  /// undo; the abort itself still completes.
  uint64_t compensation_failures = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// \brief Runs transaction bodies as open nested transactions.
class TxnManager {
 public:
  using Body = std::function<Result<Value>(TxnCtx&)>;

  /// `versions` is the MVCC layer (ProtocolOptions::mvcc_reads); null when
  /// the flag is off. With it present, every transaction reports its write
  /// set on completion and RunSnapshot becomes available.
  TxnManager(ObjectStore* store, LockManager* lm, MethodRegistry* methods,
             HistoryRecorder* recorder, ActionLogger* logger = nullptr,
             VersionedObjectStore* versions = nullptr);
  SEMCC_DISALLOW_COPY_AND_ASSIGN(TxnManager);

  /// Execute `body` as a top-level transaction named `name`.
  ///
  /// On success the transaction commits: all its locks are released and its
  /// tree is recorded in the history. A tree that logged an update forces
  /// its commit record first; if that force fails, the commit's error is
  /// returned and not retried (the updates stay applied in memory, but are
  /// not durable). On failure (including deadlock-victim
  /// aborts) all committed subtransactions are compensated in reverse order
  /// and — for system-induced aborts (Deadlock/Aborted/TimedOut) — the body
  /// is re-executed up to `max_retries` times with exponential backoff.
  /// Application errors are not retried.
  ///
  /// The body MUST be re-entrant: it can run several times, so it must not
  /// move captured state out or otherwise consume one-shot resources.
  Result<Value> Run(const std::string& name, const Body& body,
                    int max_retries = 16);

  /// Like Run but never retries; useful in scenario tests that need to
  /// observe a single attempt.
  Result<Value> RunOnce(const std::string& name, const Body& body);

  /// Execute `body` as a snapshot-read transaction (requires a version
  /// store, i.e. ProtocolOptions::mvcc_reads): reads observe a
  /// commit-consistent snapshot, no lock is ever acquired, and writes fail
  /// with PreconditionFailed. Never retried — with no locks there are no
  /// system aborts; any error is the body's own.
  Result<Value> RunSnapshot(const std::string& name, const Body& body);

  VersionedObjectStore* versions() const { return versions_; }

  /// Monotonic lower-bound snapshot (exact at quiesce; see
  /// metrics::CounterBank).
  TxnStats stats() const;

 private:
  /// Counter indices in counters_ (striped by thread, not by shard).
  enum Counter : size_t {
    kCtrBegins = 0,
    kCtrCommits,
    kCtrAborts,
    kCtrRetries,
    kCtrAppErrors,
    kCtrCompensationFailures,
    kCtrCount,
  };

  /// Sets `*committed` once the tree committed. Its result is then OK or
  /// the failure to make the commit record stable.
  Result<Value> RunAttempt(const std::string& name, const Body& body,
                           TxnId priority, bool* committed);

  ObjectStore* const store_;
  LockManager* const lm_;
  MethodRegistry* const methods_;
  HistoryRecorder* const recorder_;
  ActionLogger* const logger_;
  VersionedObjectStore* const versions_;
  metrics::CounterBank counters_;
};

}  // namespace semcc

#endif  // SEMCC_TXN_TXN_MANAGER_H_

// Database: the public facade of the semcc library.
//
// Wires together the storage substrate (disk manager, buffer pool, record
// manager), the object store, the compatibility registry, the semantic lock
// manager, and the open-nested transaction manager.
//
// Typical use:
//
//   semcc::DatabaseOptions options;                     // semantic ONT
//   semcc::Database db(options);
//   ... define types (db.schema()), methods (db.RegisterMethod),
//       compatibilities (db.compat()) ...
//   auto r = db.RunTransaction("T1", [&](semcc::TxnCtx& ctx) {
//     return ctx.Invoke(item, "ShipOrder", {order_no});
//   });
#ifndef SEMCC_CORE_DATABASE_H_
#define SEMCC_CORE_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "object/object_store.h"
#include "object/schema.h"
#include "object/versioned_store.h"
#include "storage/buffer_pool.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal.h"
#include "storage/disk_manager.h"
#include "storage/record_manager.h"
#include "txn/history.h"
#include "txn/method_registry.h"
#include "txn/txn_manager.h"
#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

struct DatabaseOptions {
  ProtocolOptions protocol;
  /// Enable write-ahead logging for multi-level recovery (see
  /// recovery/recovery_manager.h). Off by default: the paper defers
  /// recovery; this is the future-work extension.
  bool enable_wal = false;
  /// Durability policy and log device selection (group commit, file-backed
  /// vs in-memory log) — see RecoveryOptions.
  RecoveryOptions recovery;
  size_t buffer_pool_pages = 4096;
  /// Record finished transaction trees (needed by the serializability
  /// checker and the figure benches; disable for long perf runs).
  bool record_history = true;
};

/// \brief One consistent-at-quiesce snapshot of every subsystem's counters
/// (see DESIGN.md §5.5 for the exactness contract).
struct DatabaseStats {
  LockStats locks;
  TxnStats txns;
  bool wal_enabled = false;
  WalStats wal;  ///< zeroes unless wal_enabled
  bool mvcc_enabled = false;
  VersionStats versions;  ///< zeroes unless mvcc_enabled

  /// One JSON object with "locks"/"txns" (and "wal"/"versions" when the
  /// corresponding subsystem is enabled) fields.
  std::string ToJson() const;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(Database);

  // --- component access ---------------------------------------------------
  Schema* schema() { return &schema_; }
  ObjectStore* store() { return store_.get(); }
  CompatibilityRegistry* compat() { return &compat_; }
  MethodRegistry* methods() { return &methods_; }
  LockManager* locks() { return lock_manager_.get(); }
  TxnManager* txns() { return txn_manager_.get(); }
  HistoryRecorder* history() { return &history_; }
  BufferPool* buffer_pool() { return buffer_pool_.get(); }
  /// Null unless options.enable_wal.
  WriteAheadLog* wal() { return wal_.get(); }
  RecoveryManager* recovery() { return recovery_.get(); }
  /// Null unless options.protocol.mvcc_reads.
  VersionedObjectStore* versions() { return versioned_store_.get(); }

  const DatabaseOptions& options() const { return options_; }

  /// Snapshot of lock, transaction, and (when enabled) WAL statistics.
  DatabaseStats Stats() const;

  // --- convenience ----------------------------------------------------------

  /// Register a method and declare its name for matrix printing.
  Status RegisterMethod(MethodDef def);

  /// Run a transaction with system-abort retry (see TxnManager::Run).
  Result<Value> RunTransaction(const std::string& name,
                               const TxnManager::Body& body,
                               int max_retries = 16);
  /// Run exactly one attempt (scenario tests).
  Result<Value> RunTransactionOnce(const std::string& name,
                                   const TxnManager::Body& body);

  /// Run a read-only transaction. With options.protocol.mvcc_reads this is
  /// a lock-free snapshot read (TxnManager::RunSnapshot); without the flag
  /// it degrades to the ordinary locking path, which is what makes the
  /// flag a clean on/off ablation for identical workload code.
  Result<Value> RunReadTransaction(const std::string& name,
                                   const TxnManager::Body& body,
                                   int max_retries = 16);

  // --- durable named roots & restart --------------------------------------

  /// Bind a well-known name to an entry-point object (logged when the WAL
  /// is enabled, so restart can find the object graph's roots again).
  Status SetNamedRoot(const std::string& name, Oid oid);
  Result<Oid> GetNamedRoot(const std::string& name) const;

  /// Take an online fuzzy checkpoint: dump the live object graph into the
  /// log between kCkptBegin/kCkptEnd markers, force it stable, and (per
  /// options.recovery.checkpoint_truncate) truncate the log prefix the
  /// checkpoint covers — bounding both the WAL's memory and the replay work
  /// of the next restart. Runs concurrently with transactions (see
  /// RecoveryManager::Checkpoint); with
  /// options.recovery.checkpoint_every_records > 0 it also fires
  /// automatically as the log grows. Needs enable_wal.
  Status Checkpoint();

  /// Rebuild this (freshly constructed, schema- and method-installed but
  /// object-empty) database from a log. See RecoveryManager::Recover.
  /// Re-logs everything into this database's own WAL (if enabled), so the
  /// new log is self-contained — a chained checkpoint.
  Result<RecoveryManager::RecoveryStats> RecoverFrom(
      const std::vector<LogRecord>& log);

  /// Restart in place from this database's own log device: scan the
  /// durable image (truncating a torn tail, refusing mid-log corruption),
  /// REDO the physical records, compensate the losers, and mark each loser
  /// abort-complete in the same log. Requires enable_wal and an
  /// object-empty database; with options.recovery.log_dir set this is the
  /// real restart-after-crash path.
  Result<RecoveryManager::RecoveryStats> RestartFromLog();

 private:
  const DatabaseOptions options_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unique_ptr<RecordManager> records_;
  Schema schema_;
  std::unique_ptr<ObjectStore> store_;
  CompatibilityRegistry compat_;
  MethodRegistry methods_;
  HistoryRecorder history_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<VersionedObjectStore> versioned_store_;
  std::unique_ptr<LockManager> lock_manager_;
  std::unique_ptr<TxnManager> txn_manager_;
  mutable Mutex roots_mu_;
  std::map<std::string, Oid> named_roots_ SEMCC_GUARDED_BY(roots_mu_);
};

}  // namespace semcc

#endif  // SEMCC_CORE_DATABASE_H_

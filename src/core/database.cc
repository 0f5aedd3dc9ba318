#include "core/database.h"

#include "recovery/file_log_device.h"
#include "util/logging.h"

namespace semcc {

Database::Database(DatabaseOptions options)
    : options_(std::move(options)) {
  buffer_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages, &disk_);
  records_ = std::make_unique<RecordManager>(buffer_pool_.get());
  store_ = std::make_unique<ObjectStore>(&schema_, records_.get());
  history_.SetEnabled(options_.record_history);
  if (options_.enable_wal) {
    const RecoveryOptions& ropts = options_.recovery;
    if (!ropts.log_dir.empty()) {
      FileLogDeviceOptions fopts;
      fopts.segment_bytes = ropts.log_segment_bytes;
      auto device = FileLogDevice::Open(ropts.log_dir, fopts);
      SEMCC_CHECK(device.ok()) << "cannot open log directory " << ropts.log_dir
                               << ": " << device.status().ToString();
      wal_ = std::make_unique<WriteAheadLog>(std::move(device).ValueUnsafe());
    } else {
      wal_ = std::make_unique<WriteAheadLog>(ropts.wal_flush_micros);
    }
    recovery_ = std::make_unique<RecoveryManager>(wal_.get(), ropts);
    store_->SetListener(recovery_.get());
    if (ropts.checkpoint_every_records > 0) {
      recovery_->SetCheckpointTrigger([this]() { return Checkpoint(); });
    }
  }
  if (options_.protocol.mvcc_reads) {
    versioned_store_ = std::make_unique<VersionedObjectStore>(store_.get());
  }
  lock_manager_ = std::make_unique<LockManager>(options_.protocol, &compat_);
  txn_manager_ = std::make_unique<TxnManager>(store_.get(), lock_manager_.get(),
                                              &methods_, &history_,
                                              recovery_.get(),
                                              versioned_store_.get());
}

Database::~Database() = default;

std::string DatabaseStats::ToJson() const {
  metrics::JsonWriter w;
  w.FieldRaw("locks", locks.ToJson());
  w.FieldRaw("txns", txns.ToJson());
  if (wal_enabled) w.FieldRaw("wal", wal.ToJson());
  if (mvcc_enabled) w.FieldRaw("versions", versions.ToJson());
  return w.Close();
}

DatabaseStats Database::Stats() const {
  DatabaseStats s;
  s.locks = lock_manager_->stats();
  s.txns = txn_manager_->stats();
  if (wal_ != nullptr) {
    s.wal_enabled = true;
    s.wal = wal_->stats();
  }
  if (versioned_store_ != nullptr) {
    s.mvcc_enabled = true;
    s.versions = versioned_store_->stats();
  }
  return s;
}

Status Database::RegisterMethod(MethodDef def) {
  compat_.DeclareMethod(def.type, def.name);
  return methods_.Register(std::move(def));
}

Result<Value> Database::RunTransaction(const std::string& name,
                                       const TxnManager::Body& body,
                                       int max_retries) {
  return txn_manager_->Run(name, body, max_retries);
}

Result<Value> Database::RunTransactionOnce(const std::string& name,
                                           const TxnManager::Body& body) {
  return txn_manager_->RunOnce(name, body);
}

Result<Value> Database::RunReadTransaction(const std::string& name,
                                           const TxnManager::Body& body,
                                           int max_retries) {
  if (versioned_store_ != nullptr) return txn_manager_->RunSnapshot(name, body);
  return txn_manager_->Run(name, body, max_retries);
}

Status Database::SetNamedRoot(const std::string& name, Oid oid) {
  {
    MutexLock guard(roots_mu_);
    named_roots_[name] = oid;
  }
  if (recovery_ != nullptr) recovery_->OnNamedRoot(name, oid);
  return Status::OK();
}

Result<Oid> Database::GetNamedRoot(const std::string& name) const {
  MutexLock guard(roots_mu_);
  auto it = named_roots_.find(name);
  if (it == named_roots_.end()) {
    return Status::NotFound("no named root: " + name);
  }
  return it->second;
}

Status Database::Checkpoint() {
  if (recovery_ == nullptr) {
    return Status::PreconditionFailed("Checkpoint needs enable_wal");
  }
  std::vector<std::pair<std::string, Oid>> roots;
  {
    MutexLock guard(roots_mu_);
    roots.assign(named_roots_.begin(), named_roots_.end());
  }
  return recovery_->Checkpoint(store_.get(), roots);
}

Result<RecoveryManager::RecoveryStats> Database::RecoverFrom(
    const std::vector<LogRecord>& log) {
  if (store_->num_objects() > 1) {
    return Status::PreconditionFailed(
        "RecoverFrom needs an object-empty database (register types and "
        "methods only, then recover)");
  }
  auto sink = [this](const std::string& name, Oid oid) {
    (void)SetNamedRoot(name, oid);
  };
  auto stats = RecoveryManager::Recover(log, store_.get(), &methods_,
                                        txn_manager_.get(), sink);
  if (stats.ok() && wal_ != nullptr) {
    SEMCC_RETURN_NOT_OK(wal_->Flush());
  }
  return stats;
}

Result<RecoveryManager::RecoveryStats> Database::RestartFromLog() {
  if (wal_ == nullptr) {
    return Status::PreconditionFailed("RestartFromLog needs enable_wal");
  }
  if (store_->num_objects() > 1) {
    return Status::PreconditionFailed(
        "RestartFromLog needs an object-empty database (register types and "
        "methods only, then restart)");
  }
  SEMCC_ASSIGN_OR_RETURN(std::vector<LogRecord> log, wal_->RecoverAtStartup());
  // REDO must not re-log: the physical records it replays are already in
  // this log. The compensation pass runs with the listener reattached so
  // loser compensation is logged like any online abort.
  store_->SetListener(nullptr);
  auto reattach = [this]() { store_->SetListener(recovery_.get()); };
  // Named roots are replayed, not re-bound: update the in-memory directory
  // without appending fresh kNamedRoot records.
  auto sink = [this](const std::string& name, Oid oid) {
    MutexLock guard(roots_mu_);
    named_roots_[name] = oid;
  };
  auto stats = RecoveryManager::Recover(log, store_.get(), &methods_,
                                        txn_manager_.get(), sink, reattach);
  store_->SetListener(recovery_.get());
  if (!stats.ok()) return stats;
  // Mark every compensated loser abort-complete (and force), so the next
  // restart replays original + compensation records and skips re-undo.
  for (TxnId loser : stats.ValueOrDie().loser_ids) {
    recovery_->OnTxnAbort(loser);
  }
  SEMCC_RETURN_NOT_OK(recovery_->health());
  return stats;
}

}  // namespace semcc

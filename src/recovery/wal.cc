#include "recovery/wal.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace semcc {

namespace {

/// WAL events have no ProtocolOptions to consult, so they gate on the
/// process-wide switch only.
void EmitWalEvent(trace::EventKind kind, uint64_t lsn_or_zero, uint64_t other,
                  uint64_t value) {
  trace::Event e;
  e.kind = static_cast<uint8_t>(kind);
  e.txn = lsn_or_zero;
  e.other = other;
  e.value = value;
  trace::Emit(e);
}

}  // namespace

std::string WalStats::ToJson() const {
  metrics::JsonWriter w;
  w.Field("appends", appends);
  w.Field("flushes", flushes);
  w.Field("flush_retries", flush_retries);
  w.Field("degraded", degraded);
  w.Field("stable_records", stable_records);
  w.Field("stable_bytes", stable_bytes);
  w.Field("retained_records", retained_records);
  w.Field("truncated_records", truncated_records);
  w.Field("flush_p50_us", flush_micros.p50);
  w.Field("flush_p99_us", flush_micros.p99);
  w.Field("flush_max_us", flush_micros.max);
  w.Field("flush_batch_mean", flush_batch_records.mean());
  w.Field("flush_batch_max", flush_batch_records.max);
  return w.Close();
}

WriteAheadLog::WriteAheadLog(uint32_t flush_micros)
    : options_(WalOptions()),
      device_(std::make_unique<InMemoryLogDevice>(flush_micros)) {}

WriteAheadLog::WriteAheadLog(std::unique_ptr<LogDevice> device,
                             WalOptions options)
    : options_(options), device_(std::move(device)) {
  SEMCC_CHECK(device_ != nullptr);
  SEMCC_CHECK(options_.max_flush_attempts >= 1);
}

Result<std::vector<LogRecord>> WriteAheadLog::RecoverAtStartup() {
  MutexLock device_guard(device_mu_);
  auto image = device_->ReadDurable();
  SEMCC_RETURN_NOT_OK(image.status());
  auto scan = logframe::ScanFrames(*image);
  SEMCC_RETURN_NOT_OK(scan.status());
  if (scan->truncated_tail) {
    // Separate real torn bytes from trailing zeros: a preallocated segment
    // reopens with its zero padding counted as logical content, and "torn
    // tail, 4 MiB dropped" on every clean restart would read as damage.
    size_t end = image->size();
    while (end > scan->valid_bytes && (*image)[end - 1] == '\0') end--;
    const uint64_t torn = end - scan->valid_bytes;
    const uint64_t padding = image->size() - end;
    if (torn > 0) {
      SEMCC_LOG(Warn) << "WAL restart: truncating torn tail at byte "
                      << scan->valid_bytes << " (dropping " << torn
                      << " torn bytes and " << padding
                      << " bytes of zero padding)";
    } else {
      SEMCC_LOG(Info) << "WAL restart: dropping " << padding
                      << " bytes of zero padding after byte "
                      << scan->valid_bytes;
    }
    SEMCC_RETURN_NOT_OK(device_->Truncate(scan->valid_bytes));
  }
  std::vector<LogRecord> out;
  out.reserve(scan->payloads.size());
  MutexLock guard(mu_);
  SEMCC_CHECK(encoded_.empty()) << "RecoverAtStartup after Append";
  Lsn max_lsn = 0;
  for (std::string& payload : scan->payloads) {
    auto rec = LogRecord::Decode(payload);
    if (!rec.ok()) {
      return Status::Corruption("log record undecodable after CRC pass: " +
                                rec.status().ToString());
    }
    max_lsn = std::max(max_lsn, rec.ValueOrDie().lsn);
    out.push_back(std::move(rec).ValueUnsafe());
    lsns_.push_back(out.back().lsn);
    encoded_.push_back(std::move(payload));
  }
  stable_ = encoded_.size();
  claimed_ = encoded_.size();
  stable_lsn_ = max_lsn;
  claimed_lsn_ = max_lsn;
  stable_bytes_ = scan->valid_bytes;
  next_lsn_.store(max_lsn + 1);
  return out;
}

Lsn WriteAheadLog::Append(LogRecord record) {
  MutexLock guard(mu_);
  if (!failed_.ok()) return kInvalidLsn;
  record.lsn = next_lsn_.fetch_add(1);
  encoded_.push_back(record.Encode());
  lsns_.push_back(record.lsn);
  appends_++;
  if (trace::Active()) {
    EmitWalEvent(trace::EventKind::kWalAppend, record.lsn, 0, 0);
  }
  return record.lsn;
}

Status WriteAheadLog::Flush() {
  Lsn target = 0;
  {
    MutexLock guard(mu_);
    if (!failed_.ok()) return failed_;
    // Records appended after this point belong to the next flush.
    target = lsns_.empty() ? stable_lsn_ : lsns_.back();
  }
  return FlushTo(target);
}

Status WriteAheadLog::FlushTo(Lsn target) {
  return FlushInternal(target, /*force_sync=*/false);
}

Status WriteAheadLog::FlushForce(Lsn target) {
  return FlushInternal(target, /*force_sync=*/true);
}

Status WriteAheadLog::FlushInternal(Lsn target, bool force_sync) {
  // --- claim phase (mu_ only) ---------------------------------------------
  std::string batch;
  size_t claim_end = 0;
  size_t batch_records = 0;
  Lsn batch_last_lsn = 0;
  uint64_t seq = 0;
  {
    MutexLock guard(mu_);
    for (;;) {
      if (!failed_.ok()) return failed_;
      if (force_sync) {
        // Force-per-commit semantics: this call issues its own device sync
        // even when the target is already durable — the naive baseline
        // (write; fsync) that group commit exists to amortize. It only
        // waits for a pipeline slot.
        if (inflight_ < kMaxInflightBatches && !truncating_) break;
        stable_cv_.Wait(guard);
        continue;
      }
      if (stable_lsn_ >= target) return Status::OK();
      const bool unclaimed = claimed_ < encoded_.size();
      if (!unclaimed && inflight_ == 0) {
        // Target beyond everything appended (or everything relevant already
        // claimed and published before we woke): nothing left to force.
        return Status::OK();
      }
      // Lead only if the target is not already covered by an in-flight
      // batch (absorption: a covered waiter parks, and the covering batch
      // carries its record); a pipeline slot is free; and no checkpoint
      // truncation is rewriting the vectors.
      if (target > claimed_lsn_ && unclaimed &&
          inflight_ < kMaxInflightBatches && !truncating_) {
        break;
      }
      stable_cv_.Wait(guard);
    }
    // Claim everything unclaimed — this is where group commit happens:
    // records appended while the previous batch was syncing all ride in
    // this one. Encoding under mu_ is fine; framing is memcpy+CRC, orders
    // of magnitude cheaper than the device sync it overlaps. (A force-sync
    // batch may claim nothing and still sync.)
    const size_t claim_begin = claimed_;
    claim_end = encoded_.size();
    batch_records = claim_end - claim_begin;
    for (size_t i = claim_begin; i < claim_end; ++i) {
      logframe::AppendFrame(&batch, encoded_[i]);
    }
    batch_last_lsn = batch_records > 0 ? lsns_[claim_end - 1] : claimed_lsn_;
    claimed_ = claim_end;
    claimed_lsn_ = batch_last_lsn;
    inflight_++;
    seq = next_batch_seq_++;
  }

  // --- device phase (device_mu_ only, in batch-sequence order) ------------
  StopWatch device_timer;
  Status st;
  uint64_t retries = 0;
  {
    MutexLock dev(device_mu_);
    while (device_turn_ != seq) device_cv_.Wait(dev);
    if (device_failed_) {
      // An earlier batch died after exhausting its retries; our frames
      // would leave an LSN hole after its missing bytes, so fail without
      // touching the device.
      st = Status::IOError("WAL device failed in an earlier pipelined batch");
    } else {
      // Late absorption: records appended while this batch waited for its
      // device turn would otherwise sit out a full extra sync (the eager
      // next leader has already split them into a third batch by the time
      // a 4-committer pipeline is warm). Extending the claim here — after
      // winning the turn, before the first device write — means every
      // batch carries everything appended before its sync started, which
      // is the whole group-commit win on a slow fsync.
      {
        MutexLock guard(mu_);
        if (!truncating_ && claimed_ < encoded_.size()) {
          const size_t from = claimed_;
          claim_end = encoded_.size();
          for (size_t i = from; i < claim_end; ++i) {
            logframe::AppendFrame(&batch, encoded_[i]);
          }
          batch_records += claim_end - from;
          batch_last_lsn = lsns_[claim_end - 1];
          claimed_ = claim_end;
          claimed_lsn_ = batch_last_lsn;
        }
      }
      // Time only the device work from here: the turn wait above overlaps
      // the previous batch's sync, and including it would count that sync
      // twice in flush_micros.
      device_timer.Restart();
      bool appended = batch.empty();  // nothing to append on a bare force
      auto backoff = options_.flush_retry_backoff;
      for (int attempt = 0; attempt < options_.max_flush_attempts; ++attempt) {
        if (attempt > 0) {
          retries++;
          // Back off with device_mu_ released (timed condvar wait): it is
          // still our turn, so no other batch touches the device, but
          // turn-waiters keep getting scheduled and nothing sleeps holding
          // a lock.
          const auto deadline = std::chrono::steady_clock::now() + backoff;
          while (std::chrono::steady_clock::now() < deadline) {
            (void)device_cv_.WaitUntil(dev, deadline);
          }
          backoff *= 2;
        }
        if (!appended) {
          const uint64_t pre = device_->written_bytes();
          st = device_->Append(batch);
          if (!st.ok()) {
            // A torn append left a partial frame; roll it back so the retry
            // (or the restart scan) never sees the batch twice. If even the
            // rollback fails the image is in an unknown state — degrade now
            // rather than risk double-writing frames.
            Status repair = device_->Truncate(pre);
            if (!repair.ok()) {
              st = Status::IOError("log append failed (" + st.ToString() +
                                   ") and tail rollback failed (" +
                                   repair.ToString() + ")");
              break;
            }
            continue;
          }
          appended = true;
        }
        // Bytes stay appended across sync retries — only the fsync reruns.
        st = device_->Sync();
        if (st.ok()) break;
      }
      if (!st.ok()) device_failed_ = true;
    }
    device_turn_++;
    device_cv_.NotifyAll();
  }

  // --- publish phase (mu_ only) -------------------------------------------
  // Publishes may arrive out of batch order (the later batch can win the
  // race to mu_), but that is safe: when batch N+1's sync returned OK,
  // batch N's bytes were already durable (turn order), so advancing the
  // stable watermark past both is correct — hence the max().
  const uint64_t device_us = device_timer.ElapsedMicros();
  MutexLock guard(mu_);
  inflight_--;
  flush_retries_ += retries;
  if (!st.ok()) {
    if (failed_.ok()) {
      SEMCC_LOG(Error) << "WAL degraded to read-only after "
                       << options_.max_flush_attempts
                       << " flush attempts: " << st.ToString();
      failed_ = st;
      if (trace::Active()) {
        EmitWalEvent(trace::EventKind::kWalDegrade, 0, batch_records,
                     device_us);
      }
    }
    stable_cv_.NotifyAll();
    return st;
  }
  stable_ = std::max(stable_, claim_end);
  stable_lsn_ = std::max(stable_lsn_, batch_last_lsn);
  stable_bytes_ += batch.size();
  flushes_++;
  flush_micros_.Add(device_us);
  flush_batch_records_.Add(batch_records);
  if (trace::Active()) {
    EmitWalEvent(trace::EventKind::kWalFlush, batch_last_lsn, batch_records,
                 device_us);
  }
  stable_cv_.NotifyAll();
  return Status::OK();
}

Result<size_t> WriteAheadLog::TruncateCheckpointed(Lsn up_to) {
  size_t n = 0;
  uint64_t framed = 0;
  {
    MutexLock guard(mu_);
    // Serialize truncators, then block new claims (truncating_) *before*
    // draining in-flight batches — otherwise a steady commit stream keeps
    // inflight_ > 0 forever and the truncation starves.
    while (truncating_ && failed_.ok()) stable_cv_.Wait(guard);
    if (!failed_.ok()) return failed_;
    truncating_ = true;
    while (inflight_ > 0 && failed_.ok()) stable_cv_.Wait(guard);
    if (!failed_.ok()) {
      truncating_ = false;
      stable_cv_.NotifyAll();
      return failed_;
    }
    while (n < stable_ && lsns_[n] < up_to) {
      framed += encoded_[n].size() + logframe::kHeaderSize;
      ++n;
    }
    if (n == 0) {
      truncating_ = false;
      stable_cv_.NotifyAll();
      return size_t{0};
    }
  }
  // Device prefix release outside mu_ (it may unlink files + fsync the
  // directory). truncating_ keeps claims out; appends and stable reads
  // proceed — they only touch the record suffix we are not erasing.
  Result<uint64_t> dropped = [&]() -> Result<uint64_t> {
    MutexLock dev(device_mu_);
    return device_->DropPrefix(framed);
  }();
  MutexLock guard(mu_);
  truncating_ = false;
  stable_cv_.NotifyAll();
  if (!dropped.ok()) return dropped.status();
  // Drop the full record prefix from memory even when the device freed
  // fewer bytes (whole-segment granularity): the retained device image is
  // a superset of the retained records, and the restart scan replays from
  // the device, not from these vectors. Memory boundedness is what this
  // call is for.
  encoded_.erase(encoded_.begin(), encoded_.begin() + static_cast<long>(n));
  lsns_.erase(lsns_.begin(), lsns_.begin() + static_cast<long>(n));
  base_records_ += n;
  stable_ -= n;
  claimed_ -= n;
  stable_bytes_ -= std::min<uint64_t>(stable_bytes_, dropped.ValueOrDie());
  if (trace::Active()) {
    EmitWalEvent(trace::EventKind::kWalCheckpoint, up_to, n,
                 dropped.ValueOrDie());
  }
  return n;
}

void WriteAheadLog::LoseVolatileTail() {
  MutexLock guard(mu_);
  SEMCC_CHECK(inflight_ == 0) << "LoseVolatileTail with a flush in flight";
  encoded_.resize(stable_);
  lsns_.resize(stable_);
  claimed_ = stable_;
  claimed_lsn_ = stable_lsn_;
}

Result<std::vector<LogRecord>> WriteAheadLog::StableRecords() const {
  MutexLock guard(mu_);
  std::vector<LogRecord> out;
  out.reserve(stable_);
  for (size_t i = 0; i < stable_; ++i) {
    auto rec = LogRecord::Decode(encoded_[i]);
    if (!rec.ok()) {
      return Status::Corruption("stable log record " + std::to_string(i) +
                                " undecodable: " + rec.status().ToString());
    }
    out.push_back(std::move(rec).ValueUnsafe());
  }
  return out;
}

Result<std::vector<LogRecord>> WriteAheadLog::AllRecords() const {
  MutexLock guard(mu_);
  std::vector<LogRecord> out;
  out.reserve(encoded_.size());
  for (size_t i = 0; i < encoded_.size(); ++i) {
    auto rec = LogRecord::Decode(encoded_[i]);
    if (!rec.ok()) {
      return Status::Corruption("log record " + std::to_string(i) +
                                " undecodable: " + rec.status().ToString());
    }
    out.push_back(std::move(rec).ValueUnsafe());
  }
  return out;
}

WalStats WriteAheadLog::stats() const {
  WalStats s;
  {
    MutexLock guard(mu_);
    s.appends = appends_;
    s.flushes = flushes_;
    s.flush_retries = flush_retries_;
    s.degraded = !failed_.ok();
    s.stable_records = base_records_ + stable_;
    s.stable_bytes = stable_bytes_;
    s.retained_records = encoded_.size();
    s.truncated_records = base_records_;
  }
  s.flush_micros = flush_micros_.Snapshot();
  s.flush_batch_records = flush_batch_records_.Snapshot();
  return s;
}

Status WriteAheadLog::health() const {
  MutexLock guard(mu_);
  return failed_;
}

size_t WriteAheadLog::stable_count() const {
  MutexLock guard(mu_);
  return base_records_ + stable_;
}

size_t WriteAheadLog::total_count() const {
  MutexLock guard(mu_);
  return base_records_ + encoded_.size();
}

size_t WriteAheadLog::retained_count() const {
  MutexLock guard(mu_);
  return encoded_.size();
}

size_t WriteAheadLog::truncated_count() const {
  MutexLock guard(mu_);
  return base_records_;
}

uint64_t WriteAheadLog::stable_bytes() const {
  MutexLock guard(mu_);
  return stable_bytes_;
}

uint64_t WriteAheadLog::flush_count() const {
  MutexLock guard(mu_);
  return flushes_;
}

Lsn WriteAheadLog::stable_lsn() const {
  MutexLock guard(mu_);
  return stable_lsn_;
}

Lsn WriteAheadLog::claimed_lsn() const {
  MutexLock guard(mu_);
  return claimed_lsn_;
}

void WriteAheadLog::CorruptRecordForTesting(size_t index) {
  MutexLock guard(mu_);
  SEMCC_CHECK(index < encoded_.size());
  SEMCC_CHECK(!encoded_[index].empty());
  encoded_[index].pop_back();
}

}  // namespace semcc

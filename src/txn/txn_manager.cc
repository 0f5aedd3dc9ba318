#include "txn/txn_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "object/schema.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/trace.h"

namespace semcc {

namespace {

/// Threads, not shards, contend on transaction counters; 16 stripes keeps
/// typical bench thread counts (≤ 64) from sharing cache lines too often
/// without burning memory per manager.
constexpr size_t kTxnCounterStripes = 16;

void EmitTxnEvent(trace::EventKind kind, TxnId root_id,
                  const std::string& name, uint64_t value) {
  trace::Event e;
  e.kind = static_cast<uint8_t>(kind);
  e.txn = root_id;
  e.root = root_id;
  e.value = value;
  e.set_method(name);
  trace::Emit(e);
}

}  // namespace

std::string TxnStats::ToString() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "begins=%llu commits=%llu aborts=%llu retries=%llu "
                "app_errors=%llu compensation_failures=%llu",
                static_cast<unsigned long long>(begins),
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(aborts),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(app_errors),
                static_cast<unsigned long long>(compensation_failures));
  return buf;
}

std::string TxnStats::ToJson() const {
  metrics::JsonWriter w;
  w.Field("begins", begins);
  w.Field("commits", commits);
  w.Field("aborts", aborts);
  w.Field("retries", retries);
  w.Field("app_errors", app_errors);
  w.Field("compensation_failures", compensation_failures);
  return w.Close();
}

TxnManager::TxnManager(ObjectStore* store, LockManager* lm,
                       MethodRegistry* methods, HistoryRecorder* recorder,
                       ActionLogger* logger, VersionedObjectStore* versions)
    : store_(store),
      lm_(lm),
      methods_(methods),
      recorder_(recorder),
      logger_(logger),
      versions_(versions),
      counters_(kTxnCounterStripes, kCtrCount) {}

TxnStats TxnManager::stats() const {
  TxnStats s;
  s.begins = counters_.Sum(kCtrBegins);
  s.commits = counters_.Sum(kCtrCommits);
  s.aborts = counters_.Sum(kCtrAborts);
  s.retries = counters_.Sum(kCtrRetries);
  s.app_errors = counters_.Sum(kCtrAppErrors);
  s.compensation_failures = counters_.Sum(kCtrCompensationFailures);
  return s;
}

Result<Value> TxnManager::RunAttempt(const std::string& name, const Body& body,
                                     TxnId priority, bool* committed) {
  TxnTree tree(TxnTree::NextId(), name, kDatabaseOid, Schema::kDatabaseTypeId);
  SubTxn* root = tree.root();
  if (priority != 0) root->set_priority(priority);
  root->set_grant_seq(lm_->NextSeq());
  TxnCtx ctx(store_, lm_, methods_, &tree, logger_, versions_);

  const size_t stripe = metrics::ThreadStripeSlot();
  const bool tracing = trace::Active();
  counters_.Inc(stripe, kCtrBegins);
  if (tracing) EmitTxnEvent(trace::EventKind::kTxnBegin, root->id(), name, 0);

  Result<Value> result = body(ctx);
  const bool commit = result.ok() && !root->abort_requested();
  if (commit) {
    root->set_state(TxnState::kCommitted);
    lm_->OnSubTxnCompleted(root);
    // Hand the finished write set to the version store BEFORE the locks go:
    // once ReleaseTree runs, another writer may start mutating these objects
    // and the install of this (or an entangled) commit group must know this
    // transaction is no longer an active writer.
    if (versions_ != nullptr) versions_->OnTxnEnd(root->id(), ctx.write_set());
    if (recorder_ != nullptr) recorder_->RecordTree(&tree, /*committed=*/true);
    // Force before the locks go, so nobody reads this tree's updates before
    // they are stable. A tree that logged nothing has nothing to force.
    const Status durable =
        ctx.logged() ? logger_->OnTxnCommit(root->id()) : Status::OK();
    lm_->ReleaseTree(root);
    *committed = true;
    counters_.Inc(stripe, kCtrCommits);
    if (tracing) {
      EmitTxnEvent(trace::EventKind::kTxnCommit, root->id(), name, 0);
    }
    if (!durable.ok()) return durable;
    return result;
  }

  // Abort: compensate committed subtransactions in reverse order (the
  // compensating actions run under the same protocol, as subtransactions of
  // this same transaction), then release everything.
  ctx.Rollback();
  counters_.Inc(stripe, kCtrCompensationFailures, ctx.compensation_failures());
  root->set_state(TxnState::kAborted);
  lm_->OnSubTxnCompleted(root);
  // Aborted trees publish too (after compensation the live state is a
  // committed-equivalent state; see versioned_store.h) — and the writer
  // counts MUST be released either way or entangled commits never install.
  if (versions_ != nullptr) versions_->OnTxnEnd(root->id(), ctx.write_set());
  if (recorder_ != nullptr) recorder_->RecordTree(&tree, /*committed=*/false);
  if (ctx.logged()) logger_->OnTxnAbort(root->id());
  lm_->ReleaseTree(root);
  counters_.Inc(stripe, kCtrAborts);
  if (tracing) EmitTxnEvent(trace::EventKind::kTxnAbort, root->id(), name, 0);
  if (result.ok()) {
    return Status::Aborted("abort requested (deadlock victim)");
  }
  return result.status();
}

Result<Value> TxnManager::RunOnce(const std::string& name, const Body& body) {
  bool committed = false;
  return RunAttempt(name, body, /*priority=*/0, &committed);
}

Result<Value> TxnManager::RunSnapshot(const std::string& name,
                                      const Body& body) {
  SEMCC_CHECK(versions_ != nullptr)
      << "RunSnapshot requires ProtocolOptions::mvcc_reads";
  TxnTree tree(TxnTree::NextId(), name, kDatabaseOid, Schema::kDatabaseTypeId);
  SubTxn* root = tree.root();
  root->set_grant_seq(lm_->NextSeq());
  const uint64_t snapshot_ts = versions_->BeginSnapshot();
  root->set_snapshot_ts(snapshot_ts);
  TxnCtx ctx(store_, lm_, methods_, &tree, /*logger=*/nullptr, versions_);

  const size_t stripe = metrics::ThreadStripeSlot();
  const bool tracing = trace::Active();
  counters_.Inc(stripe, kCtrBegins);
  if (tracing) {
    EmitTxnEvent(trace::EventKind::kTxnBegin, root->id(), name, snapshot_ts);
  }

  Result<Value> result = body(ctx);
  // Deregister the snapshot no matter what — a leaked registration pins the
  // GC watermark forever.
  versions_->EndSnapshot(snapshot_ts);

  const bool commit = result.ok();
  root->set_state(commit ? TxnState::kCommitted : TxnState::kAborted);
  root->set_end_seq(lm_->NextSeq());
  if (recorder_ != nullptr) recorder_->RecordTree(&tree, commit);
  if (commit) {
    counters_.Inc(stripe, kCtrCommits);
    if (tracing) {
      EmitTxnEvent(trace::EventKind::kTxnCommit, root->id(), name,
                   snapshot_ts);
    }
    return result;
  }
  // With no locks there is no system abort and nothing to compensate
  // (writes are rejected before they apply): the error is the body's own.
  counters_.Inc(stripe, kCtrAborts);
  counters_.Inc(stripe, kCtrAppErrors);
  if (tracing) {
    EmitTxnEvent(trace::EventKind::kTxnAbort, root->id(), name, snapshot_ts);
  }
  return result;
}

namespace {
bool Retryable(const Status& st) {
  return st.IsDeadlock() || st.IsAborted() || st.IsTimedOut();
}
}  // namespace

Result<Value> TxnManager::Run(const std::string& name, const Body& body,
                              int max_retries) {
  thread_local Random rng(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
  // Retries keep the first attempt's deadlock-victim rank so they age
  // relative to newcomers (no starvation).
  TxnId priority = 0;
  for (int attempt = 0;; ++attempt) {
    if (priority == 0) priority = TxnTree::NextId();
    bool committed = false;
    Result<Value> r = RunAttempt(name, body, priority, &committed);
    // A commit whose log force failed is final: its updates stay applied,
    // so running the body again would apply them twice.
    if (r.ok() || committed) return r;
    if (!Retryable(r.status()) || attempt >= max_retries) {
      if (!Retryable(r.status())) {
        counters_.Inc(metrics::ThreadStripeSlot(), kCtrAppErrors);
      }
      return r;
    }
    counters_.Inc(metrics::ThreadStripeSlot(), kCtrRetries);
    if (trace::Active()) {
      EmitTxnEvent(trace::EventKind::kTxnRetry, priority, name,
                   static_cast<uint64_t>(attempt + 1));
    }
    // Exponential backoff with a saturating shift (so a large attempt count
    // cannot overflow the multiplier) and a hard ceiling on the window (so
    // a retry storm never sleeps for seconds). Jitter spans the upper half
    // of the window: the floor keeps a backed-off victim from immediately
    // re-colliding, the randomness desynchronizes concurrent victims.
    constexpr int kMaxBackoffShift = 6;
    constexpr uint64_t kMaxBackoffWindowUs = 10000;
    const int shift = std::min(attempt, kMaxBackoffShift);
    const uint64_t window_us =
        std::min<uint64_t>(100ull << shift, kMaxBackoffWindowUs);
    std::this_thread::sleep_for(std::chrono::microseconds(
        window_us / 2 + rng.Uniform(window_us / 2 + 1)));
  }
}

}  // namespace semcc

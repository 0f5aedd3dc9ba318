#include "object/versioned_store.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace semcc {

namespace {
// Thread-striping width for the read-side counters (reads are the hot path;
// the mu_-serialized paths could share one stripe but striping costs nothing).
constexpr size_t kCounterStripes = 16;
}  // namespace

VersionedObjectStore::VersionedObjectStore(ObjectStore* store)
    : store_(store), counters_(kCounterStripes, kCtrCount) {}

VersionedObjectStore::~VersionedObjectStore() {
  WriterMutexLock chains_lock(chains_mu_);
  for (auto& chain : chains_) {
    if (chain == nullptr) continue;
    Version* v = chain->head.load(std::memory_order_acquire);
    while (v != nullptr) {
      Version* next = v->next.load(std::memory_order_acquire);
      delete v;
      v = next;
    }
  }
}

void VersionedObjectStore::BeginWrite(Oid oid, bool is_set) {
  MutexLock lock(mu_);
  ++active_writers_[oid];
  {
    ReaderMutexLock chains_lock(chains_mu_);
    if (oid < chains_.size() && chains_[oid] != nullptr) return;
  }
  // First transactional write to this object ever: capture the ts=0 base
  // version. The live value is quiescent here — the chain is created before
  // any counted writer performs its physical write — so the base is the
  // object's initial committed state. Publishing the chain BEFORE this
  // transaction's physical write is what makes the readers' live-store
  // fallback revalidation sound (see the header contract).
  auto base = std::make_unique<Version>();
  base->ts = 0;
  base->is_set = is_set;
  if (is_set) {
    auto scan = store_->SetScan(oid);
    if (scan.ok()) {
      for (auto& [key, member] : *scan) {
        base->members.emplace(key, member);
      }
    }
  } else {
    auto get = store_->Get(oid);
    if (get.ok()) base->value = std::move(get).ValueUnsafe();
  }
  auto chain = std::make_unique<Chain>();
  chain->is_set = is_set;
  chain->head.store(base.release(), std::memory_order_release);
  WriterMutexLock chains_lock(chains_mu_);
  if (oid >= chains_.size()) chains_.resize(oid + 1);
  SEMCC_DCHECK(chains_[oid] == nullptr);
  chains_[oid] = std::move(chain);
}

void VersionedObjectStore::OnTxnEnd(uint64_t root_id,
                                    const std::set<Oid>& write_set) {
  if (write_set.empty()) return;
  MutexLock lock(mu_);
  for (Oid oid : write_set) {
    auto it = active_writers_.find(oid);
    SEMCC_DCHECK(it != active_writers_.end() && it->second > 0);
    if (it != active_writers_.end() && --it->second == 0) {
      active_writers_.erase(it);
    }
  }
  pending_.push_back(
      PendingTxn{root_id, std::vector<Oid>(write_set.begin(), write_set.end())});
  ResolvePending();
  for (const PendingTxn& p : pending_) {
    if (p.root_id == root_id) {
      ++deferred_installs_;
      break;
    }
  }
}

void VersionedObjectStore::ResolvePending() {
  if (pending_.empty()) return;
  // Union-find over pending transactions: two are connected when their write
  // sets overlap. (Connectivity through a still-active writer is handled
  // implicitly — its objects carry nonzero counts, blocking the component,
  // and it joins the component when its own OnTxnEnd adds it to pending_.)
  const size_t n = pending_.size();
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::map<Oid, size_t> first_owner;
  for (size_t i = 0; i < n; ++i) {
    for (Oid oid : pending_[i].oids) {
      auto [it, inserted] = first_owner.emplace(oid, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  // A component installs when none of its objects has an active writer.
  std::map<size_t, bool> quiescent;  // root -> installable
  for (size_t i = 0; i < n; ++i) {
    size_t root = find(i);
    auto [it, inserted] = quiescent.emplace(root, true);
    if (!it->second) continue;
    for (Oid oid : pending_[i].oids) {
      if (active_writers_.count(oid) > 0) {
        it->second = false;
        break;
      }
    }
  }
  std::vector<PendingTxn> still_pending;
  std::map<size_t, uint64_t> group_ts;  // component root -> install ts
  for (size_t i = 0; i < n; ++i) {
    if (!quiescent[find(i)]) still_pending.push_back(std::move(pending_[i]));
  }
  const uint64_t watermark = Watermark();
  for (auto& [root, ok] : quiescent) {
    if (ok) group_ts[root] = ++commit_ts_;
  }
  // Install each quiescent component at its single timestamp, reading the
  // merged live values: every transaction that wrote these objects has
  // completed, so the bytes are a serial-equivalent committed state.
  for (auto& [comp, ts] : group_ts) {
    VersionInstall record;
    record.ts = ts;
    std::set<Oid> comp_oids;
    for (size_t i = 0; i < n; ++i) {
      if (find(i) != comp) continue;
      record.roots.push_back(pending_[i].root_id);
      comp_oids.insert(pending_[i].oids.begin(), pending_[i].oids.end());
    }
    for (Oid oid : comp_oids) {
      Chain* chain = FindChain(oid);
      SEMCC_CHECK(chain != nullptr);  // BeginWrite created it
      auto v = std::make_unique<Version>();
      v->ts = ts;
      v->is_set = chain->is_set;
      if (chain->is_set) {
        auto scan = store_->SetScan(oid);
        if (scan.ok()) {
          for (auto& [key, member] : *scan) {
            v->members.emplace(key, member);
          }
        }
      } else {
        auto get = store_->Get(oid);
        if (get.ok()) v->value = std::move(get).ValueUnsafe();
      }
      versions_reclaimed_ += InstallVersion(chain, std::move(v), watermark);
      ++versions_installed_;
    }
    record.oids.assign(comp_oids.begin(), comp_oids.end());
    ++install_groups_;
    if (install_log_enabled_) install_log_.push_back(std::move(record));
  }
  pending_ = std::move(still_pending);
}

uint64_t VersionedObjectStore::InstallVersion(Chain* chain,
                                              std::unique_ptr<Version> v,
                                              uint64_t watermark) {
  Version* head = chain->head.load(std::memory_order_acquire);
  v->next.store(head, std::memory_order_release);
  chain->head.store(v.release(), std::memory_order_release);
  uint64_t freed = TruncateChain(chain, watermark);
  size_t len = 0;
  for (const Version* p = chain->head.load(std::memory_order_acquire);
       p != nullptr; p = p->next.load(std::memory_order_acquire)) {
    ++len;
  }
  chain_length_.Add(len);
  return freed;
}

uint64_t VersionedObjectStore::TruncateChain(Chain* chain,
                                             uint64_t watermark) {
  // Boundary = newest version with ts <= watermark. Every version older than
  // the boundary is invisible to all current and future snapshots (their S
  // >= watermark resolves to the boundary or newer), and no reader ever
  // loads `next` of a version with ts <= its S, so the cut and the frees
  // need no reader synchronization.
  Version* boundary = chain->head.load(std::memory_order_acquire);
  while (boundary != nullptr && boundary->ts > watermark) {
    boundary = boundary->next.load(std::memory_order_acquire);
  }
  if (boundary == nullptr) return 0;
  Version* victim = boundary->next.load(std::memory_order_acquire);
  if (victim == nullptr) return 0;
  boundary->next.store(nullptr, std::memory_order_release);
  uint64_t freed = 0;
  while (victim != nullptr) {
    Version* next = victim->next.load(std::memory_order_acquire);
    delete victim;
    victim = next;
    ++freed;
  }
  return freed;
}

uint64_t VersionedObjectStore::Watermark() const {
  uint64_t w = commit_ts_;
  if (!snapshots_.empty()) w = std::min(w, *snapshots_.begin());
  return w;
}

uint64_t VersionedObjectStore::BeginSnapshot() {
  counters_.Inc(metrics::ThreadStripeSlot(), kCtrSnapshots);
  MutexLock lock(mu_);
  const uint64_t s = commit_ts_;
  snapshots_.insert(s);
  return s;
}

void VersionedObjectStore::EndSnapshot(uint64_t snapshot_ts) {
  MutexLock lock(mu_);
  auto it = snapshots_.find(snapshot_ts);
  SEMCC_DCHECK(it != snapshots_.end());
  if (it != snapshots_.end()) snapshots_.erase(it);
}

VersionedObjectStore::Chain* VersionedObjectStore::FindChain(Oid oid) const {
  ReaderMutexLock lock(chains_mu_);
  if (oid >= chains_.size()) return nullptr;
  return chains_[oid].get();
}

const VersionedObjectStore::Version* VersionedObjectStore::VisibleVersion(
    const Chain* chain, uint64_t s) {
  const Version* v = chain->head.load(std::memory_order_acquire);
  while (v != nullptr && v->ts > s) {
    v = v->next.load(std::memory_order_acquire);
  }
  // Non-null by construction: every chain bottoms out in the ts=0 base or
  // the GC boundary, both <= any registered snapshot.
  SEMCC_CHECK(v != nullptr);
  return v;
}

Result<Value> VersionedObjectStore::ReadAtomic(Oid oid, uint64_t snapshot_ts,
                                               uint64_t* observed_ts) {
  for (;;) {
    Chain* chain = FindChain(oid);
    if (chain != nullptr) {
      if (chain->is_set) {
        return Status::InvalidArgument("Get on non-atomic object");
      }
      const Version* v = VisibleVersion(chain, snapshot_ts);
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrSnapshotReads);
      if (observed_ts != nullptr) *observed_ts = v->ts;
      return v->value;
    }
    // Never transactionally written: read the live store and revalidate that
    // no chain appeared meanwhile. If one did, a writer may have raced our
    // live read — retry through the chain (whose ts=0 base is pre-write).
    auto live = store_->Get(oid);
    if (!live.ok()) return live;
    if (FindChain(oid) == nullptr) {
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrLiveReads);
      if (observed_ts != nullptr) *observed_ts = 0;
      return live;
    }
  }
}

Result<Oid> VersionedObjectStore::ReadSetSelect(Oid set, const Value& key,
                                                uint64_t snapshot_ts,
                                                uint64_t* observed_ts) {
  for (;;) {
    Chain* chain = FindChain(set);
    if (chain != nullptr) {
      if (!chain->is_set) {
        return Status::InvalidArgument("Select on non-set object");
      }
      const Version* v = VisibleVersion(chain, snapshot_ts);
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrSnapshotReads);
      if (observed_ts != nullptr) *observed_ts = v->ts;
      auto it = v->members.find(key);
      if (it == v->members.end()) {
        return Status::NotFound("no member with key " + key.ToString());
      }
      return it->second;
    }
    auto live = store_->SetSelect(set, key);
    if (!live.ok() && !live.status().IsNotFound()) return live;
    if (FindChain(set) == nullptr) {
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrLiveReads);
      if (observed_ts != nullptr) *observed_ts = 0;
      return live;
    }
  }
}

Result<std::vector<std::pair<Value, Oid>>> VersionedObjectStore::ReadSetScan(
    Oid set, uint64_t snapshot_ts, uint64_t* observed_ts) {
  for (;;) {
    Chain* chain = FindChain(set);
    if (chain != nullptr) {
      if (!chain->is_set) {
        return Status::InvalidArgument("Scan on non-set object");
      }
      const Version* v = VisibleVersion(chain, snapshot_ts);
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrSnapshotReads);
      if (observed_ts != nullptr) *observed_ts = v->ts;
      std::vector<std::pair<Value, Oid>> out;
      out.reserve(v->members.size());
      for (const auto& [k, member] : v->members) out.emplace_back(k, member);
      return out;
    }
    auto live = store_->SetScan(set);
    if (!live.ok()) return live;
    if (FindChain(set) == nullptr) {
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrLiveReads);
      if (observed_ts != nullptr) *observed_ts = 0;
      return live;
    }
  }
}

Result<size_t> VersionedObjectStore::ReadSetSize(Oid set, uint64_t snapshot_ts,
                                                 uint64_t* observed_ts) {
  for (;;) {
    Chain* chain = FindChain(set);
    if (chain != nullptr) {
      if (!chain->is_set) {
        return Status::InvalidArgument("Size on non-set object");
      }
      const Version* v = VisibleVersion(chain, snapshot_ts);
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrSnapshotReads);
      if (observed_ts != nullptr) *observed_ts = v->ts;
      return v->members.size();
    }
    auto live = store_->SetSize(set);
    if (!live.ok()) return live;
    if (FindChain(set) == nullptr) {
      counters_.Inc(metrics::ThreadStripeSlot(), kCtrLiveReads);
      if (observed_ts != nullptr) *observed_ts = 0;
      return live;
    }
  }
}

uint64_t VersionedObjectStore::SweepVersions() {
  MutexLock lock(mu_);
  const uint64_t watermark = Watermark();
  uint64_t freed = 0;
  ReaderMutexLock chains_lock(chains_mu_);
  for (auto& chain : chains_) {
    if (chain != nullptr) freed += TruncateChain(chain.get(), watermark);
  }
  versions_reclaimed_ += freed;
  return freed;
}

Status VersionedObjectStore::CheckInvariants() const {
  MutexLock lock(mu_);
  const uint64_t watermark = Watermark();
  ReaderMutexLock chains_lock(chains_mu_);
  char buf[160];
  for (Oid oid = 0; oid < chains_.size(); ++oid) {
    const Chain* chain = chains_[oid].get();
    if (chain == nullptr) continue;
    const Version* v = chain->head.load(std::memory_order_acquire);
    if (v == nullptr) {
      std::snprintf(buf, sizeof(buf), "oid %llu: chain with null head",
                    static_cast<unsigned long long>(oid));
      return Status::Internal(buf);
    }
    uint64_t prev_ts = ~uint64_t{0};
    size_t stale = 0;
    for (; v != nullptr; v = v->next.load(std::memory_order_acquire)) {
      if (v->ts >= prev_ts) {
        std::snprintf(buf, sizeof(buf),
                      "oid %llu: version ts %llu not strictly below newer %llu",
                      static_cast<unsigned long long>(oid),
                      static_cast<unsigned long long>(v->ts),
                      static_cast<unsigned long long>(prev_ts));
        return Status::Internal(buf);
      }
      prev_ts = v->ts;
      if (v->ts <= watermark) ++stale;
      if (v->is_set != chain->is_set) {
        std::snprintf(buf, sizeof(buf), "oid %llu: version kind mismatch",
                      static_cast<unsigned long long>(oid));
        return Status::Internal(buf);
      }
    }
    // The hard GC bound (valid at quiescent points, after SweepVersions):
    // one boundary version at or below the watermark, nothing older.
    if (stale > 1) {
      std::snprintf(
          buf, sizeof(buf),
          "oid %llu: %llu versions at or below watermark %llu (bound is 1)",
          static_cast<unsigned long long>(oid),
          static_cast<unsigned long long>(stale),
          static_cast<unsigned long long>(watermark));
      return Status::Internal(buf);
    }
  }
  return Status::OK();
}

VersionStats VersionedObjectStore::stats() const {
  VersionStats s;
  s.snapshots = counters_.Sum(kCtrSnapshots);
  s.snapshot_reads = counters_.Sum(kCtrSnapshotReads);
  s.live_reads = counters_.Sum(kCtrLiveReads);
  s.chain_length = chain_length_.Snapshot();
  MutexLock lock(mu_);
  s.versions_installed = versions_installed_;
  s.versions_reclaimed = versions_reclaimed_;
  s.install_groups = install_groups_;
  s.deferred_installs = deferred_installs_;
  s.commit_ts = commit_ts_;
  s.watermark = Watermark();
  return s;
}

void VersionedObjectStore::SetInstallLogEnabled(bool enabled) {
  MutexLock lock(mu_);
  install_log_enabled_ = enabled;
  if (!enabled) install_log_.clear();
}

std::vector<VersionInstall> VersionedObjectStore::InstallLog() const {
  MutexLock lock(mu_);
  return install_log_;
}

std::string VersionStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "snapshots=%llu snapshot_reads=%llu installed=%llu "
                "reclaimed=%llu groups=%llu deferred=%llu ts=%llu "
                "chain_len_p99=%llu",
                static_cast<unsigned long long>(snapshots),
                static_cast<unsigned long long>(snapshot_reads),
                static_cast<unsigned long long>(versions_installed),
                static_cast<unsigned long long>(versions_reclaimed),
                static_cast<unsigned long long>(install_groups),
                static_cast<unsigned long long>(deferred_installs),
                static_cast<unsigned long long>(commit_ts),
                static_cast<unsigned long long>(chain_length.p99));
  return buf;
}

std::string VersionStats::ToJson() const {
  metrics::JsonWriter w;
  w.Field("snapshots", snapshots);
  w.Field("snapshot_reads", snapshot_reads);
  w.Field("live_reads", live_reads);
  w.Field("versions_installed", versions_installed);
  w.Field("versions_reclaimed", versions_reclaimed);
  w.Field("install_groups", install_groups);
  w.Field("deferred_installs", deferred_installs);
  w.Field("commit_ts", commit_ts);
  w.Field("watermark", watermark);
  w.Field("chain_len_p50", chain_length.p50);
  w.Field("chain_len_p99", chain_length.p99);
  w.Field("chain_len_max", chain_length.max);
  return w.Close();
}

}  // namespace semcc

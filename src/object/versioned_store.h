// VersionedObjectStore: the multi-version read path beside the semantic
// lock manager (DESIGN.md §5.7).
//
// Read-only transactions running in snapshot mode never touch the lock
// manager: they register a snapshot timestamp S here and read, per object,
// the newest version with ts <= S from a lock-free per-OID version chain.
// Writers keep using the live ObjectStore in place (the semantic protocol
// depends on in-place state for commuting updates); this layer only decides
// WHEN a live state becomes a published, commit-consistent version.
//
// The central difficulty is *entanglement*: under semantic concurrency
// control two commuting writers may interleave in-place updates on the same
// object (two ChangeStatus on one Status atom, Case-1-relieved QuantityOnHand
// updates), so at one writer's commit the live bytes may contain another
// writer's uncommitted effects. Stamping a version at that moment would leak
// a partial transaction into every later snapshot. The fix is commit-group
// deferred installation:
//
//  * BeginWrite(oid) counts the active writers of every object (first write
//    per transaction per object).
//  * OnTxnEnd(root, write_set) decrements those counts and parks the
//    finished transaction in a pending list. A connected component of
//    pending transactions (connected = overlapping write sets) installs as
//    ONE group the moment none of its objects has an active writer left:
//    the live values are then clean — every transaction that touched them
//    has completed — and, because only *commuting* operations ever overlap
//    under the protocol, the merged bytes equal some serial execution of the
//    group. The whole group gets a single commit timestamp, so snapshots
//    are all-or-nothing per group (and a fortiori per transaction).
//  * Aborted transactions take the same path after compensation: the
//    post-compensation live state is a legitimate committed-equivalent
//    state (semantic compensation does not necessarily restore the exact
//    prior bytes), so it is published like a commit. Read-only trees (empty
//    write set) never enter the pending list.
//
// One documented relaxation follows from deferral: a snapshot taken after
// Run() returned may still miss that transaction's writes while a commuting
// writer of the same objects is in flight — the snapshot is always
// commit-consistent, but can lag entangled commits. (The locking protocol
// "solves" the same situation by making the reader root-wait; this layer
// trades that wait for bounded staleness.)
//
// Version publication and reclamation (memory-ordering contract, §5.7):
// chains are singly linked, newest first, head is an atomic published with
// release after the node is fully initialized; readers load it with acquire
// and walk without locks. Every chain is created (with a ts=0 *base*
// version capturing the pre-first-write committed value) under the store
// mutex BEFORE the first physical write to the object, so a reader that
// falls back to the live store for a never-written object revalidates
// chain absence afterwards and can never return a half-written value: if it
// observed a writer's bytes through the object store's internal latch, that
// same latch edge makes the chain visible to the revalidation. Reclamation
// is watermark-based: the watermark is the oldest registered snapshot
// (registration shares the store mutex with the watermark computation), and
// truncation keeps the newest version with ts <= watermark — the *boundary*
// — plus everything newer. An active reader's S is >= the watermark, its
// walk stops at or before the boundary, and it only dereferences `next` of
// versions it skipped (ts > S), none of which is ever freed or re-linked;
// hence walks need no locks and no hazard pointers.
#ifndef SEMCC_OBJECT_VERSIONED_STORE_H_
#define SEMCC_OBJECT_VERSIONED_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "object/object_store.h"
#include "object/value.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/metrics.h"

namespace semcc {

/// \brief One version-installation event: the objects of one commit group
/// published at one timestamp. Collected (when enabled) for the snapshot
/// serializability checker and the MVCC tests.
struct VersionInstall {
  uint64_t ts = 0;
  std::vector<uint64_t> roots;  ///< root txn ids of the group
  std::vector<Oid> oids;        ///< distinct objects versioned at `ts`
};

/// \brief Point-in-time snapshot of MVCC statistics (plain data).
struct VersionStats {
  uint64_t snapshots = 0;          ///< snapshot transactions begun
  uint64_t snapshot_reads = 0;     ///< reads served from a version chain
  uint64_t live_reads = 0;         ///< snapshot reads of never-written objects
  uint64_t versions_installed = 0; ///< version nodes appended
  uint64_t versions_reclaimed = 0; ///< version nodes freed by GC
  uint64_t install_groups = 0;     ///< commit groups published
  uint64_t deferred_installs = 0;  ///< txn ends parked behind active writers
  uint64_t commit_ts = 0;          ///< current commit clock
  uint64_t watermark = 0;          ///< oldest snapshot bound at snapshot time
  metrics::HistogramSummary chain_length;  ///< chain length after install

  std::string ToString() const;
  std::string ToJson() const;
};

/// \brief Per-OID version chains + commit clock + watermark GC.
///
/// Thread safety: BeginWrite/OnTxnEnd/BeginSnapshot/EndSnapshot/Sweep
/// serialize on one mutex (they are rare: once per written object per
/// transaction, once per transaction end, once per snapshot). Reads
/// (ReadAtomic/ReadSet*) are lock-free on the chain walk; they take the
/// chains index's shared latch only to resolve Oid -> chain.
class VersionedObjectStore {
 public:
  explicit VersionedObjectStore(ObjectStore* store);
  ~VersionedObjectStore();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(VersionedObjectStore);

  // --- writer side ---------------------------------------------------------

  /// First write of a transaction to `oid` (TxnCtx calls this once per
  /// (txn, oid), BEFORE the physical write). Captures the ts=0 base version
  /// if the object was never written and counts the active writer.
  void BeginWrite(Oid oid, bool is_set);

  /// The transaction finished (committed, or abort compensation completed).
  /// Decrements the write set's writer counts and installs every pending
  /// commit group that became quiescent, reading the merged live values from
  /// the object store. `write_set` must be exactly the oids passed to
  /// BeginWrite by this transaction.
  void OnTxnEnd(uint64_t root_id, const std::set<Oid>& write_set);

  // --- reader side ---------------------------------------------------------

  /// Register a snapshot; returns its timestamp S (the current commit
  /// clock — every group with ts <= S is fully published). The caller MUST
  /// pair this with EndSnapshot(S) or the watermark never advances past S.
  uint64_t BeginSnapshot();
  void EndSnapshot(uint64_t snapshot_ts);

  /// Value of atomic object `oid` as of snapshot S. `observed_ts` (may be
  /// null) receives the version timestamp served (0 = base / live-fallback
  /// pre-first-write state).
  Result<Value> ReadAtomic(Oid oid, uint64_t snapshot_ts,
                           uint64_t* observed_ts);

  /// Set membership as of snapshot S (same shapes as ObjectStore::Set*).
  Result<Oid> ReadSetSelect(Oid set, const Value& key, uint64_t snapshot_ts,
                            uint64_t* observed_ts);
  Result<std::vector<std::pair<Value, Oid>>> ReadSetScan(
      Oid set, uint64_t snapshot_ts, uint64_t* observed_ts);
  Result<size_t> ReadSetSize(Oid set, uint64_t snapshot_ts,
                             uint64_t* observed_ts);

  // --- maintenance / introspection -----------------------------------------

  /// Quiesce sweep: truncate every chain to the current watermark (inline
  /// truncation only touches chains being installed to). Returns the number
  /// of version nodes reclaimed.
  uint64_t SweepVersions();

  /// Debug invariant check (call at a quiescent point, after SweepVersions):
  /// every chain is strictly descending in ts, non-empty chains end in a
  /// reachable boundary, and at most ONE version per chain is at or below
  /// the current watermark — the hard chain-length bound:
  /// len(chain) <= 1 + #installs in (watermark, commit_ts].
  Status CheckInvariants() const;

  VersionStats stats() const;

  /// Record every install (ts, roots, oids) for the serializability checker;
  /// off by default (perf runs must not accumulate).
  void SetInstallLogEnabled(bool enabled);
  std::vector<VersionInstall> InstallLog() const;

 private:
  struct Version {
    uint64_t ts = 0;
    bool is_set = false;
    Value value;                                   // atoms
    std::map<Value, Oid> members;                  // sets
    std::atomic<Version*> next{nullptr};           // older
  };

  struct Chain {
    std::atomic<Version*> head{nullptr};  // newest; never null once published
    bool is_set = false;                  // immutable after creation
  };

  struct PendingTxn {
    uint64_t root_id = 0;
    std::vector<Oid> oids;
  };

  /// Counter indices (striped by thread).
  enum Counter : size_t {
    kCtrSnapshots = 0,
    kCtrSnapshotReads,
    kCtrLiveReads,
    kCtrCount,
  };

  /// Oid -> chain, or null if the object was never transactionally written.
  Chain* FindChain(Oid oid) const SEMCC_EXCLUDES(chains_mu_);
  /// Newest version with ts <= S (never null: chains end in the base or the
  /// GC boundary, both of which are <= any registered S).
  static const Version* VisibleVersion(const Chain* chain, uint64_t s);

  uint64_t Watermark() const SEMCC_REQUIRES(mu_);
  /// Append one version to `chain` and truncate past the watermark.
  /// Returns nodes freed.
  uint64_t InstallVersion(Chain* chain, std::unique_ptr<Version> v,
                          uint64_t watermark) SEMCC_REQUIRES(mu_);
  /// Publish every pending component whose objects are writer-quiescent.
  void ResolvePending() SEMCC_REQUIRES(mu_);
  uint64_t TruncateChain(Chain* chain, uint64_t watermark)
      SEMCC_REQUIRES(mu_);

  ObjectStore* const store_;

  mutable Mutex mu_;
  uint64_t commit_ts_ SEMCC_GUARDED_BY(mu_) = 0;
  std::map<Oid, uint32_t> active_writers_ SEMCC_GUARDED_BY(mu_);
  std::vector<PendingTxn> pending_ SEMCC_GUARDED_BY(mu_);
  std::multiset<uint64_t> snapshots_ SEMCC_GUARDED_BY(mu_);
  bool install_log_enabled_ SEMCC_GUARDED_BY(mu_) = false;
  std::vector<VersionInstall> install_log_ SEMCC_GUARDED_BY(mu_);
  // Monotonic tallies read at quiesce (guarded: written under mu_ only).
  uint64_t versions_installed_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t versions_reclaimed_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t install_groups_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t deferred_installs_ SEMCC_GUARDED_BY(mu_) = 0;

  /// Oid -> chain index. Readers take it shared to resolve the pointer and
  /// then walk lock-free; BeginWrite takes it exclusive to publish a new
  /// chain (chain objects are never deleted before the store itself).
  mutable SharedMutex chains_mu_;
  std::vector<std::unique_ptr<Chain>> chains_ SEMCC_GUARDED_BY(chains_mu_);

  metrics::CounterBank counters_;
  metrics::AtomicHistogram chain_length_;
};

}  // namespace semcc

#endif  // SEMCC_OBJECT_VERSIONED_STORE_H_

// The semantic lock manager for open nested OODBS transactions.
//
// Implements the locking protocol of paper §4.2 (Figures 8 and 9):
//  * every action acquires a semantic lock (method name + parameters) on the
//    object it operates on;
//  * locks are never dropped at subtransaction completion — they become
//    *retained* (derived here from the owning subtransaction's completion
//    state) and stay until top-level commit, so bypassing accesses still
//    collide with them;
//  * the conflict test `test-conflict(h, r)` walks the ancestor chains of
//    holder and requester looking for a commuting pair on the same object:
//    Case 1 (pair found, holder-side ancestor committed) grants immediately;
//    Case 2 (pair found, still active) waits for that subtransaction's
//    completion; otherwise the requester waits for the holder's top-level
//    commit;
//  * blocked requests are granted in FCFS order (paper footnote 5): a
//    request also tests against earlier-queued requests.
//
// The same lock table also hosts the conventional baselines (closed nested
// transactions [Mo85], flat strict 2PL at object/record/page granularity)
// selected via ProtocolOptions::protocol, so benchmarks compare protocols on
// identical infrastructure.
//
// Concurrency structure (see DESIGN.md §5, "Lock-manager internals"): the
// lock table is split into ProtocolOptions::lock_table_shards shards, each
// with its own mutex + condvar guarding that shard's queues, while the
// waits-for graph, deadlock detection, and the lock-order diagnostics live
// behind a separate graph mutex. The lock order is
//     shard.mu  →  graph_mu_  →  SubTxn::children_mu_
// and a thread never holds two shard mutexes at once (the stop-the-world
// invariant sweep, which locks every shard in index order while holding
// nothing else, is the only exception). Waiters sleep on their shard's
// condvar and are woken only when an event (completion, release, abort
// request) can actually unblock that shard — there is no broadcast-and-poll
// path. With ProtocolOptions::debug_lock_checks the manager additionally
// re-derives the protocol invariants on every grant/release (see
// cc/lock_invariants.h).
//
// Acquire has one path (DESIGN.md §5.4): one test-conflict scan of the
// target's queue at the request's arrival sequence number, then either a
// granted entry, or a waiting entry whose owner re-scans on every wake-up.
#ifndef SEMCC_CC_LOCK_MANAGER_H_
#define SEMCC_CC_LOCK_MANAGER_H_

#include <atomic>
#include <bitset>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "cc/compatibility.h"
#include "cc/lock_invariants.h"
#include "cc/method_interner.h"
#include "cc/subtxn.h"
#include "object/oid.h"
#include "storage/record_manager.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace semcc {

/// \brief The compared configurations: the paper's protocol, its two
/// ablations, and the conventional baselines it is measured against. The
/// semantic values come first (see IsSemantic).
enum class Protocol : int {
  /// The paper's protocol: semantic locks on every action, open nested
  /// transactions, retained locks + commutative-ancestor relief (Fig. 8/9).
  kSemanticONT = 0,
  /// kSemanticONT without the commutative-ancestor walk (no Case 1 / Case 2
  /// relief): every retained-lock conflict waits for top-level commit.
  /// Correct but needlessly blocking; the Figure 6/7 ablation.
  kSemanticNoAncestorWalk = 1,
  /// The §3 protocol: a completed subtransaction's descendant locks are
  /// dropped instead of retained. *Incorrect under bypassing*; it exists as
  /// the Figure 5 foil and for ablations.
  kSemanticNoRetainedLocks = 2,
  /// Closed nested transactions [Mo85]: read/write locks at the leaves,
  /// anti-inherited by the parent on subtransaction commit; no semantics.
  kClosedNested = 3,
  /// Conventional flat strict 2PL: read/write locks on the accessed object,
  /// its storage record, or its page, held to top-level commit (§1.1).
  kFlat2PLObject = 4,
  kFlat2PLRecord = 5,
  kFlat2PLPage = 6,
};

const char* ProtocolName(Protocol p);

/// True for the values that lock methods semantically (kSemanticONT and its
/// two ablations).
inline bool IsSemantic(Protocol p) {
  return p <= Protocol::kSemanticNoRetainedLocks;
}

struct ProtocolOptions {
  Protocol protocol = Protocol::kSemanticONT;

  /// Upper bound on one lock wait (a safety net — the deadlock detector
  /// breaks wait cycles, so waits should resolve). A wait that reaches it
  /// counts in LockStats::timeouts; the request then re-scans once more and
  /// returns TimedOut, or OK if its blockers have gone by then.
  std::chrono::milliseconds wait_timeout{10000};

  /// Number of lock-table shards (clamped to a power of two in [1, 256]).
  /// 1 reproduces the pre-sharding single-mutex behavior for ablations.
  int lock_table_shards = 16;

  /// Debug-mode lock-invariant checker (cc/lock_invariants.h): re-derive the
  /// protocol invariants on every grant/release and track the lock-order
  /// graph. Default: on in debug builds and whenever the tree is compiled
  /// with -DSEMCC_DEBUG_LOCK_CHECKS; off in release builds, where the hooks
  /// cost one predicted-false branch per grant.
#if defined(SEMCC_DEBUG_LOCK_CHECKS) || !defined(NDEBUG)
  bool debug_lock_checks = true;
#else
  bool debug_lock_checks = false;
#endif

  /// Multi-version snapshot reads (DESIGN.md §5.7): the database keeps a
  /// VersionedObjectStore beside the live store, and read-only transactions
  /// submitted through Database::RunReadTransaction execute against a
  /// commit-consistent snapshot without acquiring any locks. Writers are
  /// unaffected (same protocol, plus one version-store bookkeeping call per
  /// written object). Default off for ablation: with the flag off,
  /// RunReadTransaction degrades to the ordinary locking path.
  bool mvcc_reads = false;
};

/// \brief What a lock names: an object, a record, or a page.
struct LockTarget {
  enum class Space : uint8_t { kObject = 0, kRecord = 1, kPage = 2 };
  Space space = Space::kObject;
  uint64_t key = 0;

  static LockTarget ForObject(Oid oid) { return {Space::kObject, oid}; }
  static LockTarget ForRecord(const Rid& rid) {
    return {Space::kRecord,
            (static_cast<uint64_t>(rid.page_id) << 16) | rid.slot};
  }
  static LockTarget ForPage(PageId page) {
    return {Space::kPage, static_cast<uint64_t>(page)};
  }

  bool operator==(const LockTarget& other) const {
    return space == other.space && key == other.key;
  }
  std::string ToString() const;
};

/// Hash over (space, key) with a splitmix64 finalizer so that the
/// structured keys this system produces — sequential Oids, Rids whose low
/// 16 bits are a slot, page ids — spread over both hash-table buckets and
/// lock-table shards (which use the LOW bits). A multiplicative-only hash
/// clusters them: e.g. `ForRecord({page, 0})` keys are all multiples of
/// 1<<16 and would land every record of slot 0 in shard 0.
struct LockTargetHash {
  size_t operator()(const LockTarget& t) const {
    uint64_t x = (t.key << 2) ^ static_cast<uint64_t>(t.space);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

/// \brief The entries on one target, linked through LockEntry::prev/next in
/// arrival (FCFS) order. The entries live in their acquirers' SubTxns; the
/// queue head comes from its shard's LockQueueTable and keeps its address
/// while the queue is non-empty.
struct LockQueue {
  LockTarget target;
  uint64_t hash = 0;  ///< the table hash it was inserted under
  LockEntry* head = nullptr;
  LockEntry* tail = nullptr;
  LockQueue* next_free = nullptr;  ///< free-list link while unused

  bool empty() const { return head == nullptr; }
  /// Link `e` at the tail and point it at this queue.
  void Append(LockEntry* e);
  /// Unlink `e` (which must be in this queue) and mark it unlinked.
  void Unlink(LockEntry* e);
};

/// \brief One shard's map LockTarget → LockQueue*: open addressing over a
/// power-of-two slot array, linear probing, backward-shift deletion.
///
/// Callers pass the hash; the lock manager passes the bits of
/// LockTargetHash that the shard index does not use. Queue heads come from
/// a free list of pooled heads and go back to it on Erase; the pool grows in
/// blocks, and the slot array doubles before it gets more than half full,
/// so once both have grown to a shard's working set a new target allocates
/// nothing. Growth moves slots, never queues: a queue keeps its address
/// until it is erased. Not thread-safe; the shard mutex guards it.
class LockQueueTable {
 public:
  LockQueueTable();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(LockQueueTable);

  /// The queue of `target`, or nullptr.
  LockQueue* Find(const LockTarget& target, uint64_t hash) const;
  /// The queue of `target`, inserting an empty one if there is none.
  LockQueue* FindOrInsert(const LockTarget& target, uint64_t hash);
  /// Remove `q` (a queue of this table, emptied by the caller) and return
  /// its head to the free list.
  void Erase(LockQueue* q);

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// The queue in slot `i` (< capacity()), or nullptr for an empty slot:
  /// sweeps over every queue (debug checks, tests).
  const LockQueue* queue_at(size_t i) const { return slots_[i].queue; }

 private:
  struct Slot {
    uint64_t hash = 0;
    LockQueue* queue = nullptr;  ///< nullptr = empty slot
  };
  static constexpr size_t kInitialSlots = 16;
  static constexpr size_t kBlockQueues = 32;

  size_t Home(uint64_t hash) const { return hash & (slots_.size() - 1); }
  /// First empty slot of the probe sequence of `hash`.
  size_t FreeSlotFor(uint64_t hash) const;
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
  LockQueue* free_ = nullptr;
  std::vector<std::unique_ptr<LockQueue[]>> blocks_;
};

/// \brief Why test-conflict produced its verdict (stats + scenario tests).
enum class ConflictOutcome : int {
  kNoLock = 0,      ///< no other lock present
  kSameTxn = 1,     ///< holder belongs to the same top-level transaction
  kCommute = 2,     ///< invocations commute — no conflict (semantic grant)
  kCase1Grant = 3,  ///< commuting ancestor pair, holder side committed
  kCase2Wait = 4,   ///< commuting ancestor pair, still active: wait for it
  kRootWait = 5,    ///< no commuting pair: wait for top-level commit
  kSharedGrant = 6, ///< read/read compatibility (baselines)
  kHolderWait = 7,  ///< baseline conflict: wait for the holder
};

/// \brief Point-in-time snapshot of the lock manager's cumulative counters
/// (plain data — copy it, read it, serialize it).
///
/// Backed by the cache-line-striped metrics::CounterBank inside LockManager
/// (one stripe per lock-table shard, DESIGN.md §5.5): increments are
/// relaxed and contention-free; a snapshot taken while threads run is a
/// per-counter monotonic lower bound, exact at quiescent points.
struct LockStats {
  uint64_t acquires = 0;
  uint64_t blocked_acquires = 0;
  // Verdict breakdown (ConflictOutcome classification of first-scan tests).
  uint64_t commute_grants = 0;  ///< nil verdicts by direct commutativity
  uint64_t case1_grants = 0;    ///< nil via committed commuting ancestor
  uint64_t case2_waits = 0;     ///< wait-for-subtransaction verdicts
  uint64_t root_waits = 0;      ///< formal conflicts: wait for top-level end
  /// Conflicts whose blocking entry was a *retained* lock — the holder had
  /// already completed (§4.1). This is the mechanism Figure 5 depends on:
  /// a bypassing access colliding with a completed subtransaction's lock.
  uint64_t retained_hits = 0;
  uint64_t deadlocks = 0;
  /// Waits that reached ProtocolOptions::wait_timeout, whether the final
  /// re-scan then granted the request or it returned TimedOut.
  uint64_t timeouts = 0;
  /// Always 0: nothing increments them (DESIGN.md §5.4). They remain for
  /// callers that still read them, such as oebench.
  uint64_t fast_path_hits = 0;
  uint64_t coalesced_grants = 0;
  uint64_t memo_hits = 0;
  /// Queue entries that became granted / granted entries removed. At a
  /// quiescent point with every transaction finished these are equal;
  /// mid-run their difference is the number of granted (active + retained)
  /// entries sitting in the lock table.
  uint64_t granted_entries = 0;
  uint64_t released_entries = 0;
  /// Per-shard condvar notifications delivered by targeted wakeups.
  uint64_t wakeups = 0;
  /// Wait-time distribution of blocked acquires, in microseconds.
  metrics::HistogramSummary wait_micros;

  std::string ToString() const;
  std::string ToJson() const;
};

/// \brief The lock manager. One instance per database.
class LockManager {
 public:
  /// Hard upper bound on lock_table_shards (size of the wake bitmask).
  static constexpr int kMaxShards = 256;

  LockManager(const ProtocolOptions& options, CompatibilityRegistry* compat);
  ~LockManager();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(LockManager);

  /// Acquire a lock for action `t` on `target` (Figure 8: "a lock on
  /// t.object is requested in a mode that is derived from t.method and
  /// possibly the actual parameters of t"). Blocks until granted; returns
  ///  - OK          granted,
  ///  - Deadlock    t's transaction was chosen as deadlock victim,
  ///  - Aborted     t's transaction was asked to abort while waiting,
  ///  - TimedOut    the wait exceeded ProtocolOptions::wait_timeout.
  ///
  /// `is_write` is the read/write classification used by the conventional
  /// baselines; the semantic protocol ignores it.
  Status Acquire(SubTxn* t, const LockTarget& target, bool is_write);

  /// Figure 8, on completion of subtransaction t: convert/release per
  /// protocol and wake exactly the waiters whose waits-for sets contain t
  /// (waits-for sets shrink on *completion*). Runs on the thread running
  /// t's tree, like every call that acquires or releases for that tree.
  void OnSubTxnCompleted(SubTxn* t);

  /// Top-level end ("release all locks"): drop every lock owned by the tree
  /// rooted at `root` and wake affected waiters. Visits only the tree's own
  /// entries. Call before destroying the tree.
  void ReleaseTree(SubTxn* root);

  /// Flag `root` for abort and wake its blocked actions so they return
  /// Aborted promptly. External abort requests MUST go through here (not
  /// through SubTxn::RequestAbort directly): the flag is published under the
  /// graph mutex, which is what lets sleeping waiters observe it without
  /// polling.
  void OnAbortRequested(SubTxn* root);

  /// Logical timestamp source shared with the history recorder.
  uint64_t NextSeq() { return clock_.fetch_add(1) + 1; }

  /// Root-wait verdicts charged to the CALLING thread (cumulative,
  /// process-wide across managers). Lock waits run on the acquiring thread,
  /// so a workload can attribute root-waits to the transaction class it is
  /// executing by differencing this around a transaction.
  static uint64_t ThreadRootWaits();

  /// Aggregate counter snapshot (sums the per-shard stripes; see the
  /// LockStats comment for the consistency contract).
  LockStats stats() const;
  /// One shard's counter stripe. Counters are attributed to the shard of
  /// the target being acquired; the wait-time histogram is global and left
  /// empty here.
  LockStats shard_stats(uint32_t shard) const;
  const ProtocolOptions& options() const { return options_; }

  /// Actual shard count after clamping (power of two in [1, kMaxShards]).
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Shard index `target` maps to — exposed for dispersion tests.
  uint32_t ShardIndexOf(const LockTarget& target) const {
    return static_cast<uint32_t>(LockTargetHash{}(target)) & shard_mask_;
  }

  /// Cumulative counters of the debug invariant checker (all zero when
  /// ProtocolOptions::debug_lock_checks is off).
  const LockInvariantStats& invariant_stats() const { return inv_stats_; }

  /// Run the queue + wait-graph invariant sweep immediately, regardless of
  /// debug_lock_checks; returns the cumulative protocol-violation count
  /// afterwards. Stop-the-world: locks every shard (in index order) plus the
  /// graph mutex. Intended for tests (e.g. at quiescent points).
  uint64_t CheckInvariantsNow();

  /// Locks currently held/queued on `target` — introspection for tests.
  struct LockInfo {
    TxnId owner_id;  ///< the entry's owner (a closed-nested ancestor after
                     ///< anti-inheritance; otherwise the acquirer)
    TxnId root_id;
    std::string method;  ///< the acquirer's method (the lock mode)
    bool granted;
    bool retained;  ///< owner completed but lock still present
  };
  std::vector<LockInfo> LocksOn(const LockTarget& target) const;

  /// Number of waiting (blocked) acquires right now.
  size_t NumWaiters() const SEMCC_EXCLUDES(graph_mu_);

 private:
  /// One lock-table shard: a slice of the target space with its own mutex
  /// and condvar. Waiters on this shard's queues sleep on `cv`; events wake
  /// a shard only when they may unblock one of its queues.
  struct LockShard {
    mutable Mutex mu;
    CondVar cv;
    LockQueueTable table SEMCC_GUARDED_BY(mu);
    uint64_t next_entry_seq SEMCC_GUARDED_BY(mu) = 0;
    /// Waiting entries in `table`. Every thread parked on `cv` owns one, so
    /// a release that finds none here has nobody to wake.
    uint32_t waiting SEMCC_GUARDED_BY(mu) = 0;
  };

  /// Set of shard indices to notify once all locks are dropped.
  using ShardSet = std::bitset<kMaxShards>;

  /// A blocked requester's registration in the waits-for graph.
  struct WaitRecord {
    std::vector<SubTxn*> blockers;  ///< the completions it awaits
    uint32_t shard = 0;             ///< where its condvar wait parks
  };

  /// Result of one blocker scan over a queue; reused across wait-loop
  /// iterations so steady-state re-scans allocate nothing.
  struct ScanResult {
    std::vector<SubTxn*> blockers;  ///< deduplicated verdicts
    /// Best nil-verdict relief observed (kCase1Grant beats kCommute,
    /// kNoLock if neither) — recorded on stats-counting scans only; feeds
    /// the verdict field of grant trace events.
    ConflictOutcome grant_relief = ConflictOutcome::kNoLock;
    /// First blocker's verdict + identity + whether its entry was a
    /// retained lock (holder completed) — feeds block trace events.
    ConflictOutcome block_why = ConflictOutcome::kNoLock;
    SubTxn* first_blocker = nullptr;
    bool blocker_retained = false;
    /// Blockers whose *completion* is the wake event, so the pre-sleep
    /// revalidation re-checks them: every blocker but a root that had
    /// already completed at scan time. That root is awaiting ReleaseTree,
    /// which purges queue entries under this shard's mutex and therefore
    /// cannot be missed.
    std::vector<SubTxn*> completion_watch;
    void Clear() {
      blockers.clear();
      completion_watch.clear();
      grant_relief = ConflictOutcome::kNoLock;
      block_why = ConflictOutcome::kNoLock;
      first_blocker = nullptr;
      blocker_retained = false;
    }
  };

  LockShard& ShardFor(const LockTarget& target) const {
    return *shards_[ShardIndexOf(target)];
  }

  /// Notify the condvars of every shard in `s`. Must be called with no lock
  /// manager mutex held: it locks each shard's mutex (one at a time) before
  /// notifying, which guarantees delivery to any waiter that registered
  /// before the triggering event — a registering waiter holds its shard
  /// mutex continuously from its blocker scan until the condvar wait parks
  /// it, so we cannot slip into that window.
  void NotifyShards(const ShardSet& s);

  /// The paper's test-conflict(h, r): nil (nullptr) or the (sub)transaction
  /// whose completion r must wait for. Sets *why. Reads only SubTxn state
  /// (atomics) and the compatibility registry — no lock-manager mutex.
  SubTxn* TestConflict(const LockEntry& h, SubTxn* r, bool r_is_write,
                       ConflictOutcome* why) const;

  SubTxn* TestConflictSemantic(const LockEntry& h, SubTxn* r,
                               ConflictOutcome* why) const;
  SubTxn* TestConflictClosed(const LockEntry& h, SubTxn* r, bool r_is_write,
                             ConflictOutcome* why) const;
  SubTxn* TestConflictFlat(const LockEntry& h, SubTxn* r, bool r_is_write,
                           ConflictOutcome* why) const;

  /// Blockers of `t` against queue `q` given its own entry seq, written
  /// into *out (cleared first). `stripe` is the shard index, for counter
  /// attribution. With count_stats, classify each verdict into the counter
  /// bank (first scan of an Acquire only).
  void CollectBlockers(const LockShard& shard, const LockQueue& q,
                       uint64_t my_seq, SubTxn* t, bool is_write,
                       uint32_t stripe, bool count_stats, ScanResult* out)
      SEMCC_REQUIRES(shard.mu);

  /// Whether the FCFS rule (paper footnote 5) makes `t`, arriving at
  /// `my_seq`, test against the entry `e` of its queue: every granted entry,
  /// and every earlier waiting one, except (a) when `t` compensates and (b)
  /// a foreign waiter that itself waits for a lock granted to `t`'s tree.
  /// Such a waiter holds nothing and cannot be granted before that lock
  /// goes, so queueing `t` behind it would only close a wait cycle.
  bool FcfsTests(const LockQueue& q, const LockEntry& e, uint64_t my_seq,
                 SubTxn* t) const;

  /// Withdraw `t`'s waiting entry and wake this shard (abandon paths of
  /// Acquire: abort, deadlock victim, timeout). The caller separately
  /// erases t's wait record. t's node stays on its root's held list.
  void RemoveWaiter(LockShard& shard, SubTxn* t) SEMCC_REQUIRES(shard.mu);

  /// Link `t`'s entry into `q` and put t on its root's held list.
  void AppendEntry(LockShard& shard, uint32_t shard_idx, LockQueue& q,
                   SubTxn* t, bool is_write, bool granted, uint64_t seq)
      SEMCC_REQUIRES(shard.mu);

  /// Unlink `e` from its queue, erasing the queue once it is empty. A
  /// granted entry counts as released; a waiting one leaves shard.waiting.
  void UnlinkEntry(LockShard& shard, uint32_t shard_idx, LockEntry* e)
      SEMCC_REQUIRES(shard.mu);

  /// ReleaseTree's part in one shard: unlink the entries of `chain` (nodes
  /// linked through next_held_, all hosted by this shard).
  void ReleaseChain(LockShard& shard, uint32_t shard_idx, SubTxn* chain)
      SEMCC_REQUIRES(shard.mu);

  /// What OnSubTxnCompleted(t) does to its tree's own entries.
  enum class CompletionOp {
    /// §3 (kSemanticNoRetainedLocks): release the granted entries of t's
    /// proper descendants.
    kReleaseDescendants,
    /// Closed nesting: t's parent adopts the granted entries t owns.
    kInherit,
  };
  /// Whether `op` on the completion of `t` changes entry `e`. Reads only
  /// fields the tree's own thread writes, so that thread needs no lock.
  static bool Picks(CompletionOp op, const SubTxn* t, const LockEntry& e);
  /// Apply `op` to the picked entries of t's tree in this shard (walks the
  /// root's held list). True if it released an entry.
  bool ApplyCompletionOp(LockShard& shard, uint32_t shard_idx, SubTxn* t,
                         CompletionOp op) SEMCC_REQUIRES(shard.mu);

  /// Erase t's wait record (if any) and take it out of num_waits_; the
  /// first form takes the graph mutex itself.
  void EraseWaitRecord(SubTxn* t) SEMCC_EXCLUDES(graph_mu_);
  void EraseWaitRecordLocked(SubTxn* t) SEMCC_REQUIRES(graph_mu_);

  /// Detect a deadlock reachable from requester `t`; returns the chosen
  /// victim's root (maximal priority rank on the cycle = youngest
  /// transaction) or nullptr.
  SubTxn* DetectDeadlock(SubTxn* t) const SEMCC_REQUIRES(graph_mu_);

  /// DFS expansion step of DetectDeadlock over the completion-dependency
  /// graph: wait edges of `n` plus `n`'s incomplete children.
  void ExpandDependencies(SubTxn* n, std::vector<SubTxn*>* stack,
                          std::set<SubTxn*>* visited,
                          std::map<SubTxn*, SubTxn*>* came_from) const
      SEMCC_REQUIRES(graph_mu_);

  // --- debug invariant checker (cc/lock_invariants.h) ---------------------

  /// Re-derive grant soundness for the entry `my_seq` of `t` that is about
  /// to be granted: every other granted/earlier entry must pass
  /// test-conflict.
  void CheckGrantInvariants(const LockShard& shard, const LockQueue& q,
                            uint64_t my_seq, SubTxn* t, bool is_write)
      SEMCC_REQUIRES(shard.mu);

  /// Queue-local invariants: no waiting entry may belong to a completed
  /// subtransaction (only *granted* locks are retained past completion).
  void CheckQueueInvariants(const LockShard& shard, const LockQueue& q)
      SEMCC_REQUIRES(shard.mu);

  /// Post-ReleaseTree, per shard: no entry of `root`'s tree may remain.
  void CheckNoLeakedLocks(const LockShard& shard, SubTxn* root)
      SEMCC_REQUIRES(shard.mu);

  /// The waits-for graph (plus completion dependencies) must be acyclic
  /// once nodes of abort-flagged roots (chosen victims) are excluded.
  void CheckWaitGraphAcyclic() SEMCC_REQUIRES(graph_mu_);

  /// Record "t's transaction, holding its current targets, acquired
  /// `target`" in the global lock-order graph; count inversions.
  void RecordLockOrder(SubTxn* t, const LockTarget& target)
      SEMCC_REQUIRES(graph_mu_);

  void InvariantViolation(const char* kind, const std::string& detail);

  static uint64_t PackTarget(const LockTarget& t) {
    return (t.key << 2) | static_cast<uint64_t>(t.space);
  }

  /// Shard count after clamping (shared by the shard vector and the
  /// counter bank's stripe count).
  static size_t ClampShardCount(int requested);

  /// Stamp the common fields and emit one lock-decision trace event.
  /// Callers gate on trace::Active() first.
  void EmitLockEvent(trace::EventKind kind, SubTxn* t,
                     const LockTarget& target, uint32_t shard,
                     ConflictOutcome verdict, SubTxn* blocker, uint64_t value,
                     uint8_t flags) const;

  const ProtocolOptions options_;
  CompatibilityRegistry* const compat_;

  /// Immutable after construction; shard state is guarded per shard.
  std::vector<std::unique_ptr<LockShard>> shards_;
  uint32_t shard_mask_ = 0;
  uint32_t shard_bits_ = 0;  ///< log2 of the shard count

  /// Guards the waits-for graph and the debug lock-order diagnostics.
  /// Ordering: acquired after a shard mutex, never before one.
  mutable Mutex graph_mu_;
  /// Current wait edges: blocked requester -> its registration.
  std::map<SubTxn*, WaitRecord> waits_ SEMCC_GUARDED_BY(graph_mu_);
  /// Records in waits_ plus registrations under way. Written under
  /// graph_mu_, read without it: a completion or release that reads 0 has
  /// no waiter to wake and skips graph_mu_ (see OnSubTxnCompleted).
  std::atomic<uint64_t> num_waits_{0};

  std::atomic<uint64_t> clock_{0};

  /// Counter indices into counters_ (one stripe per shard). Kept private;
  /// the public view is the LockStats snapshot.
  enum Counter : size_t {
    kCtrAcquires = 0,
    kCtrBlockedAcquires,
    kCtrCommuteGrants,
    kCtrCase1Grants,
    kCtrCase2Waits,
    kCtrRootWaits,
    kCtrRetainedHits,
    kCtrDeadlocks,
    kCtrTimeouts,
    kCtrGrantedEntries,
    kCtrReleasedEntries,
    kCtrWakeups,
    kCtrCount,
  };
  metrics::CounterBank counters_;
  metrics::AtomicHistogram wait_micros_;

  /// Global acquisition-order graph over lock targets (debug checker).
  LockOrderGraph order_graph_ SEMCC_GUARDED_BY(graph_mu_);
  /// Targets currently locked per top-level transaction (debug checker);
  /// cleared by ReleaseTree. `order` keeps acquisition order for the
  /// order-graph edges; `seen` (packed keys) makes the per-acquire
  /// duplicate test O(1) instead of a linear scan that degrades long
  /// transactions quadratically.
  struct HeldTargets {
    std::vector<LockTarget> order;
    std::unordered_set<uint64_t> seen;
  };
  std::map<SubTxn*, HeldTargets> held_targets_ SEMCC_GUARDED_BY(graph_mu_);
  LockInvariantStats inv_stats_;
};

}  // namespace semcc

#endif  // SEMCC_CC_LOCK_MANAGER_H_

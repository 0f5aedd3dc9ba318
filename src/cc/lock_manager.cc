#include "cc/lock_manager.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace semcc {
namespace {

// Root-wait verdicts observed by this thread (lock waits run on the
// acquiring thread). Lets workloads split root-waits by transaction class
// (LockManager::ThreadRootWaits) — the striped counter bank can't: its
// stripes are keyed by lock-table shard, not by requester.
thread_local uint64_t t_root_waits = 0;

}  // namespace

uint64_t LockManager::ThreadRootWaits() { return t_root_waits; }

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kSemanticONT:
      return "semantic-ont";
    case Protocol::kSemanticNoAncestorWalk:
      return "semantic-no-walk";
    case Protocol::kSemanticNoRetainedLocks:
      return "semantic-no-retain";
    case Protocol::kClosedNested:
      return "closed-nested";
    case Protocol::kFlat2PLObject:
      return "2pl-object";
    case Protocol::kFlat2PLRecord:
      return "2pl-record";
    case Protocol::kFlat2PLPage:
      return "2pl-page";
  }
  return "?";
}

std::string LockTarget::ToString() const {
  const char* space_name = space == Space::kObject   ? "obj"
                           : space == Space::kRecord ? "rec"
                                                     : "page";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s:%llu", space_name,
                static_cast<unsigned long long>(key));
  return buf;
}

// --- queues and the per-shard queue table ------------------------------

void LockQueue::Append(LockEntry* e) {
  e->queue = this;
  e->prev = tail;
  e->next = nullptr;
  if (tail == nullptr) {
    head = e;
  } else {
    tail->next = e;
  }
  tail = e;
}

void LockQueue::Unlink(LockEntry* e) {
  if (e->prev == nullptr) {
    head = e->next;
  } else {
    e->prev->next = e->next;
  }
  if (e->next == nullptr) {
    tail = e->prev;
  } else {
    e->next->prev = e->prev;
  }
  e->queue = nullptr;
  e->prev = nullptr;
  e->next = nullptr;
}

LockQueueTable::LockQueueTable() : slots_(kInitialSlots) {}

LockQueue* LockQueueTable::Find(const LockTarget& target,
                                uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.queue == nullptr) return nullptr;
    if (s.hash == hash && s.queue->target == target) return s.queue;
  }
}

size_t LockQueueTable::FreeSlotFor(uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(hash);
  while (slots_[i].queue != nullptr) i = (i + 1) & mask;
  return i;
}

LockQueue* LockQueueTable::FindOrInsert(const LockTarget& target,
                                        uint64_t hash) {
  if (LockQueue* q = Find(target, hash)) return q;
  if (2 * (size_ + 1) > slots_.size()) Grow();
  if (free_ == nullptr) {
    blocks_.push_back(std::make_unique<LockQueue[]>(kBlockQueues));
    LockQueue* block = blocks_.back().get();
    for (size_t i = 0; i < kBlockQueues; ++i) {
      block[i].next_free = free_;
      free_ = &block[i];
    }
  }
  LockQueue* q = free_;
  free_ = q->next_free;
  q->next_free = nullptr;
  q->target = target;
  q->hash = hash;
  slots_[FreeSlotFor(hash)] = Slot{hash, q};
  ++size_;
  return q;
}

void LockQueueTable::Erase(LockQueue* q) {
  SEMCC_DCHECK(q->empty());
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(q->hash);
  while (slots_[hole].queue != q) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later slot of the probe run whose
  // home lies cyclically at or before the hole back into it, so every
  // remaining key stays reachable from its home without tombstones.
  for (size_t j = (hole + 1) & mask; slots_[j].queue != nullptr;
       j = (j + 1) & mask) {
    const size_t home = Home(slots_[j].hash);
    const size_t dist_home = (j - home) & mask;
    const size_t dist_hole = (j - hole) & mask;
    if (dist_home >= dist_hole) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  q->next_free = free_;
  free_ = q;
}

void LockQueueTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.queue != nullptr) slots_[FreeSlotFor(s.hash)] = s;
  }
}

std::string LockStats::ToString() const {
  char buf[448];
  std::snprintf(
      buf, sizeof(buf),
      "acquires=%llu blocked=%llu commute=%llu case1=%llu case2=%llu "
      "root_waits=%llu retained=%llu deadlocks=%llu timeouts=%llu",
      static_cast<unsigned long long>(acquires),
      static_cast<unsigned long long>(blocked_acquires),
      static_cast<unsigned long long>(commute_grants),
      static_cast<unsigned long long>(case1_grants),
      static_cast<unsigned long long>(case2_waits),
      static_cast<unsigned long long>(root_waits),
      static_cast<unsigned long long>(retained_hits),
      static_cast<unsigned long long>(deadlocks),
      static_cast<unsigned long long>(timeouts));
  return buf;
}

std::string LockStats::ToJson() const {
  metrics::JsonWriter w;
  w.Field("acquires", acquires);
  w.Field("blocked_acquires", blocked_acquires);
  w.Field("commute_grants", commute_grants);
  w.Field("case1_grants", case1_grants);
  w.Field("case2_waits", case2_waits);
  w.Field("root_waits", root_waits);
  w.Field("retained_hits", retained_hits);
  w.Field("deadlocks", deadlocks);
  w.Field("timeouts", timeouts);
  w.Field("granted_entries", granted_entries);
  w.Field("released_entries", released_entries);
  w.Field("wakeups", wakeups);
  w.Field("wait_count", wait_micros.count);
  w.Field("wait_mean_us", wait_micros.mean());
  w.Field("wait_p50_us", wait_micros.p50);
  w.Field("wait_p95_us", wait_micros.p95);
  w.Field("wait_p99_us", wait_micros.p99);
  w.Field("wait_max_us", wait_micros.max);
  return w.Close();
}

size_t LockManager::ClampShardCount(int requested) {
  int n = requested;
  if (n < 1) n = 1;
  if (n > kMaxShards) n = kMaxShards;
  size_t pow2 = 1;
  while (pow2 < static_cast<size_t>(n)) pow2 <<= 1;
  return pow2;
}

LockManager::LockManager(const ProtocolOptions& options,
                         CompatibilityRegistry* compat)
    : options_(options),
      compat_(compat),
      counters_(ClampShardCount(options.lock_table_shards), kCtrCount) {
  const size_t pow2 = ClampShardCount(options.lock_table_shards);
  shards_.reserve(pow2);
  for (size_t i = 0; i < pow2; ++i) {
    shards_.push_back(std::make_unique<LockShard>());
  }
  shard_mask_ = static_cast<uint32_t>(pow2 - 1);
  while ((size_t{1} << shard_bits_) < pow2) ++shard_bits_;
}

LockManager::~LockManager() = default;

LockStats LockManager::stats() const {
  LockStats s;
  s.acquires = counters_.Sum(kCtrAcquires);
  s.blocked_acquires = counters_.Sum(kCtrBlockedAcquires);
  s.commute_grants = counters_.Sum(kCtrCommuteGrants);
  s.case1_grants = counters_.Sum(kCtrCase1Grants);
  s.case2_waits = counters_.Sum(kCtrCase2Waits);
  s.root_waits = counters_.Sum(kCtrRootWaits);
  s.retained_hits = counters_.Sum(kCtrRetainedHits);
  s.deadlocks = counters_.Sum(kCtrDeadlocks);
  s.timeouts = counters_.Sum(kCtrTimeouts);
  s.granted_entries = counters_.Sum(kCtrGrantedEntries);
  s.released_entries = counters_.Sum(kCtrReleasedEntries);
  s.wakeups = counters_.Sum(kCtrWakeups);
  s.wait_micros = wait_micros_.Snapshot();
  return s;
}

LockStats LockManager::shard_stats(uint32_t shard) const {
  LockStats s;
  s.acquires = counters_.StripeValue(shard, kCtrAcquires);
  s.blocked_acquires = counters_.StripeValue(shard, kCtrBlockedAcquires);
  s.commute_grants = counters_.StripeValue(shard, kCtrCommuteGrants);
  s.case1_grants = counters_.StripeValue(shard, kCtrCase1Grants);
  s.case2_waits = counters_.StripeValue(shard, kCtrCase2Waits);
  s.root_waits = counters_.StripeValue(shard, kCtrRootWaits);
  s.retained_hits = counters_.StripeValue(shard, kCtrRetainedHits);
  s.deadlocks = counters_.StripeValue(shard, kCtrDeadlocks);
  s.timeouts = counters_.StripeValue(shard, kCtrTimeouts);
  s.granted_entries = counters_.StripeValue(shard, kCtrGrantedEntries);
  s.released_entries = counters_.StripeValue(shard, kCtrReleasedEntries);
  s.wakeups = counters_.StripeValue(shard, kCtrWakeups);
  return s;
}

void LockManager::EmitLockEvent(trace::EventKind kind, SubTxn* t,
                                const LockTarget& target, uint32_t shard,
                                ConflictOutcome verdict, SubTxn* blocker,
                                uint64_t value, uint8_t flags) const {
  trace::Event e;
  e.kind = static_cast<uint8_t>(kind);
  e.txn = t->id();
  e.root = t->root()->id();
  e.depth = static_cast<uint16_t>(t->depth());
  e.target = target.key;
  e.target_space = static_cast<uint8_t>(target.space);
  e.shard = shard;
  e.verdict = static_cast<uint8_t>(verdict);
  e.other = blocker != nullptr ? blocker->id() : 0;
  e.value = value;
  e.flags = flags;
  e.set_method(t->method());
  trace::Emit(e);
}

void LockManager::NotifyShards(const ShardSet& s) {
  if (s.none()) return;
  const bool tracing = trace::Active();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!s.test(i)) continue;
    LockShard& shard = *shards_[i];
    counters_.Inc(i, kCtrWakeups);
    if (tracing) {
      trace::Event e;
      e.kind = static_cast<uint8_t>(trace::EventKind::kWakeup);
      e.shard = static_cast<uint32_t>(i);
      trace::Emit(e);
    }
    // Lock-then-notify: a registering waiter holds its shard mutex
    // continuously from its blocker scan until the condvar wait parks it,
    // so acquiring the mutex here serializes us after that window — the
    // notification cannot fall between a waiter's scan and its sleep.
    MutexLock l(shard.mu);
    shard.cv.NotifyAll();
  }
}

// --- test-conflict -----------------------------------------------------

SubTxn* LockManager::TestConflictSemantic(const LockEntry& h, SubTxn* r,
                                          ConflictOutcome* why) const {
  SubTxn* holder = h.acquirer;
  // "if h and r ... belong to the same top-level transaction then return nil"
  // (also: retained locks never block later subtransactions of the same
  // transaction, §4.1).
  if (holder->SameRootAs(r)) {
    *why = ConflictOutcome::kSameTxn;
    return nullptr;
  }
  // "if h and r commute ... return nil". Both act on the same object, so the
  // object type is shared and the compatibility spec of that type applies.
  if (compat_->Commute(holder->type(), h.method_id, holder->args(),
                       r->method_id(), r->args())) {
    *why = ConflictOutcome::kCommute;
    return nullptr;
  }
  if (options_.protocol != Protocol::kSemanticNoAncestorWalk) {
    // "for all h' in the ancestor chain of h do for all r' in the ancestor
    // chain of r do if h' and r' commute ..." — a pair commutes only if it
    // acts on the *same* object (semantic knowledge exists per object); the
    // walk is bottom-up on both chains, chasing parent pointers directly
    // (this runs per (holder, requester) pair per scan — materializing the
    // chains would allocate on every conflict test).
    for (SubTxn* h_anc = holder->parent(); h_anc != nullptr;
         h_anc = h_anc->parent()) {
      for (SubTxn* r_anc = r->parent(); r_anc != nullptr;
           r_anc = r_anc->parent()) {
        if (h_anc->object() != r_anc->object()) continue;
        if (!compat_->Commute(h_anc->type(), h_anc->method_id(),
                              h_anc->args(), r_anc->method_id(),
                              r_anc->args())) {
          continue;
        }
        if (h_anc->committed()) {
          // Case 1: commutative and committed ancestor — the conflict is an
          // implementation-level pseudo-conflict; grant.
          *why = ConflictOutcome::kCase1Grant;
          return nullptr;
        }
        if (h_anc->state() == TxnState::kAborted) {
          // An aborted subtransaction gives no isolation guarantee: its
          // effects are only removed when the enclosing transaction's
          // compensation finishes. Keep walking; without a committed
          // commuting ancestor the requester waits for the holder's
          // top-level completion (after which the tree's locks are gone).
          continue;
        }
        // Case 2: commutative but uncommitted ancestor — r may resume upon
        // completion of h'.
        *why = ConflictOutcome::kCase2Wait;
        return h_anc;
      }
    }
  }
  // "return root of h — worst case: waiting for the top-level commit."
  *why = ConflictOutcome::kRootWait;
  return holder->root();
}

SubTxn* LockManager::TestConflictClosed(const LockEntry& h, SubTxn* r,
                                        bool r_is_write,
                                        ConflictOutcome* why) const {
  // Moss's rule: a lock held (possibly by inheritance) by r itself or one of
  // r's ancestors does not conflict.
  SubTxn* owner = h.owner;
  if (owner == r || owner->IsAncestorOf(r)) {
    *why = ConflictOutcome::kSameTxn;
    return nullptr;
  }
  if (!h.is_write && !r_is_write) {
    *why = ConflictOutcome::kSharedGrant;
    return nullptr;
  }
  // Wait for the current owner; on its completion the lock is anti-inherited
  // by its parent and the test is repeated.
  *why = ConflictOutcome::kHolderWait;
  return owner->completed() ? owner->root() : owner;
}

SubTxn* LockManager::TestConflictFlat(const LockEntry& h, SubTxn* r,
                                      bool r_is_write,
                                      ConflictOutcome* why) const {
  if (h.acquirer->SameRootAs(r)) {
    *why = ConflictOutcome::kSameTxn;
    return nullptr;
  }
  if (!h.is_write && !r_is_write) {
    *why = ConflictOutcome::kSharedGrant;
    return nullptr;
  }
  *why = ConflictOutcome::kHolderWait;
  return h.acquirer->root();
}

SubTxn* LockManager::TestConflict(const LockEntry& h, SubTxn* r,
                                  bool r_is_write, ConflictOutcome* why) const {
  if (IsSemantic(options_.protocol)) return TestConflictSemantic(h, r, why);
  if (options_.protocol == Protocol::kClosedNested) {
    return TestConflictClosed(h, r, r_is_write, why);
  }
  return TestConflictFlat(h, r, r_is_write, why);
}

void LockManager::CollectBlockers(const LockShard& shard, const LockQueue& q,
                                  uint64_t my_seq, SubTxn* t, bool is_write,
                                  uint32_t stripe, bool count_stats,
                                  ScanResult* out) {
  (void)shard;  // capability-only parameter (REQUIRES(shard.mu))
  out->Clear();
  for (const LockEntry* ep = q.head; ep != nullptr; ep = ep->next) {
    const LockEntry& e = *ep;
    if (e.acquirer == t) continue;
    // Test against held locks and earlier-queued requests (FCFS, paper
    // footnote 5).
    if (!FcfsTests(q, e, my_seq, t)) continue;
    ConflictOutcome why = ConflictOutcome::kNoLock;
    SubTxn* b = TestConflict(e, t, is_write, &why);
    // Do NOT drop blockers that completed between the conflict test and
    // here: a just-aborted subtransaction must not look like a grant. The
    // wait loop re-derives the verdict from fresh state on every wake-up.
    if (b != nullptr) {
      if (out->first_blocker == nullptr) {
        out->first_blocker = b;
        out->block_why = why;
        out->blocker_retained = e.granted && e.acquirer->completed();
      }
      if (std::find(out->blockers.begin(), out->blockers.end(), b) ==
          out->blockers.end()) {
        out->blockers.push_back(b);
        // Classify the wake event: only a completed root is left to
        // ReleaseTree, which always follows a root's completion and purges
        // this queue under this shard's mutex, so it cannot be missed by a
        // sleeping waiter. Any other blocker's completion is the wake event,
        // and the pre-sleep revalidation re-checks it — even one that has
        // completed since TestConflict read it as incomplete (a Case 2
        // ancestor): its completion scan may have run before we registered,
        // and its tree may not end for a long time. The re-scan then finds
        // a new verdict, so a completed blocker is revalidated only once.
        if (b->parent() != nullptr || !b->completed()) {
          out->completion_watch.push_back(b);
        }
      }
      if (count_stats) {
        // A retained hit is orthogonal to the verdict kind: the blocking
        // entry's holder had already completed, i.e. a retained lock (§4.1)
        // did its job of stopping a bypassing access (Figure 5).
        if (e.granted && e.acquirer->completed()) {
          counters_.Inc(stripe, kCtrRetainedHits);
        }
        switch (why) {
          case ConflictOutcome::kCase2Wait:
            counters_.Inc(stripe, kCtrCase2Waits);
            break;
          case ConflictOutcome::kRootWait:
            counters_.Inc(stripe, kCtrRootWaits);
            ++t_root_waits;
            break;
          default:
            break;
        }
      }
    } else if (count_stats && (why == ConflictOutcome::kCase1Grant ||
                               why == ConflictOutcome::kCommute)) {
      if (why == ConflictOutcome::kCase1Grant) {
        counters_.Inc(stripe, kCtrCase1Grants);
        out->grant_relief = ConflictOutcome::kCase1Grant;
      } else {
        counters_.Inc(stripe, kCtrCommuteGrants);
        if (out->grant_relief != ConflictOutcome::kCase1Grant) {
          out->grant_relief = ConflictOutcome::kCommute;
        }
      }
    }
  }
}

bool LockManager::FcfsTests(const LockQueue& q, const LockEntry& e,
                            uint64_t my_seq, SubTxn* t) const {
  if (e.granted) return true;
  // Compensating actions are exempt from FCFS: they operate under the
  // transaction's existing retained locks, and queueing them behind foreign
  // waiters (which wait for THIS transaction's completion) would deadlock
  // the rollback itself.
  if (e.seq > my_seq || t->compensation()) return false;
  if (e.acquirer->SameRootAs(t)) return true;
  // The same holds for a request of a tree that already holds a lock the
  // waiter waits for. The waiter holds nothing, and every granted entry is
  // still tested, so passing it cannot grant a conflicting lock.
  for (const LockEntry* g = q.head; g != nullptr; g = g->next) {
    if (!g->granted || !g->acquirer->SameRootAs(t)) continue;
    ConflictOutcome why = ConflictOutcome::kNoLock;
    if (TestConflict(*g, e.acquirer, e.is_write, &why) != nullptr) return false;
  }
  return true;
}

void LockManager::ExpandDependencies(
    SubTxn* n, std::vector<SubTxn*>* stack, std::set<SubTxn*>* visited,
    std::map<SubTxn*, SubTxn*>* came_from) const {
  auto wit = waits_.find(n);
  if (wit != waits_.end()) {
    for (SubTxn* b : wit->second.blockers) {
      if (visited->insert(b).second) {
        (*came_from)[b] = n;
        stack->push_back(b);
      }
    }
  }
  for (SubTxn* c : n->IncompleteChildren()) {
    if (visited->insert(c).second) {
      (*came_from)[c] = n;
      stack->push_back(c);
    }
  }
}

SubTxn* LockManager::DetectDeadlock(SubTxn* t) const {
  // Completion-dependency graph: a blocked requester depends on the
  // completions in its waits-for set; an incomplete node's completion
  // depends on its incomplete children (Figure 8 executes children before
  // completing). A cycle through `t` means deadlock. Running the DFS on
  // every (re-)registration is sufficient: a new cycle's chronologically
  // last edge is always a waits-edge, and its registrant is the thread
  // standing here.
  std::vector<SubTxn*> stack;
  std::set<SubTxn*> visited;
  std::map<SubTxn*, SubTxn*> came_from;

  ExpandDependencies(t, &stack, &visited, &came_from);
  SubTxn* cycle_end = nullptr;
  while (!stack.empty()) {
    SubTxn* n = stack.back();
    stack.pop_back();
    if (n == t) {
      cycle_end = n;
      break;
    }
    if (n->completed()) continue;
    ExpandDependencies(n, &stack, &visited, &came_from);
  }
  if (cycle_end == nullptr) return nullptr;

  // Reconstruct the cycle path, collect the top-level transactions on it,
  // and pick the youngest (largest priority rank — retries keep their first
  // attempt's rank, so they age) as victim.
  SubTxn* victim_root = t->root();
  for (SubTxn* n = came_from.count(t) ? came_from[t] : nullptr; n != nullptr;
       n = came_from.count(n) ? came_from[n] : nullptr) {
    if (n->root()->priority() > victim_root->priority()) {
      victim_root = n->root();
    }
    if (n == t) break;
  }
  return victim_root;
}

// --- debug invariant checker --------------------------------------------

void LockManager::InvariantViolation(const char* kind,
                                     const std::string& detail) {
  SEMCC_LOG(Error) << "lock invariant violated [" << kind << "]: " << detail;
}

void LockManager::CheckGrantInvariants(const LockShard& shard,
                                       const LockQueue& q, uint64_t my_seq,
                                       SubTxn* t, bool is_write) {
  (void)shard;
  // Independently re-derive the grant decision: every other granted (or
  // earlier-queued, FCFS) entry must pass test-conflict against `t`. A
  // non-nil verdict here means the scan granted a conflicting request.
  for (const LockEntry* ep = q.head; ep != nullptr; ep = ep->next) {
    const LockEntry& e = *ep;
    if (e.acquirer == t) continue;
    if (!FcfsTests(q, e, my_seq, t)) continue;
    ConflictOutcome why = ConflictOutcome::kNoLock;
    SubTxn* b = TestConflict(e, t, is_write, &why);
    if (b != nullptr) {
      inv_stats_.grant_violations.fetch_add(1, std::memory_order_relaxed);
      InvariantViolation(
          "grant",
          "granted " + t->method() + " (txn " + std::to_string(t->id()) +
              ") despite conflict with holder " + e.acquirer->method() +
              " (txn " + std::to_string(e.acquirer->id()) +
              "), verdict=" + std::to_string(static_cast<int>(why)));
    }
  }
}

void LockManager::CheckQueueInvariants(const LockShard& shard,
                                       const LockQueue& q) {
  (void)shard;
  for (const LockEntry* ep = q.head; ep != nullptr; ep = ep->next) {
    const LockEntry& e = *ep;
    // A *waiting* entry's acquirer is by construction parked inside
    // Acquire, so it cannot have completed; a completed subtransaction
    // showing up un-granted means an abandon path failed to withdraw the
    // entry. (Granted entries of completed subtransactions are the retained
    // locks of §4.1 — legal until top-level end.)
    if (!e.granted && e.acquirer->completed()) {
      inv_stats_.retained_violations.fetch_add(1, std::memory_order_relaxed);
      InvariantViolation("retained", "waiting entry owned by completed txn " +
                                         std::to_string(e.acquirer->id()) +
                                         " (" + e.acquirer->method() + ")");
    }
  }
}

void LockManager::CheckNoLeakedLocks(const LockShard& shard, SubTxn* root) {
  uint64_t leaked = 0;
  for (size_t i = 0; i < shard.table.capacity(); ++i) {
    const LockQueue* q = shard.table.queue_at(i);
    if (q == nullptr) continue;
    for (const LockEntry* e = q->head; e != nullptr; e = e->next) {
      if (e->acquirer->root() == root) {
        ++leaked;
        InvariantViolation("leak", "entry " + e->acquirer->method() +
                                       " (txn " +
                                       std::to_string(e->acquirer->id()) +
                                       ") on " + q->target.ToString() +
                                       " survived ReleaseTree of root " +
                                       std::to_string(root->id()));
      }
    }
  }
  if (leaked != 0) {
    inv_stats_.leaked_locks.fetch_add(leaked, std::memory_order_relaxed);
  }
}

void LockManager::CheckWaitGraphAcyclic() {
  // Whenever the graph mutex is released, every wait cycle must contain a
  // root already flagged for abort: the waiter whose edge closed the cycle
  // runs DetectDeadlock (and flags a victim) in the same critical section.
  // DFS with gray/black coloring over waiter -> blockers ∪ incomplete
  // children; nodes of abort-flagged roots are excluded (their cycles are
  // resolving).
  std::set<SubTxn*> done;
  for (const auto& [waiter, rec] : waits_) {
    (void)rec;
    if (done.count(waiter) != 0) continue;
    // Iterative DFS with an explicit path (gray set) for cycle detection.
    std::vector<std::pair<SubTxn*, size_t>> path;  // node + next-child index
    std::set<SubTxn*> on_path;
    path.emplace_back(waiter, 0);
    on_path.insert(waiter);
    while (!path.empty()) {
      auto& [node, child_idx] = path.back();
      // Materialize node's successors once per visit level.
      std::vector<SubTxn*> succ;
      if (!node->completed() && !node->root()->abort_requested()) {
        auto wit = waits_.find(node);
        if (wit != waits_.end()) {
          succ.insert(succ.end(), wit->second.blockers.begin(),
                      wit->second.blockers.end());
        }
        const std::vector<SubTxn*> kids = node->IncompleteChildren();
        succ.insert(succ.end(), kids.begin(), kids.end());
      }
      if (child_idx >= succ.size()) {
        on_path.erase(node);
        done.insert(node);
        path.pop_back();
        continue;
      }
      SubTxn* next = succ[child_idx++];
      if (on_path.count(next) != 0) {
        inv_stats_.wait_cycle_violations.fetch_add(1,
                                                   std::memory_order_relaxed);
        InvariantViolation("wait-cycle",
                           "unresolved waits-for cycle through txn " +
                               std::to_string(next->id()) +
                               " with no deadlock victim chosen");
        return;  // one report per sweep is enough
      }
      if (done.count(next) != 0) continue;
      path.emplace_back(next, 0);
      on_path.insert(next);
    }
  }
}

void LockManager::RecordLockOrder(SubTxn* t, const LockTarget& target) {
  SubTxn* root = t->root();
  HeldTargets& held = held_targets_[root];
  const uint64_t to = PackTarget(target);
  if (!held.seen.insert(to).second) {
    return;  // re-acquisition of a target the tree already locks: no edge
  }
  for (const LockTarget& h : held.order) {
    if (!order_graph_.AddEdge(PackTarget(h), to)) {
      inv_stats_.order_inversions.fetch_add(1, std::memory_order_relaxed);
      // Diagnostic, not a violation: inversions are legal here (the
      // deadlock detector resolves them) but each is a potential deadlock.
      SEMCC_LOG(Debug) << "lock-order inversion: " << h.ToString() << " -> "
                       << target.ToString() << " closes an acquisition-order "
                       << "cycle (txn " << std::to_string(root->id()) << ")";
    }
  }
  held.order.push_back(target);
}

// The loop-carried all-shards acquisition is invisible to the thread-safety
// analysis; AssertHeld re-establishes the per-shard capability for the
// checks inside.
uint64_t LockManager::CheckInvariantsNow() SEMCC_NO_THREAD_SAFETY_ANALYSIS {
  // Stop the world: every shard mutex in index order — the only place two
  // shard mutexes are ever held at once — then the graph mutex. No other
  // thread can be mid-acquire anywhere while we hold them all.
  for (auto& sp : shards_) sp->mu.Lock();
  {
    MutexLock g(graph_mu_);
    inv_stats_.checks.fetch_add(1, std::memory_order_relaxed);
    for (auto& sp : shards_) {
      LockShard& shard = *sp;
      shard.mu.AssertHeld();
      for (size_t s = 0; s < shard.table.capacity(); ++s) {
        if (const LockQueue* q = shard.table.queue_at(s)) {
          CheckQueueInvariants(shard, *q);
        }
      }
    }
    CheckWaitGraphAcyclic();
  }
  for (auto& sp : shards_) sp->mu.Unlock();
  return inv_stats_.protocol_violations();
}

// --- acquire / release --------------------------------------------------

void LockManager::AppendEntry(LockShard& shard, uint32_t shard_idx,
                              LockQueue& q, SubTxn* t, bool is_write,
                              bool granted, uint64_t seq) {
  if (!granted) ++shard.waiting;
  LockEntry& e = t->lock_entry_;
  e.owner = t;
  e.is_write = is_write;
  e.granted = granted;
  e.shard = shard_idx;
  e.seq = seq;
  q.Append(&e);
  if (!t->on_held_list_) {
    SubTxn* root = t->root();
    t->next_held_ = root->held_;
    root->held_ = t;
    t->on_held_list_ = true;
  }
}

void LockManager::UnlinkEntry(LockShard& shard, uint32_t shard_idx,
                              LockEntry* e) {
  if (e->granted) {
    counters_.Inc(shard_idx, kCtrReleasedEntries);
  } else {
    --shard.waiting;
  }
  LockQueue* q = e->queue;
  q->Unlink(e);
  if (q->empty()) shard.table.Erase(q);
}

void LockManager::RemoveWaiter(LockShard& shard, SubTxn* t) {
  UnlinkEntry(shard, t->lock_entry_.shard, &t->lock_entry_);
  // Our waiting entry may have been blocking later-queued requests (FCFS);
  // wake this shard so they re-scan.
  shard.cv.NotifyAll();
}

void LockManager::ReleaseChain(LockShard& shard, uint32_t shard_idx,
                               SubTxn* chain) {
  while (chain != nullptr) {
    SubTxn* next = chain->next_held_;
    chain->next_held_ = nullptr;
    UnlinkEntry(shard, shard_idx, &chain->lock_entry_);
    chain = next;
  }
}

bool LockManager::Picks(CompletionOp op, const SubTxn* t, const LockEntry& e) {
  if (e.queue == nullptr || !e.granted) return false;
  return op == CompletionOp::kInherit ? e.owner == t
                                      : t->IsAncestorOf(e.acquirer);
}

bool LockManager::ApplyCompletionOp(LockShard& shard, uint32_t shard_idx,
                                    SubTxn* t, CompletionOp op) {
  bool released = false;
  for (SubTxn* n = t->root()->held_; n != nullptr; n = n->next_held_) {
    LockEntry& e = n->lock_entry_;
    if (e.shard != shard_idx || !Picks(op, t, e)) continue;
    if (op == CompletionOp::kInherit) {
      e.owner = t->parent();
    } else {
      UnlinkEntry(shard, shard_idx, &e);
      released = true;
    }
  }
  return released;
}

void LockManager::EraseWaitRecord(SubTxn* t) {
  MutexLock g(graph_mu_);
  EraseWaitRecordLocked(t);
}

void LockManager::EraseWaitRecordLocked(SubTxn* t) {
  if (waits_.erase(t) != 0) num_waits_.fetch_sub(1, std::memory_order_release);
}

Status LockManager::Acquire(SubTxn* t, const LockTarget& target,
                            bool is_write) {
  const bool tracing = trace::Active();
  const uint64_t hash = LockTargetHash{}(target);
  const uint32_t shard_idx = static_cast<uint32_t>(hash) & shard_mask_;
  counters_.Inc(shard_idx, kCtrAcquires);
  if (t->root()->abort_requested() && !t->compensation()) {
    // Derived before any entry exists, so there is nothing to withdraw.
    return Status::Aborted("transaction abort requested while locking " +
                           target.ToString());
  }
  SEMCC_CHECK(t->lock_entry_.queue == nullptr)
      << "an action requests at most one lock: " << t->method();
  LockShard& shard = *shards_[shard_idx];
  MutexLock lock(shard.mu);
  // `q` stays valid across the waits below: our entry keeps it non-empty,
  // and a queue keeps its address until it is empty and erased.
  LockQueue& q = *shard.table.FindOrInsert(target, hash >> shard_bits_);

  // Pre-append scan at the next (unconsumed) seq: no existing entry can
  // have a larger one, so "blockers empty" here means the WHOLE queue —
  // granted entries and waiters of any arrival order — tests nil against
  // t. That is the FCFS verdict of paper footnote 5.
  ScanResult scan;
  const uint64_t my_seq = shard.next_entry_seq++;
  CollectBlockers(shard, q, my_seq, t, is_write, shard_idx,
                  /*count_stats=*/true, &scan);
  if (scan.blockers.empty()) {
    AppendEntry(shard, shard_idx, q, t, is_write, /*granted=*/true, my_seq);
    counters_.Inc(shard_idx, kCtrGrantedEntries);
    t->set_grant_seq(NextSeq());
    if (tracing) {
      EmitLockEvent(trace::EventKind::kGrant, t, target, shard_idx,
                    scan.grant_relief, nullptr, 0, 0);
    }
    if (SEMCC_PREDICT_FALSE(options_.debug_lock_checks)) {
      inv_stats_.checks.fetch_add(1, std::memory_order_relaxed);
      CheckGrantInvariants(shard, q, my_seq, t, is_write);
      CheckQueueInvariants(shard, q);
      MutexLock g(graph_mu_);
      RecordLockOrder(t, target);
    }
    return Status::OK();
  }

  // Blocked: enter the queue and wait.
  AppendEntry(shard, shard_idx, q, t, is_write, /*granted=*/false, my_seq);
  if (tracing) {
    EmitLockEvent(trace::EventKind::kBlock, t, target, shard_idx,
                  scan.block_why, scan.first_blocker, 0,
                  scan.blocker_retained ? trace::kFlagBlockerRetained : 0);
  }

  bool ever_blocked = false;
  StopWatch wait_timer;
  std::chrono::steady_clock::time_point deadline{};
  while (true) {
    if (t->root()->abort_requested() && !t->compensation()) {
      RemoveWaiter(shard, t);
      EraseWaitRecord(t);
      if (tracing) {
        EmitLockEvent(trace::EventKind::kAbortedWait, t, target, shard_idx,
                      ConflictOutcome::kNoLock, nullptr, 0, 0);
      }
      return Status::Aborted("transaction abort requested while locking " +
                             target.ToString());
    }
    CollectBlockers(shard, q, my_seq, t, is_write, shard_idx,
                    /*count_stats=*/false, &scan);
    if (scan.blockers.empty()) {
      t->lock_entry_.granted = true;
      --shard.waiting;
      counters_.Inc(shard_idx, kCtrGrantedEntries);
      t->set_grant_seq(NextSeq());
      if (SEMCC_PREDICT_FALSE(options_.debug_lock_checks)) {
        inv_stats_.checks.fetch_add(1, std::memory_order_relaxed);
        CheckGrantInvariants(shard, q, my_seq, t, is_write);
        CheckQueueInvariants(shard, q);
        MutexLock g(graph_mu_);
        RecordLockOrder(t, target);
      }
      uint64_t waited_us = 0;
      if (ever_blocked) {
        EraseWaitRecord(t);
        waited_us = wait_timer.ElapsedMicros();
        wait_micros_.Add(waited_us);
        // A wait that lasted until its deadline counts as a timeout even
        // when the re-scan there finds the blockers gone: `timeouts` counts
        // waits that hit wait_timeout, not only those that return TimedOut.
        if (std::chrono::steady_clock::now() >= deadline) {
          counters_.Inc(shard_idx, kCtrTimeouts);
        }
      }
      if (tracing) {
        EmitLockEvent(trace::EventKind::kGrantAfterWait, t, target, shard_idx,
                      ConflictOutcome::kNoLock, nullptr, waited_us, 0);
      }
      return Status::OK();
    }
    if (!ever_blocked) {
      ever_blocked = true;
      counters_.Inc(shard_idx, kCtrBlockedAcquires);
      wait_timer.Restart();
      deadline = std::chrono::steady_clock::now() + options_.wait_timeout;
    }
    // Register the waits-for set (Figure 8) and run deadlock detection.
    // Still holding shard.mu: any event that purges our blockers' queue
    // entries must take it, so it cannot complete between the scan above
    // and the condvar wait below. Completion events touch no shard mutex,
    // so those are closed out by re-checking the watched blockers after
    // counting this registration in num_waits_, with a seq_cst fence
    // between the two: either the completer reads the count and scans
    // waits_ under the graph mutex (and notifies our shard), or we see its
    // completion here and retry (the argument is at OnSubTxnCompleted).
    bool revalidate = false;
    bool self_victim = false;
    ShardSet wake;
    {
      MutexLock g(graph_mu_);
      auto [rec_it, fresh] = waits_.try_emplace(t);
      if (fresh) num_waits_.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (t->root()->abort_requested() && !t->compensation()) {
        revalidate = true;  // flagged since the loop-top check; don't sleep
      } else {
        for (SubTxn* b : scan.completion_watch) {
          if (b->completed()) {
            revalidate = true;
            break;
          }
        }
      }
      if (revalidate) {
        if (fresh) EraseWaitRecordLocked(t);
      } else {
        WaitRecord& rec = rec_it->second;
        rec.blockers.assign(scan.blockers.begin(), scan.blockers.end());
        rec.shard = shard_idx;
        SubTxn* victim = DetectDeadlock(t);
        if (victim != nullptr) {
          if (victim == t->root()) {
            counters_.Inc(shard_idx, kCtrDeadlocks);
            EraseWaitRecordLocked(t);
            self_victim = true;
          } else if (!victim->abort_requested()) {
            // First detector to see this cycle: flag the victim (under
            // the graph mutex, so registering waiters re-check it before
            // sleeping) and wake its blocked actions.
            counters_.Inc(shard_idx, kCtrDeadlocks);
            victim->RequestAbort();
            for (const auto& [waiter, wrec] : waits_) {
              if (waiter->root() == victim) wake.set(wrec.shard);
            }
            revalidate = true;
          }
          // Otherwise the victim is already flagged and its waiters
          // woken by the first detector; sleep normally.
        }
        if (SEMCC_PREDICT_FALSE(options_.debug_lock_checks)) {
          // At this point every wait cycle must have a victim flagged.
          inv_stats_.checks.fetch_add(1, std::memory_order_relaxed);
          CheckWaitGraphAcyclic();
        }
      }
    }
    if (self_victim) {
      RemoveWaiter(shard, t);
      if (tracing) {
        EmitLockEvent(trace::EventKind::kDeadlockVictim, t, target, shard_idx,
                      ConflictOutcome::kNoLock, nullptr, 0, 0);
      }
      return Status::Deadlock("deadlock victim at " + target.ToString());
    }
    if (wake.any()) {
      // Wake the victim's waiters. Our own shard can be notified while its
      // mutex is held; foreign shards require dropping it first (a thread
      // never holds two shard mutexes). q and our entry survive the unlocked
      // gap: our queue entry keeps the queue non-empty so it cannot be
      // erased, and the entry lives in our own node.
      if (wake.test(shard_idx)) {
        shard.cv.NotifyAll();
        wake.reset(shard_idx);
      }
      if (wake.any()) {
        lock.Unlock();
        NotifyShards(wake);
        lock.Lock();
      }
      continue;
    }
    if (revalidate) continue;
    if (std::chrono::steady_clock::now() >= deadline) {
      counters_.Inc(shard_idx, kCtrTimeouts);
      RemoveWaiter(shard, t);
      EraseWaitRecord(t);
      if (tracing) {
        EmitLockEvent(trace::EventKind::kLockTimeout, t, target, shard_idx,
                      ConflictOutcome::kNoLock, nullptr, 0, 0);
      }
      return Status::TimedOut("lock wait timeout on " + target.ToString());
    }
    shard.cv.WaitUntil(lock, deadline);
  }
}

void LockManager::OnSubTxnCompleted(SubTxn* t) {
  t->set_end_seq(NextSeq());
  if (trace::Active()) {
    EmitLockEvent(trace::EventKind::kComplete, t, LockTarget{}, 0,
                  ConflictOutcome::kNoLock, nullptr, 0, 0);
  }
  ShardSet wake;
  // Only two values act on completion. Under the others a completed
  // subtransaction's locks stay until top-level commit, as retained locks
  // (semantic) or as root-owned strict locks (flat 2PL).
  //  * §3 protocol: "the locks of the actions in a subtransaction are
  //    released upon the completion of the subtransaction" — drop every lock
  //    of a proper descendant of t; t's own lock remains until t's parent
  //    completes (only the root's semantic locks survive to the end of the
  //    transaction).
  //  * Closed nesting: anti-inheritance, the parent adopts the completed
  //    child's locks.
  // Both touch only entries of t's own tree: one pass over the root's held
  // list finds the shards that host a picked entry, then each of those is
  // locked once (a thread never holds two shard mutexes).
  const Protocol protocol = options_.protocol;
  if (protocol == Protocol::kSemanticNoRetainedLocks ||
      (protocol == Protocol::kClosedNested && t->parent() != nullptr)) {
    const CompletionOp op = protocol == Protocol::kClosedNested
                                ? CompletionOp::kInherit
                                : CompletionOp::kReleaseDescendants;
    ShardSet touched;
    for (SubTxn* n = t->root()->held_; n != nullptr; n = n->next_held_) {
      if (Picks(op, t, n->lock_entry_)) touched.set(n->lock_entry_.shard);
    }
    for (size_t i = 0; i < shards_.size() && touched.any(); ++i) {
      if (!touched.test(i)) continue;
      touched.reset(i);
      LockShard& shard = *shards_[i];
      MutexLock l(shard.mu);
      const uint32_t idx = static_cast<uint32_t>(i);
      if (ApplyCompletionOp(shard, idx, t, op) && shard.waiting > 0) {
        wake.set(i);
      }
    }
  }
  if (SEMCC_PREDICT_FALSE(options_.debug_lock_checks)) {
    inv_stats_.checks.fetch_add(1, std::memory_order_relaxed);
    for (auto& sp : shards_) {
      LockShard& shard = *sp;
      MutexLock l(shard.mu);
      for (size_t s = 0; s < shard.table.capacity(); ++s) {
        if (const LockQueue* q = shard.table.queue_at(s)) {
          CheckQueueInvariants(shard, *q);
        }
      }
    }
  }
  // Waits-for sets shrink on completion, not on lock release: wake exactly
  // the shards hosting a waiter that waits for t. The retained-lock case
  // (the common one) therefore touches no shard mutex at all before this
  // point, and when nobody waits it touches no mutex at all.
  //
  // Skipping graph_mu_ on a zero count loses no wakeup. Our caller stored
  // t's completed state before the fence below. A waiter in Acquire counts
  // its registration in num_waits_ (under graph_mu_), issues its own
  // seq_cst fence, then re-reads the state of every blocker it watches.
  // The two fences are ordered. If ours is first, the waiter reads t as
  // completed and re-scans instead of sleeping. If the waiter's is first,
  // the load below reads its count, so we take graph_mu_, which we can get
  // only after the waiter has left its critical section with its record
  // in waits_; we then find it and notify its shard.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (num_waits_.load(std::memory_order_acquire) != 0) {
    MutexLock g(graph_mu_);
    for (const auto& [waiter, rec] : waits_) {
      (void)waiter;
      for (SubTxn* b : rec.blockers) {
        if (b == t) {
          wake.set(rec.shard);
          break;
        }
      }
    }
  }
  NotifyShards(wake);
}

void LockManager::ReleaseTree(SubTxn* root) {
  if (trace::Active()) {
    EmitLockEvent(trace::EventKind::kRelease, root, LockTarget{}, 0,
                  ConflictOutcome::kNoLock, nullptr, 0, 0);
  }
  ShardSet wake;
  // Walk only the tree's own entries: bucket the held list by shard (its
  // links are reused; the list is consumed), then lock each shard that
  // hosts a linked entry once. Nodes whose entries were withdrawn or
  // released on completion are dropped from the list here.
  SubTxn* by_shard[kMaxShards] = {};
  ShardSet touched;
  for (SubTxn* n = root->held_; n != nullptr;) {
    SubTxn* next = n->next_held_;
    n->on_held_list_ = false;
    n->next_held_ = nullptr;
    if (n->lock_entry_.queue != nullptr) {
      const uint32_t s = n->lock_entry_.shard;
      n->next_held_ = by_shard[s];
      by_shard[s] = n;
      touched.set(s);
    }
    n = next;
  }
  root->held_ = nullptr;
  for (size_t i = 0; i < shards_.size() && touched.any(); ++i) {
    if (!touched.test(i)) continue;
    touched.reset(i);
    LockShard& shard = *shards_[i];
    MutexLock l(shard.mu);
    ReleaseChain(shard, static_cast<uint32_t>(i), by_shard[i]);
    if (shard.waiting > 0) wake.set(i);
  }
  // Debug checks sweep every shard for a leaked entry of the tree.
  if (SEMCC_PREDICT_FALSE(options_.debug_lock_checks)) {
    for (auto& sp : shards_) {
      LockShard& shard = *sp;
      MutexLock l(shard.mu);
      inv_stats_.checks.fetch_add(1, std::memory_order_relaxed);
      CheckNoLeakedLocks(shard, root);
    }
  }
  // Purge dangling blocker pointers into the departing tree; the blocked
  // threads re-derive their waits-for sets when they wake. A record that
  // names the tree was registered by a waiter that saw one of the tree's
  // entries under its shard mutex. This thread unlinked that entry under
  // the same mutex — in the walk above, or earlier when it withdrew a
  // waiter or released on completion — so after the registration: a zero
  // count here means no record names the tree.
  if (num_waits_.load(std::memory_order_acquire) != 0) {
    MutexLock g(graph_mu_);
    for (auto& [waiter, rec] : waits_) {
      (void)waiter;
      std::vector<SubTxn*>& blockers = rec.blockers;
      const size_t before = blockers.size();
      blockers.erase(
          std::remove_if(blockers.begin(), blockers.end(),
                         [&](SubTxn* b) { return b->root() == root; }),
          blockers.end());
      if (blockers.size() != before) wake.set(rec.shard);
    }
  }
  if (SEMCC_PREDICT_FALSE(options_.debug_lock_checks)) {
    MutexLock g(graph_mu_);
    held_targets_.erase(root);
  }
  NotifyShards(wake);
}

void LockManager::OnAbortRequested(SubTxn* root) {
  ShardSet wake;
  {
    // Publish the flag under the graph mutex: a registering waiter either
    // re-checks abort_requested after us (and refuses to sleep) or
    // registered before us (and is woken below).
    MutexLock g(graph_mu_);
    root->RequestAbort();
    for (const auto& [waiter, rec] : waits_) {
      if (waiter->root() == root) wake.set(rec.shard);
    }
  }
  NotifyShards(wake);
}

std::vector<LockManager::LockInfo> LockManager::LocksOn(
    const LockTarget& target) const {
  LockShard& shard = ShardFor(target);
  MutexLock lock(shard.mu);
  std::vector<LockInfo> out;
  const LockQueue* q =
      shard.table.Find(target, LockTargetHash{}(target) >> shard_bits_);
  if (q == nullptr) return out;
  for (const LockEntry* e = q->head; e != nullptr; e = e->next) {
    out.push_back(LockInfo{e->owner->id(), e->acquirer->root()->id(),
                           e->acquirer->method(), e->granted,
                           e->owner->completed()});
  }
  return out;
}

size_t LockManager::NumWaiters() const {
  MutexLock lock(graph_mu_);
  return waits_.size();
}

}  // namespace semcc

// Subtransaction tree nodes.
//
// The paper treats the dynamic method invocation hierarchy of an OODBS
// transaction as an open nested transaction: every method invocation (and
// every generic leaf operation) is an action; actions that invoke further
// methods are subtransactions. A SubTxn is one node of that tree.
#ifndef SEMCC_CC_SUBTXN_H_
#define SEMCC_CC_SUBTXN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "cc/method_interner.h"
#include "object/oid.h"
#include "object/value.h"
#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

using TxnId = uint64_t;

class SubTxn;
struct LockQueue;
struct MethodDef;

enum class TxnState : int {
  kActive = 0,
  kCommitted = 1,  ///< completed; its locks may be retained by ancestors
  kAborted = 2,
};

/// \brief One lock-table entry: one acquisition by one action.
///
/// An action requests at most one lock, so its entry lives in its SubTxn and
/// acquiring allocates nothing. A LockQueue links the entries on one target
/// through prev/next in arrival order. Only the thread running the
/// acquirer's tree writes an entry, and only under the mutex of the shard
/// that hosts its queue; other threads read it under that mutex.
struct LockEntry {
  /// The action that requested the lock (mode source).
  SubTxn* acquirer = nullptr;
  /// Current owner (differs from acquirer only after closed-nested
  /// anti-inheritance).
  SubTxn* owner = nullptr;
  /// acquirer->method_id(), cached for locality.
  MethodId method_id = kInvalidMethodId;
  bool is_write = false;
  bool granted = false;
  uint32_t shard = 0;  ///< lock-table shard of `queue`
  uint64_t seq = 0;    ///< FCFS arrival order (per shard; never reused)
  /// The queue it is linked into; null while unlinked.
  LockQueue* queue = nullptr;
  LockEntry* prev = nullptr;
  LockEntry* next = nullptr;
};

/// \brief How to compensate a completed action, kept as data in its node
/// and dispatched on by TxnCtx::Compensate.
struct Undo {
  enum class Kind : uint8_t {
    kNone = 0,       ///< nothing of its own: compensate the children instead
    kInverse = 1,    ///< method->inverse(object, args, value); value = result
    kPut = 2,        ///< Put(object, value); value = the before-image
    kSetInsert = 3,  ///< SetRemove(object, args[0])
    kSetRemove = 4,  ///< SetInsert(object, args[0], member)
  };
  Kind kind = Kind::kNone;
  const MethodDef* method = nullptr;
  Value value;
  Oid member = kInvalidOid;
};

/// \brief One action in an open nested transaction tree.
///
/// Tree growth (AddChild) is performed only by the transaction's executing
/// thread; other threads (conflict testers, the deadlock detector) traverse
/// concurrently, so children are guarded.
class SubTxn {
 public:
  SubTxn(TxnId id, SubTxn* parent, Oid object, TypeId type, std::string method,
         Args args);
  SEMCC_DISALLOW_COPY_AND_ASSIGN(SubTxn);

  TxnId id() const { return id_; }
  /// Deadlock-victim ordering rank. Defaults to the id; a retried
  /// transaction keeps its FIRST attempt's rank, so retries age instead of
  /// staying "youngest" forever (guarantees progress under deadlock storms).
  TxnId priority() const { return priority_; }
  void set_priority(TxnId p) { priority_ = p; }
  SubTxn* parent() const { return parent_; }
  SubTxn* root() { return root_; }
  const SubTxn* root() const { return root_; }
  bool is_root() const { return parent_ == nullptr; }
  int depth() const { return depth_; }

  Oid object() const { return object_; }
  TypeId type() const { return type_; }
  const std::string& method() const { return method_; }
  /// Interned id of method(), cached at construction so the lock manager's
  /// conflict test never hashes strings.
  MethodId method_id() const { return method_id_; }
  const Args& args() const { return args_; }

  TxnState state() const { return state_.load(std::memory_order_acquire); }
  /// Completed = committed or aborted (paper: "t is completed").
  bool completed() const { return state() != TxnState::kActive; }
  bool committed() const { return state() == TxnState::kCommitted; }
  void set_state(TxnState s) { state_.store(s, std::memory_order_release); }

  /// True on the root once it has been chosen as a deadlock victim or asked
  /// to abort; the executing thread observes it at its next action.
  bool abort_requested() const {
    return abort_requested_.load(std::memory_order_acquire);
  }
  void RequestAbort() { abort_requested_.store(true, std::memory_order_release); }

  /// Compensating actions run while the transaction is flagged for abort;
  /// they must still be able to acquire locks (same-root locks never block,
  /// but the abort short-circuit has to be bypassed). Set before the first
  /// lock request, by the owning thread.
  bool compensation() const { return compensation_; }
  void set_compensation(bool v) { compensation_ = v; }

  bool IsAncestorOf(const SubTxn* other) const;
  bool SameRootAs(const SubTxn* other) const { return root_ == other->root_; }

  /// Proper ancestors, bottom-up: parent first, root last (the paper's
  /// "ancestor chain of a subtransaction t ... in bottom-up order").
  std::vector<SubTxn*> AncestorChain() const;

  void AddChild(SubTxn* child);
  /// Snapshot of children (ordered by invocation).
  std::vector<SubTxn*> Children() const;
  /// Incomplete children only (deadlock detector's completion dependencies).
  std::vector<SubTxn*> IncompleteChildren() const;

  // --- timestamps for the history / serializability checker --------------
  uint64_t grant_seq() const { return grant_seq_; }
  void set_grant_seq(uint64_t s) { grant_seq_ = s; }
  uint64_t end_seq() const { return end_seq_; }
  void set_end_seq(uint64_t s) { end_seq_ = s; }

  // --- snapshot-read bookkeeping (ProtocolOptions::mvcc_reads) ------------
  /// On the ROOT of a snapshot-read transaction: the snapshot timestamp S
  /// it reads as of. 0 on locking transactions. Set once at begin, by the
  /// owning thread, before any action runs.
  bool snapshot() const { return snapshot_ts_ != 0 || snapshot_; }
  uint64_t snapshot_ts() const { return snapshot_ts_; }
  void set_snapshot_ts(uint64_t s) {
    snapshot_ = true;
    snapshot_ts_ = s;
  }
  /// On a leaf READ action of a snapshot transaction: the version timestamp
  /// the read observed (0 = base/pre-first-write state). Feeds the
  /// snapshot-reads serializability check via the history recorder.
  uint64_t observed_ts() const { return observed_ts_; }
  void set_observed_ts(uint64_t ts) { observed_ts_ = ts; }

  /// Compensation for this completed action, set by the owning thread after
  /// successful execution. Run (in reverse order of completion) when an
  /// ancestor aborts; any kind but kNone compensates the whole subtree.
  Undo undo;

  std::string Label() const;  ///< e.g. "ShipOrder(@3, 17)"
  std::string PathString() const;

 private:
  /// The lock entry and the held list below are the lock manager's.
  friend class LockManager;

  const TxnId id_;
  TxnId priority_;
  SubTxn* const parent_;
  SubTxn* root_;
  const int depth_;
  const Oid object_;
  const TypeId type_;
  const std::string method_;
  const MethodId method_id_;
  const Args args_;
  std::atomic<TxnState> state_{TxnState::kActive};
  std::atomic<bool> abort_requested_{false};
  bool compensation_ = false;
  uint64_t grant_seq_ = 0;
  uint64_t end_seq_ = 0;
  bool snapshot_ = false;      // root only; owner-thread, set before use
  uint64_t snapshot_ts_ = 0;   // root only
  uint64_t observed_ts_ = 0;   // leaf reads of snapshot transactions

  /// This action's lock, if it requested one.
  LockEntry lock_entry_;
  /// The held list: on the root, the nodes of the tree that appended a lock
  /// entry, most recent first, linked through next_held_. A node whose entry
  /// was withdrawn or released early stays on it, with its entry unlinked.
  /// Only the thread running the tree reads or changes it.
  SubTxn* held_ = nullptr;
  SubTxn* next_held_ = nullptr;
  bool on_held_list_ = false;

  mutable Mutex children_mu_;
  SubTxn* first_child_ SEMCC_GUARDED_BY(children_mu_) = nullptr;
  SubTxn* last_child_ SEMCC_GUARDED_BY(children_mu_) = nullptr;
  /// The next child of parent_, in invocation order; guarded by the
  /// parent's children_mu_.
  SubTxn* next_sibling_ = nullptr;
};

/// \brief Owner of a transaction tree: constructs its nodes in place in
/// fixed-size chunks and keeps them alive until the transaction is fully
/// finished and its locks are released. Nodes never move.
///
/// Only the thread running the tree grows it (NewNode) and lists it
/// (Nodes); other threads reach nodes through the pointers they were given
/// and through the guarded child lists.
class TxnTree {
 public:
  /// \param root_object what the root acts on — by the paper's footnote 2,
  /// transactions are actions on the object "Database".
  TxnTree(TxnId root_id, std::string name, Oid root_object, TypeId root_type);
  ~TxnTree();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(TxnTree);

  SubTxn* root() { return root_; }

  SubTxn* NewNode(SubTxn* parent, Oid object, TypeId type, std::string method,
                  Args args);

  /// All nodes in creation order (history extraction).
  std::vector<SubTxn*> Nodes() const;

  static TxnId NextId();

 private:
  /// Nodes per chunk: the first chunk is part of the tree, so a tree of up
  /// to this many actions allocates no node storage at all.
  static constexpr size_t kChunkNodes = 32;
  struct Chunk {
    alignas(SubTxn) unsigned char bytes[kChunkNodes * sizeof(SubTxn)];
    Chunk* next = nullptr;
    void* slot(size_t i) { return bytes + i * sizeof(SubTxn); }
    SubTxn* at(size_t i) const {
      return std::launder(reinterpret_cast<SubTxn*>(
          const_cast<unsigned char*>(bytes) + i * sizeof(SubTxn)));
    }
  };

  /// Storage for the next node, in the last chunk or a fresh one.
  void* NextSlot();

  Chunk first_;
  Chunk* last_ = &first_;
  size_t size_ = 0;  ///< nodes constructed so far, over all chunks
  SubTxn* root_;
};

}  // namespace semcc

#endif  // SEMCC_CC_SUBTXN_H_

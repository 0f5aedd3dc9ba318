// TxnCtx: the execution engine for open nested OODBS transactions
// (paper Figure 8, exec-transaction).
//
// Every operation on this context is one *action*: it creates a
// subtransaction node, requests the protocol-appropriate lock (blocking with
// a waits-for set until all blockers complete), executes, and completes the
// subtransaction — whereupon its locks become retained (semantic protocol),
// are anti-inherited (closed nested), or simply stay until top-level commit
// (flat 2PL).
//
// Method bodies receive the same context, so methods can invoke further
// methods on other objects or the same object (paper footnote 3), and
// transactions can freely *bypass* encapsulation by calling generic
// operations (Get/Put/Set*) on implementation objects directly — the
// situation the paper's protocol exists to handle.
#ifndef SEMCC_TXN_TXN_CONTEXT_H_
#define SEMCC_TXN_TXN_CONTEXT_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/subtxn.h"
#include "object/object_store.h"
#include "object/versioned_store.h"
#include "txn/method_registry.h"
#include "util/macros.h"

namespace semcc {

/// \brief Observer of transactional events, used by the write-ahead log for
/// multi-level recovery. All callbacks run on the transaction's own thread.
///
/// A tree is logged only once it updates something. TxnCtx calls OnTxnBegin
/// lazily, just before the tree's first OnLeafPut, OnLeafSetInsert,
/// OnLeafSetRemove, OnMethodCommitted or object creation, and the
/// transaction manager calls OnTxnCommit or OnTxnAbort only for a tree that
/// logged (TxnCtx::logged()), before it releases the tree's locks. A
/// read-only tree produces no record and waits for no log force (DESIGN
/// §5.3, "Read-only commits").
class ActionLogger {
 public:
  virtual ~ActionLogger() = default;
  virtual void OnTxnBegin(TxnId txn) = 0;
  /// Must force the log (commit durability point). A non-OK result means
  /// the commit record is not stable; the transaction manager returns it
  /// to the caller instead of reporting a commit.
  virtual Status OnTxnCommit(TxnId txn) = 0;
  /// Written after compensation completed, so restart will not re-undo.
  virtual void OnTxnAbort(TxnId txn) = 0;
  /// Called only for a method with a registered (total) inverse, after it
  /// committed: the only method record restart reads.
  virtual void OnMethodCommitted(const SubTxn& node, const Value& result) = 0;
  virtual void OnLeafPut(const SubTxn& node, const Value& before) = 0;
  virtual void OnLeafSetInsert(const SubTxn& node) = 0;
  virtual void OnLeafSetRemove(const SubTxn& node, Oid removed_member) = 0;
};

class TxnCtx {
 public:
  /// `versions` (the MVCC layer, ProtocolOptions::mvcc_reads) may be null;
  /// when present, writers report their write sets to it and a tree whose
  /// root carries a snapshot timestamp executes in snapshot-read mode:
  /// every action skips the lock manager entirely (grant/end seqs still
  /// come from its atomic clock), reads are served by the version store as
  /// of the snapshot, and any write or method invocation that is not
  /// read-only fails with PreconditionFailed.
  TxnCtx(ObjectStore* store, LockManager* lm, MethodRegistry* methods,
         TxnTree* tree, ActionLogger* logger = nullptr,
         VersionedObjectStore* versions = nullptr);
  SEMCC_DISALLOW_COPY_AND_ASSIGN(TxnCtx);

  // --- method invocation (non-leaf actions) ------------------------------

  /// Invoke a registered method on `obj`. Creates a subtransaction (which
  /// takes over `args`), acquires the semantic lock derived from (method,
  /// args), runs the body, and commits the subtransaction (converting its
  /// subtree's locks into retained locks).
  Result<Value> Invoke(Oid obj, const std::string& method, Args args);

  // --- generic operations (leaf actions; also the "bypass" surface) ------

  Result<Value> Get(Oid atomic);
  Status Put(Oid atomic, const Value& value);
  Status SetInsert(Oid set, const Value& key, Oid member);
  Status SetRemove(Oid set, const Value& key);
  Result<Oid> SetSelect(Oid set, const Value& key);
  Result<std::vector<std::pair<Value, Oid>>> SetScan(Oid set);
  Result<size_t> SetSize(Oid set);
  /// Membership test: Select that locks under the generic Member read mode
  /// and maps NotFound to false instead of an error.
  Result<bool> SetMember(Oid set, const Value& key);
  /// Members with key in the closed range [lo, hi] (Value total order),
  /// locked under the generic RangeScan mode, which conflicts only with
  /// updates of keys inside [lo, hi].
  Result<std::vector<std::pair<Value, Oid>>> SetRangeScan(Oid set,
                                                          const Value& lo,
                                                          const Value& hi);

  // --- structure ----------------------------------------------------------

  /// Component selection t.c — pure navigation, no lock (structure is
  /// immutable after creation).
  Result<Oid> Component(Oid tuple, const std::string& name);
  /// Shorthand: Get(Component(tuple, name)).
  Result<Value> GetField(Oid tuple, const std::string& name);
  /// Shorthand: Put(Component(tuple, name), v).
  Status PutField(Oid tuple, const std::string& name, const Value& v);

  /// Create objects inside the transaction; compensated by destruction.
  Result<Oid> CreateAtomic(TypeId type, const Value& initial);
  Result<Oid> CreateTuple(TypeId type,
                          std::vector<std::pair<std::string, Oid>> components);

  // --- introspection ------------------------------------------------------

  SubTxn* current() const { return current_; }
  SubTxn* root() const { return tree_->root(); }
  ObjectStore* store() const { return store_; }
  bool abort_requested() const { return root()->abort_requested(); }

  /// True when this tree executes against an MVCC snapshot (zero locks).
  bool snapshot_mode() const {
    return versions_ != nullptr && root()->snapshot();
  }
  /// Objects this transaction reported to the version store (first-write
  /// dedup). The transaction manager passes this to
  /// VersionedObjectStore::OnTxnEnd once the tree is finished.
  const std::set<Oid>& write_set() const { return written_; }
  /// True once this tree appended its begin record, i.e. it logged an
  /// update or an object creation. Only such a tree logs (and forces) its
  /// commit or abort.
  bool logged() const { return logged_; }

  /// Compensate all committed work of the tree, in reverse completion order,
  /// running inverses as new subtransactions of this (same) transaction.
  /// Called by the transaction manager on abort; must run on the
  /// transaction's own thread.
  void Rollback();
  /// Compensating actions that returned an error during Rollback. Each is
  /// logged and skipped, so each leaves one update of this tree undone.
  uint64_t compensation_failures() const { return compensation_failures_; }

 private:
  /// Aborted once the root was asked to abort, unless compensating.
  Status CheckNotAborted() const;
  /// Begin an action on `obj` of type `type`: node + lock. On failure the
  /// node is aborted and the error returned.
  Result<SubTxn*> BeginAction(Oid obj, TypeId type, const std::string& method,
                              Args args, bool is_write, bool is_leaf);
  /// Begin a generic leaf operation: CheckNotAborted, the type of `obj`,
  /// then BeginAction.
  Result<SubTxn*> BeginLeaf(Oid obj, const char* method, Args args,
                            bool is_write);
  Status AcquireForAction(SubTxn* node, bool is_write, bool is_leaf);
  /// Complete `node` successfully; its `undo` must be set before.
  void CommitAction(SubTxn* node);
  void AbortAction(SubTxn* node);
  void Compensate(SubTxn* node);
  /// Run `node`'s undo (kind other than kNone); count a failure.
  void RunUndo(SubTxn* node);
  /// Append the tree's begin record before its first record; later calls
  /// do nothing. No-op without a logger.
  void LogBegin();

  /// First-write hook: report `oid` to the version store once per
  /// transaction, BEFORE the physical write (the ordering the snapshot
  /// readers' live-store fallback depends on). No-op without MVCC.
  void NoteWrite(Oid oid, bool is_set);
  /// Emit a snapshot-read trace event for a completed snapshot read.
  void TraceSnapshotRead(const SubTxn* node, uint64_t observed_ts);

  ObjectStore* const store_;
  LockManager* const lm_;
  MethodRegistry* const methods_;
  TxnTree* const tree_;
  ActionLogger* const logger_;
  VersionedObjectStore* const versions_;
  SubTxn* current_;
  bool in_compensation_ = false;
  bool logged_ = false;
  uint64_t compensation_failures_ = 0;
  std::set<Oid> written_;
};

}  // namespace semcc

#endif  // SEMCC_TXN_TXN_CONTEXT_H_

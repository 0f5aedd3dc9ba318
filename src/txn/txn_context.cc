#include "txn/txn_context.h"

#include "util/logging.h"

namespace semcc {

TxnCtx::TxnCtx(ObjectStore* store, LockManager* lm, MethodRegistry* methods,
               TxnTree* tree, ActionLogger* logger,
               VersionedObjectStore* versions)
    : store_(store), lm_(lm), methods_(methods), tree_(tree), logger_(logger),
      versions_(versions), current_(tree->root()) {}

void TxnCtx::NoteWrite(Oid oid, bool is_set) {
  if (versions_ != nullptr && written_.insert(oid).second) {
    versions_->BeginWrite(oid, is_set);
  }
}

void TxnCtx::LogBegin() {
  if (logger_ == nullptr || logged_) return;
  logger_->OnTxnBegin(root()->id());
  logged_ = true;
}

void TxnCtx::TraceSnapshotRead(const SubTxn* node, uint64_t observed_ts) {
  if (!trace::Active()) return;
  trace::Event e;
  e.kind = static_cast<uint8_t>(trace::EventKind::kSnapshotRead);
  e.txn = node->id();
  e.root = root()->id();
  e.other = root()->snapshot_ts();  // the snapshot S
  e.value = observed_ts;            // the version ts the read resolved to
  e.target = node->object();
  e.depth = static_cast<uint16_t>(node->depth());
  e.set_method(node->method());
  trace::Emit(e);
}

Status TxnCtx::CheckNotAborted() const {
  if (!in_compensation_ && root()->abort_requested()) {
    return Status::Aborted("transaction " + std::to_string(root()->id()) +
                           " was asked to abort");
  }
  return Status::OK();
}

Result<SubTxn*> TxnCtx::BeginLeaf(Oid obj, const char* method, Args args,
                                  bool is_write) {
  SEMCC_RETURN_NOT_OK(CheckNotAborted());
  SEMCC_ASSIGN_OR_RETURN(TypeId type, store_->TypeOf(obj));
  return BeginAction(obj, type, method, std::move(args), is_write,
                     /*is_leaf=*/true);
}

Result<SubTxn*> TxnCtx::BeginAction(Oid obj, TypeId type,
                                    const std::string& method, Args args,
                                    bool is_write, bool is_leaf) {
  SubTxn* node = tree_->NewNode(current_, obj, type, method, std::move(args));
  if (in_compensation_) node->set_compensation(true);
  Status st = AcquireForAction(node, is_write, is_leaf);
  if (!st.ok()) {
    AbortAction(node);
    return st;
  }
  return node;
}

Status TxnCtx::AcquireForAction(SubTxn* node, bool is_write, bool is_leaf) {
  if (snapshot_mode()) {
    // Snapshot transactions never touch the lock manager: no shard mutex,
    // no queue entry, no waits-for registration — just the atomic clock
    // tick every node needs for the history recorder's ordering.
    node->set_grant_seq(lm_->NextSeq());
    return Status::OK();
  }
  // Under the semantic protocols every action acquires a semantic lock on
  // its object (Figure 8). Closed nesting and flat 2PL lock at the access
  // level only: method invocations carry no lock of their own.
  const Protocol protocol = lm_->options().protocol;
  if (!IsSemantic(protocol) && !is_leaf) {
    node->set_grant_seq(lm_->NextSeq());
    return Status::OK();
  }
  LockTarget target = LockTarget::ForObject(node->object());
  if (protocol == Protocol::kFlat2PLRecord) {
    SEMCC_ASSIGN_OR_RETURN(Rid rid, store_->RidOf(node->object()));
    target = LockTarget::ForRecord(rid);
  } else if (protocol == Protocol::kFlat2PLPage) {
    SEMCC_ASSIGN_OR_RETURN(PageId page, store_->PageOf(node->object()));
    target = LockTarget::ForPage(page);
  }
  return lm_->Acquire(node, target, is_write);
}

void TxnCtx::CommitAction(SubTxn* node) {
  node->set_state(TxnState::kCommitted);
  if (snapshot_mode()) {
    // A snapshot node holds no locks and nobody can be waiting on its
    // completion, so the lock manager's completion sweep (which takes the
    // global graph mutex to find waiters) has nothing to do. Keep only the
    // end-seq stamp it would have provided.
    node->set_end_seq(lm_->NextSeq());
    return;
  }
  lm_->OnSubTxnCompleted(node);
}

void TxnCtx::AbortAction(SubTxn* node) {
  node->set_state(TxnState::kAborted);
  if (snapshot_mode()) {
    node->set_end_seq(lm_->NextSeq());
    return;
  }
  lm_->OnSubTxnCompleted(node);
}

// --- method invocation ----------------------------------------------------

Result<Value> TxnCtx::Invoke(Oid obj, const std::string& method, Args args) {
  SEMCC_ASSIGN_OR_RETURN(TypeId type, store_->TypeOf(obj));
  SEMCC_ASSIGN_OR_RETURN(const MethodDef* def, methods_->Find(type, method));
  if (snapshot_mode() && !def->read_only) {
    return Status::PreconditionFailed(
        "snapshot-read transaction invoked updating method " + method);
  }
  SEMCC_RETURN_NOT_OK(CheckNotAborted());
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginAction(obj, type, method, std::move(args),
                                     !def->read_only, /*is_leaf=*/false));

  SubTxn* saved = current_;
  current_ = node;
  Result<Value> result = def->body(*this, obj, node->args());
  current_ = saved;

  if (!result.ok()) {
    AbortAction(node);
    return result;
  }
  const bool total = static_cast<bool>(def->inverse);
  if (total) {
    node->undo.kind = Undo::Kind::kInverse;
    node->undo.method = def;
    node->undo.value = result.ValueOrDie();
  }
  CommitAction(node);
  // Restart reads only the records of methods it can compensate; a method
  // without an inverse leaves its leaves' undo records to speak for it.
  if (total && logger_ != nullptr) {
    LogBegin();
    logger_->OnMethodCommitted(*node, result.ValueOrDie());
  }
  return result;
}

// --- generic leaf operations ------------------------------------------------

Result<Value> TxnCtx::Get(Oid atomic) {
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(atomic, generic_ops::kGet, {},
                                   /*is_write=*/false));
  if (snapshot_mode()) {
    uint64_t observed = 0;
    Result<Value> v =
        versions_->ReadAtomic(atomic, root()->snapshot_ts(), &observed);
    if (!v.ok()) {
      AbortAction(node);
      return v;
    }
    node->set_observed_ts(observed);
    TraceSnapshotRead(node, observed);
    CommitAction(node);
    return v;
  }
  Result<Value> v = store_->Get(atomic);
  if (!v.ok()) {
    AbortAction(node);
    return v;
  }
  CommitAction(node);
  return v;
}

Status TxnCtx::Put(Oid atomic, const Value& value) {
  if (snapshot_mode()) {
    return Status::PreconditionFailed("Put in snapshot-read transaction");
  }
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(atomic, generic_ops::kPut, {value},
                                   /*is_write=*/true));
  NoteWrite(atomic, /*is_set=*/false);
  Result<Value> old = store_->Get(atomic);
  if (!old.ok()) {
    AbortAction(node);
    return old.status();
  }
  Value old_value = old.ValueOrDie();
  // Write-ahead: the before-image undo record must precede the physical
  // redo record (which store_->Put emits through the store listener) in
  // the log — a crash between the two would otherwise replay the write
  // with no undo information. The Get above proved the Put will apply;
  // should it still fail, the logged undo rewrites the unchanged value.
  if (logger_ != nullptr) {
    LogBegin();
    logger_->OnLeafPut(*node, old_value);
  }
  Status st = store_->Put(atomic, value);
  if (!st.ok()) {
    AbortAction(node);
    return st;
  }
  // Physical leaf undo. Sound *before* the enclosing method commits: until
  // then no other transaction can reach this atom (a Case-2 wait requires a
  // *committed* commuting ancestor). Once the enclosing method commits, the
  // method's registered semantic inverse takes over (Compensate does not
  // recurse below a node with an undo of its own), so this before-image is
  // never misused to wipe out a commuting update of another transaction.
  node->undo.kind = Undo::Kind::kPut;
  node->undo.value = std::move(old_value);
  CommitAction(node);
  return Status::OK();
}

Status TxnCtx::SetInsert(Oid set, const Value& key, Oid member) {
  if (snapshot_mode()) {
    return Status::PreconditionFailed("Insert in snapshot-read transaction");
  }
  SEMCC_ASSIGN_OR_RETURN(
      SubTxn * node, BeginLeaf(set, generic_ops::kInsert,
                               {key, Value::Ref(member)}, /*is_write=*/true));
  NoteWrite(set, /*is_set=*/true);
  // Probe so the undo record below is only logged for an insert that will
  // apply (a logged undo for a refused duplicate insert would make restart
  // remove the pre-existing member). The leaf write lock makes the probe
  // race-free.
  Result<Oid> existing = store_->SetSelect(set, key);
  if (existing.ok()) {
    AbortAction(node);
    return Status::AlreadyExists("duplicate key " + key.ToString());
  }
  if (!existing.status().IsNotFound()) {
    AbortAction(node);
    return existing.status();
  }
  // Write-ahead: undo record before the physical redo record (see Put).
  if (logger_ != nullptr) {
    LogBegin();
    logger_->OnLeafSetInsert(*node);
  }
  Status st = store_->SetInsert(set, key, member);
  if (!st.ok()) {
    AbortAction(node);
    return st;
  }
  node->undo.kind = Undo::Kind::kSetInsert;
  CommitAction(node);
  return Status::OK();
}

Status TxnCtx::SetRemove(Oid set, const Value& key) {
  if (snapshot_mode()) {
    return Status::PreconditionFailed("Remove in snapshot-read transaction");
  }
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(set, generic_ops::kRemove, {key},
                                   /*is_write=*/true));
  NoteWrite(set, /*is_set=*/true);
  Result<Oid> member = store_->SetSelect(set, key);
  if (!member.ok()) {
    AbortAction(node);
    return member.status();
  }
  Oid saved_member = member.ValueOrDie();
  // Write-ahead: undo record before the physical redo record (see Put).
  // The SetSelect above proved the remove will apply; recovery tolerates
  // a re-insert of a still-present member just in case.
  if (logger_ != nullptr) {
    LogBegin();
    logger_->OnLeafSetRemove(*node, saved_member);
  }
  Status st = store_->SetRemove(set, key);
  if (!st.ok()) {
    AbortAction(node);
    return st;
  }
  node->undo.kind = Undo::Kind::kSetRemove;
  node->undo.member = saved_member;
  CommitAction(node);
  return Status::OK();
}

Result<Oid> TxnCtx::SetSelect(Oid set, const Value& key) {
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(set, generic_ops::kSelect, {key},
                                   /*is_write=*/false));
  uint64_t observed = 0;
  Result<Oid> member =
      snapshot_mode()
          ? versions_->ReadSetSelect(set, key, root()->snapshot_ts(),
                                     &observed)
          : store_->SetSelect(set, key);
  if (!member.ok()) {
    AbortAction(node);
    return member;
  }
  if (snapshot_mode()) {
    node->set_observed_ts(observed);
    TraceSnapshotRead(node, observed);
  }
  CommitAction(node);
  return member;
}

Result<bool> TxnCtx::SetMember(Oid set, const Value& key) {
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(set, generic_ops::kMember, {key},
                                   /*is_write=*/false));
  uint64_t observed = 0;
  Result<Oid> member =
      snapshot_mode()
          ? versions_->ReadSetSelect(set, key, root()->snapshot_ts(),
                                     &observed)
          : store_->SetSelect(set, key);
  if (!member.ok() && !member.status().IsNotFound()) {
    AbortAction(node);
    return member.status();
  }
  if (snapshot_mode()) {
    node->set_observed_ts(observed);
    TraceSnapshotRead(node, observed);
  }
  CommitAction(node);
  return member.ok();
}

Result<std::vector<std::pair<Value, Oid>>> TxnCtx::SetRangeScan(
    Oid set, const Value& lo, const Value& hi) {
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(set, generic_ops::kRangeScan, {lo, hi},
                                   /*is_write=*/false));
  uint64_t observed = 0;
  auto members =
      snapshot_mode()
          ? versions_->ReadSetScan(set, root()->snapshot_ts(), &observed)
          : store_->SetScan(set);
  if (!members.ok()) {
    AbortAction(node);
    return members;
  }
  // Filter to [lo, hi] after the physical scan: the store has no ordered
  // index, so the range semantics (and the narrower lock) live here.
  std::vector<std::pair<Value, Oid>> in_range;
  for (auto& [key, oid] : members.ValueOrDie()) {
    if (key < lo || hi < key) continue;
    in_range.emplace_back(key, oid);
  }
  if (snapshot_mode()) {
    node->set_observed_ts(observed);
    TraceSnapshotRead(node, observed);
  }
  CommitAction(node);
  return in_range;
}

Result<std::vector<std::pair<Value, Oid>>> TxnCtx::SetScan(Oid set) {
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(set, generic_ops::kScan, {},
                                   /*is_write=*/false));
  uint64_t observed = 0;
  auto members =
      snapshot_mode()
          ? versions_->ReadSetScan(set, root()->snapshot_ts(), &observed)
          : store_->SetScan(set);
  if (!members.ok()) {
    AbortAction(node);
    return members;
  }
  if (snapshot_mode()) {
    node->set_observed_ts(observed);
    TraceSnapshotRead(node, observed);
  }
  CommitAction(node);
  return members;
}

Result<size_t> TxnCtx::SetSize(Oid set) {
  SEMCC_ASSIGN_OR_RETURN(SubTxn * node,
                         BeginLeaf(set, generic_ops::kSize, {},
                                   /*is_write=*/false));
  uint64_t observed = 0;
  auto size = snapshot_mode()
                  ? versions_->ReadSetSize(set, root()->snapshot_ts(),
                                           &observed)
                  : store_->SetSize(set);
  if (!size.ok()) {
    AbortAction(node);
    return size;
  }
  if (snapshot_mode()) {
    node->set_observed_ts(observed);
    TraceSnapshotRead(node, observed);
  }
  CommitAction(node);
  return size;
}

// --- structure --------------------------------------------------------------

Result<Oid> TxnCtx::Component(Oid tuple, const std::string& name) {
  return store_->Component(tuple, name);
}

Result<Value> TxnCtx::GetField(Oid tuple, const std::string& name) {
  SEMCC_ASSIGN_OR_RETURN(Oid comp, Component(tuple, name));
  return Get(comp);
}

Status TxnCtx::PutField(Oid tuple, const std::string& name, const Value& v) {
  SEMCC_ASSIGN_OR_RETURN(Oid comp, Component(tuple, name));
  return Put(comp, v);
}

Result<Oid> TxnCtx::CreateAtomic(TypeId type, const Value& initial) {
  if (snapshot_mode()) {
    return Status::PreconditionFailed("Create in snapshot-read transaction");
  }
  // A creating tree forces its commit: the create's redo record must be
  // stable when the commit returns.
  LogBegin();
  SEMCC_ASSIGN_OR_RETURN(Oid oid, store_->CreateAtomic(type, initial));
  // Creation needs no lock: the new object is unreachable by other
  // transactions until linked into a locked set. The enclosing method's
  // semantic inverse destroys it; no per-leaf undo node is recorded.
  return oid;
}

Result<Oid> TxnCtx::CreateTuple(
    TypeId type, std::vector<std::pair<std::string, Oid>> components) {
  if (snapshot_mode()) {
    return Status::PreconditionFailed("Create in snapshot-read transaction");
  }
  LogBegin();
  return store_->CreateTuple(type, std::move(components));
}

// --- compensation -----------------------------------------------------------

void TxnCtx::Rollback() {
  in_compensation_ = true;
  SubTxn* saved = current_;
  current_ = tree_->root();
  Compensate(tree_->root());
  current_ = saved;
  in_compensation_ = false;
}

void TxnCtx::Compensate(SubTxn* node) {
  std::vector<SubTxn*> children = node->Children();
  for (auto it = children.rbegin(); it != children.rend(); ++it) {
    SubTxn* child = *it;
    if (child->compensation()) continue;  // never compensate compensations
    if (child->committed() && child->undo.kind != Undo::Kind::kNone) {
      RunUndo(child);
    } else {
      // Read-only or structural (recurse in case update leaves hide below),
      // or aborted mid-flight: compensate whatever committed beneath it.
      Compensate(child);
    }
  }
}

void TxnCtx::RunUndo(SubTxn* node) {
  const Undo& undo = node->undo;
  const Oid obj = node->object();
  Status st;
  switch (undo.kind) {
    case Undo::Kind::kNone:
      return;
    case Undo::Kind::kInverse:
      st = undo.method->inverse(*this, obj, node->args(), undo.value);
      if (!st.ok()) {
        SEMCC_LOG(Error) << "compensation of " << undo.method->name
                         << " failed: " << st.ToString();
      }
      break;
    case Undo::Kind::kPut:
      st = Put(obj, undo.value);
      if (!st.ok()) {
        SEMCC_LOG(Error) << "leaf undo Put failed: " << st.ToString();
      }
      break;
    case Undo::Kind::kSetInsert:
      st = SetRemove(obj, node->args()[0]);
      if (!st.ok()) {
        SEMCC_LOG(Error) << "leaf undo SetRemove failed: " << st.ToString();
      }
      break;
    case Undo::Kind::kSetRemove:
      st = SetInsert(obj, node->args()[0], undo.member);
      if (!st.ok()) {
        SEMCC_LOG(Error) << "leaf undo SetInsert failed: " << st.ToString();
      }
      break;
  }
  if (!st.ok()) ++compensation_failures_;
}

}  // namespace semcc

#include "object/object_store.h"

#include <cstring>

#include "util/logging.h"

namespace semcc {

ObjectStore::ObjectStore(Schema* schema, RecordManager* records)
    : schema_(schema), records_(records) {
  // Oid 0 = the database root object (no storage record needed).
  auto root = std::make_unique<ObjectMeta>();
  root->type = Schema::kDatabaseTypeId;
  root->kind = ObjectKind::kTuple;
  WriterMutexLock guard(meta_mu_);
  SEMCC_CHECK(Append(std::move(root)).ok());
}

ObjectStore::~ObjectStore() {
  const uint64_t size = size_.load(std::memory_order_acquire);
  for (Oid oid = 0; oid < size; ++oid) delete Slot(oid);
  for (std::atomic<Chunk*>& chunk : chunks_) {
    delete chunk.load(std::memory_order_acquire);
  }
}

ObjectStore::ObjectMeta* ObjectStore::Slot(Oid oid) const {
  // The acquire load of size_ pairs with the release store that published
  // it, after the chunk pointer and the slot: both are visible here. The
  // slot load is acquire too, because a restore may replace a pad in place.
  if (oid >= size_.load(std::memory_order_acquire)) return nullptr;
  const Chunk* chunk =
      chunks_[oid >> kChunkBits].load(std::memory_order_acquire);
  return (*chunk)[oid & (kChunkSize - 1)].load(std::memory_order_acquire);
}

Result<ObjectStore::ObjectMeta*> ObjectStore::Find(Oid oid) const {
  ObjectMeta* meta = Slot(oid);
  if (meta == nullptr) return Status::NotFound("unknown oid");
  if (meta->destroyed.load(std::memory_order_acquire)) {
    return Status::NotFound("object destroyed");
  }
  return meta;
}

Result<ObjectStore::ObjectMeta*> ObjectStore::FindOfKind(
    Oid oid, ObjectKind kind) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  if (meta->kind != kind) {
    return Status::InvalidArgument(std::string("object is not ") +
                                   ObjectKindName(kind));
  }
  return meta;
}

void ObjectStore::SetSlot(Oid oid, ObjectMeta* meta) {
  std::atomic<Chunk*>& chunk_ptr = chunks_[oid >> kChunkBits];
  Chunk* chunk = chunk_ptr.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunk_ptr.store(chunk, std::memory_order_release);
  }
  (*chunk)[oid & (kChunkSize - 1)].store(meta, std::memory_order_release);
}

Status ObjectStore::DirectoryFull(const Rid& rid) {
  if (rid.valid()) SEMCC_RETURN_NOT_OK(records_->Delete(rid));
  return Status::OutOfSpace("object directory full");
}

Result<ObjectStore::ObjectMeta*> ObjectStore::Append(
    std::unique_ptr<ObjectMeta> meta) {
  const Oid oid = size_.load(std::memory_order_acquire);
  if (oid >= kMaxObjects) return DirectoryFull(meta->rid);
  meta->oid = oid;
  ObjectMeta* published = meta.release();
  SetSlot(oid, published);
  size_.store(oid + 1, std::memory_order_release);
  return published;
}

Result<Oid> ObjectStore::CreateAtomic(TypeId type, const Value& initial) {
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(initial.Serialize()));
  WriterMutexLock guard(meta_mu_);
  auto meta = std::make_unique<ObjectMeta>();
  meta->type = type;
  meta->kind = ObjectKind::kAtomic;
  meta->rid = rid;
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * published, Append(std::move(meta)));
  const Oid oid = published->oid;
  if (listener_ != nullptr) listener_->OnCreateAtomic(oid, type, initial);
  return oid;
}

Result<Oid> ObjectStore::CreateTuple(
    TypeId type, std::vector<std::pair<std::string, Oid>> components) {
  SEMCC_ASSIGN_OR_RETURN(TypeDescriptor desc, schema_->Get(type));
  if (desc.kind != ObjectKind::kTuple) {
    return Status::InvalidArgument("type is not a tuple type: " + desc.name);
  }
  if (desc.components.size() != components.size()) {
    return Status::InvalidArgument("component count mismatch for " + desc.name);
  }
  // Serialize the (immutable) structure: component oids in type order.
  std::string record;
  for (const ComponentDef& def : desc.components) {
    const std::pair<std::string, Oid>* found = nullptr;
    for (const auto& given : components) {
      if (given.first == def.name) {
        found = &given;
        break;
      }
    }
    if (found == nullptr) {
      return Status::InvalidArgument("missing component " + def.name);
    }
    record.append(reinterpret_cast<const char*>(&found->second), sizeof(Oid));
  }
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(record));
  WriterMutexLock guard(meta_mu_);
  auto meta = std::make_unique<ObjectMeta>();
  meta->type = type;
  meta->kind = ObjectKind::kTuple;
  meta->rid = rid;
  meta->components = std::move(components);
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * published, Append(std::move(meta)));
  const Oid oid = published->oid;
  if (listener_ != nullptr) {
    listener_->OnCreateTuple(oid, type, published->components);
  }
  return oid;
}

Result<Oid> ObjectStore::CreateSet(TypeId type) {
  SEMCC_ASSIGN_OR_RETURN(TypeDescriptor desc, schema_->Get(type));
  if (desc.kind != ObjectKind::kSet) {
    return Status::InvalidArgument("type is not a set type: " + desc.name);
  }
  uint64_t count = 0;
  std::string stub(reinterpret_cast<const char*>(&count), sizeof(count));
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(stub));
  WriterMutexLock guard(meta_mu_);
  auto meta = std::make_unique<ObjectMeta>();
  meta->type = type;
  meta->kind = ObjectKind::kSet;
  meta->rid = rid;
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * published, Append(std::move(meta)));
  const Oid oid = published->oid;
  if (listener_ != nullptr) listener_->OnCreateSet(oid, type);
  return oid;
}

Status ObjectStore::Destroy(Oid oid) {
  // Writer meta_mu_ across delete + mark + log: the checkpoint dump holds
  // the reader lock for its whole scan, so a destroy can never interleave
  // with a dump (the dump would read the deleted record), and the destroy's
  // log position matches its apply position.
  WriterMutexLock guard(meta_mu_);
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  if (meta->rid.valid()) {
    SEMCC_RETURN_NOT_OK(records_->Delete(meta->rid));
  }
  meta->destroyed.store(true, std::memory_order_release);
  if (listener_ != nullptr) listener_->OnDestroy(oid);
  return Status::OK();
}

Result<Value> ObjectStore::Get(Oid oid) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(oid, ObjectKind::kAtomic));
  SEMCC_ASSIGN_OR_RETURN(std::string bytes, records_->Read(meta->rid));
  return Value::Deserialize(bytes);
}

Status ObjectStore::Put(Oid oid, const Value& value) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(oid, ObjectKind::kAtomic));
  // Per-object apply+log atomicity (set_mu doubles as the object latch for
  // atoms): the checkpoint dump reads the record and logs its restore under
  // the same lock, so per object the log order always equals the apply
  // order — the property the in-checkpoint-region replay tolerance relies
  // on.
  MutexLock obj(meta->set_mu);
  SEMCC_RETURN_NOT_OK(records_->Update(meta->rid, value.Serialize()));
  if (listener_ != nullptr) listener_->OnPut(oid, value);
  return Status::OK();
}

Result<Oid> ObjectStore::Component(Oid tuple, const std::string& name) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(tuple, ObjectKind::kTuple));
  for (const auto& [cname, coid] : meta->components) {
    if (cname == name) return coid;
  }
  return Status::NotFound("no component " + name + " in " +
                          schema_->TypeName(meta->type));
}

Result<std::vector<std::pair<std::string, Oid>>> ObjectStore::Components(
    Oid tuple) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(tuple, ObjectKind::kTuple));
  return meta->components;
}

Status ObjectStore::RewriteSetStub(ObjectMeta* meta) {
  const uint64_t count = meta->members.size();
  std::string stub(reinterpret_cast<const char*>(&count), sizeof(count));
  return records_->Update(meta->rid, stub);
}

Status ObjectStore::SetInsert(Oid set, const Value& key, Oid member) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  if (meta->members.count(key) > 0) {
    return Status::AlreadyExists("duplicate key " + key.ToString());
  }
  meta->members[key] = member;
  SEMCC_RETURN_NOT_OK(RewriteSetStub(meta));
  if (listener_ != nullptr) listener_->OnSetInsert(set, key, member);
  return Status::OK();
}

Status ObjectStore::SetRemove(Oid set, const Value& key) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  auto it = meta->members.find(key);
  if (it == meta->members.end()) {
    return Status::NotFound("no member with key " + key.ToString());
  }
  const Oid member = it->second;
  meta->members.erase(it);
  SEMCC_RETURN_NOT_OK(RewriteSetStub(meta));
  if (listener_ != nullptr) listener_->OnSetRemove(set, key, member);
  return Status::OK();
}

Result<Oid> ObjectStore::SetSelect(Oid set, const Value& key) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  auto it = meta->members.find(key);
  if (it == meta->members.end()) {
    return Status::NotFound("no member with key " + key.ToString());
  }
  return it->second;
}

Result<std::vector<std::pair<Value, Oid>>> ObjectStore::SetScan(Oid set) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  std::vector<std::pair<Value, Oid>> out;
  out.reserve(meta->members.size());
  for (const auto& [k, v] : meta->members) out.emplace_back(k, v);
  return out;
}

Result<size_t> ObjectStore::SetSize(Oid set) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  return meta->members.size();
}

Result<ObjectStore::ObjectMeta*> ObjectStore::EmplaceAt(
    Oid oid, std::unique_ptr<ObjectMeta> meta) {
  if (oid >= kMaxObjects) return DirectoryFull(meta->rid);
  const Oid size = size_.load(std::memory_order_acquire);
  if (oid < size) {
    ObjectMeta* pad = Slot(oid);
    if (!pad->destroyed.load(std::memory_order_acquire)) {
      return Status::AlreadyExists("oid already live: " + std::to_string(oid));
    }
    // A lookup that raced this restore may still hold the pad.
    replaced_.emplace_back(pad);
    ObjectMeta* published = meta.release();
    SetSlot(oid, published);
    return published;
  }
  for (Oid gap = size; gap < oid; ++gap) {
    auto pad = std::make_unique<ObjectMeta>();
    pad->oid = gap;
    pad->destroyed.store(true, std::memory_order_release);
    SetSlot(gap, pad.release());
  }
  ObjectMeta* published = meta.release();
  SetSlot(oid, published);
  size_.store(oid + 1, std::memory_order_release);
  return published;
}

Status ObjectStore::RestoreAtomic(Oid oid, TypeId type, const Value& initial) {
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(initial.Serialize()));
  {
    WriterMutexLock guard(meta_mu_);
    auto meta = std::make_unique<ObjectMeta>();
    meta->oid = oid;
    meta->type = type;
    meta->kind = ObjectKind::kAtomic;
    meta->rid = rid;
    SEMCC_RETURN_NOT_OK(EmplaceAt(oid, std::move(meta)).status());
  }
  if (listener_ != nullptr) listener_->OnCreateAtomic(oid, type, initial);
  return Status::OK();
}

Status ObjectStore::RestoreTuple(
    Oid oid, TypeId type, std::vector<std::pair<std::string, Oid>> components) {
  std::string record;
  for (const auto& [name, coid] : components) {
    (void)name;
    record.append(reinterpret_cast<const char*>(&coid), sizeof(Oid));
  }
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(record));
  ObjectMeta* published = nullptr;
  {
    WriterMutexLock guard(meta_mu_);
    auto meta = std::make_unique<ObjectMeta>();
    meta->oid = oid;
    meta->type = type;
    meta->kind = ObjectKind::kTuple;
    meta->rid = rid;
    meta->components = std::move(components);
    SEMCC_ASSIGN_OR_RETURN(published, EmplaceAt(oid, std::move(meta)));
  }
  if (listener_ != nullptr) {
    listener_->OnCreateTuple(oid, type, published->components);
  }
  return Status::OK();
}

Status ObjectStore::RestoreSet(Oid oid, TypeId type) {
  uint64_t count = 0;
  std::string stub(reinterpret_cast<const char*>(&count), sizeof(count));
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(stub));
  {
    WriterMutexLock guard(meta_mu_);
    auto meta = std::make_unique<ObjectMeta>();
    meta->oid = oid;
    meta->type = type;
    meta->kind = ObjectKind::kSet;
    meta->rid = rid;
    SEMCC_RETURN_NOT_OK(EmplaceAt(oid, std::move(meta)).status());
  }
  if (listener_ != nullptr) listener_->OnCreateSet(oid, type);
  return Status::OK();
}

Status ObjectStore::DumpForCheckpoint() {
  if (listener_ == nullptr) return Status::OK();
  // Reader meta_mu_ for the whole scan: value writes and set mutations on
  // existing objects proceed (they hold only the per-object set_mu), but
  // creates and destroys — structure changes — wait for the dump. That is
  // the "fuzzy" granularity: per object, never globally consistent.
  ReaderMutexLock guard(meta_mu_);
  const Oid size = size_.load(std::memory_order_acquire);
  for (Oid oid = 1; oid < size; ++oid) {
    ObjectMeta* meta = Slot(oid);
    if (meta->destroyed.load(std::memory_order_acquire)) continue;
    switch (meta->kind) {
      case ObjectKind::kAtomic: {
        // Read + log under the object latch, mirroring Put: the restore
        // record lands in the log at a position consistent with every
        // concurrent write to this object.
        MutexLock obj(meta->set_mu);
        SEMCC_ASSIGN_OR_RETURN(std::string bytes, records_->Read(meta->rid));
        SEMCC_ASSIGN_OR_RETURN(Value value, Value::Deserialize(bytes));
        listener_->OnCreateAtomic(oid, meta->type, value);
        break;
      }
      case ObjectKind::kTuple:
        // Structure is immutable after creation; no latch needed.
        listener_->OnCreateTuple(oid, meta->type, meta->components);
        break;
      case ObjectKind::kSet: {
        MutexLock obj(meta->set_mu);
        listener_->OnCreateSet(oid, meta->type);
        for (const auto& [key, member] : meta->members) {
          listener_->OnSetInsert(oid, key, member);
        }
        break;
      }
    }
  }
  // Destroyed objects are skipped (EmplaceAt pads the gaps at replay), but
  // a destroyed *last* oid would silently shrink the replayed oid space and
  // let a post-restart create reuse its oid while retained log records
  // still name it. Pin the end with a placeholder create + destroy.
  const Oid last = size - 1;
  if (last >= 1 && Slot(last)->destroyed.load(std::memory_order_acquire)) {
    listener_->OnCreateAtomic(last, Slot(last)->type, Value());
    listener_->OnDestroy(last);
  }
  return Status::OK();
}

Result<ObjectKind> ObjectStore::KindOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  return meta->kind;
}

Result<TypeId> ObjectStore::TypeOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  return meta->type;
}

Result<Rid> ObjectStore::RidOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  if (!meta->rid.valid()) {
    return Status::NotFound("object has no storage record (database root?)");
  }
  return meta->rid;
}

Result<PageId> ObjectStore::PageOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(Rid rid, RidOf(oid));
  return rid.page_id;
}

uint64_t ObjectStore::num_objects() const {
  return size_.load(std::memory_order_acquire);
}

}  // namespace semcc

// ObjectStore: the live object graph, mapped onto storage records.
//
// Every atomic object's value lives in exactly one storage record, so the
// conventional baselines can lock the record (RID) or its page. Tuple
// structure is immutable after creation and serialized to a record; set
// membership is kept in memory with a small stub record that is rewritten on
// every mutation (so record/page-level protocols observe set updates as
// writes; a real system would use overflow chains, which are orthogonal to
// the concurrency-control question — see DESIGN.md).
#ifndef SEMCC_OBJECT_OBJECT_STORE_H_
#define SEMCC_OBJECT_OBJECT_STORE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "object/schema.h"
#include "object/value.h"
#include "storage/record_manager.h"
#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

/// \brief Observer of physical state changes, used by the write-ahead log.
///
/// Callbacks fire after the change succeeded, while the store still holds
/// the relevant internal lock, so the log order matches the apply order.
class StoreListener {
 public:
  virtual ~StoreListener() = default;
  virtual void OnCreateAtomic(Oid oid, TypeId type, const Value& initial) = 0;
  virtual void OnCreateTuple(
      Oid oid, TypeId type,
      const std::vector<std::pair<std::string, Oid>>& components) = 0;
  virtual void OnCreateSet(Oid oid, TypeId type) = 0;
  virtual void OnDestroy(Oid oid) = 0;
  virtual void OnPut(Oid oid, const Value& after) = 0;
  virtual void OnSetInsert(Oid set, const Value& key, Oid member) = 0;
  virtual void OnSetRemove(Oid set, const Value& key, Oid member) = 0;
};

/// \brief The object graph of one database instance.
///
/// Thread safety: all operations are physically thread-safe (latches only).
/// Transactional isolation is the lock manager's job, one layer up.
///
/// Lookups take no lock. The oid directory is a fixed array of atomic
/// pointers to fixed-size chunks of atomic meta pointers, plus an atomic
/// size; a writer fills a meta, stores it and then the size with release,
/// and a reader that loads the size with acquire sees every slot below it.
/// `meta_mu_` is the writers' lock only: creates, destroys, restores and
/// the checkpoint dump exclude each other under it. A published meta is
/// never freed before the store dies (a restore that replaces a destroyed
/// pad keeps the pad), so a reader may hold its pointer without a lock.
class ObjectStore {
 public:
  ObjectStore(Schema* schema, RecordManager* records);
  ~ObjectStore();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(ObjectStore);

  /// Attach/detach the physical-change observer (WAL). Not thread-safe with
  /// respect to concurrent mutations; set during wiring.
  void SetListener(StoreListener* listener) { listener_ = listener; }

  // --- creation ---------------------------------------------------------

  Result<Oid> CreateAtomic(TypeId type, const Value& initial);
  /// `components` must match the tuple type's component list by name.
  Result<Oid> CreateTuple(TypeId type,
                          std::vector<std::pair<std::string, Oid>> components);
  Result<Oid> CreateSet(TypeId type);

  /// Physically destroy an object (used by compensation of object-creating
  /// methods). Atomic/tuple/set records are tombstoned.
  Status Destroy(Oid oid);

  // --- log-replay restoration (recovery) ---------------------------------
  //
  // Recreate an object under its ORIGINAL oid. Oid slots between the current
  // end and `oid` are padded with destroyed placeholders; replaying a log in
  // LSN order therefore reproduces the exact oid space. Listener callbacks
  // still fire (the new database's log receives the compacted history).

  Status RestoreAtomic(Oid oid, TypeId type, const Value& initial);
  Status RestoreTuple(Oid oid, TypeId type,
                      std::vector<std::pair<std::string, Oid>> components);
  Status RestoreSet(Oid oid, TypeId type);

  /// Emit the live object graph to the listener as restore records — the
  /// body of an online fuzzy checkpoint. Holds the reader meta lock for the
  /// whole scan (creates/destroys wait; value and set writes proceed) and
  /// each object's own latch while reading + logging it, so per object the
  /// dumped state is consistent and its log position matches apply order.
  Status DumpForCheckpoint() SEMCC_EXCLUDES(meta_mu_);

  // --- atomic objects (generic methods Get / Put, paper §2.2) -----------

  Result<Value> Get(Oid oid);
  Status Put(Oid oid, const Value& value);

  // --- tuple objects (component selection t.c) --------------------------

  Result<Oid> Component(Oid tuple, const std::string& name);
  Result<std::vector<std::pair<std::string, Oid>>> Components(Oid tuple);

  // --- set objects (generic method Select, plus Insert/Remove) ----------

  Status SetInsert(Oid set, const Value& key, Oid member);
  Status SetRemove(Oid set, const Value& key);
  Result<Oid> SetSelect(Oid set, const Value& key);
  Result<std::vector<std::pair<Value, Oid>>> SetScan(Oid set);
  Result<size_t> SetSize(Oid set);

  // --- reflection --------------------------------------------------------

  Result<ObjectKind> KindOf(Oid oid) const;
  Result<TypeId> TypeOf(Oid oid) const;
  /// Storage record backing the object (atom value / tuple structure / set
  /// stub). Used by record- and page-granularity locking.
  Result<Rid> RidOf(Oid oid) const;
  Result<PageId> PageOf(Oid oid) const;

  uint64_t num_objects() const;

  Schema* schema() const { return schema_; }

  /// Oids the directory can hold: kMaxChunks chunks of kChunkSize slots.
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 4096;
  static constexpr uint64_t kMaxObjects = kChunkSize * kMaxChunks;

 private:
  /// Every field but `destroyed` and `members` is immutable once the meta
  /// is published in the directory.
  struct ObjectMeta {
    Oid oid = kInvalidOid;
    TypeId type = kInvalidTypeId;
    ObjectKind kind = ObjectKind::kAtomic;
    Rid rid;
    /// Set once, by Destroy under meta_mu_; read by lookups without a lock.
    std::atomic<bool> destroyed{false};
    // Tuple: immutable after creation.
    std::vector<std::pair<std::string, Oid>> components;
    // Per-object latch: guards `members` for sets, and serializes
    // apply+log (Put / checkpoint-dump read) for atoms so the log order
    // matches the apply order per object.
    mutable Mutex set_mu;
    std::map<Value, Oid> members SEMCC_GUARDED_BY(set_mu);
  };

  using Chunk = std::array<std::atomic<ObjectMeta*>, kChunkSize>;

  /// The meta at `oid`, or nullptr past the end. Takes no lock.
  ObjectMeta* Slot(Oid oid) const;
  Result<ObjectMeta*> Find(Oid oid) const;
  Result<ObjectMeta*> FindOfKind(Oid oid, ObjectKind kind) const;
  Status RewriteSetStub(ObjectMeta* meta)
      SEMCC_REQUIRES(meta->set_mu);
  /// Store `meta` in slot `oid`, allocating its chunk on first use. Does
  /// not move the size; the caller publishes it afterwards.
  void SetSlot(Oid oid, ObjectMeta* meta) SEMCC_REQUIRES(meta_mu_);
  /// Publish `meta` at the next oid (a create).
  Result<ObjectMeta*> Append(std::unique_ptr<ObjectMeta> meta)
      SEMCC_REQUIRES(meta_mu_);
  /// Publish `meta` at `oid`, padding the oids between the current end and
  /// `oid` with destroyed placeholders (a restore).
  Result<ObjectMeta*> EmplaceAt(Oid oid, std::unique_ptr<ObjectMeta> meta)
      SEMCC_REQUIRES(meta_mu_);
  /// Free the record of a meta that found no directory slot.
  Status DirectoryFull(const Rid& rid);

  Schema* const schema_;
  RecordManager* const records_;
  StoreListener* listener_ = nullptr;

  /// Writers' lock: serializes creates, destroys and restores, and keeps
  /// them out of a checkpoint dump. Lookups never take it.
  mutable SharedMutex meta_mu_;
  /// The directory. Slots below size_ each own one meta.
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<uint64_t> size_{0};
  /// Destroyed pads that a restore replaced; a reader may still hold one.
  std::vector<std::unique_ptr<ObjectMeta>> replaced_ SEMCC_GUARDED_BY(meta_mu_);
};

}  // namespace semcc

#endif  // SEMCC_OBJECT_OBJECT_STORE_H_

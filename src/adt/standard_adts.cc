#include "adt/standard_adts.h"

#include "cc/compatibility.h"

namespace semcc {
namespace adt {

namespace {

Result<TypeId> NumberType(Database* db) {
  auto existing = db->schema()->GetByName("Number");
  if (existing.ok()) return existing.ValueOrDie().id;
  return db->schema()->DefineAtomicType("Number");
}

Result<Value> CounterAdd(TxnCtx& ctx, Oid self, int64_t delta) {
  SEMCC_ASSIGN_OR_RETURN(Oid cell, ctx.Component(self, "ValueOf"));
  SEMCC_ASSIGN_OR_RETURN(Value v, ctx.Get(cell));
  SEMCC_RETURN_NOT_OK(ctx.Put(cell, Value(v.AsInt() + delta)));
  return Value(v.AsInt() + delta);
}

}  // namespace

Result<CounterType> InstallCounter(Database* db) {
  CounterType t;
  auto existing = db->schema()->GetByName("Counter");
  if (existing.ok()) {
    // Already installed (e.g. by a previous InstallQueue).
    t.counter = existing.ValueOrDie().id;
    SEMCC_ASSIGN_OR_RETURN(t.number, NumberType(db));
    return t;
  }
  SEMCC_ASSIGN_OR_RETURN(t.number, NumberType(db));
  SEMCC_ASSIGN_OR_RETURN(
      t.counter, db->schema()->DefineTupleType("Counter",
                                               {{"ValueOf", t.number}},
                                               /*encapsulated=*/true));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.counter, "Increment", /*read_only=*/false,
       [](TxnCtx& ctx, Oid self, const Args& a) -> Result<Value> {
         if (a.size() != 1) return Status::InvalidArgument("Increment(n)");
         SEMCC_ASSIGN_OR_RETURN(Value v, CounterAdd(ctx, self, a[0].AsInt()));
         (void)v;
         return Value();
       },
       [](TxnCtx& ctx, Oid self, const Args& a, const Value&) -> Status {
         auto r = ctx.Invoke(self, "Decrement", {a[0]});
         return r.ok() ? Status::OK() : r.status();
       }}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.counter, "Decrement", false,
       [](TxnCtx& ctx, Oid self, const Args& a) -> Result<Value> {
         if (a.size() != 1) return Status::InvalidArgument("Decrement(n)");
         SEMCC_ASSIGN_OR_RETURN(Value v, CounterAdd(ctx, self, -a[0].AsInt()));
         (void)v;
         return Value();
       },
       [](TxnCtx& ctx, Oid self, const Args& a, const Value&) -> Status {
         auto r = ctx.Invoke(self, "Increment", {a[0]});
         return r.ok() ? Status::OK() : r.status();
       }}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.counter, "Next", false,
       [](TxnCtx& ctx, Oid self, const Args& a) -> Result<Value> {
         if (!a.empty()) return Status::InvalidArgument("Next()");
         return CounterAdd(ctx, self, 1);
       },
       [](TxnCtx& ctx, Oid self, const Args&, const Value&) -> Status {
         auto r = ctx.Invoke(self, "Decrement", {Value(1)});
         return r.ok() ? Status::OK() : r.status();
       }}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.counter, "Read", true,
       [](TxnCtx& ctx, Oid self, const Args&) -> Result<Value> {
         return ctx.GetField(self, "ValueOf");
       },
       nullptr}));

  CompatibilityRegistry* c = db->compat();
  // Blind additive updates commute; Next returns the value, so a Next pair
  // does NOT commute (the return values swap), and neither does Next with
  // the blind updates (its return value observes them).
  c->Define(t.counter, "Increment", "Increment", true);
  c->Define(t.counter, "Increment", "Decrement", true);
  c->Define(t.counter, "Decrement", "Decrement", true);
  c->Define(t.counter, "Next", "Next", false);
  c->Define(t.counter, "Next", "Increment", false);
  c->Define(t.counter, "Next", "Decrement", false);
  c->Define(t.counter, "Read", "Read", true);
  c->Define(t.counter, "Read", "Increment", false);
  c->Define(t.counter, "Read", "Decrement", false);
  c->Define(t.counter, "Read", "Next", false);
  return t;
}

Result<Oid> NewCounter(Database* db, const CounterType& t, int64_t initial) {
  SEMCC_ASSIGN_OR_RETURN(Oid cell,
                         db->store()->CreateAtomic(t.number, Value(initial)));
  return db->store()->CreateTuple(t.counter, {{"ValueOf", cell}});
}

Result<QueueType> InstallQueue(Database* db) {
  QueueType t;
  SEMCC_ASSIGN_OR_RETURN(t.counter, InstallCounter(db));
  SEMCC_ASSIGN_OR_RETURN(t.entries_set,
                         db->schema()->DefineSetType("QueueEntries",
                                                     t.counter.number, "pos"));
  SEMCC_ASSIGN_OR_RETURN(
      t.queue, db->schema()->DefineTupleType(
                   "Queue",
                   {{"Tail", t.counter.counter}, {"Entries", t.entries_set}},
                   /*encapsulated=*/true));
  const TypeId number = t.counter.number;
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.queue, "Enqueue", /*read_only=*/false,
       [number](TxnCtx& ctx, Oid self, const Args& a) -> Result<Value> {
         if (a.size() != 1) return Status::InvalidArgument("Enqueue(v)");
         // An ADT built from another ADT: obtain the position by invoking a
         // method on the tail Counter. Two concurrent Enqueues conflict
         // *here* (Next/Next), but the Queue-level commutativity of Enqueue
         // relieves the conflict via Case 2 / Case 1.
         SEMCC_ASSIGN_OR_RETURN(Oid tail, ctx.Component(self, "Tail"));
         SEMCC_ASSIGN_OR_RETURN(Value pos, ctx.Invoke(tail, "Next", {}));
         SEMCC_ASSIGN_OR_RETURN(Oid entry, ctx.CreateAtomic(number, a[0]));
         SEMCC_ASSIGN_OR_RETURN(Oid entries, ctx.Component(self, "Entries"));
         SEMCC_RETURN_NOT_OK(ctx.SetInsert(entries, pos, entry));
         return pos;
       },
       [](TxnCtx& ctx, Oid self, const Args&, const Value& result) -> Status {
         // Remove the enqueued element again; the tail gap is harmless
         // because Dequeue scans for the minimum position.
         SEMCC_ASSIGN_OR_RETURN(Oid entries, ctx.Component(self, "Entries"));
         SEMCC_ASSIGN_OR_RETURN(Oid entry, ctx.SetSelect(entries, result));
         SEMCC_RETURN_NOT_OK(ctx.SetRemove(entries, result));
         return ctx.store()->Destroy(entry);
       }}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.queue, "Dequeue", false,
       [](TxnCtx& ctx, Oid self, const Args& a) -> Result<Value> {
         if (!a.empty()) return Status::InvalidArgument("Dequeue()");
         SEMCC_ASSIGN_OR_RETURN(Oid entries, ctx.Component(self, "Entries"));
         SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(entries));
         if (members.empty()) {
           return Status::PreconditionFailed("queue is empty");
         }
         const auto& [pos, entry] = members.front();  // min position
         SEMCC_ASSIGN_OR_RETURN(Value v, ctx.Get(entry));
         SEMCC_RETURN_NOT_OK(ctx.SetRemove(entries, pos));
         SEMCC_RETURN_NOT_OK(ctx.store()->Destroy(entry));
         return v;
       },
       [number](TxnCtx& ctx, Oid self, const Args&, const Value& result)
           -> Status {
         // Put the element back at the FRONT: re-inserting below every live
         // position restores observable FIFO order. Holes are fine.
         SEMCC_ASSIGN_OR_RETURN(Oid entries, ctx.Component(self, "Entries"));
         SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(entries));
         int64_t front = members.empty() ? 0 : members.front().first.AsInt();
         SEMCC_ASSIGN_OR_RETURN(Oid entry, ctx.CreateAtomic(number, result));
         return ctx.SetInsert(entries, Value(front - 1), entry);
       }}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.queue, "Size", true,
       [](TxnCtx& ctx, Oid self, const Args&) -> Result<Value> {
         SEMCC_ASSIGN_OR_RETURN(Oid entries, ctx.Component(self, "Entries"));
         SEMCC_ASSIGN_OR_RETURN(size_t n, ctx.SetSize(entries));
         return Value(static_cast<int64_t>(n));
       },
       nullptr}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.queue, "Front", true,
       [](TxnCtx& ctx, Oid self, const Args&) -> Result<Value> {
         SEMCC_ASSIGN_OR_RETURN(Oid entries, ctx.Component(self, "Entries"));
         SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(entries));
         if (members.empty()) return Status::PreconditionFailed("queue is empty");
         return ctx.Get(members.front().second);
       },
       nullptr}));

  CompatibilityRegistry* c = db->compat();
  // Paper §1.1: "enqueueing the same item by two concurrent transactions is
  // not a conflict because the order of these updates is insignificant".
  c->Define(t.queue, "Enqueue", "Enqueue", true);
  c->Define(t.queue, "Enqueue", "Dequeue", false);
  c->Define(t.queue, "Dequeue", "Dequeue", false);
  c->Define(t.queue, "Size", "Size", true);
  c->Define(t.queue, "Size", "Front", true);
  c->Define(t.queue, "Front", "Front", true);
  c->Define(t.queue, "Size", "Enqueue", false);
  c->Define(t.queue, "Size", "Dequeue", false);
  c->Define(t.queue, "Front", "Enqueue", false);
  c->Define(t.queue, "Front", "Dequeue", false);
  return t;
}

Result<Oid> NewQueue(Database* db, const QueueType& t) {
  SEMCC_ASSIGN_OR_RETURN(Oid tail, NewCounter(db, t.counter, 0));
  SEMCC_ASSIGN_OR_RETURN(Oid entries, db->store()->CreateSet(t.entries_set));
  return db->store()->CreateTuple(t.queue,
                                  {{"Tail", tail}, {"Entries", entries}});
}

}  // namespace adt
}  // namespace semcc

#include "app/orderentry/order_entry.h"
#include <chrono>
#include <thread>

#include "cc/compatibility.h"
#include "util/random.h"

namespace semcc {
namespace orderentry {

int64_t EventBit(const std::string& event) {
  if (event == kShipped) return kEventShippedBit;
  if (event == kPaid) return kEventPaidBit;
  return 0;
}

namespace {

// ---- method bodies ---------------------------------------------------------

Result<Value> NewOrderBody(TxnCtx& ctx, Oid self, const Args& args,
                           const OrderEntryTypes& t) {
  // args[2], when present, is a lower bound on the OrderNo about to be
  // allocated. The refined Item matrix lets this call commute with
  // ShipOrder/PayOrder of every order below the hint (InstallItemMatrix),
  // so the bound must hold: a hint above the allocated number fails here,
  // before anything is written.
  const bool hinted = args.size() == 3;
  if ((args.size() != 2 && !hinted) ||
      (hinted && args[2].type() != Value::Type::kInt)) {
    return Status::InvalidArgument("NewOrder(cust, qty[, order_no_hint])");
  }
  const int64_t customer = args[0].AsInt();
  const int64_t quantity = args[1].AsInt();
  SEMCC_ASSIGN_OR_RETURN(Oid next, ctx.Component(self, "NextOrderNo"));
  SEMCC_ASSIGN_OR_RETURN(Value cur, ctx.Get(next));
  const int64_t order_no = cur.AsInt() + 1;
  if (hinted && order_no < args[2].AsInt()) {
    return Status::InvalidArgument(
        "NewOrder: order_no_hint " + std::to_string(args[2].AsInt()) +
        " is above the allocated OrderNo " + std::to_string(order_no));
  }
  SEMCC_RETURN_NOT_OK(ctx.Put(next, Value(order_no)));

  SEMCC_ASSIGN_OR_RETURN(Oid ono_a, ctx.CreateAtomic(t.number, Value(order_no)));
  SEMCC_ASSIGN_OR_RETURN(Oid cust_a, ctx.CreateAtomic(t.number, Value(customer)));
  SEMCC_ASSIGN_OR_RETURN(Oid qty_a, ctx.CreateAtomic(t.number, Value(quantity)));
  SEMCC_ASSIGN_OR_RETURN(Oid status_a,
                         ctx.CreateAtomic(t.number, Value(int64_t{0})));
  SEMCC_ASSIGN_OR_RETURN(
      Oid order, ctx.CreateTuple(t.order, {{"OrderNo", ono_a},
                                           {"CustomerNo", cust_a},
                                           {"Quantity", qty_a},
                                           {"Status", status_a}}));
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_RETURN_NOT_OK(ctx.SetInsert(orders, Value(order_no), order));
  return Value(order_no);
}

Status NewOrderInverse(TxnCtx& ctx, Oid self, const Args& /*args*/,
                       const Value& result) {
  // Compensate: take the order out again and destroy its objects.
  const int64_t order_no = result.AsInt();
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, Value(order_no)));
  SEMCC_RETURN_NOT_OK(ctx.SetRemove(orders, Value(order_no)));
  SEMCC_ASSIGN_OR_RETURN(auto components, ctx.store()->Components(order));
  for (const auto& [name, oid] : components) {
    (void)name;
    (void)ctx.store()->Destroy(oid);
  }
  return ctx.store()->Destroy(order);
}

Result<Value> ShipOrderBody(TxnCtx& ctx, Oid self, const Args& args) {
  if (args.size() != 1) return Status::InvalidArgument("ShipOrder(order_no)");
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, args[0]));
  // Record the shipment on the order, then update quantity-on-hand (this is
  // the action order of paper Figure 4).
  SEMCC_ASSIGN_OR_RETURN(Value done,
                         ctx.Invoke(order, "ChangeStatus", {Value(kShipped)}));
  (void)done;
  SEMCC_ASSIGN_OR_RETURN(Value qty, ctx.GetField(order, "Quantity"));
  SEMCC_ASSIGN_OR_RETURN(Value qoh, ctx.GetField(self, "QuantityOnHand"));
  SEMCC_RETURN_NOT_OK(
      ctx.PutField(self, "QuantityOnHand", Value(qoh.AsInt() - qty.AsInt())));
  return Value();
}

Status ShipOrderInverse(TxnCtx& ctx, Oid self, const Args& args,
                        const Value& /*result*/) {
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, args[0]));
  SEMCC_ASSIGN_OR_RETURN(Value qty, ctx.GetField(order, "Quantity"));
  SEMCC_ASSIGN_OR_RETURN(Value qoh, ctx.GetField(self, "QuantityOnHand"));
  SEMCC_RETURN_NOT_OK(
      ctx.PutField(self, "QuantityOnHand", Value(qoh.AsInt() + qty.AsInt())));
  auto r = ctx.Invoke(order, "UnchangeStatus", {Value(kShipped)});
  return r.ok() ? Status::OK() : r.status();
}

Result<Value> PayOrderBody(TxnCtx& ctx, Oid self, const Args& args) {
  if (args.size() != 1) return Status::InvalidArgument("PayOrder(order_no)");
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, args[0]));
  SEMCC_ASSIGN_OR_RETURN(Value done,
                         ctx.Invoke(order, "ChangeStatus", {Value(kPaid)}));
  (void)done;
  return Value();
}

Status PayOrderInverse(TxnCtx& ctx, Oid self, const Args& args,
                       const Value& /*result*/) {
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, args[0]));
  auto r = ctx.Invoke(order, "UnchangeStatus", {Value(kPaid)});
  return r.ok() ? Status::OK() : r.status();
}

Result<Value> TotalPaymentBody(TxnCtx& ctx, Oid self, const Args& args) {
  if (!args.empty()) return Status::InvalidArgument("TotalPayment()");
  SEMCC_ASSIGN_OR_RETURN(Value price, ctx.GetField(self, "Price"));
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(orders));
  int64_t total = 0;
  for (const auto& [order_no, order] : members) {
    (void)order_no;
    // BYPASS (paper footnote 4): read the order's status component directly
    // instead of invoking Order.TestStatus — "for efficiency reasons, or
    // because TotalPayment was implemented before TestStatus was added".
    SEMCC_ASSIGN_OR_RETURN(Value status, ctx.GetField(order, "Status"));
    if ((status.AsInt() & kEventPaidBit) != 0) {
      SEMCC_ASSIGN_OR_RETURN(Value qty, ctx.GetField(order, "Quantity"));
      total += price.AsInt() * qty.AsInt();
    }
  }
  return Value(total);
}

Result<Value> ChangeStatusBody(TxnCtx& ctx, Oid self, const Args& args) {
  if (args.size() != 1) return Status::InvalidArgument("ChangeStatus(event)");
  const int64_t bit = EventBit(args[0].AsString());
  if (bit == 0) return Status::InvalidArgument("unknown event");
  // Add the event to the status event set (a set: no ordering remembered —
  // this is why ChangeStatus commutes with itself, Figure 3).
  SEMCC_ASSIGN_OR_RETURN(Oid status, ctx.Component(self, "Status"));
  SEMCC_ASSIGN_OR_RETURN(Value cur, ctx.Get(status));
  SEMCC_RETURN_NOT_OK(ctx.Put(status, Value(cur.AsInt() | bit)));
  return Value();
}

Status ChangeStatusInverse(TxnCtx& ctx, Oid self, const Args& args,
                           const Value& /*result*/) {
  // Semantic compensation: remove the event again — run as a subtransaction
  // under the same protocol (paper §3). A physical restore of the old status
  // byte would wipe out commuting updates committed by other transactions in
  // the meantime.
  auto r = ctx.Invoke(self, "UnchangeStatus", {args[0]});
  return r.ok() ? Status::OK() : r.status();
}

Result<Value> UnchangeStatusBody(TxnCtx& ctx, Oid self, const Args& args) {
  if (args.size() != 1) return Status::InvalidArgument("UnchangeStatus(event)");
  const int64_t bit = EventBit(args[0].AsString());
  if (bit == 0) return Status::InvalidArgument("unknown event");
  SEMCC_ASSIGN_OR_RETURN(Oid status, ctx.Component(self, "Status"));
  SEMCC_ASSIGN_OR_RETURN(Value cur, ctx.Get(status));
  SEMCC_RETURN_NOT_OK(ctx.Put(status, Value(cur.AsInt() & ~bit)));
  return Value();
}

Status UnchangeStatusInverse(TxnCtx& ctx, Oid self, const Args& args,
                             const Value& /*result*/) {
  auto r = ctx.Invoke(self, "ChangeStatus", {args[0]});
  return r.ok() ? Status::OK() : r.status();
}

Result<Value> TestStatusBody(TxnCtx& ctx, Oid self, const Args& args) {
  if (args.size() != 1) return Status::InvalidArgument("TestStatus(event)");
  const int64_t bit = EventBit(args[0].AsString());
  if (bit == 0) return Status::InvalidArgument("unknown event");
  SEMCC_ASSIGN_OR_RETURN(Value cur, ctx.GetField(self, "Status"));
  return Value((cur.AsInt() & bit) != 0);
}

// ---- compatibility matrices ------------------------------------------------

void InstallItemMatrix(Database* db, TypeId item, const InstallOptions& opts) {
  CompatibilityRegistry* c = db->compat();
  for (const char* m : {"NewOrder", "ShipOrder", "PayOrder", "TotalPayment"}) {
    c->DeclareMethod(item, m);
  }
  // Paper Figure 2 (reconstructed; see DESIGN.md §2):
  //                NewOrder  ShipOrder  PayOrder  TotalPayment
  //  NewOrder        ok       conflict   conflict     ok
  //  ShipOrder     conflict   conflict     ok         ok
  //  PayOrder      conflict     ok       conflict   conflict
  //  TotalPayment    ok         ok       conflict     ok
  c->Define(item, "NewOrder", "NewOrder", true);
  c->Define(item, "NewOrder", "TotalPayment", true);
  if (opts.parameter_refined_item_matrix) {
    auto different_orders = [](const Args& a, const Args& b) {
      return !a.empty() && !b.empty() && !(a[0] == b[0]);
    };
    c->DefinePredicate(item, "ShipOrder", "ShipOrder", different_orders);
    c->DefinePredicate(item, "PayOrder", "PayOrder", different_orders);
    // NewOrder(c, q, h) allocates an OrderNo >= h (NewOrderBody enforces
    // the hint), so it touches no order below h and never reads
    // QuantityOnHand: it commutes with ShipOrder(k) and PayOrder(k) for
    // every k < h. Without an integer hint the Figure 2 conflict stands.
    auto below_hint = [](const Args& new_order, const Args& other) {
      return new_order.size() == 3 &&
             new_order[2].type() == Value::Type::kInt && !other.empty() &&
             other[0].type() == Value::Type::kInt &&
             other[0].AsInt() < new_order[2].AsInt();
    };
    c->DefinePredicate(item, "NewOrder", "ShipOrder", below_hint);
    c->DefinePredicate(item, "NewOrder", "PayOrder", below_hint);
  } else {
    c->Define(item, "NewOrder", "ShipOrder", false);
    c->Define(item, "NewOrder", "PayOrder", false);
    c->Define(item, "ShipOrder", "ShipOrder", false);
    c->Define(item, "PayOrder", "PayOrder", false);
  }
  // "We assume that the ordering of shipment and payment is irrelevant ...
  // hence ShipOrder and PayOrder are compatible methods" (paper §2.2).
  c->Define(item, "ShipOrder", "PayOrder", true);
  c->Define(item, "ShipOrder", "TotalPayment", true);
  c->Define(item, "PayOrder", "TotalPayment", false);
  c->Define(item, "TotalPayment", "TotalPayment", true);
}

void InstallOrderMatrix(Database* db, TypeId order) {
  CompatibilityRegistry* c = db->compat();
  for (const char* m : {"ChangeStatus", "TestStatus", "UnchangeStatus"}) {
    c->DeclareMethod(order, m);
  }
  auto different_events = [](const Args& a, const Args& b) {
    return !a.empty() && !b.empty() && !(a[0] == b[0]);
  };
  // Paper Figure 3: ChangeStatus commutes with itself ("adds another event
  // to a set of events"); ChangeStatus(e1) vs TestStatus(e2) conflict iff
  // e1 == e2; TestStatus pairs always commute.
  c->Define(order, "ChangeStatus", "ChangeStatus", true);
  c->DefinePredicate(order, "ChangeStatus", "TestStatus", different_events);
  c->Define(order, "TestStatus", "TestStatus", true);
  // UnchangeStatus (compensation) behaves like ChangeStatus.
  c->Define(order, "UnchangeStatus", "UnchangeStatus", true);
  c->Define(order, "UnchangeStatus", "ChangeStatus", true);
  c->DefinePredicate(order, "UnchangeStatus", "TestStatus", different_events);
}

}  // namespace

// ---- installation -----------------------------------------------------------

Result<OrderEntryTypes> Install(Database* db, InstallOptions opts) {
  OrderEntryTypes t;
  Schema* s = db->schema();
  SEMCC_ASSIGN_OR_RETURN(t.number, s->DefineAtomicType("Number"));
  SEMCC_ASSIGN_OR_RETURN(
      t.order, s->DefineTupleType("Order",
                                  {{"OrderNo", t.number},
                                   {"CustomerNo", t.number},
                                   {"Quantity", t.number},
                                   {"Status", t.number}},
                                  /*encapsulated=*/true));
  SEMCC_ASSIGN_OR_RETURN(t.orders_set,
                         s->DefineSetType("Orders", t.order, "OrderNo"));
  SEMCC_ASSIGN_OR_RETURN(
      t.item, s->DefineTupleType("Item",
                                 {{"ItemNo", t.number},
                                  {"Price", t.number},
                                  {"QuantityOnHand", t.number},
                                  {"NextOrderNo", t.number},
                                  {"Orders", t.orders_set}},
                                 /*encapsulated=*/true));
  SEMCC_ASSIGN_OR_RETURN(t.items_set, s->DefineSetType("Items", t.item, "ItemNo"));
  if (!opts.register_only) {
    SEMCC_ASSIGN_OR_RETURN(t.items, db->store()->CreateSet(t.items_set));
    SEMCC_RETURN_NOT_OK(db->SetNamedRoot("Items", t.items));
  }

  OrderEntryTypes bound = t;
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.item, "NewOrder", /*read_only=*/false,
       [bound](TxnCtx& ctx, Oid self, const Args& args) {
         return NewOrderBody(ctx, self, args, bound);
       },
       NewOrderInverse}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.item, "ShipOrder", false, ShipOrderBody, ShipOrderInverse}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.item, "PayOrder", false, PayOrderBody, PayOrderInverse}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.item, "TotalPayment", true, TotalPaymentBody, nullptr}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod(
      {t.order, "ChangeStatus", false, ChangeStatusBody, ChangeStatusInverse}));
  SEMCC_RETURN_NOT_OK(db->RegisterMethod({t.order, "UnchangeStatus", false,
                                          UnchangeStatusBody,
                                          UnchangeStatusInverse}));
  SEMCC_RETURN_NOT_OK(
      db->RegisterMethod({t.order, "TestStatus", true, TestStatusBody, nullptr}));

  InstallItemMatrix(db, t.item, opts);
  InstallOrderMatrix(db, t.order);
  return t;
}

Result<LoadedData> Load(Database* db, const OrderEntryTypes& types,
                        const LoadSpec& spec) {
  LoadedData data;
  ObjectStore* store = db->store();
  Random rng(spec.seed);
  for (int i = 0; i < spec.num_items; ++i) {
    SEMCC_ASSIGN_OR_RETURN(Oid item_no,
                           store->CreateAtomic(types.number, Value(int64_t{i + 1})));
    SEMCC_ASSIGN_OR_RETURN(
        Oid price, store->CreateAtomic(types.number, Value(spec.price_cents)));
    SEMCC_ASSIGN_OR_RETURN(
        Oid qoh, store->CreateAtomic(types.number, Value(spec.initial_qoh)));
    SEMCC_ASSIGN_OR_RETURN(
        Oid next, store->CreateAtomic(types.number,
                                      Value(int64_t{spec.orders_per_item})));
    SEMCC_ASSIGN_OR_RETURN(Oid orders, store->CreateSet(types.orders_set));
    for (int o = 1; o <= spec.orders_per_item; ++o) {
      int64_t status = 0;
      if (rng.Bernoulli(spec.pre_shipped)) status |= kEventShippedBit;
      if (rng.Bernoulli(spec.pre_paid)) status |= kEventPaidBit;
      SEMCC_ASSIGN_OR_RETURN(
          Oid ono, store->CreateAtomic(types.number, Value(int64_t{o})));
      SEMCC_ASSIGN_OR_RETURN(
          Oid cust, store->CreateAtomic(
                        types.number,
                        Value(static_cast<int64_t>(rng.Uniform(1000)) + 1)));
      SEMCC_ASSIGN_OR_RETURN(
          Oid qty, store->CreateAtomic(
                       types.number,
                       Value(static_cast<int64_t>(rng.Uniform(9)) + 1)));
      SEMCC_ASSIGN_OR_RETURN(Oid st,
                             store->CreateAtomic(types.number, Value(status)));
      SEMCC_ASSIGN_OR_RETURN(Oid order,
                             store->CreateTuple(types.order, {{"OrderNo", ono},
                                                              {"CustomerNo", cust},
                                                              {"Quantity", qty},
                                                              {"Status", st}}));
      SEMCC_RETURN_NOT_OK(store->SetInsert(orders, Value(int64_t{o}), order));
    }
    SEMCC_ASSIGN_OR_RETURN(
        Oid item, store->CreateTuple(types.item, {{"ItemNo", item_no},
                                                  {"Price", price},
                                                  {"QuantityOnHand", qoh},
                                                  {"NextOrderNo", next},
                                                  {"Orders", orders}}));
    SEMCC_RETURN_NOT_OK(
        store->SetInsert(types.items, Value(int64_t{i + 1}), item));
    data.item_oids.push_back(item);
    data.orders_per_item.push_back(spec.orders_per_item);
  }
  return data;
}

// ---- transaction bodies ------------------------------------------------------

namespace {
void Think(int64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}
}  // namespace

TxnManager::Body T1_ShipTwoOrders(Oid item1, int64_t order1, Oid item2,
                                  int64_t order2, int64_t think_micros) {
  return [=](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a,
                           ctx.Invoke(item1, "ShipOrder", {Value(order1)}));
    (void)a;
    Think(think_micros);
    SEMCC_ASSIGN_OR_RETURN(Value b,
                           ctx.Invoke(item2, "ShipOrder", {Value(order2)}));
    (void)b;
    return Value();
  };
}

TxnManager::Body T2_PayTwoOrders(Oid item1, int64_t order1, Oid item2,
                                 int64_t order2, int64_t think_micros) {
  return [=](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(Value a,
                           ctx.Invoke(item1, "PayOrder", {Value(order1)}));
    (void)a;
    Think(think_micros);
    SEMCC_ASSIGN_OR_RETURN(Value b,
                           ctx.Invoke(item2, "PayOrder", {Value(order2)}));
    (void)b;
    return Value();
  };
}

namespace {
TxnManager::Body CheckTwoOrders(Oid item1, int64_t order1, Oid item2,
                                int64_t order2, const char* event,
                                int64_t think_micros) {
  std::string ev(event);
  return [=](TxnCtx& ctx) -> Result<Value> {
    // Bypass Item encapsulation: resolve the Order subobjects with generic
    // Select operations and invoke TestStatus on them directly (paper §2.3:
    // "invoke TestStatus on the orders").
    SEMCC_ASSIGN_OR_RETURN(Oid orders1, ctx.Component(item1, "Orders"));
    SEMCC_ASSIGN_OR_RETURN(Oid o1, ctx.SetSelect(orders1, Value(order1)));
    SEMCC_ASSIGN_OR_RETURN(Value r1, ctx.Invoke(o1, "TestStatus", {Value(ev)}));
    Think(think_micros);
    SEMCC_ASSIGN_OR_RETURN(Oid orders2, ctx.Component(item2, "Orders"));
    SEMCC_ASSIGN_OR_RETURN(Oid o2, ctx.SetSelect(orders2, Value(order2)));
    SEMCC_ASSIGN_OR_RETURN(Value r2, ctx.Invoke(o2, "TestStatus", {Value(ev)}));
    return Value(static_cast<int64_t>((r1.AsBool() ? 1 : 0) |
                                      (r2.AsBool() ? 2 : 0)));
  };
}
}  // namespace

TxnManager::Body T3_CheckShipment(Oid item1, int64_t order1, Oid item2,
                                  int64_t order2, int64_t think_micros) {
  return CheckTwoOrders(item1, order1, item2, order2, kShipped, think_micros);
}

TxnManager::Body T4_CheckPayment(Oid item1, int64_t order1, Oid item2,
                                 int64_t order2, int64_t think_micros) {
  return CheckTwoOrders(item1, order1, item2, order2, kPaid, think_micros);
}

TxnManager::Body T5_TotalPayment(Oid item, int repeat) {
  return [=](TxnCtx& ctx) -> Result<Value> {
    Result<Value> r = ctx.Invoke(item, "TotalPayment", {});
    for (int i = 1; r.ok() && i < repeat; ++i) {
      r = ctx.Invoke(item, "TotalPayment", {});
    }
    return r;
  };
}

TxnManager::Body T5_TotalPaymentScan(std::vector<Oid> items, int repeat) {
  return [items = std::move(items), repeat](TxnCtx& ctx) -> Result<Value> {
    int64_t total = 0;
    for (int i = 0; i < repeat; ++i) {
      for (Oid item : items) {
        SEMCC_ASSIGN_OR_RETURN(Value v, ctx.Invoke(item, "TotalPayment", {}));
        if (i == 0) total += v.AsInt();
      }
    }
    return Value(total);
  };
}

TxnManager::Body TN_EnterOrder(Oid item, int64_t customer_no, int64_t quantity,
                               int64_t order_no_hint) {
  return [=](TxnCtx& ctx) -> Result<Value> {
    if (order_no_hint >= 0) {
      return ctx.Invoke(item, "NewOrder", {Value(customer_no), Value(quantity),
                                           Value(order_no_hint)});
    }
    return ctx.Invoke(item, "NewOrder", {Value(customer_no), Value(quantity)});
  };
}

// ---- raw helpers -------------------------------------------------------------

Result<Oid> FindOrder(Database* db, Oid item, int64_t order_no) {
  SEMCC_ASSIGN_OR_RETURN(Oid orders, db->store()->Component(item, "Orders"));
  return db->store()->SetSelect(orders, Value(order_no));
}

Result<int64_t> ReadStatusRaw(Database* db, Oid order) {
  SEMCC_ASSIGN_OR_RETURN(Oid status, db->store()->Component(order, "Status"));
  SEMCC_ASSIGN_OR_RETURN(Value v, db->store()->Get(status));
  return v.AsInt();
}

Result<int64_t> ReadQohRaw(Database* db, Oid item) {
  SEMCC_ASSIGN_OR_RETURN(Oid qoh,
                         db->store()->Component(item, "QuantityOnHand"));
  SEMCC_ASSIGN_OR_RETURN(Value v, db->store()->Get(qoh));
  return v.AsInt();
}

}  // namespace orderentry
}  // namespace semcc

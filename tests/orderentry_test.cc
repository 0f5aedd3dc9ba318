// Functional tests of the order-entry application (paper §2): schema shape,
// method semantics, and the five transaction types.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "app/orderentry/order_entry.h"
#include "core/database.h"

namespace semcc {
namespace orderentry {
namespace {

struct OrderEntryTest : public ::testing::Test {
  void SetUp() override {
    types = Install(&db).ValueOrDie();
    LoadSpec spec;
    spec.num_items = 3;
    spec.orders_per_item = 4;
    spec.initial_qoh = 500;
    spec.price_cents = 100;
    data = Load(&db, types, spec).ValueOrDie();
  }
  Database db;
  OrderEntryTypes types;
  LoadedData data;
};

TEST_F(OrderEntryTest, SchemaMatchesFigure1) {
  // DB.Items : Set<Item>; Item tuple with 5 components; Order with 4.
  auto items_desc = db.schema()->GetByName("Items").ValueOrDie();
  EXPECT_EQ(items_desc.kind, ObjectKind::kSet);
  EXPECT_EQ(items_desc.key_component, "ItemNo");
  auto item_desc = db.schema()->GetByName("Item").ValueOrDie();
  EXPECT_TRUE(item_desc.encapsulated);
  ASSERT_EQ(item_desc.components.size(), 5u);
  EXPECT_EQ(item_desc.components[0].name, "ItemNo");
  EXPECT_EQ(item_desc.components[4].name, "Orders");
  auto order_desc = db.schema()->GetByName("Order").ValueOrDie();
  EXPECT_TRUE(order_desc.encapsulated);
  EXPECT_EQ(order_desc.components.size(), 4u);
  // The Items set is populated.
  EXPECT_EQ(db.store()->SetSize(types.items).ValueOrDie(), 3u);
}

TEST_F(OrderEntryTest, LoadCreatesOrdersWithSequentialNumbers) {
  for (Oid item : data.item_oids) {
    Oid orders = db.store()->Component(item, "Orders").ValueOrDie();
    EXPECT_EQ(db.store()->SetSize(orders).ValueOrDie(), 4u);
    for (int64_t o = 1; o <= 4; ++o) {
      EXPECT_TRUE(db.store()->SetSelect(orders, Value(o)).ok());
    }
  }
}

TEST_F(OrderEntryTest, NewOrderAssignsNextNumber) {
  Oid item = data.item_oids[0];
  auto r = db.RunTransaction("tn", TN_EnterOrder(item, 77, 5));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().AsInt(), 5);
  Oid order = FindOrder(&db, item, 5).ValueOrDie();
  Oid cust = db.store()->Component(order, "CustomerNo").ValueOrDie();
  EXPECT_EQ(db.store()->Get(cust).ValueOrDie().AsInt(), 77);
  EXPECT_EQ(ReadStatusRaw(&db, order).ValueOrDie(), 0);  // status "new"
  auto r2 = db.RunTransaction("tn", TN_EnterOrder(item, 78, 2));
  EXPECT_EQ(r2.ValueOrDie().AsInt(), 6);
}

TEST_F(OrderEntryTest, NewOrderRejectsHintAboveAllocatedNumber) {
  // The refined Item matrix commutes NewOrder(c, q, h) with Ship/Pay of
  // every order below h, so the body must refuse a hint it cannot honour:
  // the item holds orders 1..4, so this call would allocate 5, not >= 6.
  Oid item = data.item_oids[0];
  Oid next = db.store()->Component(item, "NextOrderNo").ValueOrDie();
  Oid orders = db.store()->Component(item, "Orders").ValueOrDie();
  auto r = db.RunTransaction("tn", TN_EnterOrder(item, 77, 5, /*hint=*/6));
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_EQ(db.store()->Get(next).ValueOrDie().AsInt(), 4);
  EXPECT_EQ(db.store()->SetSize(orders).ValueOrDie(), 4u);
  EXPECT_FALSE(FindOrder(&db, item, 5).ok());
  // A hint the allocation meets is accepted.
  auto ok = db.RunTransaction("tn", TN_EnterOrder(item, 77, 5, /*hint=*/5));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.ValueOrDie().AsInt(), 5);
  EXPECT_EQ(db.store()->Get(next).ValueOrDie().AsInt(), 5);
}

TEST_F(OrderEntryTest, SetSizeUnderLockingWaitsForConcurrentInsert) {
  // T1 reads the size of an item's Orders set; a concurrent NewOrder then
  // inserts into that set. Size conflicts with Insert, so the NewOrder
  // waits for T1's commit, and a later transaction sees the new size.
  Oid item = data.item_oids[0];
  Oid orders = db.store()->Component(item, "Orders").ValueOrDie();
  std::thread inserter;
  const uint64_t blocked_before = db.locks()->stats().blocked_acquires;
  auto r = db.RunTransactionOnce("T1", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(size_t n, ctx.SetSize(orders));
    inserter = std::thread([&] {
      auto tn = db.RunTransaction("TN", TN_EnterOrder(item, 77, 5));
      EXPECT_TRUE(tn.ok()) << tn.status().ToString();
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (db.locks()->stats().blocked_acquires == blocked_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_GT(db.locks()->stats().blocked_acquires, blocked_before)
        << "the insert did not wait for T1's Size lock";
    return Value(static_cast<int64_t>(n));
  });
  if (inserter.joinable()) inserter.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().AsInt(), 4);
  auto after = db.RunTransaction("T2", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_ASSIGN_OR_RETURN(size_t n, ctx.SetSize(orders));
    return Value(static_cast<int64_t>(n));
  });
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie().AsInt(), 5);
}

// T1 sizes an item's Orders set, lets a NewOrder block on that Size lock,
// then accesses the set again with `repeat`. The NewOrder waits for T1's
// own lock, so T1 must not queue behind it (FCFS, paper footnote 5): that
// would be a wait cycle, broken by aborting the NewOrder. Returns the
// repeat's status.
Status RepeatWhileNewOrderWaits(
    Database* db, Oid item,
    const std::function<Status(TxnCtx&, Oid orders)>& repeat) {
  const Oid orders = db->store()->Component(item, "Orders").ValueOrDie();
  std::thread inserter;
  const uint64_t blocked_before = db->locks()->stats().blocked_acquires;
  uint64_t blocked_at_repeat = 0;
  Status repeated;
  auto r = db->RunTransactionOnce("T1", [&](TxnCtx& ctx) -> Result<Value> {
    SEMCC_RETURN_NOT_OK(ctx.SetSize(orders).status());
    inserter = std::thread([&] {
      auto tn = db->RunTransaction("TN", TN_EnterOrder(item, 77, 5));
      EXPECT_TRUE(tn.ok()) << tn.status().ToString();
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (db->locks()->stats().blocked_acquires == blocked_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    blocked_at_repeat = db->locks()->stats().blocked_acquires;
    EXPECT_EQ(blocked_at_repeat, blocked_before + 1)
        << "the NewOrder did not wait for T1's Size lock";
    repeated = repeat(ctx, orders);
    // Granted without waiting: the repeat added no blocked acquire.
    EXPECT_EQ(db->locks()->stats().blocked_acquires, blocked_at_repeat);
    return Value();
  });
  if (inserter.joinable()) inserter.join();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.locks.deadlocks, 0u);
  EXPECT_EQ(stats.txns.aborts, 0u);
  EXPECT_EQ(stats.txns.retries, 0u);
  EXPECT_EQ(stats.locks.blocked_acquires, blocked_at_repeat);
  return repeated;
}

TEST_F(OrderEntryTest, RepeatedSizeDoesNotQueueBehindItsOwnWaiter) {
  const Status st = RepeatWhileNewOrderWaits(
      &db, data.item_oids[0],
      [](TxnCtx& ctx, Oid orders) { return ctx.SetSize(orders).status(); });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(FindOrder(&db, data.item_oids[0], 5).ok(), true);
}

TEST_F(OrderEntryTest, ConflictingScanDoesNotQueueBehindItsOwnWaiter) {
  // The repeat is a different method, which conflicts with the waiting
  // NewOrder as the Size lock does.
  const Status st = RepeatWhileNewOrderWaits(
      &db, data.item_oids[0],
      [](TxnCtx& ctx, Oid orders) { return ctx.SetScan(orders).status(); });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(FindOrder(&db, data.item_oids[0], 5).ok(), true);
}

TEST_F(OrderEntryTest, ShipOrderUpdatesQohAndStatus) {
  Oid item = data.item_oids[0];
  Oid order = FindOrder(&db, item, 2).ValueOrDie();
  Oid qty_oid = db.store()->Component(order, "Quantity").ValueOrDie();
  const int64_t qty = db.store()->Get(qty_oid).ValueOrDie().AsInt();
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) {
                  return ctx.Invoke(item, "ShipOrder", {Value(2)});
                }).ok());
  EXPECT_EQ(ReadQohRaw(&db, item).ValueOrDie(), 500 - qty);
  EXPECT_EQ(ReadStatusRaw(&db, order).ValueOrDie() & kEventShippedBit,
            kEventShippedBit);
}

TEST_F(OrderEntryTest, PayOrderSetsPaidBitOnly) {
  Oid item = data.item_oids[1];
  Oid order = FindOrder(&db, item, 3).ValueOrDie();
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) {
                  return ctx.Invoke(item, "PayOrder", {Value(3)});
                }).ok());
  EXPECT_EQ(ReadStatusRaw(&db, order).ValueOrDie(), kEventPaidBit);
  EXPECT_EQ(ReadQohRaw(&db, item).ValueOrDie(), 500);  // untouched
}

TEST_F(OrderEntryTest, StatusAccumulatesAsEventSet) {
  Oid item = data.item_oids[0];
  Oid order = FindOrder(&db, item, 1).ValueOrDie();
  ASSERT_TRUE(db.RunTransaction("t", T2_PayTwoOrders(item, 1, data.item_oids[1], 1)).ok());
  ASSERT_TRUE(db.RunTransaction("t", T1_ShipTwoOrders(item, 1, data.item_oids[1], 1)).ok());
  // "shipped&paid" — both events recorded, no ordering remembered.
  EXPECT_EQ(ReadStatusRaw(&db, order).ValueOrDie(),
            kEventShippedBit | kEventPaidBit);
}

TEST_F(OrderEntryTest, TotalPaymentSumsOnlyPaidOrders) {
  Oid item = data.item_oids[0];
  // Pay orders 1 and 3; ship order 2 (shipping alone does not count).
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
                  SEMCC_ASSIGN_OR_RETURN(Value a,
                                         ctx.Invoke(item, "PayOrder", {Value(1)}));
                  SEMCC_ASSIGN_OR_RETURN(Value b,
                                         ctx.Invoke(item, "PayOrder", {Value(3)}));
                  (void)a;
                  (void)b;
                  return ctx.Invoke(item, "ShipOrder", {Value(2)});
                }).ok());
  auto total = db.RunTransaction("t5", T5_TotalPayment(item));
  ASSERT_TRUE(total.ok());
  Oid o1 = FindOrder(&db, item, 1).ValueOrDie();
  Oid o3 = FindOrder(&db, item, 3).ValueOrDie();
  int64_t q1 = db.store()
                   ->Get(db.store()->Component(o1, "Quantity").ValueOrDie())
                   .ValueOrDie()
                   .AsInt();
  int64_t q3 = db.store()
                   ->Get(db.store()->Component(o3, "Quantity").ValueOrDie())
                   .ValueOrDie()
                   .AsInt();
  EXPECT_EQ(total.ValueOrDie().AsInt(), 100 * (q1 + q3));
}

TEST_F(OrderEntryTest, TotalPaymentScanSumsEveryItem) {
  // Pay orders on two of the three items, then compare the one-transaction
  // scan over every item with the per-item totals.
  ASSERT_TRUE(
      db.RunTransaction("t2", T2_PayTwoOrders(data.item_oids[0], 1,
                                              data.item_oids[1], 2))
          .ok());
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) {
                  return ctx.Invoke(data.item_oids[0], "PayOrder", {Value(3)});
                }).ok());
  int64_t sum = 0;
  for (Oid item : data.item_oids) {
    auto t = db.RunTransaction("t5", T5_TotalPayment(item));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    sum += t.ValueOrDie().AsInt();
  }
  EXPECT_GT(sum, 0);
  for (int repeat : {1, 2}) {
    auto scan = db.RunTransaction(
        "t5-scan", T5_TotalPaymentScan(data.item_oids, repeat));
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan.ValueOrDie().AsInt(), sum) << "repeat=" << repeat;
  }
}

TEST_F(OrderEntryTest, TotalPaymentOfFreshItemIsZero) {
  auto total = db.RunTransaction("t5", T5_TotalPayment(data.item_oids[2]));
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.ValueOrDie().AsInt(), 0);
}

TEST_F(OrderEntryTest, TestStatusReflectsEvents) {
  Oid item1 = data.item_oids[0];
  Oid item2 = data.item_oids[1];
  ASSERT_TRUE(db.RunTransaction("t1", T1_ShipTwoOrders(item1, 1, item2, 1)).ok());
  auto r3 = db.RunTransaction("t3", T3_CheckShipment(item1, 1, item2, 1));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.ValueOrDie().AsInt(), 3);  // both shipped
  auto r4 = db.RunTransaction("t4", T4_CheckPayment(item1, 1, item2, 1));
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4.ValueOrDie().AsInt(), 0);  // neither paid
}

TEST_F(OrderEntryTest, UnchangeStatusRemovesOneEvent) {
  Oid item = data.item_oids[0];
  Oid order = FindOrder(&db, item, 1).ValueOrDie();
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) -> Result<Value> {
                  SEMCC_ASSIGN_OR_RETURN(
                      Value a, ctx.Invoke(order, "ChangeStatus", {Value(kShipped)}));
                  (void)a;
                  return ctx.Invoke(order, "ChangeStatus", {Value(kPaid)});
                }).ok());
  ASSERT_TRUE(db.RunTransaction("t", [&](TxnCtx& ctx) {
                  return ctx.Invoke(order, "UnchangeStatus", {Value(kShipped)});
                }).ok());
  EXPECT_EQ(ReadStatusRaw(&db, order).ValueOrDie(), kEventPaidBit);
}

TEST_F(OrderEntryTest, ChangeStatusRejectsUnknownEvent) {
  Oid item = data.item_oids[0];
  Oid order = FindOrder(&db, item, 1).ValueOrDie();
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) {
    return ctx.Invoke(order, "ChangeStatus", {Value("lost")});
  });
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(OrderEntryTest, ShipUnknownOrderFails) {
  auto r = db.RunTransaction("t", [&](TxnCtx& ctx) {
    return ctx.Invoke(data.item_oids[0], "ShipOrder", {Value(int64_t{99})});
  });
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(OrderEntryTest, EventBitMapping) {
  EXPECT_EQ(EventBit(kShipped), kEventShippedBit);
  EXPECT_EQ(EventBit(kPaid), kEventPaidBit);
  EXPECT_EQ(EventBit("bogus"), 0);
}

TEST_F(OrderEntryTest, PreloadedStatusDistribution) {
  Database db2;
  auto types2 = Install(&db2).ValueOrDie();
  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 50;
  spec.pre_paid = 1.0;  // everything pre-paid
  auto data2 = Load(&db2, types2, spec).ValueOrDie();
  auto total = db2.RunTransaction("t5", T5_TotalPayment(data2.item_oids[0]));
  ASSERT_TRUE(total.ok());
  EXPECT_GT(total.ValueOrDie().AsInt(), 0);
}

}  // namespace
}  // namespace orderentry
}  // namespace semcc

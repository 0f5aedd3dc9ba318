// The paper's running example (§2): a simplified order-entry application.
//
// Object schema (paper Figure 1):
//   DB.Items : Set<Item>                                (key: ItemNo)
//   Item     = < ItemNo, Price, QuantityOnHand, NextOrderNo, Orders >
//   Orders   : Set<Order>                               (key: OrderNo)
//   Order    = < OrderNo, CustomerNo, Quantity, Status >
//
// Item and Order are encapsulated types. Methods (paper §2.2):
//   Item.NewOrder(CustomerNo, Quantity) -> OrderNo
//   Item.ShipOrder(OrderNo)            — updates QuantityOnHand, marks shipped
//   Item.PayOrder(OrderNo)             — marks paid
//   Item.TotalPayment() -> Money       — Price*Quantity over paid orders;
//                                        *bypasses* Order encapsulation by
//                                        reading Status directly (footnote 4)
//   Order.ChangeStatus(event)          — adds "shipped"/"paid" to the event set
//   Order.TestStatus(event) -> Bool
//   Order.UnchangeStatus(event)        — semantic inverse of ChangeStatus,
//                                        used by compensation (§3)
//
// The compatibility matrices of Figures 2 and 3 are installed into the
// database's CompatibilityRegistry (see order_entry.cc for the Figure 2
// reconstruction notes — the scanned matrix is partly illegible and is
// rebuilt from the paper's prose constraints, documented in DESIGN.md).
#ifndef SEMCC_APP_ORDERENTRY_ORDER_ENTRY_H_
#define SEMCC_APP_ORDERENTRY_ORDER_ENTRY_H_

#include <string>
#include <vector>

#include "core/database.h"

namespace semcc {
namespace orderentry {

/// Order status events (stored as a bitmask event *set* — the paper's
/// ChangeStatus "does not remember the ordering in which events occurred").
inline constexpr int64_t kEventShippedBit = 1;
inline constexpr int64_t kEventPaidBit = 2;
inline constexpr const char* kShipped = "shipped";
inline constexpr const char* kPaid = "paid";

int64_t EventBit(const std::string& event);

/// Type ids created by Install().
struct OrderEntryTypes {
  TypeId item = kInvalidTypeId;
  TypeId order = kInvalidTypeId;
  TypeId items_set = kInvalidTypeId;
  TypeId orders_set = kInvalidTypeId;
  TypeId number = kInvalidTypeId;  // all numeric atoms share one atomic type
  Oid items = kInvalidOid;         // the database's Set<Item>
};

struct InstallOptions {
  /// Extension (not in the paper's Figure 2): refine ShipOrder/ShipOrder and
  /// PayOrder/PayOrder to commute when they address *different* OrderNos,
  /// and NewOrder(c, q, h) to commute with ShipOrder/PayOrder of any order
  /// below its hint h ("taking into account the actual input parameters",
  /// §3).
  bool parameter_refined_item_matrix = false;
  /// Register types, methods, and matrices but create no objects. Used when
  /// the object graph will be rebuilt by log replay (Database::RecoverFrom);
  /// resolve OrderEntryTypes::items afterwards via the "Items" named root.
  bool register_only = false;
};

/// Register the order-entry schema, methods, and compatibility matrices.
Result<OrderEntryTypes> Install(Database* db, InstallOptions opts = {});

/// Populate the database outside any transaction.
struct LoadSpec {
  int num_items = 16;
  int orders_per_item = 8;
  int64_t initial_qoh = 1'000'000;
  int64_t price_cents = 995;
  /// Fraction (0..1) of pre-loaded orders marked shipped / paid.
  double pre_shipped = 0.0;
  double pre_paid = 0.0;
  uint64_t seed = 7;
};

struct LoadedData {
  std::vector<Oid> item_oids;           // index = item position
  std::vector<int64_t> orders_per_item; // initial order count per item
};

Result<LoadedData> Load(Database* db, const OrderEntryTypes& types,
                        const LoadSpec& spec);

// --- the five transaction types of paper §2.3 -----------------------------
//
// Each returns a TxnManager::Body closure; run it with db->RunTransaction.
// `think_micros` sleeps between the two top-level actions, modeling the
// paper's long interactive transactions ("transactions tend to be longer in
// applications with complex operations on complex objects", §1.1) — this is
// what makes lock hold time, and thus the choice of protocol, matter.

/// T1: ship two orders for two different items (ShipOrder on the items).
TxnManager::Body T1_ShipTwoOrders(Oid item1, int64_t order1, Oid item2,
                                  int64_t order2, int64_t think_micros = 0);
/// T2: record payment of two orders for two different items.
TxnManager::Body T2_PayTwoOrders(Oid item1, int64_t order1, Oid item2,
                                 int64_t order2, int64_t think_micros = 0);
/// T3: check the shipment of two orders for two different items — invokes
/// TestStatus *directly on the Order objects* (bypasses Item encapsulation).
TxnManager::Body T3_CheckShipment(Oid item1, int64_t order1, Oid item2,
                                  int64_t order2, int64_t think_micros = 0);
/// T4: check the payment of two orders (bypassing, like T3).
TxnManager::Body T4_CheckPayment(Oid item1, int64_t order1, Oid item2,
                                 int64_t order2, int64_t think_micros = 0);
/// T5: compute the total payment for an item (TotalPayment on the item).
/// `repeat` > 1 scans the item that many times in one transaction; the
/// re-invocations acquire again locks the tree already holds, so each adds
/// one more entry to the item's lock queue.
TxnManager::Body T5_TotalPayment(Oid item, int repeat = 1);
/// T5 variant: one transaction that computes TotalPayment over *every* item.
/// Under plain locking the scan read-locks the whole item set, so it
/// conflicts with any in-flight updater; under `mvcc_reads` snapshot mode it
/// runs lock-free. Used by the read-mix benchmarks to expose the gap.
TxnManager::Body T5_TotalPaymentScan(std::vector<Oid> items, int repeat = 1);

/// Extra (exercises NewOrder; not one of the paper's five read/update mixes
/// but required to drive the NewOrder method and the set-insert path).
/// `order_no_hint` >= 0 passes a client-known lower bound on the OrderNo the
/// call will allocate (NextOrderNo is monotone, so any previously observed
/// order number + 1 is valid; NewOrder fails with InvalidArgument if the
/// bound does not hold). Under the parameter-refined Item matrix the
/// NewOrder then commutes with ShipOrder/PayOrder of every order below the
/// hint.
TxnManager::Body TN_EnterOrder(Oid item, int64_t customer_no,
                               int64_t quantity, int64_t order_no_hint = -1);

// --- non-transactional helpers (test assertions / state inspection) -------

Result<Oid> FindOrder(Database* db, Oid item, int64_t order_no);
Result<int64_t> ReadStatusRaw(Database* db, Oid order);
Result<int64_t> ReadQohRaw(Database* db, Oid item);

}  // namespace orderentry
}  // namespace semcc

#endif  // SEMCC_APP_ORDERENTRY_ORDER_ENTRY_H_

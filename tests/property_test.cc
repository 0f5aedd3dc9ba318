// Property-based tests: randomized multi-threaded order-entry workloads run
// under every protocol; every run must
//   (a) be semantically serializable (tree-reduction checker),
//   (b) satisfy the application ledger invariants derived from the recorded
//       history (QuantityOnHand accounting, status event bits, order counts),
//   (c) for the conventional baselines, additionally be classically
//       R/W-conflict-serializable at the leaf level.
#include <gtest/gtest.h>

#include <map>

#include "app/orderentry/workload.h"
#include "core/serializability.h"

namespace semcc {
namespace orderentry {
namespace {

struct ProtocolParam {
  const char* name;
  Protocol protocol;
  double zipf_theta;
};

std::ostream& operator<<(std::ostream& os, const ProtocolParam& p) {
  return os << p.name;
}

class WorkloadProperty : public ::testing::TestWithParam<ProtocolParam> {
 protected:
  void SetUp() override {
    const ProtocolParam& p = GetParam();
    DatabaseOptions options;
    options.protocol.protocol = p.protocol;
    db = std::make_unique<Database>(options);
    types = Install(db.get()).ValueOrDie();

    WorkloadOptions wopts;
    wopts.load.num_items = 8;
    wopts.load.orders_per_item = 6;
    wopts.load.initial_qoh = 100000;
    wopts.load.pre_paid = 0.3;
    wopts.load.pre_shipped = 0.3;
    wopts.zipf_theta = p.zipf_theta;
    wopts.seed = 20260707;
    workload = std::make_unique<OrderEntryWorkload>(db.get(), types, wopts);
    ASSERT_TRUE(workload->Setup().ok());
  }

  /// Replay the committed history against the final database state.
  void CheckLedgerInvariants() {
    // quantity shipped per item; ship/pay counts per (item, order).
    std::map<Oid, int64_t> shipped_qty;
    std::map<std::pair<Oid, int64_t>, int> ships, pays;
    std::map<Oid, int> new_orders;
    for (const TxnRecord& txn : db->history()->Snapshot()) {
      if (!txn.committed) continue;
      for (const ActionRecord& a : txn.actions) {
        if (!a.committed() || a.compensation) continue;
        if (a.method == "ShipOrder") {
          const int64_t ono = a.args[0].AsInt();
          Oid order = FindOrder(db.get(), a.object, ono).ValueOrDie();
          Oid qty = db->store()->Component(order, "Quantity").ValueOrDie();
          shipped_qty[a.object] += db->store()->Get(qty).ValueOrDie().AsInt();
          ships[{a.object, ono}]++;
        } else if (a.method == "PayOrder") {
          pays[{a.object, a.args[0].AsInt()}]++;
        } else if (a.method == "NewOrder") {
          new_orders[a.object]++;
        }
      }
    }
    for (size_t i = 0; i < workload->data().item_oids.size(); ++i) {
      Oid item = workload->data().item_oids[i];
      // (1) No lost QuantityOnHand updates.
      EXPECT_EQ(ReadQohRaw(db.get(), item).ValueOrDie(),
                100000 - shipped_qty[item])
          << "item " << i;
      // (2) Order count grew exactly by the committed NewOrders.
      Oid orders = db->store()->Component(item, "Orders").ValueOrDie();
      EXPECT_EQ(db->store()->SetSize(orders).ValueOrDie(),
                static_cast<size_t>(6 + new_orders[item]))
          << "item " << i;
      // (3) Status bits, one direction only: the shipped/paid bit must be
      //     set if some committed transaction shipped/paid that order.
      //     Bits pre-loaded by Setup are not checked, and neither is a set
      //     bit that no committed transaction explains (ROADMAP.md item H
      //     makes this check two-sided).
      // Materialize the scan: iterating `SetScan(...).ValueOrDie()` directly
      // dangles in C++20 — the temporary Result dies before the loop body.
      const auto scan = db->store()->SetScan(orders).ValueOrDie();
      for (const auto& [key, order_oid] : scan) {
        const int64_t status = ReadStatusRaw(db.get(), order_oid).ValueOrDie();
        const auto k = std::make_pair(item, key.AsInt());
        if (ships.count(k) > 0) {
          EXPECT_TRUE(status & kEventShippedBit)
              << "item " << i << " order " << key.ToString();
        }
        if (pays.count(k) > 0) {
          EXPECT_TRUE(status & kEventPaidBit)
              << "item " << i << " order " << key.ToString();
        }
      }
    }
  }

  std::unique_ptr<Database> db;
  OrderEntryTypes types;
  std::unique_ptr<OrderEntryWorkload> workload;
};

TEST_P(WorkloadProperty, ConcurrentRunIsCorrect) {
  auto result = workload->Run(/*threads=*/4, /*txns_per_thread=*/120);
  EXPECT_GT(result.committed, 300u);  // most work must get through

  if (IsSemantic(GetParam().protocol)) {
    // The tree-reduction checker derives ordering obligations from method-
    // level conflicts, which are lock-mediated only under the semantic
    // protocol; conventional histories are validated by the classical R/W
    // checker below (conflict-serializable implies semantically
    // serializable a fortiori).
    SemanticSerializabilityChecker checker(db->compat());
    auto check = checker.Check(db->history()->Snapshot());
    EXPECT_TRUE(check.serializable) << check.ToString();
  } else {
    auto rw = CheckRWConflictSerializability(db->history()->Snapshot());
    EXPECT_TRUE(rw.serializable) << rw.ToString();
  }
  CheckLedgerInvariants();
}

TEST_P(WorkloadProperty, SingleThreadedRunIsSerialAndCorrect) {
  auto result = workload->Run(/*threads=*/1, /*txns_per_thread=*/150);
  EXPECT_EQ(result.failed, 0u);
  SemanticSerializabilityChecker checker(db->compat());
  auto check = checker.Check(db->history()->Snapshot());
  EXPECT_TRUE(check.serializable) << check.ToString();
  CheckLedgerInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, WorkloadProperty,
    ::testing::Values(
        ProtocolParam{"semantic", Protocol::kSemanticONT, 0.6},
        ProtocolParam{"semantic_hot", Protocol::kSemanticONT, 0.99},
        ProtocolParam{"semantic_nowalk", Protocol::kSemanticNoAncestorWalk,
                      0.6},
        ProtocolParam{"closed_nested", Protocol::kClosedNested, 0.6},
        ProtocolParam{"flat_object", Protocol::kFlat2PLObject, 0.6},
        ProtocolParam{"flat_record", Protocol::kFlat2PLRecord, 0.6},
        ProtocolParam{"flat_page", Protocol::kFlat2PLPage, 0.6}),
    [](const ::testing::TestParamInfo<ProtocolParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace orderentry
}  // namespace semcc

// Contention sweep: fixed concurrency, varying hot-spot skew (Zipf theta)
// and database size — the knobs that create the paper's data-contention
// problem. Reported for every protocol.
#include <cstdio>

#include "bench_common.h"

using namespace semcc;
using namespace semcc::bench;

int main(int argc, char** argv) {
  JsonSink json(argc, argv);
  const int txns = TxnsPerThread(100);
  std::printf("== Contention sweep: skew (8 threads, 16 items, 1 ms think) ==\n\n");
  for (double theta : {0.0, 0.6, 0.9, 0.99}) {
    std::printf("--- zipf theta = %.2f ---\n", theta);
    PrintHeader();
    for (const ProtocolConfig& proto : AllProtocols()) {
      orderentry::WorkloadOptions wopts;
      wopts.load.num_items = 16;
      wopts.load.orders_per_item = 8;
      wopts.load.pre_paid = 0.3;
      wopts.load.pre_shipped = 0.3;
      wopts.zipf_theta = theta;
      wopts.think_micros = 1000;
      wopts.seed = 2;
      wopts.t5_double_scan = true;  // same-tree repeat acquisitions
      RunSummary s = RunWorkload(proto, wopts, 8, txns);
      PrintRow(s);
      char label[32];
      std::snprintf(label, sizeof(label), "theta=%.2f", theta);
      json.Add(s, label);
    }
    std::printf("\n");
  }

  std::printf("== Contention sweep: database size (8 threads, zipf 0.9, "
              "1 ms think) ==\n\n");
  for (int items : {2, 4, 16, 64}) {
    std::printf("--- %d items ---\n", items);
    PrintHeader();
    for (const ProtocolConfig& proto : AllProtocols()) {
      orderentry::WorkloadOptions wopts;
      wopts.load.num_items = items;
      wopts.load.orders_per_item = 8;
      wopts.load.pre_paid = 0.3;
      wopts.load.pre_shipped = 0.3;
      wopts.zipf_theta = 0.9;
      wopts.think_micros = 1000;
      wopts.seed = 3;
      wopts.t5_double_scan = true;  // same-tree repeat acquisitions
      RunSummary s = RunWorkload(proto, wopts, 8, txns);
      PrintRow(s);
      char label[32];
      std::snprintf(label, sizeof(label), "items=%d", items);
      json.Add(s, label);
    }
    std::printf("\n");
  }
  // --- hot-set sweep: parameter predicates on ONE item --------------------
  //
  // Every transaction hits the same item, so its Orders set is the single
  // hot object and the method-level matrix is the only concurrency left.
  // Sweeping the NewOrder share shows what the parameter-refined Item
  // matrix buys on it: ShipOrder/PayOrder of different orders commute, and
  // NewOrder(c, q, h) commutes with ShipOrder/PayOrder of every order below
  // its hint h (the workload passes the highest committed OrderNo + 1).
  std::printf("== Hot-set sweep: NewOrder share on 1 item (8 threads, "
              "1 ms think, semantic-param) ==\n\n");
  ProtocolConfig hot;
  hot.name = "semantic-param";
  hot.refined_matrix = true;
  for (int insert_pct : {10, 30, 50}) {
    std::printf("--- %d%% NewOrder ---\n", insert_pct);
    PrintHeader();
    orderentry::WorkloadOptions wopts;
    wopts.load.num_items = 1;
    wopts.load.orders_per_item = 16;
    wopts.load.pre_paid = 0.3;
    wopts.load.pre_shipped = 0.3;
    // Writer-heavy mix: ship/pay split what NewOrder does not take, a thin
    // reader tail (T3/T4 5% each, T5 the 10% remainder).
    wopts.pct_t1 = (80 - insert_pct) / 2;
    wopts.pct_t2 = (80 - insert_pct) / 2;
    wopts.pct_t3 = 5;
    wopts.pct_t4 = 5;
    wopts.pct_new_order = insert_pct;
    wopts.think_micros = 1000;
    wopts.seed = 4;
    RunSummary s = RunWorkload(hot, wopts, 8, txns);
    PrintRow(s);
    char label[48];
    std::snprintf(label, sizeof(label), "hotset-insert%d-t8", insert_pct);
    json.Add(s, label);
    std::printf("\n");
  }

  std::printf(
      "Expected shape: the gap between semantic-param and the conventional\n"
      "protocols widens as skew grows and as the database shrinks (hotter\n"
      "items); at theta=0 with many items all protocols converge. The\n"
      "hot-set rows stay lock-bound: every transaction meets every other on\n"
      "the one item, and only the parameter predicates let writers of\n"
      "different orders (and NewOrders above them) pass each other.\n");
  return 0;
}

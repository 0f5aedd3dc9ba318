// Ablation of the paper's two mechanisms on the full workload:
//   (1) retained locks      — correctness (Figure 5): benched only in its
//                             correct ON state, but the OFF state's raw
//                             speed is shown to quantify the price of
//                             correctness under bypassing;
//   (2) the commutative-ancestor walk (Cases 1 and 2) — pure performance:
//                             OFF is correct but blocks needlessly;
//   (3) parameter-refined Figure 2 matrix (extension, §3 "taking into
//                             account the actual input parameters").
#include <cstdio>

#include "bench_common.h"

using namespace semcc;
using namespace semcc::bench;

namespace {

RunSummary RunVariant(const char* name, Protocol protocol,
                      bool refined_matrix) {
  DatabaseOptions dopts;
  dopts.protocol.protocol = protocol;
  dopts.record_history = false;
  Database db(dopts);
  orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = refined_matrix;
  auto types = orderentry::Install(&db, iopts).ValueOrDie();
  orderentry::WorkloadOptions wopts;
  wopts.load.num_items = 8;
  wopts.load.orders_per_item = 8;
  wopts.load.pre_paid = 0.3;
  wopts.load.pre_shipped = 0.3;
  wopts.zipf_theta = 0.9;
  wopts.think_micros = 1000;
  wopts.seed = 5;
  orderentry::OrderEntryWorkload workload(&db, types, wopts);
  (void)workload.Setup();
  auto result = workload.Run(8, 100);
  RunSummary s;
  s.protocol = name;
  s.threads = 8;
  s.tps = result.throughput_tps;
  s.committed = result.committed;
  s.failed = result.failed;
  const LockStats ls = db.locks()->stats();
  s.blocked = ls.blocked_acquires;
  s.root_waits = ls.root_waits;
  s.case1 = ls.case1_grants;
  s.case2 = ls.case2_waits;
  s.deadlocks = ls.deadlocks;
  s.retries = db.txns()->stats().retries;
  s.wait_p95_us = ls.wait_micros.p95;
  s.commute = ls.commute_grants;
  s.retained_hits = ls.retained_hits;
  s.timeouts = ls.timeouts;
  return s;
}

}  // namespace

int main() {
  std::printf("== Ablation of the protocol's mechanisms (8 threads, 8 items, "
              "zipf 0.9, 1 ms think) ==\n\n");
  PrintHeader("variant");

  const struct {
    const char* name;
    Protocol protocol;
    bool refined_matrix;
  } variants[] = {
      {"full", Protocol::kSemanticONT, false},
      {"no-anc-walk", Protocol::kSemanticNoAncestorWalk, false},
      {"no-retain(!)", Protocol::kSemanticNoRetainedLocks, false},
      {"refined-fig2", Protocol::kSemanticONT, true},
  };
  for (const auto& v : variants) {
    PrintRow(RunVariant(v.name, v.protocol, v.refined_matrix), v.name);
  }

  std::printf(
      "\n(!) no-retain is the §3 protocol: fastest, but INCORRECT under\n"
      "bypassing (see bench_fig5_bypass) — shown only to price the retained\n"
      "locks. Expected shape: full >> no-anc-walk (Cases 1/2 remove most\n"
      "root-commit waits); refined-fig2 adds a further edge on same-item\n"
      "ShipOrder/ShipOrder pairs addressing different orders.\n");
  return 0;
}

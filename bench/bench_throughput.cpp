// The paper's §1.1 motivation experiment: data contention under the
// order-entry workload (transaction types T1-T5 + NewOrder), comparing the
// semantic open-nested protocol against the conventional baselines across
// thread counts. Transactions carry think time between their two top-level
// actions ("transactions tend to be longer in applications with complex
// operations on complex objects"), so lock hold time — and therefore the
// protocol — dominates.
#include <cstdio>

#include "bench_common.h"

using namespace semcc;
using namespace semcc::bench;

int main(int argc, char** argv) {
  JsonSink json(argc, argv);
  const int txns = TxnsPerThread(120);
  std::printf("== Throughput vs. concurrency (order-entry mix, 8 items, "
              "zipf 0.8, 2 ms think time) ==\n\n");
  orderentry::WorkloadOptions wopts;
  wopts.load.num_items = 8;
  wopts.load.orders_per_item = 8;
  wopts.load.pre_paid = 0.3;
  wopts.load.pre_shipped = 0.3;
  wopts.zipf_theta = 0.8;
  wopts.think_micros = 2000;
  wopts.seed = 1;
  wopts.t5_double_scan = true;  // same-tree repeat acquisitions

  PrintHeader();
  for (const ProtocolConfig& proto : AllProtocols()) {
    for (int threads : {1, 2, 4, 8, 16}) {
      RunSummary s = RunWorkload(proto, wopts, threads, txns);
      PrintRow(s);
      char label[64];
      std::snprintf(label, sizeof(label), "orderentry-zipf0.8-t%d", threads);
      json.Add(s, label);
    }
    std::printf("\n");
  }

  // --- read-mix sections: MVCC snapshot reads vs locking readers ----------
  //
  // Same workload code on both sides (readers go through
  // RunReadTransaction); only protocol.mvcc_reads differs. With it on,
  // T3/T4/T5 take zero semantic locks — reader root waits drop to ~0 and
  // read throughput scales with threads while the write path is untouched.
  ProtocolConfig locking;
  locking.name = "semantic-param";
  locking.refined_matrix = true;
  ProtocolConfig mvcc = locking;
  mvcc.options.mvcc_reads = true;

  struct Mix {
    const char* title;
    const char* label_fmt;       // locking side
    const char* label_mvcc_fmt;  // mvcc side
    int t1, t2, t3, t4, tn;
  };
  const Mix mixes[] = {
      // 90% readers: T3 15, T4 15, T5 60 (remainder); writers T1 4, T2 4,
      // NewOrder 2.
      {"90/10 read mix", "readmix90-t%d", "readmix90-mvcc-t%d", 4, 4, 15, 15,
       2},
      // 50% readers: T3 10, T4 10, T5 30 (remainder); writers T1 20, T2 20,
      // NewOrder 10.
      {"50/50 read mix", "readmix50-t%d", "readmix50-mvcc-t%d", 20, 20, 10, 10,
       10},
  };
  for (const Mix& mix : mixes) {
    std::printf("== %s (8 items, zipf 0.8, writers think 2 ms, readers don't, "
                "T5 scans all items) ==\n\n",
                mix.title);
    std::printf("%-22s %7s %9s %9s %9s %9s %12s %12s\n", "config", "threads",
                "tps", "read_tps", "write_tps", "failed", "rd_rootwait",
                "wr_rootwait");
    std::printf("%s\n", std::string(96, '-').c_str());
    orderentry::WorkloadOptions ropts = wopts;
    ropts.pct_t1 = mix.t1;
    ropts.pct_t2 = mix.t2;
    ropts.pct_t3 = mix.t3;
    ropts.pct_t4 = mix.t4;
    ropts.pct_new_order = mix.tn;
    ropts.snapshot_readers = true;
    // Writers keep the 2 ms think time (they hold write locks across it —
    // that is what readers collide with); readers run at full speed and T5
    // scans the whole item set, so under plain locking reader throughput is
    // bounded by waiting behind updaters while under mvcc it is unbounded.
    ropts.reader_think_micros = 0;
    ropts.t5_scan_all = true;
    for (int threads : {4, 16}) {
      for (bool use_mvcc : {false, true}) {
        RunSummary s = RunWorkload(use_mvcc ? mvcc : locking, ropts, threads,
                                   txns);
        char label[64];
        std::snprintf(label, sizeof(label),
                      use_mvcc ? mix.label_mvcc_fmt : mix.label_fmt, threads);
        std::printf("%-22s %7d %9.0f %9.0f %9.0f %9llu %12llu %12llu\n", label,
                    threads, s.tps, s.read_tps, s.write_tps,
                    static_cast<unsigned long long>(s.failed),
                    static_cast<unsigned long long>(s.reader_root_waits),
                    static_cast<unsigned long long>(s.writer_root_waits));
        json.Add(s, label);
      }
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape (paper §1.1): with growing concurrency the semantic\n"
      "protocol with parameter-aware commutativity (semantic-param) keeps\n"
      "scaling — commuting methods do not block, and leaf conflicts under\n"
      "them (the QuantityOnHand read-modify-write hot spot) are relieved by\n"
      "Case 1/2 into sub-millisecond subtransaction waits instead of\n"
      "commit-duration waits. Conventional read/write locking (object or\n"
      "record granularity) serializes those transactions for their full\n"
      "length (think time included); page locks are coarsest and collapse\n"
      "first. The literal state-independent Figure 2 matrix (semantic-fig2)\n"
      "sits in between: same-method pairs on one item conflict at method\n"
      "level, which is precisely why §3 allows parameters in the conflict\n"
      "test.\n");
  return 0;
}

// Shared helpers for the experiment-reproduction benches.
#ifndef SEMCC_BENCH_BENCH_COMMON_H_
#define SEMCC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "app/orderentry/workload.h"
#include "core/database.h"

namespace semcc {
namespace bench {

struct ProtocolConfig {
  std::string name;
  ProtocolOptions options;
  /// Use the parameter-refined Figure 2 matrix (paper §3: compatibility may
  /// take "into account the actual input parameters of operations";
  /// ShipOrder/ShipOrder and PayOrder/PayOrder commute on different orders).
  bool refined_matrix = false;
};

inline std::vector<ProtocolConfig> AllProtocols() {
  std::vector<ProtocolConfig> out;
  // The paper's protocol, with the parameter-refined matrix (paper §3) and
  // with the literal state-independent Figure 2.
  out.push_back({"semantic-param", {}, /*refined_matrix=*/true});
  out.push_back({"semantic-fig2", {}, /*refined_matrix=*/false});
  for (Protocol p : {Protocol::kClosedNested, Protocol::kFlat2PLObject,
                     Protocol::kFlat2PLRecord, Protocol::kFlat2PLPage}) {
    ProtocolConfig c;
    c.name = ProtocolName(p);
    c.options.protocol = p;
    out.push_back(c);
  }
  return out;
}

struct RunSummary {
  std::string protocol;
  int threads = 0;
  double tps = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t blocked = 0;
  uint64_t root_waits = 0;
  uint64_t case1 = 0;
  uint64_t case2 = 0;
  uint64_t deadlocks = 0;
  uint64_t retries = 0;
  uint64_t wait_p50_us = 0;
  uint64_t wait_p95_us = 0;
  uint64_t wait_p99_us = 0;
  // Verdict breakdown columns (emitted with --stats).
  uint64_t commute = 0;
  uint64_t retained_hits = 0;
  uint64_t timeouts = 0;
  // Reader/writer split (readers = T3/T4/T5) and MVCC counters; the
  // versions_* fields stay zero unless the run had mvcc_reads on.
  double read_tps = 0;
  double write_tps = 0;
  uint64_t reader_root_waits = 0;
  uint64_t writer_root_waits = 0;
  uint64_t snapshot_reads = 0;
  uint64_t versions_installed = 0;
  uint64_t versions_reclaimed = 0;
};

/// Per-thread transaction count, overridable via SEMCC_BENCH_TXNS (the CI
/// perf-smoke leg shortens the runs this way).
inline int TxnsPerThread(int default_count) {
  const char* env = std::getenv("SEMCC_BENCH_TXNS");
  if (env != nullptr && env[0] != '\0') {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return default_count;
}

/// Machine-readable result sink: when `--json=<path>` is passed or
/// SEMCC_BENCH_JSON is set, every recorded row is written as one object of
/// a JSON array at that path (see scripts/run_bench.sh, which tracks the
/// repo's perf trajectory in the committed BENCH_*.json files). Disabled —
/// zero-cost — otherwise.
class JsonSink {
 public:
  JsonSink(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) path_ = arg.substr(7);
      if (arg == "--stats") stats_ = true;
    }
    if (path_.empty()) {
      const char* env = std::getenv("SEMCC_BENCH_JSON");
      if (env != nullptr && env[0] != '\0') path_ = env;
    }
    if (!stats_) {
      const char* env = std::getenv("SEMCC_BENCH_STATS");
      stats_ = env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
    }
  }
  ~JsonSink() { Flush(); }

  bool enabled() const { return !path_.empty(); }
  /// `--stats` (or SEMCC_BENCH_STATS): append the verdict-breakdown
  /// columns to every row.
  bool stats() const { return stats_; }

  /// `label` distinguishes sweep points sharing a protocol name (e.g.
  /// "theta=0.90"); keep it free of JSON-significant characters.
  void Add(const RunSummary& s, const std::string& label = "") {
    if (!enabled()) return;
    char buf[1536];
    int n = std::snprintf(
        buf, sizeof(buf),
        "  {\"protocol\": \"%s\", \"label\": \"%s\", \"threads\": %d, "
        "\"throughput_tps\": %.2f, \"committed\": %llu, \"failed\": %llu, "
        "\"blocked\": %llu, \"deadlocks\": %llu, \"retries\": %llu, "
        "\"wait_p50_us\": %llu, \"wait_p95_us\": %llu, \"wait_p99_us\": %llu",
        s.protocol.c_str(), label.c_str(), s.threads, s.tps,
        static_cast<unsigned long long>(s.committed),
        static_cast<unsigned long long>(s.failed),
        static_cast<unsigned long long>(s.blocked),
        static_cast<unsigned long long>(s.deadlocks),
        static_cast<unsigned long long>(s.retries),
        static_cast<unsigned long long>(s.wait_p50_us),
        static_cast<unsigned long long>(s.wait_p95_us),
        static_cast<unsigned long long>(s.wait_p99_us));
    if (stats_ && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(
          buf + n, sizeof(buf) - n,
          ", \"commute\": %llu, \"case1\": %llu, \"case2\": %llu, "
          "\"root_waits\": %llu, \"retained_hits\": %llu, "
          "\"timeouts\": %llu",
          static_cast<unsigned long long>(s.commute),
          static_cast<unsigned long long>(s.case1),
          static_cast<unsigned long long>(s.case2),
          static_cast<unsigned long long>(s.root_waits),
          static_cast<unsigned long long>(s.retained_hits),
          static_cast<unsigned long long>(s.timeouts));
      if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
        n += std::snprintf(
            buf + n, sizeof(buf) - n,
            ", \"read_tps\": %.2f, \"write_tps\": %.2f, "
            "\"reader_root_waits\": %llu, \"writer_root_waits\": %llu, "
            "\"snapshot_reads\": %llu, \"versions_installed\": %llu, "
            "\"versions_reclaimed\": %llu",
            s.read_tps, s.write_tps,
            static_cast<unsigned long long>(s.reader_root_waits),
            static_cast<unsigned long long>(s.writer_root_waits),
            static_cast<unsigned long long>(s.snapshot_reads),
            static_cast<unsigned long long>(s.versions_installed),
            static_cast<unsigned long long>(s.versions_reclaimed));
      }
    }
    if (n > 0 && static_cast<size_t>(n) + 1 < sizeof(buf)) {
      buf[n] = '}';
      buf[n + 1] = '\0';
    }
    rows_.push_back(buf);
  }

  void Flush() {
    if (!enabled() || rows_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    rows_.clear();
  }

 private:
  std::string path_;
  bool stats_ = false;
  std::vector<std::string> rows_;
};

/// Build a fresh database + workload for one configuration and run it.
inline RunSummary RunWorkload(const ProtocolConfig& proto,
                              orderentry::WorkloadOptions wopts, int threads,
                              int txns_per_thread) {
  DatabaseOptions dopts;
  dopts.protocol = proto.options;
  dopts.record_history = false;  // perf run: do not accumulate trees
  // Production flags regardless of build type: debug_lock_checks defaults
  // on in Debug builds and re-derives every grant — perf rows must always
  // come from the production configuration.
  dopts.protocol.debug_lock_checks = false;
  Database db(dopts);
  orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = proto.refined_matrix;
  auto types = orderentry::Install(&db, iopts).ValueOrDie();
  orderentry::OrderEntryWorkload workload(&db, types, wopts);
  Status st = workload.Setup();
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return {};
  }
  auto result = workload.Run(threads, txns_per_thread);
  RunSummary s;
  s.protocol = proto.name;
  s.threads = threads;
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
  s.wait_p50_us = ls.wait_micros.p50;
  s.wait_p95_us = ls.wait_micros.p95;
  s.wait_p99_us = ls.wait_micros.p99;
  s.commute = ls.commute_grants;
  s.retained_hits = ls.retained_hits;
  s.timeouts = ls.timeouts;
  s.read_tps = result.read_tps;
  s.write_tps = result.write_tps;
  s.reader_root_waits = result.reader_root_waits;
  s.writer_root_waits = result.writer_root_waits;
  const DatabaseStats ds = db.Stats();
  if (ds.mvcc_enabled) {
    s.snapshot_reads = ds.versions.snapshot_reads;
    s.versions_installed = ds.versions.versions_installed;
    s.versions_reclaimed = ds.versions.versions_reclaimed;
  }
  return s;
}

inline void PrintHeader(const char* first_col = "protocol") {
  std::printf("%-14s %7s %9s %9s %7s %8s %10s %8s %8s %9s %9s %10s\n",
              first_col, "threads", "commits", "failed", "tps", "blocked",
              "root_waits", "case1", "case2", "deadlocks", "retries",
              "waitp95us");
  std::printf("%s\n", std::string(124, '-').c_str());
}

inline void PrintRow(const RunSummary& s, const std::string& first_col = "") {
  std::printf(
      "%-14s %7d %9llu %9llu %7.0f %8llu %10llu %8llu %8llu %9llu %9llu "
      "%10llu\n",
      (first_col.empty() ? s.protocol : first_col).c_str(), s.threads,
      static_cast<unsigned long long>(s.committed),
      static_cast<unsigned long long>(s.failed), s.tps,
      static_cast<unsigned long long>(s.blocked),
      static_cast<unsigned long long>(s.root_waits),
      static_cast<unsigned long long>(s.case1),
      static_cast<unsigned long long>(s.case2),
      static_cast<unsigned long long>(s.deadlocks),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.wait_p95_us));
}

}  // namespace bench
}  // namespace semcc

#endif  // SEMCC_BENCH_BENCH_COMMON_H_

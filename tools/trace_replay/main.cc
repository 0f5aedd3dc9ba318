// trace_replay: re-execute a binary lock-trace capture (SEMCC_TRACE_CAPTURE,
// util/trace.h) against a fresh lock manager — the capture-then-analyze
// closed loop of DESIGN.md §5.9.
//
//   # capture two seconds of the throughput bench
//   SEMCC_TRACE_CAPTURE=/tmp/run.trace ./bench_throughput
//   # deterministic single-threaded verification (CI replay-smoke leg)
//   ./trace_replay --trace=/tmp/run.trace --mode=verify --json
//   # closed-loop re-execution under a different configuration
//   ./trace_replay --trace=/tmp/run.trace --mode=bench --threads=8 --keyrange
//
// The order-entry schema's compatibility matrices are installed before the
// replay, so captures taken from the stock benches re-run through the same
// commutativity decisions they recorded.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "core/database.h"
#include "replay/replayer.h"
#include "util/trace.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --trace=<capture> [--mode=verify|bench] [--threads=N]\n"
      "          [--protocol=semantic|nested|2pl] [--keyrange]\n"
      "          [--timeout-ms=N] [--json]\n",
      argv0);
}

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out->assign(arg + n + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using semcc::replay::ReplayMode;
  std::string trace_path;
  semcc::replay::ReplayOptions opts;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--trace", &v)) {
      trace_path = v;
    } else if (FlagValue(argv[i], "--mode", &v)) {
      if (v == "verify") {
        opts.mode = ReplayMode::kVerify;
      } else if (v == "bench") {
        opts.mode = ReplayMode::kBench;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else if (FlagValue(argv[i], "--threads", &v)) {
      opts.threads = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--timeout-ms", &v)) {
      opts.protocol.wait_timeout = std::chrono::milliseconds(
          std::atoll(v.c_str()));
    } else if (FlagValue(argv[i], "--protocol", &v)) {
      if (v == "semantic") {
        opts.protocol.protocol = semcc::Protocol::kSemanticONT;
      } else if (v == "nested") {
        opts.protocol.protocol = semcc::Protocol::kClosedNested;
      } else if (v == "2pl") {
        opts.protocol.protocol = semcc::Protocol::kFlat2PL;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--keyrange") == 0) {
      opts.protocol.keyrange_locks = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (trace_path.empty()) {
    Usage(argv[0]);
    return 2;
  }

  std::vector<semcc::trace::Event> events;
  semcc::Status st = semcc::trace::ReadBinary(trace_path, &events);
  if (!st.ok()) {
    std::fprintf(stderr, "trace_replay: %s\n", st.ToString().c_str());
    return 1;
  }

  // A scratch database carries the order-entry compatibility registry; the
  // replay drives its own LockManager built from opts.protocol.
  semcc::Database db;
  semcc::orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = true;
  auto types = semcc::orderentry::Install(&db, iopts);
  if (!types.ok()) {
    std::fprintf(stderr, "trace_replay: install failed: %s\n",
                 types.status().ToString().c_str());
    return 1;
  }

  const semcc::replay::ReplayResult r =
      semcc::replay::Replay(events, db.compat(), opts);
  if (json) {
    std::printf("%s\n", r.ToJson().c_str());
  } else {
    std::printf(
        "replayed %llu events: %llu roots, %llu actions "
        "(%llu granted, %llu denied, %llu skipped) in %.3f ms\n",
        static_cast<unsigned long long>(events.size()),
        static_cast<unsigned long long>(r.roots),
        static_cast<unsigned long long>(r.actions),
        static_cast<unsigned long long>(r.granted),
        static_cast<unsigned long long>(r.denied),
        static_cast<unsigned long long>(r.skipped_events),
        static_cast<double>(r.wall_micros) / 1000.0);
    std::printf("verdicts: %s\n", r.VerdictJson().c_str());
    if (opts.mode == ReplayMode::kBench && r.wall_micros > 0) {
      std::printf("throughput: %.0f roots/s\n",
                  static_cast<double>(r.roots) * 1e6 /
                      static_cast<double>(r.wall_micros));
    }
  }
  return 0;
}

#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "util/annotations.h"
#include "util/metrics.h"

namespace semcc {
namespace trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

using internal::g_enabled;

struct Ring {
  std::vector<Event> buf;
  /// Events ever written; slot = head % capacity. head > capacity means
  /// head - capacity events were overwritten (wraparound).
  uint64_t head = 0;
};

struct Registry {
  Mutex mu;
  std::vector<std::unique_ptr<Ring>> rings SEMCC_GUARDED_BY(mu);
  size_t capacity SEMCC_GUARDED_BY(mu) = 8192;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: rings outlive any thread
  return *r;
}

std::atomic<uint64_t> g_seq{0};

std::chrono::steady_clock::time_point StartTime() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

void DumpAtExit();

/// One-time env read: SEMCC_TRACE enables tracing; a path-like value
/// registers an exit-time JSON-lines dump.
struct EnvInit {
  std::string dump_path;
  EnvInit() {
    const char* env = std::getenv("SEMCC_TRACE");
    if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
      g_enabled.store(true, std::memory_order_relaxed);
      (void)StartTime();
      if (std::strcmp(env, "1") != 0 && std::strcmp(env, "on") != 0) {
        dump_path = env;
        std::atexit(&DumpAtExit);
      }
    }
  }
};

EnvInit& env_init() {
  static EnvInit* e = new EnvInit();
  return *e;
}

/// Force the env read before main so Active()'s inline g_enabled load never
/// observes a pre-init false in a process launched with SEMCC_TRACE set.
[[maybe_unused]] EnvInit& g_env_bootstrap = env_init();

void DumpAtExit() {
  const std::string& path = env_init().dump_path;
  Status st = WriteJsonLines(path);
  if (!st.ok()) {
    std::fprintf(stderr, "SEMCC_TRACE dump to %s failed: %s\n", path.c_str(),
                 st.ToString().c_str());
  } else {
    std::fprintf(stderr, "SEMCC_TRACE: wrote %s\n", path.c_str());
  }
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

Ring* ThisThreadRing() {
  thread_local Ring* ring = [] {
    auto owned = std::make_unique<Ring>();
    Ring* raw = owned.get();
    Registry& reg = registry();
    MutexLock l(reg.mu);
    raw->buf.resize(RoundUpPow2(reg.capacity));
    reg.rings.push_back(std::move(owned));
    return raw;
  }();
  return ring;
}

}  // namespace

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kGrant: return "grant";
    case EventKind::kBlock: return "block";
    case EventKind::kGrantAfterWait: return "grant-after-wait";
    case EventKind::kDeadlockVictim: return "deadlock-victim";
    case EventKind::kLockTimeout: return "lock-timeout";
    case EventKind::kAbortedWait: return "aborted-wait";
    case EventKind::kComplete: return "complete";
    case EventKind::kRelease: return "release";
    case EventKind::kWakeup: return "wakeup";
    case EventKind::kTxnBegin: return "txn-begin";
    case EventKind::kTxnCommit: return "txn-commit";
    case EventKind::kTxnAbort: return "txn-abort";
    case EventKind::kTxnRetry: return "txn-retry";
    case EventKind::kWalAppend: return "wal-append";
    case EventKind::kWalFlush: return "wal-flush";
    case EventKind::kWalDegrade: return "wal-degrade";
    case EventKind::kSnapshotRead: return "snapshot-read";
    case EventKind::kWalCheckpoint: return "wal-checkpoint";
  }
  return "?";
}

void Event::set_method(const std::string& m) {
  const size_t n = std::min(m.size(), sizeof(method) - 1);
  std::memcpy(method, m.data(), n);
  method[n] = '\0';
}

std::string Event::ToJson() const {
  metrics::JsonWriter w;
  w.Field("seq", seq);
  w.Field("us", micros);
  w.Field("kind", std::string(EventKindName(static_cast<EventKind>(kind))));
  w.Field("txn", txn);
  w.Field("root", root);
  w.Field("depth", static_cast<uint64_t>(depth));
  w.Field("method", std::string(method));
  w.Field("space", static_cast<uint64_t>(target_space));
  w.Field("target", target);
  w.Field("shard", static_cast<uint64_t>(shard));
  w.Field("verdict", static_cast<uint64_t>(verdict));
  w.Field("other", other);
  w.Field("value", value);
  w.Field("flags", static_cast<uint64_t>(flags));
  return w.Close();
}

void Enable(bool on) {
  (void)env_init();  // keep env/programmatic ordering deterministic
  (void)StartTime();
  g_enabled.store(on, std::memory_order_relaxed);
}

void Emit(Event e) {
  e.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  e.micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - StartTime())
          .count());
  Ring* ring = ThisThreadRing();
  ring->buf[ring->head & (ring->buf.size() - 1)] = e;
  ring->head++;
}

std::vector<Event> SnapshotEvents() {
  std::vector<Event> out;
  Registry& reg = registry();
  MutexLock l(reg.mu);
  for (const auto& ring : reg.rings) {
    const uint64_t cap = ring->buf.size();
    const uint64_t n = std::min<uint64_t>(ring->head, cap);
    for (uint64_t i = ring->head - n; i < ring->head; ++i) {
      out.push_back(ring->buf[i & (cap - 1)]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

uint64_t TotalDropped() {
  uint64_t dropped = 0;
  Registry& reg = registry();
  MutexLock l(reg.mu);
  for (const auto& ring : reg.rings) {
    const uint64_t cap = ring->buf.size();
    if (ring->head > cap) dropped += ring->head - cap;
  }
  return dropped;
}

std::string ToJsonLines() {
  std::string out;
  for (const Event& e : SnapshotEvents()) {
    out += e.ToJson();
    out += '\n';
  }
  return out;
}

Status WriteJsonLines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output " + path);
  }
  const std::string lines = ToJsonLines();
  const size_t written = std::fwrite(lines.data(), 1, lines.size(), f);
  std::fclose(f);
  if (written != lines.size()) {
    return Status::IOError("short write to trace output " + path);
  }
  return Status::OK();
}

void ResetForTesting() {
  Registry& reg = registry();
  MutexLock l(reg.mu);
  for (auto& ring : reg.rings) ring->head = 0;
}

void SetRingCapacityForTesting(size_t capacity) {
  Registry& reg = registry();
  MutexLock l(reg.mu);
  reg.capacity = std::max<size_t>(capacity, 1);
  for (auto& ring : reg.rings) {
    ring->buf.assign(RoundUpPow2(reg.capacity), Event{});
    ring->head = 0;
  }
}

}  // namespace trace
}  // namespace semcc

#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "util/annotations.h"
#include "util/coding.h"
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

/// One-time env read: SEMCC_TRACE enables tracing; SEMCC_TRACE_RING sizes
/// the rings; a path-like SEMCC_TRACE value registers an exit-time
/// JSON-lines dump; SEMCC_TRACE_CAPTURE=<path> enables tracing and
/// registers an exit-time *binary* capture dump (tools/trace_replay).
struct EnvInit {
  std::string dump_path;
  std::string capture_path;
  EnvInit() {
    if (const char* ring = std::getenv("SEMCC_TRACE_RING");
        ring != nullptr && ring[0] != '\0') {
      const long v = std::atol(ring);
      if (v > 0) {
        MutexLock l(registry().mu);
        registry().capacity = static_cast<size_t>(v);
      }
    }
    bool want_atexit = false;
    if (const char* cap = std::getenv("SEMCC_TRACE_CAPTURE");
        cap != nullptr && cap[0] != '\0' && std::strcmp(cap, "0") != 0) {
      capture_path = cap;
      g_enabled.store(true, std::memory_order_relaxed);
      (void)StartTime();
      want_atexit = true;
    }
    const char* env = std::getenv("SEMCC_TRACE");
    if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
      g_enabled.store(true, std::memory_order_relaxed);
      (void)StartTime();
      if (std::strcmp(env, "1") != 0 && std::strcmp(env, "on") != 0) {
        dump_path = env;
        want_atexit = true;
      }
    }
    if (want_atexit) std::atexit(&DumpAtExit);
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
  if (!path.empty()) {
    Status st = WriteJsonLines(path);
    if (!st.ok()) {
      std::fprintf(stderr, "SEMCC_TRACE dump to %s failed: %s\n", path.c_str(),
                   st.ToString().c_str());
    } else {
      std::fprintf(stderr, "SEMCC_TRACE: wrote %s\n", path.c_str());
    }
  }
  const std::string& cap = env_init().capture_path;
  if (!cap.empty()) {
    Status st = WriteBinary(cap);
    if (!st.ok()) {
      std::fprintf(stderr, "SEMCC_TRACE_CAPTURE dump to %s failed: %s\n",
                   cap.c_str(), st.ToString().c_str());
    } else {
      std::fprintf(stderr, "SEMCC_TRACE_CAPTURE: wrote %s\n", cap.c_str());
    }
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
    case EventKind::kFastPathGrant: return "fastpath-grant";
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
  w.Field("type_id", static_cast<uint64_t>(type_id));
  if (argc > 0) {
    // Signed method arguments, like key_lo/key_hi below.
    char abuf[24];
    w.Field("argc", static_cast<uint64_t>(argc));
    std::snprintf(abuf, sizeof(abuf), "%lld", static_cast<long long>(arg0));
    w.FieldRaw("arg0", abuf);
    if (argc > 1) {
      std::snprintf(abuf, sizeof(abuf), "%lld", static_cast<long long>(arg1));
      w.FieldRaw("arg1", abuf);
    }
  }
  if ((flags & kFlagKeyRange) != 0) {
    // Signed values (interval hulls can reach INT64_MIN/MAX), so they can't
    // go through the unsigned Field overload.
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(key_lo));
    w.FieldRaw("key_lo", buf);
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(key_hi));
    w.FieldRaw("key_hi", buf);
  }
  return w.Close();
}

bool GloballyEnabled() {
  (void)env_init();
  return g_enabled.load(std::memory_order_relaxed);
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

namespace {

/// Binary capture framing: 8-byte magic, u32 version, u64 event count,
/// then `count` fixed-layout little-endian records (field-by-field; the
/// in-memory struct layout is never written raw, so the format is stable
/// across compilers). Layout documented in DESIGN.md §5.9.
constexpr char kCaptureMagic[8] = {'S', 'M', 'C', 'C', 'T', 'R', 'C', '1'};
constexpr uint32_t kCaptureVersion = 1;

void EncodeEvent(std::string* dst, const Event& e) {
  PutU64(dst, e.seq);
  PutU64(dst, e.micros);
  PutU64(dst, e.txn);
  PutU64(dst, e.root);
  PutU64(dst, e.other);
  PutU64(dst, e.value);
  PutU64(dst, e.target);
  PutI64(dst, e.key_lo);
  PutI64(dst, e.key_hi);
  PutI64(dst, e.arg0);
  PutI64(dst, e.arg1);
  PutU32(dst, e.shard);
  PutU16(dst, e.depth);
  PutU16(dst, e.type_id);
  PutU8(dst, e.argc);
  PutU8(dst, e.target_space);
  PutU8(dst, e.kind);
  PutU8(dst, e.verdict);
  PutU8(dst, e.flags);
  dst->append(e.method, sizeof(e.method));
}

bool DecodeEvent(Decoder* dec, Event* e) {
  if (!dec->GetU64(&e->seq) || !dec->GetU64(&e->micros) ||
      !dec->GetU64(&e->txn) || !dec->GetU64(&e->root) ||
      !dec->GetU64(&e->other) || !dec->GetU64(&e->value) ||
      !dec->GetU64(&e->target) || !dec->GetI64(&e->key_lo) ||
      !dec->GetI64(&e->key_hi) || !dec->GetI64(&e->arg0) ||
      !dec->GetI64(&e->arg1) || !dec->GetU32(&e->shard) ||
      !dec->GetU16(&e->depth) || !dec->GetU16(&e->type_id) ||
      !dec->GetU8(&e->argc) || !dec->GetU8(&e->target_space) ||
      !dec->GetU8(&e->kind) || !dec->GetU8(&e->verdict) ||
      !dec->GetU8(&e->flags)) {
    return false;
  }
  if (dec->remaining() < sizeof(e->method)) return false;
  for (size_t i = 0; i < sizeof(e->method); ++i) {
    uint8_t b;
    if (!dec->GetU8(&b)) return false;
    e->method[i] = static_cast<char>(b);
  }
  e->method[sizeof(e->method) - 1] = '\0';
  return true;
}

}  // namespace

Status WriteBinary(const std::string& path) {
  const std::vector<Event> events = SnapshotEvents();
  std::string buf;
  buf.reserve(sizeof(kCaptureMagic) + 12 + events.size() * 110);
  buf.append(kCaptureMagic, sizeof(kCaptureMagic));
  PutU32(&buf, kCaptureVersion);
  PutU64(&buf, static_cast<uint64_t>(events.size()));
  for (const Event& e : events) EncodeEvent(&buf, e);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open capture output " + path);
  }
  const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (written != buf.size()) {
    return Status::IOError("short write to capture output " + path);
  }
  return Status::OK();
}

Status ReadBinary(const std::string& path, std::vector<Event>* out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open capture input " + path);
  }
  std::string buf;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.append(chunk, n);
  }
  std::fclose(f);
  if (buf.size() < sizeof(kCaptureMagic) + 12 ||
      std::memcmp(buf.data(), kCaptureMagic, sizeof(kCaptureMagic)) != 0) {
    return Status::Corruption("bad capture magic in " + path);
  }
  Decoder dec(std::string_view(buf).substr(sizeof(kCaptureMagic)));
  uint32_t version = 0;
  uint64_t count = 0;
  if (!dec.GetU32(&version) || version != kCaptureVersion) {
    return Status::Corruption("unsupported capture version in " + path);
  }
  if (!dec.GetU64(&count)) {
    return Status::Corruption("truncated capture header in " + path);
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Event e;
    if (!DecodeEvent(&dec, &e)) {
      out->clear();
      return Status::Corruption("truncated capture record in " + path);
    }
    out->push_back(e);
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

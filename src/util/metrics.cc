#include "util/metrics.h"

#include <algorithm>
#include <cstdio>
#include <new>
#include <vector>

namespace semcc {
namespace metrics {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// AtomicHistogram bucket layout: 64 exact buckets + 16 sub-buckets per
// power of two up to 2^63.
constexpr int kNumBuckets = 64 + 58 * 16;

int BucketFor(uint64_t value) {
  if (value < 64) return static_cast<int>(value);
  // Exponential buckets: 16 per power of two above 64.
  int msb = 63 - __builtin_clzll(value);
  uint64_t base = 1ULL << msb;
  int sub = static_cast<int>(((value - base) * 16) >> msb);
  int bucket = 64 + (msb - 6) * 16 + sub;
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t BucketUpperBound(int bucket) {
  if (bucket < 64) return static_cast<uint64_t>(bucket);
  int rel = bucket - 64;
  int msb = 6 + rel / 16;
  int sub = rel % 16;
  uint64_t base = 1ULL << msb;
  return base + ((static_cast<uint64_t>(sub) + 1) << msb) / 16 - 1;
}
}  // namespace

CounterBank::CounterBank(size_t stripes, size_t counters)
    : stripes_(RoundUpPow2(std::max<size_t>(stripes, 1))),
      stripe_mask_(stripes_ - 1),
      counters_(counters) {
  const size_t cells_per_line = kCacheLineBytes / sizeof(std::atomic<uint64_t>);
  stride_ = ((counters + cells_per_line - 1) / cells_per_line) * cells_per_line;
  const size_t total = stripes_ * stride_;
  cells_ = static_cast<std::atomic<uint64_t>*>(::operator new[](
      total * sizeof(std::atomic<uint64_t>), std::align_val_t(kCacheLineBytes)));
  for (size_t i = 0; i < total; ++i) {
    new (&cells_[i]) std::atomic<uint64_t>(0);
  }
}

CounterBank::~CounterBank() {
  ::operator delete[](cells_, std::align_val_t(kCacheLineBytes));
}

size_t ThreadStripeSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

std::string HistogramSummary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%llu p95=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count), mean(),
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p95),
                static_cast<unsigned long long>(p99),
                static_cast<unsigned long long>(max));
  return buf;
}

AtomicHistogram::AtomicHistogram()
    : buckets_(new std::atomic<uint64_t>[kNumBuckets]) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void AtomicHistogram::Add(uint64_t value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  // Release-publish last: a snapshot that observes this count observes the
  // bucket/sum increments above (it loads the count with acquire first).
  count_.fetch_add(1, std::memory_order_release);
}

HistogramSummary AtomicHistogram::Snapshot() const {
  HistogramSummary s;
  s.count = count_.load(std::memory_order_acquire);
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  std::vector<uint64_t> buckets(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  const auto percentile = [&](double p) -> uint64_t {
    uint64_t threshold = static_cast<uint64_t>(double(s.count) * p / 100.0);
    if (threshold >= s.count) threshold = s.count - 1;
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += buckets[i];
      if (seen > threshold) {
        return std::min(BucketUpperBound(i), s.max);
      }
    }
    return s.max;
  };
  s.p50 = percentile(50);
  s.p90 = percentile(90);
  s.p95 = percentile(95);
  s.p99 = percentile(99);
  return s;
}

void JsonWriter::Key(const char* key) {
  if (!first_) out_ += ", ";
  first_ = false;
  out_ += '"';
  out_ += key;
  out_ += "\": ";
}

void JsonWriter::Field(const char* key, uint64_t v) {
  Key(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
}

void JsonWriter::Field(const char* key, double v) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  out_ += buf;
}

void JsonWriter::Field(const char* key, bool v) {
  Key(key);
  out_ += v ? "true" : "false";
}

void JsonWriter::Field(const char* key, const std::string& v) {
  Key(key);
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
  }
  out_ += '"';
}

void JsonWriter::FieldRaw(const char* key, const std::string& json) {
  Key(key);
  out_ += json;
}

std::string JsonWriter::Close() {
  out_ += '}';
  return std::move(out_);
}

}  // namespace metrics
}  // namespace semcc

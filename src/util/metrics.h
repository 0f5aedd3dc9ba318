// Lock-free metrics primitives for the protocol observability layer.
//
// Two building blocks (DESIGN.md §5.5):
//
//  * CounterBank — a fixed set of monotonic counters replicated across
//    cache-line-padded *stripes*. Writers increment one stripe's cell with a
//    relaxed fetch_add (no cross-stripe traffic: the common case is one
//    writer per stripe, e.g. the lock manager stripes by shard index);
//    readers Sum() across stripes with acquire loads. Each counter is
//    individually monotonic; a summed snapshot taken while writers run is a
//    consistent *lower bound* per counter, and exact at quiescent points.
//
//  * AtomicHistogram — the bounded-bucket latency histogram (exact to 64,
//    then ~4% resolution) with atomic buckets. Add() is wait-free (two
//    relaxed fetch_adds plus CAS loops for min/max); Snapshot()
//    materializes count/sum/min/max and the p50/p90/p95/p99 percentiles in
//    one pass.
//
// Both are always compiled in; whether the *callers* pay anything is the
// call sites' affair (see the instrumentation notes in cc/lock_manager.cc).
//
// JsonWriter is the small comma-tracking JSON object builder the stats
// snapshots share so every ToJson() emits the same well-formed shape.
#ifndef SEMCC_UTIL_METRICS_H_
#define SEMCC_UTIL_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/macros.h"

namespace semcc {
namespace metrics {

inline constexpr size_t kCacheLineBytes = 64;

/// \brief Striped bank of relaxed monotonic counters.
///
/// Layout: `stripes` rows of `counters` cells, each row padded out to a
/// whole number of cache lines so two stripes never share a line. Cells
/// within one stripe share lines deliberately — they are written by the
/// same context (shard / thread), so there is no false sharing to avoid.
class CounterBank {
 public:
  CounterBank(size_t stripes, size_t counters);
  ~CounterBank();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(CounterBank);

  /// Relaxed increment of `counter` on `stripe` (mod the stripe count).
  void Inc(size_t stripe, size_t counter, uint64_t n = 1) {
    cells_[(stripe & stripe_mask_) * stride_ + counter].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Acquire-sum of `counter` across all stripes (monotonic lower bound
  /// while writers run; exact at quiescent points).
  uint64_t Sum(size_t counter) const {
    uint64_t total = 0;
    for (size_t s = 0; s < stripes_; ++s) {
      total += cells_[s * stride_ + counter].load(std::memory_order_acquire);
    }
    return total;
  }

  /// One stripe's value (per-shard breakdowns).
  uint64_t StripeValue(size_t stripe, size_t counter) const {
    return cells_[(stripe & stripe_mask_) * stride_ + counter].load(
        std::memory_order_acquire);
  }

  size_t stripes() const { return stripes_; }
  size_t counters() const { return counters_; }

 private:
  size_t stripes_;      // power of two
  size_t stripe_mask_;  // stripes_ - 1
  size_t counters_;
  size_t stride_;  // cells per stripe, rounded up to cache-line multiples
  std::atomic<uint64_t>* cells_;  // aligned to kCacheLineBytes
};

/// Stable per-process slot for striping by thread where no natural stripe
/// (such as a shard index) exists. Dense assignment: first caller gets 0.
size_t ThreadStripeSlot();

/// \brief Point-in-time summary of an AtomicHistogram (plain data).
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;

  double mean() const { return count == 0 ? 0.0 : double(sum) / count; }
  /// One-line summary: count/mean/p50/p95/p99/max.
  std::string ToString() const;
};

/// \brief Wait-free histogram over non-negative values (e.g. microseconds).
///
/// Exponentially sized buckets: exact up to 64, then ~4% resolution. A
/// percentile reports its bucket's upper bound, clamped to the exact max.
///
/// Memory-ordering contract: bucket/sum increments are relaxed; the count
/// increment is a release and Snapshot() loads the count with acquire
/// *first*, so every event counted by a snapshot has its bucket increment
/// visible — percentiles never index into a shorter distribution than the
/// count claims. Events mid-Add may be missed entirely; at quiescent points
/// the snapshot is exact.
class AtomicHistogram {
 public:
  AtomicHistogram();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(AtomicHistogram);

  void Add(uint64_t value);
  HistogramSummary Snapshot() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
};

/// \brief Minimal JSON object builder (comma tracking + string escaping)
/// shared by the stats ToJson() exporters.
class JsonWriter {
 public:
  JsonWriter() { out_ = "{"; }

  void Field(const char* key, uint64_t v);
  void Field(const char* key, double v);
  void Field(const char* key, bool v);
  void Field(const char* key, const std::string& v);
  /// Splice a pre-built JSON value (object/array) under `key`.
  void FieldRaw(const char* key, const std::string& json);

  /// Close the object and return it. The writer is spent afterwards.
  std::string Close();

 private:
  void Key(const char* key);
  std::string out_;
  bool first_ = true;
};

}  // namespace metrics
}  // namespace semcc

#endif  // SEMCC_UTIL_METRICS_H_

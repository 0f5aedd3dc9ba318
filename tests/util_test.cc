// Unit tests for the util substrate: Status/Result, Random/Zipf, Histogram,
// synchronization helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/sync.h"

namespace semcc {
namespace {

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(Status, CopyAndMovePreserveState) {
  Status st = Status::Deadlock("victim");
  Status copy = st;
  EXPECT_TRUE(copy.IsDeadlock());
  EXPECT_TRUE(st.IsDeadlock());
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsDeadlock());
}

TEST(Status, AllCodesRoundTripNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlock), "Deadlock");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAborted), "Aborted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kTimedOut), "TimedOut");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kPreconditionFailed),
               "PreconditionFailed");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacros(int x) {
  SEMCC_ASSIGN_OR_RETURN(int h, Halve(x));
  SEMCC_ASSIGN_OR_RETURN(int q, Halve(h));
  return q;
}

TEST(Result, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*QuarterViaMacros(8), 2);
  EXPECT_TRUE(QuarterViaMacros(6).status().IsInvalidArgument());
}

TEST(Random, DeterministicGivenSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Random, UniformBounds) {
  Random r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Random, NextDoubleInUnitInterval) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, BernoulliExtremes) {
  Random r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(Zipfian, UniformWhenThetaZero) {
  ZipfianGenerator z(100, 0.0, 3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[z.Next()]++;
  // Every bucket hit, roughly uniform.
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Zipfian, SkewConcentratesOnHotItems) {
  ZipfianGenerator z(1000, 0.99, 3);
  int hot = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.Next() < 10) hot++;
  }
  // With theta=0.99 the top-10 of 1000 items draw a large share.
  EXPECT_GT(hot, kDraws / 4);
}

TEST(Zipfian, StaysInRange) {
  ZipfianGenerator z(7, 0.9, 3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(), 7u);
}

TEST(Histogram, BasicStats) {
  metrics::AtomicHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  const metrics::HistogramSummary s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_NEAR(s.mean(), 50.5, 0.01);
  EXPECT_NEAR(static_cast<double>(s.p50), 50, 5);
  EXPECT_NEAR(static_cast<double>(s.p99), 99, 6);
}

TEST(Histogram, LargeValuesApproximated) {
  metrics::AtomicHistogram h;
  h.Add(1'000'000);
  h.Add(1'000'000);
  h.Add(1'000'000'000);
  // ~4% bucket resolution above 64: the median reports the upper bound of
  // 1e6's bucket, not the exact value.
  const metrics::HistogramSummary s = h.Snapshot();
  EXPECT_GE(s.p50, 1'000'000u);
  EXPECT_NEAR(static_cast<double>(s.p50), 1e6, 1e6 * 0.07);
  EXPECT_EQ(s.max, 1'000'000'000u);
}

TEST(Semaphore, PostThenWait) {
  Semaphore sem(0);
  sem.Post();
  sem.Wait();  // must not block
  EXPECT_FALSE(sem.WaitFor(std::chrono::milliseconds(10)));
}

TEST(Semaphore, CrossThreadHandoff) {
  Semaphore sem(0);
  std::thread t([&] { sem.Post(3); });
  sem.Wait();
  sem.Wait();
  sem.Wait();
  t.join();
}

TEST(CountDownLatch, ReleasesAtZero) {
  CountDownLatch latch(2);
  std::thread t([&] {
    latch.CountDown();
    latch.CountDown();
  });
  latch.Wait();
  t.join();
}

TEST(ScriptedSchedule, SignalBeforeWait) {
  ScriptedSchedule s;
  s.Signal("x");
  EXPECT_TRUE(s.WaitFor("x", std::chrono::milliseconds(1)));
  EXPECT_TRUE(s.HasFired("x"));
  EXPECT_FALSE(s.HasFired("y"));
}

TEST(ScriptedSchedule, TimesOutOnMissingEvent) {
  ScriptedSchedule s;
  EXPECT_FALSE(s.WaitFor("never", std::chrono::milliseconds(20)));
}

TEST(ScriptedSchedule, CrossThreadSignal) {
  ScriptedSchedule s;
  std::thread t([&] { s.Signal("go"); });
  EXPECT_TRUE(s.WaitFor("go"));
  t.join();
}

TEST(StopWatch, MeasuresElapsedTime) {
  StopWatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.ElapsedMicros(), 15000u);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMicros(), 15000u);
}

}  // namespace
}  // namespace semcc

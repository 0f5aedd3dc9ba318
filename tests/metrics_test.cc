// Tests for the observability layer (DESIGN.md §5.5): the metrics
// primitives (CounterBank, AtomicHistogram, JsonWriter), counter accuracy
// against the lock manager's entry-accounting contract (granted ==
// released + live at quiesce), snapshot consistency under concurrent
// mutation (the TSan leg of the build matrix exercises the memory-ordering
// contract), trace ring-buffer wraparound, the trace on/off gate, and the
// verdict counts / trace decision events of the paper's scenario figures
// (EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "app/orderentry/scenario.h"
#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "cc/subtxn.h"
#include "core/database.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace semcc {
namespace {

// --- CounterBank ------------------------------------------------------------

TEST(CounterBank, IncSumAndStripeValue) {
  metrics::CounterBank bank(4, 3);
  EXPECT_EQ(bank.stripes(), 4u);
  bank.Inc(0, 0);
  bank.Inc(1, 0, 5);
  bank.Inc(3, 0);
  bank.Inc(2, 2, 7);
  EXPECT_EQ(bank.Sum(0), 7u);
  EXPECT_EQ(bank.Sum(1), 0u);
  EXPECT_EQ(bank.Sum(2), 7u);
  EXPECT_EQ(bank.StripeValue(1, 0), 5u);
  EXPECT_EQ(bank.StripeValue(2, 2), 7u);
}

TEST(CounterBank, StripeIndexWrapsAtPowerOfTwo) {
  // 3 stripes round up to 4; stripe 5 masks to stripe 1.
  metrics::CounterBank bank(3, 1);
  EXPECT_EQ(bank.stripes(), 4u);
  bank.Inc(5, 0, 9);
  EXPECT_EQ(bank.StripeValue(1, 0), 9u);
  EXPECT_EQ(bank.Sum(0), 9u);
}

TEST(CounterBank, SumIsMonotonicUnderConcurrentIncrements) {
  metrics::CounterBank bank(8, 2);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t now = bank.Sum(0);
      ASSERT_GE(now, last);  // monotonic lower bound
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&bank, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) bank.Inc(t, 0);
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bank.Sum(0), kThreads * kPerThread);  // exact at quiesce
  EXPECT_EQ(bank.Sum(1), 0u);
}

// --- AtomicHistogram --------------------------------------------------------

TEST(AtomicHistogram, EmptySummaryIsAllZero) {
  metrics::AtomicHistogram h;
  const metrics::HistogramSummary s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p99, 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(AtomicHistogram, ExactRangeAndPercentiles) {
  metrics::AtomicHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  const metrics::HistogramSummary s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  // Values below 64 sit in exact buckets (percentiles report the bucket's
  // upper bound); above that resolution is ~4%, clamped to the true max.
  EXPECT_GE(s.p50, 50u);
  EXPECT_LE(s.p50, 51u);
  EXPECT_GE(s.p99, 96u);
  EXPECT_LE(s.p99, 100u);
  EXPECT_NEAR(s.mean(), 50.5, 0.01);
}

TEST(AtomicHistogram, SnapshotConsistentUnderConcurrentAdds) {
  // The TSan leg checks the ordering contract: count is incremented with
  // release LAST in Add, and Snapshot loads it with acquire FIRST, so the
  // percentile scan never indexes a shorter distribution than the count
  // claims (p-quantiles stay within the observed [min, max] envelope).
  metrics::AtomicHistogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 40000;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const metrics::HistogramSummary s = h.Snapshot();
      ASSERT_GE(s.count, last_count);
      last_count = s.count;
      if (s.count > 0) {
        ASSERT_GE(s.min, 1u);
        ASSERT_LE(s.max, 1000u);
        ASSERT_LE(s.p50, s.max);
        ASSERT_LE(s.p99, s.max);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h]() {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Add(1 + (i % 1000));
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(h.Snapshot().count, kThreads * kPerThread);
}

// --- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, EmitsWellFormedObject) {
  metrics::JsonWriter w;
  w.Field("a", uint64_t{7});
  w.Field("b", true);
  w.Field("c", std::string("x\"y\\z"));
  w.FieldRaw("d", "{\"n\": 1}");
  EXPECT_EQ(w.Close(),
            "{\"a\": 7, \"b\": true, \"c\": \"x\\\"y\\\\z\", \"d\": {\"n\": 1}}");
}

// --- lock-manager counter accuracy ------------------------------------------

constexpr TypeId kItemT = 1;
constexpr Oid kObjA = 100;

struct MetricsLockTest : public ::testing::Test {
  MetricsLockTest() {
    compat.Define(kItemT, "Ma", "Mb", true);
    compat.Define(kItemT, "Ma", "Ma", false);
    compat.Define(kItemT, "Mb", "Mb", true);
  }
  CompatibilityRegistry compat;
};

TEST_F(MetricsLockTest, GrantedMinusReleasedCountsLiveEntriesMidRun) {
  ProtocolOptions o;  // kSemanticONT: completion keeps the entries
  LockManager lm(o, &compat);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  std::vector<SubTxn*> nodes;
  for (int i = 0; i < 3; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), kObjA + i, kItemT, "Ma", {});
    nodes.push_back(n);
    ASSERT_TRUE(lm.Acquire(n, LockTarget::ForObject(kObjA + i), true).ok());
  }
  for (SubTxn* n : nodes) {
    n->set_state(TxnState::kCommitted);
    lm.OnSubTxnCompleted(n);  // locks become retained, not released
  }
  LockStats s = lm.stats();
  EXPECT_EQ(s.granted_entries, 3u);
  EXPECT_EQ(s.released_entries, 0u);  // retained ≠ released

  t1.root()->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(t1.root());
  lm.ReleaseTree(t1.root());
  s = lm.stats();
  EXPECT_EQ(s.granted_entries, s.released_entries);
}

TEST_F(MetricsLockTest, GrantsEqualReleasesAtQuiesceUnderStress) {
  ProtocolOptions o;
  LockManager lm(o, &compat);
  constexpr int kThreads = 4;
  constexpr int kTreesPerThread = 32;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lm, t]() {
      for (int i = 0; i < kTreesPerThread; ++i) {
        TxnTree tree(TxnTree::NextId(), "W", kDatabaseOid, 0);
        // Three private targets plus one shared commuting class.
        for (int k = 0; k < 3; ++k) {
          const Oid oid = 10000 + t * 1000 + i * 10 + k;
          SubTxn* n = tree.NewNode(tree.root(), oid, kItemT, "Ma", {});
          ASSERT_TRUE(lm.Acquire(n, LockTarget::ForObject(oid), true).ok());
        }
        SubTxn* shared = tree.NewNode(tree.root(), kObjA, kItemT, "Mb", {});
        ASSERT_TRUE(
            lm.Acquire(shared, LockTarget::ForObject(kObjA), true).ok());
        tree.root()->set_state(TxnState::kCommitted);
        lm.OnSubTxnCompleted(tree.root());
        lm.ReleaseTree(tree.root());
      }
    });
  }
  for (auto& th : threads) th.join();
  const LockStats s = lm.stats();
  EXPECT_EQ(s.granted_entries, kThreads * kTreesPerThread * 4u);
  EXPECT_EQ(s.granted_entries, s.released_entries);
  EXPECT_EQ(s.acquires, s.granted_entries);  // every acquire is one entry
  EXPECT_EQ(lm.NumWaiters(), 0u);
  EXPECT_EQ(lm.CheckInvariantsNow(), 0u);
}

TEST_F(MetricsLockTest, ShardStatsSumToAggregate) {
  ProtocolOptions o;
  LockManager lm(o, &compat);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  for (int i = 0; i < 16; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), 500 + i, kItemT, "Ma", {});
    ASSERT_TRUE(lm.Acquire(n, LockTarget::ForObject(500 + i), true).ok());
  }
  uint64_t acquires = 0, granted = 0;
  for (int s = 0; s < lm.num_shards(); ++s) {
    const LockStats ss = lm.shard_stats(s);
    acquires += ss.acquires;
    granted += ss.granted_entries;
  }
  const LockStats total = lm.stats();
  EXPECT_EQ(acquires, total.acquires);
  EXPECT_EQ(granted, total.granted_entries);
  lm.ReleaseTree(t1.root());
}

TEST_F(MetricsLockTest, StatsToJsonCarriesTheVerdictBreakdown) {
  ProtocolOptions o;
  LockManager lm(o, &compat);
  const std::string json = lm.stats().ToJson();
  for (const char* key :
       {"\"acquires\"", "\"commute_grants\"", "\"case1_grants\"",
        "\"case2_waits\"", "\"root_waits\"", "\"retained_hits\"",
        "\"timeouts\"", "\"wait_p99_us\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// --- trace ring buffer ------------------------------------------------------

TEST(TraceRing, WraparoundKeepsNewestEventsAndCountsDropped) {
  trace::SetRingCapacityForTesting(8);
  trace::ResetForTesting();
  for (uint64_t i = 0; i < 20; ++i) {
    trace::Event e;
    e.kind = static_cast<uint8_t>(trace::EventKind::kGrant);
    e.value = i;
    trace::Emit(e);
  }
  const std::vector<trace::Event> events = trace::SnapshotEvents();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(trace::TotalDropped(), 12u);
  // The survivors are the 8 newest, in emit order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].value, 12 + i);
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
  trace::SetRingCapacityForTesting(8192);
}

TEST(TraceRing, EventJsonIsOneObjectPerLine) {
  trace::SetRingCapacityForTesting(8192);
  trace::ResetForTesting();
  trace::Event e;
  e.kind = static_cast<uint8_t>(trace::EventKind::kBlock);
  e.txn = 42;
  e.set_method("ShipOrder");
  trace::Emit(e);
  const std::string lines = trace::ToJsonLines();
  EXPECT_NE(lines.find("\"kind\": \"block\""), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"txn\": 42"), std::string::npos);
  EXPECT_NE(lines.find("\"method\": \"ShipOrder\""), std::string::npos);
  EXPECT_EQ(lines.back(), '\n');
}

// --- scenario-figure verdict counts (EXPERIMENTS.md) ------------------------

ProtocolOptions Semantic() {
  ProtocolOptions o;
  o.protocol = Protocol::kSemanticONT;
  return o;
}

TEST(ScenarioVerdicts, Fig4CommutesWithoutRootWaits) {
  auto s = orderentry::MakePaperScenario(Semantic()).ValueOrDie();
  orderentry::RunFig4(s.get());
  const LockStats ls = s->db->locks()->stats();
  EXPECT_GE(ls.commute_grants, 1u);
  EXPECT_EQ(ls.root_waits, 0u);
  EXPECT_GE(s->db->txns()->stats().commits, 2u);
}

TEST(ScenarioVerdicts, Fig5BlocksOnARetainedLock) {
  auto s = orderentry::MakePaperScenario(Semantic()).ValueOrDie();
  orderentry::RunFig5(s.get());
  const LockStats ls = s->db->locks()->stats();
  EXPECT_GE(ls.root_waits, 1u);
  EXPECT_GE(ls.retained_hits, 1u);  // the bypassing probe hit T1's retained
                                    // ChangeStatus lock (§4.1)
}

TEST(ScenarioVerdicts, Fig6CountsTheCase1Grant) {
  auto s = orderentry::MakePaperScenario(Semantic()).ValueOrDie();
  orderentry::RunFig6(s.get());
  const LockStats ls = s->db->locks()->stats();
  EXPECT_GE(ls.case1_grants, 1u);
  EXPECT_EQ(ls.root_waits, 0u);
}

TEST(ScenarioVerdicts, Fig7CountsTheCase2Wait) {
  auto s = orderentry::MakePaperScenario(Semantic()).ValueOrDie();
  orderentry::RunFig7(s.get());
  const LockStats ls = s->db->locks()->stats();
  EXPECT_GE(ls.case2_waits, 1u);
}

// --- trace gate and decision events for the figures -----------------------

/// Starts each test with empty rings and turns tracing off afterwards, so
/// neither a failed assertion nor --gtest_repeat leaves it on for the next
/// test.
struct TracingTest : public ::testing::Test {
  void SetUp() override {
    trace::SetRingCapacityForTesting(8192);
    trace::ResetForTesting();
  }
  void TearDown() override { trace::Enable(false); }
};
using TraceGate = TracingTest;
using ScenarioTrace = TracingTest;

TEST_F(TraceGate, OffEmitsNothingOnEmitsEverySite) {
  DatabaseOptions dopts;
  dopts.enable_wal = true;
  Database db(dopts);
  const auto types = orderentry::Install(&db).ValueOrDie();
  orderentry::LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  const auto data = orderentry::Load(&db, types, spec).ValueOrDie();
  const Oid i0 = data.item_oids[0];
  const Oid i1 = data.item_oids[1];

  trace::Enable(false);
  trace::ResetForTesting();
  ASSERT_TRUE(
      db.RunTransaction("off", orderentry::T1_ShipTwoOrders(i0, 1, i1, 1))
          .ok());
  EXPECT_TRUE(trace::SnapshotEvents().empty());

  trace::Enable(true);
  ASSERT_TRUE(
      db.RunTransaction("on", orderentry::T1_ShipTwoOrders(i0, 2, i1, 2))
          .ok());
  std::set<std::string> kinds;
  for (const trace::Event& e : trace::SnapshotEvents()) {
    kinds.insert(trace::EventKindName(static_cast<trace::EventKind>(e.kind)));
  }
  for (const char* k : {"txn-begin", "grant", "complete", "release",
                        "txn-commit", "wal-append"}) {
    EXPECT_EQ(kinds.count(k), 1u) << "no " << k << " event";
  }
}

TEST_F(ScenarioTrace, Fig5EmitsARetainedBlockWithRootWaitVerdict) {
  trace::Enable(true);
  auto s = orderentry::MakePaperScenario(Semantic()).ValueOrDie();
  orderentry::RunFig5(s.get());
  bool found = false;
  for (const trace::Event& e : trace::SnapshotEvents()) {
    if (e.kind == static_cast<uint8_t>(trace::EventKind::kBlock) &&
        e.verdict == static_cast<uint8_t>(ConflictOutcome::kRootWait) &&
        (e.flags & trace::kFlagBlockerRetained) != 0) {
      found = true;
      EXPECT_NE(e.other, 0u);  // the blocker's id is recorded
    }
  }
  EXPECT_TRUE(found)
      << "no block event against a retained lock in the Fig5 trace";
}

TEST_F(ScenarioTrace, Fig6EmitsAGrantWithCase1Verdict) {
  trace::Enable(true);
  auto s = orderentry::MakePaperScenario(Semantic()).ValueOrDie();
  orderentry::RunFig6(s.get());
  bool found = false;
  for (const trace::Event& e : trace::SnapshotEvents()) {
    if (e.kind == static_cast<uint8_t>(trace::EventKind::kGrant) &&
        e.verdict == static_cast<uint8_t>(ConflictOutcome::kCase1Grant)) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no Case 1 grant event in the Fig6 trace";
}

// --- Database::Stats --------------------------------------------------------

TEST(DatabaseStats, AggregatesLocksTxnsAndWal) {
  DatabaseOptions dopts;
  dopts.enable_wal = true;
  Database db(dopts);
  const DatabaseStats s = db.Stats();
  EXPECT_TRUE(s.wal_enabled);
  const std::string json = s.ToJson();
  for (const char* key : {"\"locks\"", "\"txns\"", "\"wal\"", "\"appends\"",
                          "\"commits\"", "\"acquires\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(DatabaseStats, WalSectionOmittedWhenDisabled) {
  Database db;
  const DatabaseStats s = db.Stats();
  EXPECT_FALSE(s.wal_enabled);
  EXPECT_EQ(s.ToJson().find("\"wal\""), std::string::npos);
}

}  // namespace
}  // namespace semcc

// Tests for the binary trace capture format (util/trace.h, WriteBinary /
// ReadBinary / SEMCC_TRACE_CAPTURE) and the replay engine
// (src/replay/replayer.h):
//  * field-exact roundtrip of the capture encoding (including the replay-
//    fidelity fields type_id/argc/arg0/arg1 added for DESIGN.md §5.9);
//  * corruption rejection (bad magic, wrong version, truncation);
//  * replay determinism — the same capture, replayed in verify mode,
//    produces identical verdict counts every time (the property the CI
//    replay-smoke leg asserts);
//  * the committed golden capture (tests/golden/sample_lock.trace) stays
//    loadable and deterministically replayable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "core/database.h"
#include "replay/replayer.h"
#include "util/trace.h"

namespace semcc {
namespace {

std::string TempPath(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct TraceReplayTest : public ::testing::Test {
  void SetUp() override {
    trace::Enable(false);
    trace::ResetForTesting();
    trace::SetRingCapacityForTesting(1 << 15);
  }
  void TearDown() override {
    trace::Enable(false);
    trace::ResetForTesting();
  }
};

TEST_F(TraceReplayTest, BinaryRoundtripPreservesEveryField) {
  trace::Enable(true);

  trace::Event a;
  a.txn = 42;
  a.root = 7;
  a.other = 99;
  a.value = 123456;
  a.target = 0xdeadbeefULL;
  a.key_lo = -5;
  a.key_hi = 1'000'000;
  a.arg0 = -77;
  a.arg1 = 1234567890123LL;
  a.shard = 31;
  a.depth = 3;
  a.type_id = 17;
  a.argc = 2;
  a.target_space = 1;
  a.kind = static_cast<uint8_t>(trace::EventKind::kBlock);
  a.verdict = 2;
  a.flags = trace::kFlagKeyRange | trace::kFlagIsWrite;
  a.set_method("Item::ShipOrder-with-a-deliberately-long-name");
  trace::Emit(a);

  trace::Event b;
  b.txn = 1;         // truncation LSN
  b.kind = static_cast<uint8_t>(trace::EventKind::kWalCheckpoint);
  b.other = 5;       // records dropped
  b.value = 4096;    // bytes freed
  b.set_method("checkpoint");
  trace::Emit(b);

  const std::vector<trace::Event> written = trace::SnapshotEvents();
  ASSERT_EQ(written.size(), 2u);

  const std::string path = TempPath("semcc_roundtrip.trace");
  ASSERT_TRUE(trace::WriteBinary(path).ok());
  std::vector<trace::Event> read;
  ASSERT_TRUE(trace::ReadBinary(path, &read).ok());
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    const trace::Event& w = written[i];
    const trace::Event& r = read[i];
    EXPECT_EQ(w.seq, r.seq) << i;
    EXPECT_EQ(w.micros, r.micros) << i;
    EXPECT_EQ(w.txn, r.txn) << i;
    EXPECT_EQ(w.root, r.root) << i;
    EXPECT_EQ(w.other, r.other) << i;
    EXPECT_EQ(w.value, r.value) << i;
    EXPECT_EQ(w.target, r.target) << i;
    EXPECT_EQ(w.key_lo, r.key_lo) << i;
    EXPECT_EQ(w.key_hi, r.key_hi) << i;
    EXPECT_EQ(w.arg0, r.arg0) << i;
    EXPECT_EQ(w.arg1, r.arg1) << i;
    EXPECT_EQ(w.shard, r.shard) << i;
    EXPECT_EQ(w.depth, r.depth) << i;
    EXPECT_EQ(w.type_id, r.type_id) << i;
    EXPECT_EQ(w.argc, r.argc) << i;
    EXPECT_EQ(w.target_space, r.target_space) << i;
    EXPECT_EQ(w.kind, r.kind) << i;
    EXPECT_EQ(w.verdict, r.verdict) << i;
    EXPECT_EQ(w.flags, r.flags) << i;
    EXPECT_STREQ(w.method, r.method) << i;
  }
  std::remove(path.c_str());
}

TEST_F(TraceReplayTest, ReadBinaryRejectsCorruptCaptures) {
  std::vector<trace::Event> out;

  // Missing file.
  EXPECT_FALSE(trace::ReadBinary(TempPath("semcc_no_such.trace"), &out).ok());

  // Bad magic.
  const std::string bad = TempPath("semcc_badmagic.trace");
  WriteFileBytes(bad, "NOTATRACEFILE-0123456789");
  EXPECT_FALSE(trace::ReadBinary(bad, &out).ok());
  std::remove(bad.c_str());

  // A valid capture truncated mid-event must be rejected, not half-read.
  trace::Enable(true);
  trace::Event e;
  e.txn = 9;
  e.kind = static_cast<uint8_t>(trace::EventKind::kGrant);
  trace::Emit(e);
  trace::Emit(e);
  const std::string good = TempPath("semcc_good.trace");
  ASSERT_TRUE(trace::WriteBinary(good).ok());
  std::string bytes = ReadFileBytes(good);
  ASSERT_GT(bytes.size(), 30u);
  const std::string trunc = TempPath("semcc_trunc.trace");
  WriteFileBytes(trunc, bytes.substr(0, bytes.size() - 10));
  EXPECT_FALSE(trace::ReadBinary(trunc, &out).ok());

  // Wrong version byte (offset 8, little-endian u32 after the magic).
  bytes[8] = static_cast<char>(bytes[8] + 1);
  const std::string badver = TempPath("semcc_badver.trace");
  WriteFileBytes(badver, bytes);
  EXPECT_FALSE(trace::ReadBinary(badver, &out).ok());

  std::remove(good.c_str());
  std::remove(trunc.c_str());
  std::remove(badver.c_str());
}

// Run a small deterministic order-entry workload with per-database tracing
// on, capture it to the binary format, and check that two verify-mode
// replays of the same capture agree event-for-event on verdict counts.
TEST_F(TraceReplayTest, VerifyModeReplayIsDeterministic) {
  DatabaseOptions dopts;
  dopts.protocol.trace = true;
  Database db(dopts);
  orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = true;
  auto types = orderentry::Install(&db, iopts);
  ASSERT_TRUE(types.ok());
  orderentry::LoadSpec spec;
  spec.num_items = 4;
  spec.orders_per_item = 6;
  auto data = orderentry::Load(&db, *types, spec);
  ASSERT_TRUE(data.ok());
  const std::vector<Oid>& items = data->item_oids;

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.RunTransaction(
                      "T1", orderentry::T1_ShipTwoOrders(
                                items[i % 4], 1 + i % 6,
                                items[(i + 1) % 4], 1 + (i + 2) % 6))
                    .ok());
    ASSERT_TRUE(db.RunTransaction(
                      "T2", orderentry::T2_PayTwoOrders(
                                items[(i + 2) % 4], 1 + i % 6,
                                items[(i + 3) % 4], 1 + (i + 1) % 6))
                    .ok());
    ASSERT_TRUE(
        db.RunTransaction("T5", orderentry::T5_TotalPayment(items[i % 4], 2))
            .ok());
    ASSERT_TRUE(db.RunTransaction("TN", orderentry::TN_EnterOrder(
                                            items[i % 4], 500 + i, 3))
                    .ok());
  }

  const std::string path = TempPath("semcc_determinism.trace");
  ASSERT_TRUE(trace::WriteBinary(path).ok());
  std::vector<trace::Event> events;
  ASSERT_TRUE(trace::ReadBinary(path, &events).ok());
  ASSERT_FALSE(events.empty());

  replay::ReplayOptions ropts;
  ropts.mode = replay::ReplayMode::kVerify;
  const replay::ReplayResult r1 = replay::Replay(events, db.compat(), ropts);
  const replay::ReplayResult r2 = replay::Replay(events, db.compat(), ropts);

  EXPECT_EQ(r1.roots, 32u);
  EXPECT_GT(r1.actions, 0u);
  EXPECT_GT(r1.granted, 0u);
  // The determinism fingerprint the CI replay-smoke leg compares.
  EXPECT_EQ(r1.VerdictJson(), r2.VerdictJson());
  EXPECT_EQ(r1.roots, r2.roots);
  EXPECT_EQ(r1.actions, r2.actions);
  // Single-threaded capture of a conflict-free schedule: every replayed
  // acquisition must be granted again.
  EXPECT_EQ(r1.denied, 0u);
  std::remove(path.c_str());
}

// The committed sample capture (EXPERIMENTS.md "reproduce" instructions)
// must keep loading and replaying deterministically as the code evolves —
// this is the compatibility guarantee for the on-disk format.
TEST_F(TraceReplayTest, GoldenSampleTraceReplays) {
  const std::string path =
      std::string(SEMCC_SOURCE_DIR) + "/tests/golden/sample_lock.trace";
  std::vector<trace::Event> events;
  Status st = trace::ReadBinary(path, &events);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_FALSE(events.empty());

  Database db;
  orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = true;
  ASSERT_TRUE(orderentry::Install(&db, iopts).ok());

  replay::ReplayOptions ropts;
  ropts.mode = replay::ReplayMode::kVerify;
  const replay::ReplayResult r1 = replay::Replay(events, db.compat(), ropts);
  const replay::ReplayResult r2 = replay::Replay(events, db.compat(), ropts);
  EXPECT_GT(r1.roots, 0u);
  EXPECT_GT(r1.actions, 0u);
  EXPECT_GT(r1.granted, 0u);
  EXPECT_EQ(r1.VerdictJson(), r2.VerdictJson());
}

}  // namespace
}  // namespace semcc

// Integration tests reproducing the paper's execution scenarios:
//   Figure 4 — legal interleaving of two open nested transactions,
//   Figure 5 — the bypassing anomaly of the §3 protocol and its fix,
//   Figure 6 — Case 1 (commutative and committed ancestor),
//   Figure 7 — Case 2 (commutative but not yet committed ancestor).
#include <gtest/gtest.h>

#include "app/orderentry/scenario.h"
#include "core/serializability.h"

namespace semcc {
namespace orderentry {
namespace {

std::unique_ptr<PaperScenario> Scenario(Protocol protocol) {
  ProtocolOptions o;
  o.protocol = protocol;
  return MakePaperScenario(o).ValueOrDie();
}

CheckResult CheckSemantic(PaperScenario* s) {
  SemanticSerializabilityChecker checker(s->db->compat());
  return checker.Check(s->db->history()->Snapshot());
}

// --- Figure 4 ---------------------------------------------------------------

TEST(Fig4, SemanticProtocolAdmitsTheInterleaving) {
  auto s = Scenario(Protocol::kSemanticONT);
  ScenarioOutcome out = RunFig4(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // T2's PayOrder(i1, o1) completed while T1 was still running: the paper's
  // point — ShipOrder and PayOrder commute, so nothing blocks.
  EXPECT_TRUE(out.right_overlapped_left) << out.trace;
  EXPECT_EQ(s->db->locks()->stats().root_waits, 0u) << out.note;
  CheckResult check = CheckSemantic(s.get());
  EXPECT_TRUE(check.serializable) << check.ToString();
}

TEST(Fig4, Flat2PLSerializesTheSameSchedule) {
  auto s = Scenario(Protocol::kFlat2PLObject);
  ScenarioOutcome out = RunFig4(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // Under conventional read/write locking, T2 blocks on o1's status atom
  // until T1 commits: no overlap.
  EXPECT_FALSE(out.right_overlapped_left) << out.trace;
  CheckResult rw = CheckRWConflictSerializability(s->db->history()->Snapshot());
  EXPECT_TRUE(rw.serializable) << rw.ToString();
}

TEST(Fig4, HistoryIsSemanticallySerializableUnderBothSerialOrders) {
  // The Figure 4 execution commits T1 and T2 with interleaved subtrees; the
  // checker must find *a* serial order (either T1,T2 or T2,T1).
  auto s = Scenario(Protocol::kSemanticONT);
  RunFig4(s.get());
  CheckResult check = CheckSemantic(s.get());
  ASSERT_TRUE(check.serializable) << check.ToString();
  EXPECT_EQ(check.serial_order.size(), 2u);
}

TEST(Fig4, ClosedNestedAlsoSerializes) {
  auto s = Scenario(Protocol::kClosedNested);
  ScenarioOutcome out = RunFig4(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // Closed nesting only parallelizes WITHIN a transaction; between T1 and
  // T2 the anti-inherited read/write locks block just like flat 2PL.
  EXPECT_FALSE(out.right_overlapped_left) << out.trace;
  CheckResult rw = CheckRWConflictSerializability(s->db->history()->Snapshot());
  EXPECT_TRUE(rw.serializable) << rw.ToString();
}

// --- Figure 5 ---------------------------------------------------------------

TEST(Fig5, SemanticProtocolBlocksTheBypassingReader) {
  auto s = Scenario(Protocol::kSemanticONT);
  ScenarioOutcome out = RunFig5(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // TestStatus(o1, shipped) formally conflicts with the retained
  // ChangeStatus(o1, shipped) lock and there is no commuting ancestor pair:
  // T3 waits for T1's top-level commit.
  EXPECT_FALSE(out.right_overlapped_left) << out.trace;
  EXPECT_GE(s->db->locks()->stats().root_waits, 1u) << out.note;
  CheckResult check = CheckSemantic(s.get());
  EXPECT_TRUE(check.serializable) << check.ToString();
  // T3 observed both orders shipped (it ran after T1 logically).
  EXPECT_NE(out.note.find("3"), std::string::npos) << out.note;
}

TEST(Fig5, NaiveProtocolAdmitsNonSerializableExecution) {
  auto s = Scenario(Protocol::kSemanticNoRetainedLocks);
  ScenarioOutcome out = RunFig5(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // The §3 protocol released the subtransaction's locks, so T3 slipped in
  // between T1's two ShipOrder actions...
  EXPECT_TRUE(out.right_overlapped_left) << out.trace;
  // ... and saw o1 shipped but o2 not shipped — inconsistent with every
  // serial order. The checker must reject the history.
  CheckResult check = CheckSemantic(s.get());
  EXPECT_FALSE(check.serializable) << out.trace;
}

TEST(Fig5, ConventionalProtocolsAreSafeButBlind) {
  // Flat 2PL never admits the anomaly either — it simply blocks T3 on the
  // status atom. The paper's point is not that conventional CC is unsafe,
  // but that the naive OPEN protocol is; the price of 2PL is Figure 4's
  // lost concurrency.
  for (Protocol protocol :
       {Protocol::kFlat2PLObject, Protocol::kClosedNested}) {
    auto s = Scenario(protocol);
    ScenarioOutcome out = RunFig5(s.get());
    EXPECT_TRUE(out.t_left_committed) << ProtocolName(protocol);
    EXPECT_TRUE(out.t_right_committed) << ProtocolName(protocol);
    EXPECT_FALSE(out.right_overlapped_left) << ProtocolName(protocol);
    CheckResult rw =
        CheckRWConflictSerializability(s->db->history()->Snapshot());
    EXPECT_TRUE(rw.serializable) << rw.ToString();
  }
}

// --- Figure 6 (Case 1) --------------------------------------------------------

TEST(Fig6, CommittedCommutingAncestorGrantsImmediately) {
  auto s = Scenario(Protocol::kSemanticONT);
  ScenarioOutcome out = RunFig6(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // T4 checks *payment*; ChangeStatus(o1, shipped) and TestStatus(o1, paid)
  // commute, and the ChangeStatus side is committed: Case 1, no blocking.
  EXPECT_TRUE(out.right_overlapped_left) << out.trace;
  EXPECT_GE(s->db->locks()->stats().case1_grants, 1u) << out.note;
  EXPECT_EQ(s->db->locks()->stats().root_waits, 0u) << out.note;
  CheckResult check = CheckSemantic(s.get());
  EXPECT_TRUE(check.serializable) << check.ToString();
}

TEST(Fig6, WithoutAncestorWalkT4BlocksUnnecessarily) {
  auto s = Scenario(Protocol::kSemanticNoAncestorWalk);
  ScenarioOutcome out = RunFig6(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // Ablation: without the commutative-ancestor test the formal conflict with
  // the retained Put(o1.Status) blocks T4 until T1's commit.
  EXPECT_FALSE(out.right_overlapped_left) << out.trace;
  EXPECT_GE(s->db->locks()->stats().root_waits, 1u) << out.note;
  // Still correct, just slower.
  CheckResult check = CheckSemantic(s.get());
  EXPECT_TRUE(check.serializable) << check.ToString();
}

// --- Figure 7 (Case 2) --------------------------------------------------------

TEST(Fig7, UncommittedCommutingAncestorWaitsForSubtransactionOnly) {
  auto s = Scenario(Protocol::kSemanticONT);
  ScenarioOutcome out = RunFig7(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  // T5 was blocked while ShipOrder(i1, o1) was still active...
  EXPECT_NE(out.note.find("T5 blocked"), std::string::npos) << out.note;
  EXPECT_GE(s->db->locks()->stats().case2_waits, 1u) << out.note;
  // ...but resumed on the *subtransaction's* completion, long before T1's
  // top-level commit.
  EXPECT_TRUE(out.right_overlapped_left) << out.trace;
  CheckResult check = CheckSemantic(s.get());
  EXPECT_TRUE(check.serializable) << check.ToString();
}

TEST(Fig7, WithoutAncestorWalkT5WaitsForTopLevelCommit) {
  auto s = Scenario(Protocol::kSemanticNoAncestorWalk);
  ScenarioOutcome out = RunFig7(s.get());
  EXPECT_TRUE(out.t_left_committed);
  EXPECT_TRUE(out.t_right_committed);
  EXPECT_FALSE(out.right_overlapped_left) << out.trace;
  CheckResult check = CheckSemantic(s.get());
  EXPECT_TRUE(check.serializable) << check.ToString();
}

}  // namespace
}  // namespace orderentry
}  // namespace semcc

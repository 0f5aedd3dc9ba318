// The coexistence story of paper §1.1/§4: "truly object-oriented"
// transactions (method invocations on encapsulated Items) running against
// "conventional" transactions that bypass encapsulation and poke the
// implementation objects directly with generic Get/Select operations — the
// situation the paper's retained locks + commutative-ancestor test exist for.
//
// The example walks through the three bypass scenarios of Figures 5-7 and
// narrates what the lock manager did in each.
//
// Build & run:  ./build/examples/bypass_coexistence
#include <cstdio>

#include "app/orderentry/scenario.h"
#include "core/serializability.h"

using namespace semcc;
using namespace semcc::orderentry;

int main() {
  std::printf("1) Figure 5 — why subtransaction locks must be RETAINED\n");
  std::printf("   T3 reads order status directly while T1 is mid-flight.\n");
  {
    ProtocolOptions naive;
    naive.protocol = Protocol::kSemanticNoRetainedLocks;
    auto s = MakePaperScenario(naive).ValueOrDie();
    ScenarioOutcome out = RunFig5(s.get());
    SemanticSerializabilityChecker checker(s->db->compat());
    auto check = checker.Check(s->db->history()->Snapshot());
    std::printf("   naive §3 protocol : T3 %s; history %s\n",
                out.right_overlapped_left ? "slipped through" : "blocked",
                check.serializable ? "serializable (lucky)" : "NOT serializable");
  }
  {
    auto s = MakePaperScenario(ProtocolOptions{}).ValueOrDie();
    ScenarioOutcome out = RunFig5(s.get());
    SemanticSerializabilityChecker checker(s->db->compat());
    auto check = checker.Check(s->db->history()->Snapshot());
    std::printf("   paper protocol    : T3 %s; history %s\n\n",
                out.right_overlapped_left ? "slipped through" : "blocked until T1 commit",
                check.serializable ? "serializable" : "NOT serializable");
  }

  std::printf("2) Figure 6 — Case 1: retained locks alone would over-block\n");
  std::printf("   T4 checks PAYMENT of an order T1 only SHIPPED.\n");
  {
    auto s = MakePaperScenario(ProtocolOptions{}).ValueOrDie();
    ScenarioOutcome out = RunFig6(s.get());
    std::printf("   paper protocol    : T4 %s (case1 grants: %llu)\n\n",
                out.right_overlapped_left ? "ran concurrently with T1"
                                          : "was blocked",
                static_cast<unsigned long long>(
                    s->db->locks()->stats().case1_grants));
  }

  std::printf("3) Figure 7 — Case 2: waiting for a subtransaction, not the txn\n");
  std::printf("   T5 scans the item while T1 is INSIDE ShipOrder.\n");
  {
    auto s = MakePaperScenario(ProtocolOptions{}).ValueOrDie();
    ScenarioOutcome out = RunFig7(s.get());
    std::printf("   paper protocol    : %s;\n                       T5 finished %s T1's commit\n",
                out.note.substr(0, out.note.find(';')).c_str(),
                out.right_overlapped_left ? "BEFORE" : "after");
  }
  std::printf("\nAll three behaviors come from one rule: keep subtransaction\n"
              "locks as retained locks, and on a formal conflict walk both\n"
              "ancestor chains for a commuting pair on the same object\n"
              "(grant if committed, else wait for that subtransaction).\n");
  return 0;
}

// Reproduces paper Figure 5: transaction T3 bypasses the encapsulation of
// item i1 by invoking TestStatus directly on the Order subobject while T1 is
// between its two ShipOrder actions.
//
// Under the §3 protocol (locks dropped at subtransaction completion) T3
// slips through and observes o1 shipped / o2 not shipped — a state no serial
// execution produces; the history checker reports the T1 <-> T3 cycle.
// Under the paper's §4 protocol (retained locks) T3 blocks until T1 commits.
#include <cstdio>

#include "app/orderentry/scenario.h"
#include "core/serializability.h"

using namespace semcc;
using namespace semcc::orderentry;

namespace {

void RunUnder(const char* name, Protocol protocol) {
  ProtocolOptions opts;
  opts.protocol = protocol;
  auto s = MakePaperScenario(opts).ValueOrDie();
  ScenarioOutcome out = RunFig5(s.get());
  SemanticSerializabilityChecker checker(s->db->compat());
  auto check = checker.Check(s->db->history()->Snapshot());
  std::printf("--- %s ---\n", name);
  std::printf("T3 ran between T1's two ShipOrder actions: %s\n",
              out.right_overlapped_left ? "YES (bypass slipped through)"
                                        : "no (blocked until T1 commit)");
  std::printf("%s\n", out.note.c_str());
  std::printf("history verdict: %s\n\n",
              check.serializable
                  ? "semantically serializable"
                  : ("NOT SERIALIZABLE — " + check.violations[0]).c_str());
}

}  // namespace

int main() {
  std::printf("== Paper Figure 5: Bypassing an Encapsulated Object ==\n\n");
  RunUnder("naive open nesting (paper §3; locks released at subtxn end)",
           Protocol::kSemanticNoRetainedLocks);
  RunUnder("the paper's protocol (paper §4; retained locks)",
           Protocol::kSemanticONT);
  std::printf(
      "Expected shape: the naive protocol admits the execution and the\n"
      "checker finds the T1 -> T3 -> T1 cycle; the paper's protocol blocks\n"
      "T3 (root_waits >= 1) and the history is serializable.\n");
  return 0;
}

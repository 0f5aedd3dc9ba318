// Reproduces paper Figure 7 (Case 2 — commutative but not yet committed
// ancestor): T1 is parked inside ShipOrder(i1, o1) after its
// ChangeStatus(o1, shipped) child committed; T5 runs TotalPayment(i1), which
// bypasses Order encapsulation by reading o1.Status directly. The Get
// conflicts with the retained Put(o1.Status); the commuting ancestor pair
// (ShipOrder(i1,o1), TotalPayment(i1)) is found but the ShipOrder side is
// still active, so T5 waits exactly until that *subtransaction* completes —
// not until T1's top-level commit.
#include <cstdio>

#include "app/orderentry/scenario.h"

using namespace semcc;
using namespace semcc::orderentry;

namespace {

void RunUnder(const char* name, Protocol protocol) {
  ProtocolOptions opts;
  opts.protocol = protocol;
  auto s = MakePaperScenario(opts).ValueOrDie();
  ScenarioOutcome out = RunFig7(s.get());
  std::printf("--- %s ---\n", name);
  std::printf("%s\n", out.note.c_str());
  std::printf("T5 finished before T1 committed: %s\n\n",
              out.right_overlapped_left
                  ? "YES (resumed at ShipOrder completion — Case 2)"
                  : "no (had to wait for T1's top-level commit)");
}

}  // namespace

int main() {
  std::printf("== Paper Figure 7: Conflicting Actions with Commutative but "
              "not yet Committed Ancestors (Case 2) ==\n\n");
  RunUnder("paper protocol (commutative-ancestor test ON)",
           Protocol::kSemanticONT);
  RunUnder("ablation (commutative-ancestor test OFF)",
           Protocol::kSemanticNoAncestorWalk);
  std::printf("Expected shape: with the test ON, T5 blocks while "
              "ShipOrder(i1,o1) is active\n(case2 >= 1) and resumes on the "
              "subtransaction's completion, well before T1's\ncommit; with "
              "the test OFF it waits for the top-level commit.\n");
  return 0;
}

// Scripted reproductions of the paper's execution scenarios (Figures 4-7).
//
// Each scenario sets up a fresh database under a chosen protocol with the
// paper's two items (i1, i2), each holding order number 1 (the paper's o1
// and o2), and provides the scripted hooks (ScriptedSchedule events) that
// force the exact interleavings of the figures. Scenario runners are shared
// by the integration tests and the figure-reproduction benches.
#ifndef SEMCC_APP_ORDERENTRY_SCENARIO_H_
#define SEMCC_APP_ORDERENTRY_SCENARIO_H_

#include <memory>
#include <string>

#include "app/orderentry/order_entry.h"
#include "util/sync.h"

namespace semcc {
namespace orderentry {

/// \brief Fresh database + the paper's standing objects.
struct PaperScenario {
  std::unique_ptr<Database> db;
  OrderEntryTypes types;
  Oid i1 = kInvalidOid;  ///< item 1
  Oid i2 = kInvalidOid;  ///< item 2
  Oid o1 = kInvalidOid;  ///< order #1 of item 1 (the paper's o1)
  Oid o2 = kInvalidOid;  ///< order #1 of item 2 (the paper's o2)
  int64_t ono1 = 1;
  int64_t ono2 = 1;
  /// Shared schedule for scripting thread interleavings.
  ScriptedSchedule schedule;
};

/// Build the scenario database. Also registers the scenario-only method
/// `Item.ShipOrderHold(order_no)`: identical to ShipOrder (ChangeStatus
/// first, then the QuantityOnHand update) except that it parks between the
/// two steps until the schedule event "release_ship" fires — this opens the
/// Figure 7 window in which ChangeStatus(o1, shipped) is committed while
/// ShipOrder(i1, o1) is still active. Its compatibility row equals
/// ShipOrder's.
Result<std::unique_ptr<PaperScenario>> MakePaperScenario(
    const ProtocolOptions& protocol);

/// Outcome of a two-transaction scripted run.
struct ScenarioOutcome {
  bool t_left_committed = false;
  bool t_right_committed = false;
  /// Did the right-hand transaction finish its probe action before the
  /// left-hand transaction committed? (The concurrency claim of each figure.)
  bool right_overlapped_left = false;
  std::string trace;  ///< printable transaction trees
  std::string note;
};

/// Figure 4: T1 (ship o1@i1, o2@i2) concurrent with T2 (pay o1@i1, o2@i2).
/// The schedule forces T2's PayOrder(i1, o1) to run between T1's two
/// ShipOrder actions, and starts T2's PayOrder(i2, o2) only after T1's
/// ShipOrder(i2, o2) has returned.
ScenarioOutcome RunFig4(PaperScenario* s);

/// Figure 5: T1 (ship o1@i1, o2@i2) with T3 checking shipment *directly on
/// the Order objects* between T1's two actions. Under the paper's protocol
/// T3 must block until T1 commits; the §3 protocol
/// (Protocol::kSemanticNoRetainedLocks) lets it through and produces a
/// non-serializable history.
ScenarioOutcome RunFig5(PaperScenario* s);

/// Figure 6 (Case 1): after T1 completed ShipOrder(i1, o1) (and is busy with
/// ShipOrder(i2, o2)), T4 checks the *payment* of o1 — conflicting at the
/// leaf level with the retained Put(o1.Status) but relieved by the committed
/// commuting ancestor pair (ChangeStatus(o1, shipped), TestStatus(o1, paid)).
ScenarioOutcome RunFig6(PaperScenario* s);

/// Figure 7 (Case 2): T1 is parked inside ShipOrderHold(i1, o1) with
/// ChangeStatus(o1, shipped) committed; T5 runs TotalPayment(i1), whose
/// bypassing Get(o1.Status) must wait for the ShipOrder subtransaction (not
/// for T1's commit).
ScenarioOutcome RunFig7(PaperScenario* s);

}  // namespace orderentry
}  // namespace semcc

#endif  // SEMCC_APP_ORDERENTRY_SCENARIO_H_

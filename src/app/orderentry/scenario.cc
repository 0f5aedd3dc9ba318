#include "app/orderentry/scenario.h"

#include <chrono>
#include <thread>

#include "txn/history.h"
#include "util/logging.h"

namespace semcc {
namespace orderentry {

using std::chrono::milliseconds;

namespace {

Status ShipLikeInverse(TxnCtx& ctx, Oid self, const Args& args) {
  SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
  SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, args[0]));
  SEMCC_ASSIGN_OR_RETURN(Value qty, ctx.GetField(order, "Quantity"));
  SEMCC_ASSIGN_OR_RETURN(Value qoh, ctx.GetField(self, "QuantityOnHand"));
  SEMCC_RETURN_NOT_OK(
      ctx.PutField(self, "QuantityOnHand", Value(qoh.AsInt() + qty.AsInt())));
  auto r = ctx.Invoke(order, "UnchangeStatus", {Value(kShipped)});
  return r.ok() ? Status::OK() : r.status();
}

// Deterministic overlap verdict derived from the history's logical clock.
// `right` overlapped `left` iff right's first top-level action completed
// before left's root did. The commit path stamps the root's end_seq before
// ReleaseTree wakes any waiter, so an action that had to wait for left's
// locks always carries a strictly later end_seq — unlike a wall-clock
// "has left committed yet?" flag, which races with the lock release that
// happens inside left's commit.
bool RightOverlappedLeft(Database* db, const std::string& left_name,
                         const std::string& right_name) {
  uint64_t left_end = 0;
  uint64_t right_probe_end = 0;
  for (const TxnRecord& txn : db->history()->Snapshot()) {
    if (txn.name == left_name) {
      for (const ActionRecord& a : txn.actions) {
        if (a.parent_id == a.id) left_end = a.end_seq;
      }
    } else if (txn.name == right_name) {
      for (const ActionRecord& a : txn.actions) {
        if (a.depth == 1) {  // actions are in creation order: first probe
          right_probe_end = a.end_seq;
          break;
        }
      }
    }
  }
  return left_end != 0 && right_probe_end != 0 && right_probe_end < left_end;
}

std::string CollectTrace(Database* db) {
  std::string out;
  for (const TxnRecord& txn : db->history()->Snapshot()) {
    out += "-- " + txn.name + " (T" + std::to_string(txn.id) + ", " +
           (txn.committed ? "committed" : "aborted") + ")\n";
    out += FormatTxnTree(txn);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<PaperScenario>> MakePaperScenario(
    const ProtocolOptions& protocol) {
  auto s = std::make_unique<PaperScenario>();
  DatabaseOptions options;
  options.protocol = protocol;
  // Keep scenario waits snappy: a wedged schedule should fail fast in tests.
  options.protocol.wait_timeout = std::chrono::milliseconds(5000);
  s->db = std::make_unique<Database>(options);
  SEMCC_ASSIGN_OR_RETURN(s->types, Install(s->db.get()));

  LoadSpec spec;
  spec.num_items = 2;
  spec.orders_per_item = 2;
  SEMCC_ASSIGN_OR_RETURN(LoadedData data, Load(s->db.get(), s->types, spec));
  s->i1 = data.item_oids[0];
  s->i2 = data.item_oids[1];
  SEMCC_ASSIGN_OR_RETURN(s->o1, FindOrder(s->db.get(), s->i1, s->ono1));
  SEMCC_ASSIGN_OR_RETURN(s->o2, FindOrder(s->db.get(), s->i2, s->ono2));

  // Scenario-only method with a scripted hold between ChangeStatus and the
  // QuantityOnHand update (the Figure 7 window).
  ScriptedSchedule* sched = &s->schedule;
  SEMCC_RETURN_NOT_OK(s->db->RegisterMethod(
      {s->types.item, "ShipOrderHold", /*read_only=*/false,
       [sched](TxnCtx& ctx, Oid self, const Args& args) -> Result<Value> {
         SEMCC_ASSIGN_OR_RETURN(Oid orders, ctx.Component(self, "Orders"));
         SEMCC_ASSIGN_OR_RETURN(Oid order, ctx.SetSelect(orders, args[0]));
         SEMCC_ASSIGN_OR_RETURN(
             Value done, ctx.Invoke(order, "ChangeStatus", {Value(kShipped)}));
         (void)done;
         sched->Signal("ship.cs.done");
         sched->WaitFor("release_ship", milliseconds(3000));
         SEMCC_ASSIGN_OR_RETURN(Value qty, ctx.GetField(order, "Quantity"));
         SEMCC_ASSIGN_OR_RETURN(Value qoh,
                                ctx.GetField(self, "QuantityOnHand"));
         SEMCC_RETURN_NOT_OK(ctx.PutField(self, "QuantityOnHand",
                                          Value(qoh.AsInt() - qty.AsInt())));
         return Value();
       },
       [](TxnCtx& ctx, Oid self, const Args& args, const Value&) {
         return ShipLikeInverse(ctx, self, args);
       }}));
  // Same compatibility row as ShipOrder (Figure 2).
  s->db->compat()->Define(s->types.item, "ShipOrderHold", "PayOrder", true);
  s->db->compat()->Define(s->types.item, "ShipOrderHold", "TotalPayment", true);
  return s;
}

// --- Figure 4 ---------------------------------------------------------------

ScenarioOutcome RunFig4(PaperScenario* s) {
  ScenarioOutcome out;
  Database* db = s->db.get();
  ScriptedSchedule& sched = s->schedule;

  std::thread t1([&]() {
    auto r = db->RunTransactionOnce("T1", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a,
                             ctx.Invoke(s->i1, "ShipOrder", {Value(s->ono1)}));
      (void)a;
      sched.Signal("t1.a.done");
      // Give T2 a window; don't hang forever under blocking protocols.
      sched.WaitFor("t2.a.done", milliseconds(300));
      auto b = ctx.Invoke(s->i2, "ShipOrder", {Value(s->ono2)});
      sched.Signal("t1.b.done");
      return b;
    });
    out.t_left_committed = r.ok();
  });
  std::thread t2([&]() {
    sched.WaitFor("t1.a.done");
    auto r = db->RunTransactionOnce("T2", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a,
                             ctx.Invoke(s->i1, "PayOrder", {Value(s->ono1)}));
      (void)a;
      sched.Signal("t2.a.done");
      // Only the first actions interleave (the figure's point). Overlapping
      // second actions would let both ChangeStatus(o2) calls Get the status
      // and each Put wait for the other: a Case 2 deadlock whose victim
      // RunTransactionOnce does not retry. Under blocking protocols T1 has
      // committed by now, so this wait returns at once.
      sched.WaitFor("t1.b.done");
      return ctx.Invoke(s->i2, "PayOrder", {Value(s->ono2)});
    });
    out.t_right_committed = r.ok();
  });
  t1.join();
  t2.join();
  out.right_overlapped_left = RightOverlappedLeft(db, "T1", "T2");
  out.trace = CollectTrace(db);
  out.note = db->locks()->stats().ToString();
  return out;
}

// --- Figure 5 ---------------------------------------------------------------

ScenarioOutcome RunFig5(PaperScenario* s) {
  ScenarioOutcome out;
  Database* db = s->db.get();
  ScriptedSchedule& sched = s->schedule;

  int64_t t3_saw = -1;
  std::thread t1([&]() {
    auto r = db->RunTransactionOnce("T1", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a,
                             ctx.Invoke(s->i1, "ShipOrder", {Value(s->ono1)}));
      (void)a;
      sched.Signal("t1.a.done");
      sched.WaitFor("t3.done", milliseconds(500));
      return ctx.Invoke(s->i2, "ShipOrder", {Value(s->ono2)});
    });
    out.t_left_committed = r.ok();
  });
  std::thread t3([&]() {
    sched.WaitFor("t1.a.done");
    auto r = db->RunTransactionOnce("T3", [&](TxnCtx& ctx) -> Result<Value> {
      // Bypass: invoke TestStatus directly on the Order implementation
      // objects of the encapsulated items (paper Figure 5).
      SEMCC_ASSIGN_OR_RETURN(Value a,
                             ctx.Invoke(s->o1, "TestStatus", {Value(kShipped)}));
      SEMCC_ASSIGN_OR_RETURN(Value b,
                             ctx.Invoke(s->o2, "TestStatus", {Value(kShipped)}));
      return Value(static_cast<int64_t>((a.AsBool() ? 1 : 0) |
                                        (b.AsBool() ? 2 : 0)));
    });
    out.t_right_committed = r.ok();
    if (r.ok()) t3_saw = r.ValueOrDie().AsInt();
    sched.Signal("t3.done");
  });
  t1.join();
  t3.join();
  out.right_overlapped_left = RightOverlappedLeft(db, "T1", "T3");
  out.trace = CollectTrace(db);
  out.note = "T3 observed (bit1=o1 shipped, bit2=o2 shipped): " +
             std::to_string(t3_saw) + "; " + db->locks()->stats().ToString();
  return out;
}

// --- Figure 6 (Case 1) --------------------------------------------------------

ScenarioOutcome RunFig6(PaperScenario* s) {
  ScenarioOutcome out;
  Database* db = s->db.get();
  ScriptedSchedule& sched = s->schedule;

  std::thread t1([&]() {
    auto r = db->RunTransactionOnce("T1", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a,
                             ctx.Invoke(s->i1, "ShipOrder", {Value(s->ono1)}));
      (void)a;
      sched.Signal("t1.a.done");
      // T1 is "currently executing ShipOrder(i2, o2)" while T4 runs.
      sched.WaitFor("t4.done", milliseconds(500));
      return ctx.Invoke(s->i2, "ShipOrder", {Value(s->ono2)});
    });
    out.t_left_committed = r.ok();
  });
  std::thread t4([&]() {
    sched.WaitFor("t1.a.done");
    auto r = db->RunTransactionOnce("T4", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(Value a,
                             ctx.Invoke(s->o1, "TestStatus", {Value(kPaid)}));
      SEMCC_ASSIGN_OR_RETURN(Value b,
                             ctx.Invoke(s->o2, "TestStatus", {Value(kPaid)}));
      return Value(static_cast<int64_t>((a.AsBool() ? 1 : 0) |
                                        (b.AsBool() ? 2 : 0)));
    });
    out.t_right_committed = r.ok();
    sched.Signal("t4.done");
  });
  t1.join();
  t4.join();
  out.right_overlapped_left = RightOverlappedLeft(db, "T1", "T4");
  out.trace = CollectTrace(db);
  out.note = db->locks()->stats().ToString();
  return out;
}

// --- Figure 7 (Case 2) --------------------------------------------------------

ScenarioOutcome RunFig7(PaperScenario* s) {
  ScenarioOutcome out;
  Database* db = s->db.get();
  ScriptedSchedule& sched = s->schedule;

  std::thread t1([&]() {
    auto r = db->RunTransactionOnce("T1", [&](TxnCtx& ctx) -> Result<Value> {
      SEMCC_ASSIGN_OR_RETURN(
          Value a, ctx.Invoke(s->i1, "ShipOrderHold", {Value(s->ono1)}));
      (void)a;
      sched.Signal("ship.done");
      // Keep the transaction open so T5's resumption point is observable.
      sched.WaitFor("t5.done", milliseconds(2000));
      return ctx.Invoke(s->i2, "ShipOrder", {Value(s->ono2)});
    });
    out.t_left_committed = r.ok();
  });
  std::thread t5([&]() {
    sched.WaitFor("ship.cs.done");
    auto r = db->RunTransactionOnce("T5", [&](TxnCtx& ctx) -> Result<Value> {
      return ctx.Invoke(s->i1, "TotalPayment", {});
    });
    out.t_right_committed = r.ok();
    sched.Signal("t5.done");
  });

  // Observer: wait until T5 is parked in its lock wait (or concludes it will
  // not block), then release the held ShipOrder subtransaction.
  sched.WaitFor("ship.cs.done");
  bool saw_waiter = false;
  for (int i = 0; i < 200; ++i) {
    if (db->locks()->NumWaiters() > 0) {
      saw_waiter = true;
      break;
    }
    if (sched.HasFired("t5.done")) break;  // T5 was never blocked
    std::this_thread::sleep_for(milliseconds(5));
  }
  out.note = saw_waiter ? "T5 blocked while ShipOrder(i1,o1) was active"
                        : "T5 was never blocked";
  sched.Signal("release_ship");

  t1.join();
  t5.join();
  out.right_overlapped_left = RightOverlappedLeft(db, "T1", "T5");
  out.trace = CollectTrace(db);
  out.note += "; " + db->locks()->stats().ToString();
  return out;
}

}  // namespace orderentry
}  // namespace semcc

// Unit tests for the commutativity registry, including cell-by-cell checks
// of the paper's compatibility matrices (Figures 2 and 3).
#include <gtest/gtest.h>

#include "app/orderentry/order_entry.h"
#include "cc/compatibility.h"
#include "core/database.h"

namespace semcc {
namespace {

using namespace generic_ops;

TEST(Compatibility, UnknownPairsConflictByDefault) {
  CompatibilityRegistry reg;
  EXPECT_FALSE(reg.Commute(1, "Foo", {}, "Bar", {}));
  EXPECT_FALSE(reg.Commute(1, "Foo", {}, "Foo", {}));
}

TEST(Compatibility, StaticEntriesAreSymmetric) {
  CompatibilityRegistry reg;
  reg.Define(1, "A", "B", true);
  EXPECT_TRUE(reg.Commute(1, "A", {}, "B", {}));
  EXPECT_TRUE(reg.Commute(1, "B", {}, "A", {}));
  reg.Define(1, "C", "D", false);
  EXPECT_FALSE(reg.Commute(1, "C", {}, "D", {}));
  EXPECT_FALSE(reg.Commute(1, "D", {}, "C", {}));
}

TEST(Compatibility, EntriesArePerType) {
  CompatibilityRegistry reg;
  reg.Define(1, "A", "B", true);
  EXPECT_TRUE(reg.Commute(1, "A", {}, "B", {}));
  EXPECT_FALSE(reg.Commute(2, "A", {}, "B", {}));
}

TEST(Compatibility, PredicateReceivesArgsInRegistrationOrder) {
  CompatibilityRegistry reg;
  // Registered as (Zeta, Alpha): predicate's first args are Zeta's.
  reg.DefinePredicate(1, "Zeta", "Alpha", [](const Args& z, const Args& a) {
    return z.size() == 1 && a.size() == 2;
  });
  EXPECT_TRUE(reg.Commute(1, "Zeta", {Value(1)}, "Alpha", {Value(1), Value(2)}));
  EXPECT_TRUE(reg.Commute(1, "Alpha", {Value(1), Value(2)}, "Zeta", {Value(1)}));
  EXPECT_FALSE(reg.Commute(1, "Zeta", {Value(1), Value(2)}, "Alpha", {Value(1)}));
}

TEST(Compatibility, StaticEntryIntrospection) {
  CompatibilityRegistry reg;
  reg.Define(1, "A", "B", true);
  reg.DefinePredicate(1, "A", "C", [](const Args&, const Args&) { return true; });
  EXPECT_EQ(reg.StaticEntry(1, "A", "B"), true);
  EXPECT_EQ(reg.StaticEntry(1, "B", "A"), true);
  EXPECT_FALSE(reg.StaticEntry(1, "A", "C").has_value());
  EXPECT_TRUE(reg.HasPredicate(1, "A", "C"));
  EXPECT_FALSE(reg.HasPredicate(1, "A", "B"));
}

TEST(Compatibility, DeclareMethodDeduplicates) {
  CompatibilityRegistry reg;
  reg.DeclareMethod(1, "M");
  reg.DeclareMethod(1, "M");
  reg.DeclareMethod(1, "N");
  EXPECT_EQ(reg.MethodsOf(1).size(), 2u);
  EXPECT_TRUE(reg.MethodsOf(2).empty());
}

// --- built-in generic operation rules (paper §2.2 generic types) -----------

TEST(GenericCommute, AtomicObjects) {
  CompatibilityRegistry reg;
  EXPECT_TRUE(reg.Commute(9, kGet, {}, kGet, {}));
  EXPECT_FALSE(reg.Commute(9, kGet, {}, kPut, {Value(1)}));
  EXPECT_FALSE(reg.Commute(9, kPut, {Value(1)}, kPut, {Value(1)}));
}

TEST(GenericCommute, SetReadsCommute) {
  CompatibilityRegistry reg;
  EXPECT_TRUE(reg.Commute(9, kSelect, {Value(1)}, kSelect, {Value(1)}));
  EXPECT_TRUE(reg.Commute(9, kSelect, {Value(1)}, kScan, {}));
  EXPECT_TRUE(reg.Commute(9, kScan, {}, kScan, {}));
  EXPECT_TRUE(reg.Commute(9, kSize, {}, kSelect, {Value(1)}));
}

TEST(GenericCommute, KeyedUpdatesCommuteOnDifferentKeys) {
  CompatibilityRegistry reg;
  EXPECT_TRUE(reg.Commute(9, kInsert, {Value(1), Value::Ref(5)}, kInsert,
                          {Value(2), Value::Ref(6)}));
  EXPECT_FALSE(reg.Commute(9, kInsert, {Value(1), Value::Ref(5)}, kInsert,
                           {Value(1), Value::Ref(6)}));
  EXPECT_TRUE(reg.Commute(9, kInsert, {Value(1), Value::Ref(5)}, kRemove,
                          {Value(2)}));
  EXPECT_FALSE(
      reg.Commute(9, kInsert, {Value(1), Value::Ref(5)}, kRemove, {Value(1)}));
  EXPECT_TRUE(reg.Commute(9, kRemove, {Value(1)}, kSelect, {Value(2)}));
  EXPECT_FALSE(reg.Commute(9, kRemove, {Value(1)}, kSelect, {Value(1)}));
}

TEST(GenericCommute, MembershipSensitiveReadsConflictWithUpdates) {
  CompatibilityRegistry reg;
  EXPECT_FALSE(reg.Commute(9, kScan, {}, kInsert, {Value(1), Value::Ref(5)}));
  EXPECT_FALSE(reg.Commute(9, kSize, {}, kRemove, {Value(1)}));
}

TEST(GenericCommute, SymmetricOverEveryPair) {
  // Every set type takes these rules with no registered cell, so the
  // verdict may not depend on which invocation holds the lock.
  const std::vector<Args> samples = {
      {},
      {Value(1)},
      {Value(2)},
      {Value("k")},
      {Value(1), Value(2)},
      {Value(2), Value(5)},  // a (lo, hi) range holding key 2, not key 1
      {Value(1), Value(2), Value(3)},
  };
  for (MethodId a = 0; a < generic_ids::kNumGenericOps; ++a) {
    for (MethodId b = 0; b < generic_ids::kNumGenericOps; ++b) {
      for (const Args& x : samples) {
        for (const Args& y : samples) {
          EXPECT_EQ(CompatibilityRegistry::GenericCommute(a, x, b, y),
                    CompatibilityRegistry::GenericCommute(b, y, a, x))
              << a << ArgsToString(x) << " vs " << b << ArgsToString(y);
        }
      }
    }
  }
}

TEST(GenericCommute, PerTypeOverrideWins) {
  CompatibilityRegistry reg;
  // An explicit per-type entry overrides the generic rule.
  reg.Define(9, kGet, kPut, true);
  EXPECT_TRUE(reg.Commute(9, kGet, {}, kPut, {Value(1)}));
  EXPECT_FALSE(reg.Commute(8, kGet, {}, kPut, {Value(1)}));
}

// --- paper Figure 2 (Item), every cell ------------------------------------

struct ItemMatrixTest : public ::testing::Test {
  void SetUp() override {
    types = orderentry::Install(&db).ValueOrDie();
  }
  bool Cell(const std::string& a, const std::string& b) {
    // Representative parameters: all on the same order number. The first
    // NewOrder carries an OrderNo hint above that order, which the literal
    // Figure 2 ignores: NewOrder/ShipOrder and NewOrder/PayOrder still
    // conflict.
    Args args_a, args_b;
    if (a == "NewOrder") args_a = {Value(7), Value(1), Value(9)};
    if (a == "ShipOrder" || a == "PayOrder") args_a = {Value(1)};
    if (b == "NewOrder") args_b = {Value(8), Value(2)};
    if (b == "ShipOrder" || b == "PayOrder") args_b = {Value(1)};
    return db.compat()->Commute(types.item, a, args_a, b, args_b);
  }
  Database db;
  orderentry::OrderEntryTypes types;
};

TEST_F(ItemMatrixTest, Figure2AllCells) {
  const char* m[4] = {"NewOrder", "ShipOrder", "PayOrder", "TotalPayment"};
  const bool expected[4][4] = {
      // NewOrder  ShipOrder  PayOrder  TotalPayment
      {true, false, false, true},   // NewOrder
      {false, false, true, true},   // ShipOrder
      {false, true, false, false},  // PayOrder
      {true, true, false, true},    // TotalPayment
  };
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(Cell(m[i], m[j]), expected[i][j])
          << m[i] << " vs " << m[j];
    }
  }
}

TEST_F(ItemMatrixTest, Figure2IsSymmetric) {
  const char* m[4] = {"NewOrder", "ShipOrder", "PayOrder", "TotalPayment"};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(Cell(m[i], m[j]), Cell(m[j], m[i])) << m[i] << "/" << m[j];
    }
  }
}

TEST_F(ItemMatrixTest, AllFourMethodsDeclared) {
  auto methods = db.compat()->MethodsOf(types.item);
  EXPECT_GE(methods.size(), 4u);
}

TEST(ItemMatrixRefined, ParameterRefinedShipPairs) {
  Database db;
  orderentry::InstallOptions opts;
  opts.parameter_refined_item_matrix = true;
  auto types = orderentry::Install(&db, opts).ValueOrDie();
  // Different order numbers commute; the same order number conflicts.
  EXPECT_TRUE(db.compat()->Commute(types.item, "ShipOrder", {Value(1)},
                                   "ShipOrder", {Value(2)}));
  EXPECT_FALSE(db.compat()->Commute(types.item, "ShipOrder", {Value(1)},
                                    "ShipOrder", {Value(1)}));
  EXPECT_TRUE(db.compat()->Commute(types.item, "PayOrder", {Value(3)},
                                   "PayOrder", {Value(4)}));
  EXPECT_FALSE(db.compat()->Commute(types.item, "PayOrder", {Value(3)},
                                    "PayOrder", {Value(3)}));
}

TEST(ItemMatrixRefined, NewOrderCommutesWithShipAndPayBelowHint) {
  Database db;
  orderentry::InstallOptions opts;
  opts.parameter_refined_item_matrix = true;
  auto types = orderentry::Install(&db, opts).ValueOrDie();
  const CompatibilityRegistry* c = db.compat();
  const Args hinted = {Value(7), Value(1), Value(5)};  // allocates >= 5
  for (const char* other : {"ShipOrder", "PayOrder"}) {
    // Commute only for an integer order number below the integer hint, in
    // either query order.
    EXPECT_TRUE(c->Commute(types.item, "NewOrder", hinted, other, {Value(4)}))
        << other;
    EXPECT_TRUE(c->Commute(types.item, other, {Value(1)}, "NewOrder", hinted))
        << other;
    EXPECT_FALSE(c->Commute(types.item, "NewOrder", hinted, other, {Value(5)}))
        << other << ": k == h";
    EXPECT_FALSE(c->Commute(types.item, other, {Value(6)}, "NewOrder", hinted))
        << other << ": k > h";
    EXPECT_FALSE(c->Commute(types.item, "NewOrder", {Value(7), Value(1)},
                            other, {Value(1)}))
        << other << ": no hint";
    EXPECT_FALSE(c->Commute(types.item, "NewOrder",
                            {Value(7), Value(1), Value("5")}, other,
                            {Value(1)}))
        << other << ": string hint";
    EXPECT_FALSE(
        c->Commute(types.item, "NewOrder", hinted, other, {Value("1")}))
        << other << ": string order number";
    EXPECT_TRUE(c->HasPredicate(types.item, "NewOrder", other)) << other;
  }
}

// --- paper Figure 3 (Order), every cell -------------------------------------

struct OrderMatrixTest : public ItemMatrixTest {
  bool OrderCell(const std::string& a, const std::string& ea,
                 const std::string& b, const std::string& eb) {
    return db.compat()->Commute(types.order, a, {Value(ea)}, b, {Value(eb)});
  }
};

TEST_F(OrderMatrixTest, Figure3AllCells) {
  using orderentry::kPaid;
  using orderentry::kShipped;
  // ChangeStatus commutes with itself regardless of events.
  EXPECT_TRUE(OrderCell("ChangeStatus", kShipped, "ChangeStatus", kShipped));
  EXPECT_TRUE(OrderCell("ChangeStatus", kShipped, "ChangeStatus", kPaid));
  EXPECT_TRUE(OrderCell("ChangeStatus", kPaid, "ChangeStatus", kPaid));
  // ChangeStatus(e) vs TestStatus(e'): conflict iff e == e'.
  EXPECT_FALSE(OrderCell("ChangeStatus", kShipped, "TestStatus", kShipped));
  EXPECT_TRUE(OrderCell("ChangeStatus", kShipped, "TestStatus", kPaid));
  EXPECT_TRUE(OrderCell("ChangeStatus", kPaid, "TestStatus", kShipped));
  EXPECT_FALSE(OrderCell("ChangeStatus", kPaid, "TestStatus", kPaid));
  // TestStatus pairs always commute.
  EXPECT_TRUE(OrderCell("TestStatus", kShipped, "TestStatus", kShipped));
  EXPECT_TRUE(OrderCell("TestStatus", kShipped, "TestStatus", kPaid));
  EXPECT_TRUE(OrderCell("TestStatus", kPaid, "TestStatus", kPaid));
}

TEST_F(OrderMatrixTest, UnchangeStatusBehavesLikeChangeStatus) {
  using orderentry::kPaid;
  using orderentry::kShipped;
  EXPECT_TRUE(OrderCell("UnchangeStatus", kShipped, "ChangeStatus", kPaid));
  EXPECT_TRUE(OrderCell("UnchangeStatus", kShipped, "UnchangeStatus", kPaid));
  EXPECT_FALSE(OrderCell("UnchangeStatus", kShipped, "TestStatus", kShipped));
  EXPECT_TRUE(OrderCell("UnchangeStatus", kShipped, "TestStatus", kPaid));
}

TEST_F(OrderMatrixTest, Figure3IsSymmetric) {
  using orderentry::kPaid;
  using orderentry::kShipped;
  const char* methods[] = {"ChangeStatus", "TestStatus", "UnchangeStatus"};
  const char* events[] = {kShipped, kPaid};
  for (const char* ma : methods) {
    for (const char* mb : methods) {
      for (const char* ea : events) {
        for (const char* eb : events) {
          EXPECT_EQ(OrderCell(ma, ea, mb, eb), OrderCell(mb, eb, ma, ea))
              << ma << "(" << ea << ") vs " << mb << "(" << eb << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace semcc

// Unit tests for the object model: values, schema, and the object store.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "object/object_store.h"
#include "object/schema.h"
#include "object/value.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace semcc {
namespace {

// --- Value ----------------------------------------------------------------

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(int64_t{-7}).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value::Ref(42).AsRef(), 42u);
}

TEST(Value, SerializeRoundTripAllTypes) {
  const Value values[] = {Value(),          Value(true),
                          Value(false),     Value(int64_t{1234567890123}),
                          Value(-3.75),     Value(std::string("hello world")),
                          Value(""),        Value::Ref(9999)};
  for (const Value& v : values) {
    auto back = Value::Deserialize(v.Serialize());
    ASSERT_TRUE(back.ok()) << v.ToString();
    EXPECT_EQ(back.ValueOrDie(), v) << v.ToString();
  }
}

TEST(Value, DeserializeRejectsGarbage) {
  EXPECT_TRUE(Value::Deserialize("").status().IsCorruption());
  EXPECT_TRUE(Value::Deserialize("\x02\x01").status().IsCorruption());
  EXPECT_TRUE(Value::Deserialize("\x63").status().IsCorruption());
}

TEST(Value, EqualityDistinguishesTypes) {
  EXPECT_NE(Value(int64_t{1}), Value(true));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
}

TEST(Value, TotalOrderForKeys) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value("a") < Value("b"));
  EXPECT_FALSE(Value(int64_t{2}) < Value(int64_t{1}));
}

TEST(Value, ToStringFormats) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Ref(3).ToString(), "@3");
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(ArgsToString({Value(1), Value("a")}), "(1, \"a\")");
}

// --- Schema -----------------------------------------------------------------

TEST(Schema, DatabaseTypePreRegistered) {
  Schema s;
  auto db = s.Get(Schema::kDatabaseTypeId).ValueOrDie();
  EXPECT_EQ(db.name, "Database");
}

TEST(Schema, DefineAndLookupTypes) {
  Schema s;
  TypeId num = s.DefineAtomicType("Num").ValueOrDie();
  TypeId tup =
      s.DefineTupleType("Pair", {{"a", num}, {"b", num}}, true).ValueOrDie();
  TypeId set = s.DefineSetType("Pairs", tup, "a").ValueOrDie();
  EXPECT_EQ(s.Get(tup).ValueOrDie().components.size(), 2u);
  EXPECT_TRUE(s.Get(tup).ValueOrDie().encapsulated);
  EXPECT_EQ(s.Get(set).ValueOrDie().member_type, tup);
  EXPECT_EQ(s.GetByName("Num").ValueOrDie().id, num);
  EXPECT_EQ(s.TypeName(tup), "Pair");
}

TEST(Schema, RejectsDuplicates) {
  Schema s;
  ASSERT_TRUE(s.DefineAtomicType("X").ok());
  EXPECT_TRUE(s.DefineAtomicType("X").status().IsAlreadyExists());
}

TEST(Schema, RejectsDuplicateComponents) {
  Schema s;
  TypeId num = s.DefineAtomicType("Num").ValueOrDie();
  EXPECT_TRUE(s.DefineTupleType("Bad", {{"a", num}, {"a", num}}, false)
                  .status()
                  .IsInvalidArgument());
}

TEST(Schema, UnknownLookupsFail) {
  Schema s;
  EXPECT_TRUE(s.Get(999).status().IsNotFound());
  EXPECT_TRUE(s.GetByName("nope").status().IsNotFound());
}

// --- ObjectStore ---------------------------------------------------------------

struct ObjectStoreTest : public ::testing::Test {
  ObjectStoreTest() : pool(256, &disk), rm(&pool), store(&schema, &rm) {
    num = schema.DefineAtomicType("Num").ValueOrDie();
    pair = schema.DefineTupleType("Pair", {{"x", num}, {"y", num}}, false)
               .ValueOrDie();
    bag = schema.DefineSetType("Bag", pair, "x").ValueOrDie();
  }
  DiskManager disk;
  BufferPool pool;
  RecordManager rm;
  Schema schema;
  ObjectStore store;
  TypeId num, pair, bag;
};

TEST_F(ObjectStoreTest, AtomicGetPut) {
  Oid a = store.CreateAtomic(num, Value(int64_t{10})).ValueOrDie();
  EXPECT_EQ(store.Get(a).ValueOrDie().AsInt(), 10);
  ASSERT_TRUE(store.Put(a, Value(int64_t{20})).ok());
  EXPECT_EQ(store.Get(a).ValueOrDie().AsInt(), 20);
  ASSERT_TRUE(store.Put(a, Value("now a string")).ok());
  EXPECT_EQ(store.Get(a).ValueOrDie().AsString(), "now a string");
}

TEST_F(ObjectStoreTest, TupleComponents) {
  Oid x = store.CreateAtomic(num, Value(1)).ValueOrDie();
  Oid y = store.CreateAtomic(num, Value(2)).ValueOrDie();
  Oid t = store.CreateTuple(pair, {{"x", x}, {"y", y}}).ValueOrDie();
  EXPECT_EQ(store.Component(t, "x").ValueOrDie(), x);
  EXPECT_EQ(store.Component(t, "y").ValueOrDie(), y);
  EXPECT_TRUE(store.Component(t, "z").status().IsNotFound());
  EXPECT_EQ(store.Components(t).ValueOrDie().size(), 2u);
}

TEST_F(ObjectStoreTest, TupleValidation) {
  Oid x = store.CreateAtomic(num, Value(1)).ValueOrDie();
  EXPECT_TRUE(store.CreateTuple(pair, {{"x", x}}).status().IsInvalidArgument());
  EXPECT_TRUE(store.CreateTuple(num, {}).status().IsInvalidArgument());
  EXPECT_TRUE(store.CreateTuple(pair, {{"x", x}, {"wrong", x}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ObjectStoreTest, SetInsertSelectRemoveScan) {
  Oid s = store.CreateSet(bag).ValueOrDie();
  Oid x = store.CreateAtomic(num, Value(1)).ValueOrDie();
  Oid y = store.CreateAtomic(num, Value(2)).ValueOrDie();
  Oid t1 = store.CreateTuple(pair, {{"x", x}, {"y", y}}).ValueOrDie();
  ASSERT_TRUE(store.SetInsert(s, Value(1), t1).ok());
  EXPECT_TRUE(store.SetInsert(s, Value(1), t1).IsAlreadyExists());
  EXPECT_EQ(store.SetSelect(s, Value(1)).ValueOrDie(), t1);
  EXPECT_TRUE(store.SetSelect(s, Value(2)).status().IsNotFound());
  EXPECT_EQ(store.SetSize(s).ValueOrDie(), 1u);
  auto scan = store.SetScan(s).ValueOrDie();
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0].first, Value(1));
  ASSERT_TRUE(store.SetRemove(s, Value(1)).ok());
  EXPECT_TRUE(store.SetRemove(s, Value(1)).IsNotFound());
  EXPECT_EQ(store.SetSize(s).ValueOrDie(), 0u);
}

TEST_F(ObjectStoreTest, KindMismatchErrors) {
  Oid a = store.CreateAtomic(num, Value(1)).ValueOrDie();
  EXPECT_TRUE(store.SetInsert(a, Value(1), a).IsInvalidArgument());
  EXPECT_TRUE(store.Component(a, "x").status().IsInvalidArgument());
  Oid s = store.CreateSet(bag).ValueOrDie();
  EXPECT_TRUE(store.Get(s).status().IsInvalidArgument());
}

TEST_F(ObjectStoreTest, RidAndPageReflection) {
  Oid a = store.CreateAtomic(num, Value(1)).ValueOrDie();
  Oid b = store.CreateAtomic(num, Value(2)).ValueOrDie();
  Rid ra = store.RidOf(a).ValueOrDie();
  Rid rb = store.RidOf(b).ValueOrDie();
  EXPECT_NE(ra, rb);
  EXPECT_EQ(store.PageOf(a).ValueOrDie(), ra.page_id);
  // Clustered allocation: adjacent atoms share a page.
  EXPECT_EQ(ra.page_id, rb.page_id);
  // The database root has no storage record.
  EXPECT_TRUE(store.RidOf(kDatabaseOid).status().IsNotFound());
}

TEST_F(ObjectStoreTest, DestroyMakesObjectUnreachable) {
  Oid a = store.CreateAtomic(num, Value(1)).ValueOrDie();
  ASSERT_TRUE(store.Destroy(a).ok());
  EXPECT_TRUE(store.Get(a).status().IsNotFound());
  EXPECT_TRUE(store.KindOf(a).status().IsNotFound());
}

TEST_F(ObjectStoreTest, UnknownOidFails) {
  EXPECT_TRUE(store.Get(424242).status().IsNotFound());
}

TEST_F(ObjectStoreTest, ValuesSurviveBufferPoolPressure) {
  // More atoms than the pool (tiny pool forces eviction + reload).
  DiskManager small_disk;
  BufferPool small_pool(2, &small_disk);
  RecordManager small_rm(&small_pool);
  ObjectStore s2(&schema, &small_rm);
  std::vector<Oid> oids;
  for (int i = 0; i < 2000; ++i) {
    oids.push_back(
        s2.CreateAtomic(num, Value(static_cast<int64_t>(i))).ValueOrDie());
  }
  for (int i = 0; i < 2000; i += 123) {
    EXPECT_EQ(s2.Get(oids[i]).ValueOrDie().AsInt(), i);
  }
}

TEST_F(ObjectStoreTest, RestorePadsGapsAcrossChunks) {
  // A restore past the end pads the oids in between with destroyed
  // placeholders, across a directory chunk boundary; a later restore may
  // fill a pad, but not a live oid.
  const Oid far = ObjectStore::kChunkSize + 5;
  ASSERT_TRUE(store.RestoreAtomic(far, num, Value(7)).ok());
  EXPECT_EQ(store.num_objects(), far + 1);
  EXPECT_EQ(store.Get(far).ValueOrDie().AsInt(), 7);
  EXPECT_TRUE(store.TypeOf(far - 1).status().IsNotFound());
  EXPECT_TRUE(store.TypeOf(ObjectStore::kChunkSize).status().IsNotFound());
  ASSERT_TRUE(store.RestoreAtomic(far - 1, num, Value(6)).ok());
  EXPECT_EQ(store.Get(far - 1).ValueOrDie().AsInt(), 6);
  EXPECT_TRUE(store.RestoreAtomic(far, num, Value(8)).IsAlreadyExists());
  EXPECT_EQ(store.Get(far).ValueOrDie().AsInt(), 7);
  EXPECT_TRUE(store.RestoreAtomic(ObjectStore::kMaxObjects, num, Value(1))
                  .IsOutOfSpace());
  // Creates continue after the restored end.
  EXPECT_EQ(store.CreateAtomic(num, Value(9)).ValueOrDie(), far + 1);
}

TEST_F(ObjectStoreTest, LookupsRaceCreatesAndDestroys) {
  // Lookups take no lock. While one thread creates atoms across several
  // directory chunks and destroys every third, readers look up oids up to
  // the last one published: each lookup finds the object with its own type
  // and value, or reports it destroyed.
  constexpr int kCreates = 3 * static_cast<int>(ObjectStore::kChunkSize) + 17;
  constexpr int kReaders = 2;
  const Oid first = store.num_objects();
  std::atomic<Oid> last{first - 1};
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> found{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      started.fetch_add(1);
      uint32_t x = 99u + static_cast<uint32_t>(r);
      // Keep looking for a while after the last create, so every reader
      // sees the whole directory at least once.
      for (int after = 0; after < 1000;) {
        if (done.load(std::memory_order_acquire)) ++after;
        const Oid hi = last.load(std::memory_order_acquire);
        if (hi < first) continue;
        x = x * 1103515245u + 12345u;
        const Oid oid = first + (x >> 8) % (hi - first + 1);
        const auto type = store.TypeOf(oid);
        const auto value = store.Get(oid);
        if (type.ok() && type.ValueOrDie() != num) wrong.fetch_add(1);
        if (!type.ok() && !type.status().IsNotFound()) wrong.fetch_add(1);
        if (value.ok()) {
          found.fetch_add(1);
          if (value.ValueOrDie().AsInt() != static_cast<int64_t>(oid - first)) {
            wrong.fetch_add(1);
          }
        } else if (!value.status().IsNotFound()) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  while (started.load() != kReaders) std::this_thread::yield();
  for (int i = 0; i < kCreates; ++i) {
    const Oid oid = store.CreateAtomic(num, Value(int64_t{i})).ValueOrDie();
    EXPECT_EQ(oid, first + static_cast<Oid>(i));
    last.store(oid, std::memory_order_release);
    if (i % 3 == 0) {
      EXPECT_TRUE(store.Destroy(oid).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(found.load(), 0u);
  EXPECT_EQ(store.num_objects(), first + kCreates);
  EXPECT_TRUE(store.Get(first).status().IsNotFound());
  EXPECT_EQ(store.Get(first + 1).ValueOrDie().AsInt(), 1);
}

}  // namespace
}  // namespace semcc

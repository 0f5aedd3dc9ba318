// Unit tests for the storage substrate: slotted pages, disk manager, buffer
// pool (CLOCK, dirty write-back, pin exhaustion), record manager.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/record_manager.h"
#include "test_env.h"
#include "util/coding.h"

namespace semcc {
namespace {

// --- Page ---------------------------------------------------------------

TEST(Page, InsertAndRead) {
  Page p;
  p.Reset(7);
  EXPECT_EQ(p.page_id(), 7u);
  uint16_t slot = p.Insert("hello").ValueOrDie();
  EXPECT_EQ(p.Read(slot).ValueOrDie(), "hello");
  EXPECT_EQ(p.LiveRecords(), 1);
}

TEST(Page, MultipleRecordsKeepSlots) {
  Page p;
  p.Reset(0);
  std::vector<uint16_t> slots;
  for (int i = 0; i < 50; ++i) {
    slots.push_back(p.Insert("rec" + std::to_string(i)).ValueOrDie());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.Read(slots[i]).ValueOrDie(), "rec" + std::to_string(i));
  }
}

TEST(Page, DeleteTombstones) {
  Page p;
  p.Reset(0);
  uint16_t a = p.Insert("a").ValueOrDie();
  uint16_t b = p.Insert("b").ValueOrDie();
  ASSERT_TRUE(p.Delete(a).ok());
  EXPECT_TRUE(p.Read(a).status().IsNotFound());
  EXPECT_EQ(p.Read(b).ValueOrDie(), "b");
  EXPECT_TRUE(p.Delete(a).IsNotFound());  // double delete
  EXPECT_EQ(p.LiveRecords(), 1);
}

TEST(Page, UpdateInPlaceAndGrow) {
  Page p;
  p.Reset(0);
  uint16_t s = p.Insert("aaaa").ValueOrDie();
  ASSERT_TRUE(p.Update(s, "bb").ok());  // shrink in place
  EXPECT_EQ(p.Read(s).ValueOrDie(), "bb");
  ASSERT_TRUE(p.Update(s, std::string(100, 'x')).ok());  // relocate
  EXPECT_EQ(p.Read(s).ValueOrDie(), std::string(100, 'x'));
}

TEST(Page, FillsUpThenRejects) {
  Page p;
  p.Reset(0);
  const std::string rec(100, 'r');
  int inserted = 0;
  while (true) {
    auto r = p.Insert(rec);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsOutOfSpace());
      break;
    }
    inserted++;
  }
  // 4 KiB page, 104 bytes per record incl. slot entry: ~39 fit.
  EXPECT_GT(inserted, 30);
  EXPECT_LT(inserted, 45);
}

TEST(Page, CompactionReclaimsDeletedSpace) {
  Page p;
  p.Reset(0);
  std::vector<uint16_t> slots;
  const std::string rec(100, 'r');
  while (true) {
    auto r = p.Insert(rec);
    if (!r.ok()) break;
    slots.push_back(r.ValueOrDie());
  }
  // Free half the records; the holes are not contiguous.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(p.Delete(slots[i]).ok());
  }
  // New inserts must succeed after internal compaction.
  auto r = p.Insert(std::string(200, 'n'));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(p.Read(r.ValueOrDie()).ValueOrDie(), std::string(200, 'n'));
  // Survivors are intact.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(p.Read(slots[i]).ValueOrDie(), rec);
  }
}

TEST(Page, RejectsOversizedRecord) {
  Page p;
  p.Reset(0);
  EXPECT_TRUE(p.Insert(std::string(kPageSize, 'x')).status().IsInvalidArgument());
}

TEST(Page, ReadInvalidSlot) {
  Page p;
  p.Reset(0);
  EXPECT_TRUE(p.Read(3).status().IsNotFound());
}

// --- DiskManager ----------------------------------------------------------

TEST(DiskManager, AllocateReadWrite) {
  DiskManager disk;
  PageId id = disk.AllocatePage();
  Page p;
  p.Reset(id);
  uint16_t slot = p.Insert("persisted").ValueOrDie();
  ASSERT_TRUE(disk.WritePage(id, p.data()).ok());
  Page q;
  ASSERT_TRUE(disk.ReadPage(id, q.data()).ok());
  EXPECT_EQ(q.Read(slot).ValueOrDie(), "persisted");
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(DiskManager, ReadBeyondImageFails) {
  DiskManager disk;
  Page p;
  EXPECT_TRUE(disk.ReadPage(5, p.data()).IsNotFound());
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, NewPageIsPinnedAndUsable) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  auto guard = pool.NewPage().ValueOrDie();
  ASSERT_TRUE(guard.valid());
  uint16_t slot = guard->Insert("x").ValueOrDie();
  EXPECT_EQ(guard->Read(slot).ValueOrDie(), "x");
}

TEST(BufferPool, EvictionWritesBackDirtyPages) {
  DiskManager disk;
  BufferPool pool(2, &disk);
  PageId first;
  uint16_t slot;
  {
    auto g = pool.NewPage().ValueOrDie();
    first = g->page_id();
    slot = g->Insert("dirty data").ValueOrDie();
    g.MarkDirty();
  }
  // Evict `first` by cycling more pages than frames.
  for (int i = 0; i < 4; ++i) {
    auto g = pool.NewPage().ValueOrDie();
    g.MarkDirty();
  }
  auto g = pool.FetchPage(first).ValueOrDie();
  EXPECT_EQ(g->Read(slot).ValueOrDie(), "dirty data");
}

TEST(BufferPool, ExhaustionWhenAllPinned) {
  DiskManager disk;
  BufferPool pool(2, &disk);
  auto a = pool.NewPage().ValueOrDie();
  auto b = pool.NewPage().ValueOrDie();
  auto c = pool.NewPage();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsOutOfSpace());
  a.Release();
  auto d = pool.NewPage();
  EXPECT_TRUE(d.ok());
}

TEST(BufferPool, HitsAndMissesCounted) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  PageId id;
  {
    auto g = pool.NewPage().ValueOrDie();
    id = g->page_id();
    g.MarkDirty();
  }
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  (void)pool.FetchPage(id).ValueOrDie();  // hit (still resident)
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPool, HotPageSurvivesColdMisses) {
  // Second chance: a page hit between misses keeps its frame while pages
  // read once each stream through the rest of the pool.
  DiskManager disk;
  BufferPool pool(4, &disk);
  constexpr int kCold = 64;
  constexpr int kRounds = 1000;
  PageId hot;
  {
    auto g = pool.NewPage().ValueOrDie();
    hot = g->page_id();
  }
  std::vector<PageId> cold;
  for (int i = 0; i < kCold; ++i) {
    auto g = pool.NewPage().ValueOrDie();
    cold.push_back(g->page_id());
  }
  ASSERT_TRUE(pool.FetchPage(hot).ok());  // resident again
  const uint64_t misses_before = pool.misses();
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(pool.FetchPage(hot).ok());
    ASSERT_TRUE(pool.FetchPage(cold[round % kCold]).ok());
  }
  // Every cold fetch misses; the hot page never does.
  EXPECT_EQ(pool.misses() - misses_before, static_cast<uint64_t>(kRounds));
}

TEST(BufferPool, FlushAllPersistsEverything) {
  DiskManager disk;
  uint16_t slot;
  PageId id;
  {
    BufferPool pool(4, &disk);
    auto g = pool.NewPage().ValueOrDie();
    id = g->page_id();
    slot = g->Insert("flushed").ValueOrDie();
    g.MarkDirty();
    g.Release();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  Page p;
  ASSERT_TRUE(disk.ReadPage(id, p.data()).ok());
  EXPECT_EQ(p.Read(slot).ValueOrDie(), "flushed");
}

TEST(BufferPool, FailedFetchPublishesNoFrame) {
  // A page the disk cannot read must not stay in the page table, or the
  // next fetch of it would "hit" a frame that was never filled.
  DiskManager disk;
  BufferPool pool(4, &disk);
  const PageId missing = 999;
  EXPECT_TRUE(pool.FetchPage(missing).status().IsNotFound());
  EXPECT_TRUE(pool.FetchPage(missing).status().IsNotFound());
  // The frame went back to the pool: all four can still be pinned at once.
  std::vector<PageGuard> pinned;
  for (int i = 0; i < 4; ++i) pinned.push_back(pool.NewPage().ValueOrDie());
}

TEST(BufferPool, ConcurrentFetchNeverSeesAFrameStillLoading) {
  // A fetch that hits a page another thread is reading in from disk must
  // see that page, never the frame's previous occupant. Each page carries
  // its own id in its header, so a stale frame shows as a wrong id.
  DiskManager disk;
  constexpr int kPages = 32;
  constexpr int kThreads = 4;
  BufferPool pool(8, &disk);
  for (int i = 0; i < kPages; ++i) {
    auto g = pool.NewPage().ValueOrDie();
    g.MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  std::atomic<int> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint32_t x = 12345u + static_cast<uint32_t>(t);
      for (int i = 0; i < 50000; ++i) {
        x = x * 1103515245u + 12345u;
        const auto id = static_cast<PageId>((x >> 16) % kPages);
        auto g = pool.FetchPage(id);
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        g.ValueOrDie()->RLatch();
        if (g.ValueOrDie()->page_id() != id) stale.fetch_add(1);
        g.ValueOrDie()->RUnlatch();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stale.load(), 0);
}

std::string EncodeCounter(uint64_t v) {
  std::string out;
  PutU64(&out, v);
  return out;
}

uint64_t DecodeCounter(std::string_view record) {
  uint64_t v = 0;
  EXPECT_TRUE(Decoder(record).GetU64(&v));
  return v;
}

// Victims are chosen and written back while other threads pin, update and
// unpin pages: every increment must reach the disk image. Each page holds
// one fixed-width counter per thread, so every Update stays in place, and
// its header holds its id, so a stale frame shows as a wrong id.
void ConcurrentWritesSurviveEviction(size_t frames, int pages, int rounds) {
  DiskManager disk;
  constexpr int kThreads = 4;
  BufferPool pool(frames, &disk);
  std::vector<PageId> ids;
  for (int i = 0; i < pages; ++i) {
    auto g = pool.NewPage().ValueOrDie();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(g->Insert(EncodeCounter(0)).ValueOrDie(),
                static_cast<uint16_t>(t));
    }
    ids.push_back(g->page_id());
  }
  // increments[t][p]: how often thread t bumped its counter on page p.
  std::vector<std::vector<uint64_t>> increments(
      kThreads, std::vector<uint64_t>(pages, 0));
  std::atomic<int> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const auto slot = static_cast<uint16_t>(t);
      uint32_t x = 777u + static_cast<uint32_t>(t);
      for (int i = 0; i < rounds; ++i) {
        x = x * 1103515245u + 12345u;
        const int p = static_cast<int>((x >> 16) % pages);
        auto fetched = pool.FetchPage(ids[p]);
        ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
        PageGuard g = std::move(fetched).ValueOrDie();
        g->WLatch();
        if (g->page_id() != ids[p]) stale.fetch_add(1);
        const uint64_t v = DecodeCounter(g->Read(slot).ValueOrDie());
        const Status st = g->Update(slot, EncodeCounter(v + 1));
        g->WUnlatch();
        ASSERT_TRUE(st.ok()) << st.ToString();
        g.MarkDirty();
        increments[t][p]++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stale.load(), 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  for (int p = 0; p < pages; ++p) {
    Page image;
    ASSERT_TRUE(disk.ReadPage(ids[p], image.data()).ok());
    for (int t = 0; t < kThreads; ++t) {
      const auto slot = static_cast<uint16_t>(t);
      EXPECT_EQ(DecodeCounter(image.Read(slot).ValueOrDie()), increments[t][p])
          << "page " << p << " thread " << t;
    }
  }
}

TEST(BufferPool, ConcurrentDirtyWritesSurviveEviction) {
  // One partition: 8 frames over 32 pages.
  ConcurrentWritesSurviveEviction(
      8, 32, 100 * test_env::IterCount("SEMCC_STRESS_ITERS", 200));
}

TEST(BufferPool, ConcurrentWritesAcrossPartitionsSurviveEviction) {
  // Four partitions of 64 frames over 512 pages, so every partition evicts
  // while other threads use the others.
  ASSERT_EQ(BufferPool::PartitionCount(256), 4u);
  ConcurrentWritesSurviveEviction(
      256, 512, 50 * test_env::IterCount("SEMCC_STRESS_ITERS", 200));
}

TEST(BufferPool, PartitionCountFollowsPoolSize) {
  // A power of two up to 16, with at least 64 frames per partition; pools
  // under 128 frames keep one, so small-pool eviction counts are exact.
  EXPECT_EQ(BufferPool::PartitionCount(1), 1u);
  EXPECT_EQ(BufferPool::PartitionCount(4), 1u);
  EXPECT_EQ(BufferPool::PartitionCount(127), 1u);
  EXPECT_EQ(BufferPool::PartitionCount(128), 2u);
  EXPECT_EQ(BufferPool::PartitionCount(256), 4u);
  EXPECT_EQ(BufferPool::PartitionCount(1000), 8u);
  EXPECT_EQ(BufferPool::PartitionCount(4096), 16u);
  EXPECT_EQ(BufferPool::PartitionCount(1 << 20), 16u);
  DiskManager disk;
  BufferPool pool(300, &disk);
  EXPECT_EQ(pool.num_partitions(), 4u);
  EXPECT_EQ(pool.pool_size(), 300u);
}

TEST(BufferPool, PartitionedPoolServesMorePagesThanFrames) {
  // Four times as many pages as frames, spread over the partitions: every
  // page reads back what was written to it, and each fetch counts once as
  // a hit or a miss.
  DiskManager disk;
  BufferPool pool(256, &disk);
  ASSERT_GT(pool.num_partitions(), 1u);
  constexpr int kPages = 1024;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto g = pool.NewPage().ValueOrDie();
    ASSERT_EQ(g->Insert(EncodeCounter(static_cast<uint64_t>(i))).ValueOrDie(),
              0u);
    ids.push_back(g->page_id());
  }
  const uint64_t before = pool.hits() + pool.misses();
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kPages; ++i) {
      auto g = pool.FetchPage(ids[i]).ValueOrDie();
      EXPECT_EQ(DecodeCounter(g->Read(0).ValueOrDie()),
                static_cast<uint64_t>(i));
    }
  }
  EXPECT_EQ(pool.hits() + pool.misses() - before, 2u * kPages);
  EXPECT_GE(pool.misses(), static_cast<uint64_t>(kPages));
}

// --- RecordManager ------------------------------------------------------------

struct RecordManagerTest : public ::testing::Test {
  RecordManagerTest() : pool(64, &disk), rm(&pool) {}
  DiskManager disk;
  BufferPool pool;
  RecordManager rm;
};

TEST_F(RecordManagerTest, InsertReadUpdateDelete) {
  Rid rid = rm.Insert("value-1").ValueOrDie();
  EXPECT_TRUE(rid.valid());
  EXPECT_EQ(rm.Read(rid).ValueOrDie(), "value-1");
  ASSERT_TRUE(rm.Update(rid, "value-2").ok());
  EXPECT_EQ(rm.Read(rid).ValueOrDie(), "value-2");
  ASSERT_TRUE(rm.Delete(rid).ok());
  EXPECT_TRUE(rm.Read(rid).status().IsNotFound());
}

TEST_F(RecordManagerTest, SpillsAcrossPages) {
  std::vector<Rid> rids;
  const std::string rec(500, 'z');
  for (int i = 0; i < 100; ++i) rids.push_back(rm.Insert(rec).ValueOrDie());
  // 4 KiB pages hold ~8 of these: multiple pages in play.
  EXPECT_GT(rids.back().page_id, rids.front().page_id);
  for (const Rid& rid : rids) EXPECT_EQ(rm.Read(rid).ValueOrDie(), rec);
}

TEST_F(RecordManagerTest, ClusteredInsertsShareAPage) {
  Rid a = rm.Insert("a").ValueOrDie();
  Rid b = rm.Insert("b").ValueOrDie();
  // Insertion clustering is what makes page-granularity locking contend.
  EXPECT_EQ(a.page_id, b.page_id);
}

TEST_F(RecordManagerTest, ManySmallRecords) {
  std::vector<Rid> rids;
  for (int i = 0; i < 5000; ++i) {
    rids.push_back(rm.Insert(std::string("r").append(std::to_string(i)))
                       .ValueOrDie());
  }
  for (int i = 0; i < 5000; i += 997) {
    EXPECT_EQ(rm.Read(rids[i]).ValueOrDie(),
              std::string("r").append(std::to_string(i)));
  }
  EXPECT_EQ(rm.num_inserts(), 5000u);
}

TEST(Rid, ToStringAndEquality) {
  Rid a{3, 4};
  Rid b{3, 4};
  Rid c{3, 5};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(), "3.4");
  EXPECT_NE(RidHash()(a), RidHash()(c));
}

}  // namespace
}  // namespace semcc

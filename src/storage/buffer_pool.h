// BufferPool: fixed set of in-memory frames over the DiskManager with CLOCK
// (second-chance) eviction and pin counting.
#ifndef SEMCC_STORAGE_BUFFER_POOL_H_
#define SEMCC_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/result.h"

namespace semcc {

/// \brief RAII pin on a buffered page. Unpins (and marks dirty, if requested)
/// on destruction.
class PageGuard;

/// \brief Buffer pool with CLOCK (second-chance) replacement.
///
/// A hit only sets the frame's reference bit (see Evict for the sweep). A
/// frame filled by a miss starts with its bit clear, so a page read once and
/// not hit again is the next victim.
///
/// The pool is split into partitions (PartitionCount), each with its own
/// mutex, frame range, page table, free list, CLOCK hand and hit/miss
/// counters. A hash of the page id picks the partition, so two threads
/// touching different pages rarely share a lock, and a page always lives in
/// the frames of its partition. Eviction is per partition: a miss takes a
/// victim from its own partition's frames.
///
/// Thread safety: all public methods are thread-safe. Content access still
/// requires the page latch (Page::RLatch/WLatch), which PageGuard exposes.
class BufferPool {
 public:
  BufferPool(size_t pool_size, DiskManager* disk);
  ~BufferPool();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  /// Partitions of a pool of `pool_size` frames: the largest power of two
  /// up to kMaxPartitions that leaves every partition kMinPartitionFrames
  /// frames or more (1 below 2 * kMinPartitionFrames).
  static size_t PartitionCount(size_t pool_size);
  static constexpr size_t kMaxPartitions = 16;
  static constexpr size_t kMinPartitionFrames = 64;

  /// Allocate a brand-new page, pinned.
  Result<PageGuard> NewPage();

  /// Fetch (possibly from disk), pinned.
  Result<PageGuard> FetchPage(PageId id);

  /// Write all dirty pages back.
  Status FlushAll();

  uint64_t hits() const;
  uint64_t misses() const;
  size_t pool_size() const { return frames_.size(); }
  size_t num_partitions() const { return partitions_.size(); }

 private:
  friend class PageGuard;

  /// Bookkeeping fields are guarded by the mutex of the frame's partition.
  struct Frame {
    Page page;
    PageId disk_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool referenced = false;  // CLOCK bit: set by a hit, cleared by the hand
    size_t partition = 0;     // immutable after construction
  };

  /// One slice of the pool: frames [first, first + count) and the pages
  /// that hash to it.
  struct alignas(64) Partition {
    size_t first = 0;
    size_t count = 0;
    Mutex mu;
    std::unordered_map<PageId, size_t> page_table SEMCC_GUARDED_BY(mu);
    size_t hand SEMCC_GUARDED_BY(mu) = 0;  ///< offset in the frame range
    std::vector<size_t> free_frames SEMCC_GUARDED_BY(mu);
    uint64_t hits SEMCC_GUARDED_BY(mu) = 0;
    uint64_t misses SEMCC_GUARDED_BY(mu) = 0;
  };

  Partition& PartitionOf(PageId id) {
    return *partitions_[((id * 0x9e3779b97f4a7c15ull) >> 32) & partition_mask_];
  }

  void Unpin(size_t frame_idx, bool dirty);

  /// Find a frame for `id` in its partition: hit, free frame, or CLOCK
  /// eviction. Returns the frame index with pin_count already incremented.
  /// On a miss the frame is filled under the partition mutex before any
  /// other Pin can find it: reset to an empty page when `fresh` (a newly
  /// allocated id), else read from disk.
  Result<size_t> Pin(PageId id, bool fresh);

  /// Sweep the partition's hand to the first unpinned frame with a clear
  /// bit, write it back if dirty and unmap it. Two turns suffice, because
  /// the first clears every bit it passes; OutOfSpace when every frame of
  /// the partition is pinned.
  Result<size_t> Evict(Partition& part) SEMCC_REQUIRES(part.mu);

  DiskManager* const disk_;
  /// Frame slots are allocated once in the constructor; each partition's
  /// mutex guards the bookkeeping fields of the frames in its range.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  size_t partition_mask_ = 0;
};

class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_idx, Page* page)
      : pool_(pool), frame_idx_(frame_idx), page_(page) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    pool_ = other.pool_;
    frame_idx_ = other.frame_idx_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    return *this;
  }
  SEMCC_DISALLOW_COPY_AND_ASSIGN(PageGuard);
  ~PageGuard() { Release(); }

  Page* get() { return page_; }
  const Page* get() const { return page_; }
  Page* operator->() { return page_; }
  const Page* operator->() const { return page_; }
  bool valid() const { return page_ != nullptr; }

  /// Mark the page as modified; it will be written back before eviction.
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      pool_->Unpin(frame_idx_, dirty_);
      pool_ = nullptr;
      page_ = nullptr;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace semcc

#endif  // SEMCC_STORAGE_BUFFER_POOL_H_

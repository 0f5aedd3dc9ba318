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
/// Thread safety: all public methods are thread-safe. Content access still
/// requires the page latch (Page::RLatch/WLatch), which PageGuard exposes.
class BufferPool {
 public:
  BufferPool(size_t pool_size, DiskManager* disk);
  ~BufferPool();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  /// Allocate a brand-new page, pinned.
  Result<PageGuard> NewPage();

  /// Fetch (possibly from disk), pinned.
  Result<PageGuard> FetchPage(PageId id);

  /// Write all dirty pages back.
  Status FlushAll();

  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  size_t pool_size() const { return frames_.size(); }

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId disk_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool referenced = false;  // CLOCK bit: set by a hit, cleared by the hand
  };

  void Unpin(size_t frame_idx, bool dirty) SEMCC_EXCLUDES(mu_);

  /// Find a frame for `id`: hit, free frame, or CLOCK eviction. Returns the
  /// frame index with pin_count already incremented. On a miss the frame is
  /// filled under mu_ before any other Pin can find it: reset to an empty
  /// page when `fresh` (a newly allocated id), else read from disk.
  Result<size_t> Pin(PageId id, bool fresh) SEMCC_EXCLUDES(mu_);

  /// Sweep the hand to the first unpinned frame with a clear bit, write it
  /// back if dirty and unmap it. Two turns suffice, because the first clears
  /// every bit it passes; OutOfSpace when every frame is pinned.
  Result<size_t> Evict() SEMCC_REQUIRES(mu_);

  DiskManager* const disk_;
  Mutex mu_;
  /// Frame slots are allocated once in the constructor; mu_ guards the
  /// bookkeeping fields inside each Frame, not the vector itself.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::unordered_map<PageId, size_t> page_table_ SEMCC_GUARDED_BY(mu_);
  size_t hand_ SEMCC_GUARDED_BY(mu_) = 0;
  std::vector<size_t> free_frames_ SEMCC_GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
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

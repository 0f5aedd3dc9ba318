#include "storage/buffer_pool.h"

#include "util/logging.h"

namespace semcc {

BufferPool::BufferPool(size_t pool_size, DiskManager* disk) : disk_(disk) {
  SEMCC_CHECK(pool_size > 0);
  frames_.reserve(pool_size);
  free_frames_.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    free_frames_.push_back(pool_size - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // A destructor cannot propagate failure; surface it instead of dropping it.
  const Status flushed = FlushAll();
  if (!flushed.ok()) {
    SEMCC_LOG(Error) << "final FlushAll failed: " << flushed.ToString();
  }
}

Result<size_t> BufferPool::Pin(PageId id, bool fresh) {
  MutexLock guard(mu_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    Frame* f = frames_[it->second].get();
    f->pin_count++;
    f->referenced = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  size_t idx;
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    SEMCC_ASSIGN_OR_RETURN(idx, Evict());
  }
  Frame* f = frames_[idx].get();
  // Fill the frame before page_table_ publishes it: a concurrent Pin of
  // `id` returns as soon as it finds the entry, and must not see the
  // frame's previous page.
  if (fresh) {
    f->page.Reset(id);
  } else {
    const Status st = disk_->ReadPage(id, f->page.data());
    if (!st.ok()) {
      free_frames_.push_back(idx);
      return st;
    }
  }
  f->disk_id = id;
  f->pin_count = 1;
  f->dirty = false;
  f->referenced = false;
  page_table_[id] = idx;
  return idx;
}

Result<size_t> BufferPool::Evict() {
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    const size_t idx = hand_;
    hand_ = (hand_ + 1) % frames_.size();
    Frame* f = frames_[idx].get();
    if (f->pin_count > 0) continue;
    if (f->referenced) {
      f->referenced = false;
      continue;
    }
    if (f->dirty) {
      SEMCC_RETURN_NOT_OK(disk_->WritePage(f->disk_id, f->page.data()));
    }
    page_table_.erase(f->disk_id);
    return idx;
  }
  return Status::OutOfSpace("buffer pool exhausted: all frames pinned");
}

void BufferPool::Unpin(size_t frame_idx, bool dirty) {
  MutexLock guard(mu_);
  Frame* f = frames_[frame_idx].get();
  SEMCC_CHECK(f->pin_count > 0);
  if (dirty) f->dirty = true;
  f->pin_count--;
}

Result<PageGuard> BufferPool::NewPage() {
  const PageId id = disk_->AllocatePage();
  SEMCC_ASSIGN_OR_RETURN(size_t idx, Pin(id, /*fresh=*/true));
  PageGuard guard(this, idx, &frames_[idx]->page);
  guard.MarkDirty();
  return guard;
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  SEMCC_ASSIGN_OR_RETURN(size_t idx, Pin(id, /*fresh=*/false));
  return PageGuard(this, idx, &frames_[idx]->page);
}

Status BufferPool::FlushAll() {
  MutexLock guard(mu_);
  for (auto& [id, idx] : page_table_) {
    Frame* f = frames_[idx].get();
    if (f->dirty) {
      SEMCC_RETURN_NOT_OK(disk_->WritePage(f->disk_id, f->page.data()));
      f->dirty = false;
    }
  }
  return Status::OK();
}

}  // namespace semcc

#include "storage/buffer_pool.h"

#include "util/logging.h"

namespace semcc {

size_t BufferPool::PartitionCount(size_t pool_size) {
  size_t n = 1;
  while (n < kMaxPartitions && pool_size / (2 * n) >= kMinPartitionFrames) {
    n *= 2;
  }
  return n;
}

BufferPool::BufferPool(size_t pool_size, DiskManager* disk) : disk_(disk) {
  SEMCC_CHECK(pool_size > 0);
  const size_t n = PartitionCount(pool_size);
  partition_mask_ = n - 1;
  frames_.reserve(pool_size);
  partitions_.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    partitions_.push_back(std::make_unique<Partition>());
    Partition& part = *partitions_.back();
    part.first = p * pool_size / n;
    part.count = (p + 1) * pool_size / n - part.first;
    MutexLock guard(part.mu);
    part.free_frames.reserve(part.count);
    for (size_t i = 0; i < part.count; ++i) {
      frames_.push_back(std::make_unique<Frame>());
      frames_.back()->partition = p;
      part.free_frames.push_back(part.first + part.count - 1 - i);
    }
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
  Partition& part = PartitionOf(id);
  MutexLock guard(part.mu);
  auto it = part.page_table.find(id);
  if (it != part.page_table.end()) {
    Frame* f = frames_[it->second].get();
    f->pin_count++;
    f->referenced = true;
    ++part.hits;
    return it->second;
  }
  ++part.misses;
  size_t idx;
  if (!part.free_frames.empty()) {
    idx = part.free_frames.back();
    part.free_frames.pop_back();
  } else {
    SEMCC_ASSIGN_OR_RETURN(idx, Evict(part));
  }
  Frame* f = frames_[idx].get();
  // Fill the frame before the page table publishes it: a concurrent Pin of
  // `id` returns as soon as it finds the entry, and must not see the
  // frame's previous page.
  if (fresh) {
    f->page.Reset(id);
  } else {
    const Status st = disk_->ReadPage(id, f->page.data());
    if (!st.ok()) {
      part.free_frames.push_back(idx);
      return st;
    }
  }
  f->disk_id = id;
  f->pin_count = 1;
  f->dirty = false;
  f->referenced = false;
  part.page_table[id] = idx;
  return idx;
}

Result<size_t> BufferPool::Evict(Partition& part) {
  for (size_t step = 0; step < 2 * part.count; ++step) {
    const size_t idx = part.first + part.hand;
    part.hand = (part.hand + 1) % part.count;
    Frame* f = frames_[idx].get();
    if (f->pin_count > 0) continue;
    if (f->referenced) {
      f->referenced = false;
      continue;
    }
    if (f->dirty) {
      SEMCC_RETURN_NOT_OK(disk_->WritePage(f->disk_id, f->page.data()));
    }
    part.page_table.erase(f->disk_id);
    return idx;
  }
  return Status::OutOfSpace("buffer pool exhausted: all frames pinned");
}

void BufferPool::Unpin(size_t frame_idx, bool dirty) {
  Frame* f = frames_[frame_idx].get();
  Partition& part = *partitions_[f->partition];
  MutexLock guard(part.mu);
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
  for (auto& p : partitions_) {
    Partition& part = *p;
    MutexLock guard(part.mu);
    for (auto& [id, idx] : part.page_table) {
      Frame* f = frames_[idx].get();
      if (f->dirty) {
        SEMCC_RETURN_NOT_OK(disk_->WritePage(f->disk_id, f->page.data()));
        f->dirty = false;
      }
    }
  }
  return Status::OK();
}

uint64_t BufferPool::hits() const {
  uint64_t sum = 0;
  for (const auto& p : partitions_) {
    Partition& part = *p;
    MutexLock guard(part.mu);
    sum += part.hits;
  }
  return sum;
}

uint64_t BufferPool::misses() const {
  uint64_t sum = 0;
  for (const auto& p : partitions_) {
    Partition& part = *p;
    MutexLock guard(part.mu);
    sum += part.misses;
  }
  return sum;
}

}  // namespace semcc

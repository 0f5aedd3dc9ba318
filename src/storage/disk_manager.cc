#include "storage/disk_manager.h"

#include <cstring>

namespace semcc {

PageId DiskManager::AllocatePage() {
  MutexLock guard(mu_);
  const PageId id = next_page_id_.fetch_add(1);
  image_.push_back(std::make_unique<char[]>(kPageSize));
  std::memset(image_.back().get(), 0, kPageSize);
  return id;
}

Status DiskManager::ReadPage(PageId id, char* out) {
  char* src = nullptr;
  {
    MutexLock guard(mu_);
    if (id >= image_.size()) return Status::NotFound("page beyond disk image");
    src = image_[id].get();
  }
  std::memcpy(out, src, kPageSize);
  reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const char* data) {
  char* dst = nullptr;
  {
    MutexLock guard(mu_);
    if (id >= image_.size()) return Status::NotFound("page beyond disk image");
    dst = image_[id].get();
  }
  std::memcpy(dst, data, kPageSize);
  writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace semcc

// DiskManager: page-granular backing store.
//
// The reproduction runs everything in memory (the paper's contribution is a
// concurrency-control protocol, not an I/O path), but the interface is the
// classical one so the buffer pool above it behaves like a real system:
// whole-page reads/writes and explicit allocation.
#ifndef SEMCC_STORAGE_DISK_MANAGER_H_
#define SEMCC_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/status.h"

namespace semcc {

/// \brief In-memory array-of-pages "disk".
class DiskManager {
 public:
  DiskManager() = default;
  SEMCC_DISALLOW_COPY_AND_ASSIGN(DiskManager);

  /// Allocate a fresh page; returns its id.
  PageId AllocatePage();

  /// Copy page `id` from the disk image into `*out`.
  Status ReadPage(PageId id, char* out);

  /// Copy `data` (kPageSize bytes) into the disk image of page `id`.
  Status WritePage(PageId id, const char* data);

  uint64_t num_pages() const { return next_page_id_.load(); }
  uint64_t reads() const { return reads_.load(); }
  uint64_t writes() const { return writes_.load(); }

 private:
  std::atomic<PageId> next_page_id_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};

  Mutex mu_;  // protects image_ growth; page slots are stable pointers
  std::vector<std::unique_ptr<char[]>> image_ SEMCC_GUARDED_BY(mu_);
};

}  // namespace semcc

#endif  // SEMCC_STORAGE_DISK_MANAGER_H_

// FileLogDevice: the durable LogDevice — append-only segment files in a
// directory, written through the POSIX write()/fsync() path
// (storage/posix_file.h).
//
// Layout: <dir>/wal-000001.log, wal-000002.log, ... The logical device
// image is the concatenation of the segments in index order; framing is the
// WAL's business (logframe), so segments are plain byte streams and a
// restart scan never needs per-segment metadata. Rotation happens between
// Appends once the current segment reaches segment_bytes: the old segment
// is fsynced and closed, the new one is created, and the directory is
// fsynced so the creation itself is durable.
//
// ReadDurable() returns the files' current contents. In-process that
// includes OS-cached bytes a real power loss would drop — the process
// cannot observe its own page cache — which is exactly why the
// fault-injection harness (fault_injector.h) models sync failures and
// power cuts explicitly instead of relying on the filesystem to misbehave
// on cue.
#ifndef SEMCC_RECOVERY_FILE_LOG_DEVICE_H_
#define SEMCC_RECOVERY_FILE_LOG_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recovery/log_device.h"
#include "storage/posix_file.h"

namespace semcc {

struct FileLogDeviceOptions {
  /// Rotate to a new segment once the current one reaches this size. Each
  /// fresh segment is preallocated to this size with written-through zeros
  /// so commit syncs are pure data overwrites (no block allocation or inode
  /// update in the journal — roughly halves fdatasync latency on ext4 and
  /// collapses its tail). The padding beyond the last append reads back as
  /// zeros, which the frame scanner treats as a torn tail and
  /// RecoverAtStartup truncates away — so a reopened log must run recovery
  /// before appending (the WAL always does).
  uint64_t segment_bytes = 4u << 20;
};

class FileLogDevice : public LogDevice {
 public:
  /// Open (creating the directory if needed) and position at the end of the
  /// existing segments; their bytes count as durable.
  static Result<std::unique_ptr<FileLogDevice>> Open(
      const std::string& dir, FileLogDeviceOptions options = {});
  SEMCC_DISALLOW_COPY_AND_ASSIGN(FileLogDevice);

  Status Append(std::string_view bytes) override;
  Status Sync() override;
  Result<std::string> ReadDurable() override;
  Status Truncate(uint64_t size) override;
  /// Unlinks the closed segments that lie entirely inside the prefix (whole
  /// segments only — a batch append never spans a rotation, so segment
  /// boundaries are always frame boundaries). Restart tolerates a first
  /// segment index > 1; only gaps are corruption.
  Result<uint64_t> DropPrefix(uint64_t bytes) override;

  uint64_t written_bytes() const override {
    return closed_bytes_ + current_.size();
  }
  uint64_t synced_bytes() const override { return synced_; }
  uint64_t sync_count() const override { return syncs_; }

  size_t segment_count() const { return closed_.size() + 1; }
  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint32_t index;
    uint64_t size;
  };

  FileLogDevice(std::string dir, FileLogDeviceOptions options)
      : dir_(std::move(dir)), options_(options) {}

  std::string SegmentPath(uint32_t index) const;
  /// Sync + close the current segment and start the next one.
  Status Rotate();

  const std::string dir_;
  const FileLogDeviceOptions options_;
  /// Closed (immutable, already-fsynced) segments in index order.
  std::vector<Segment> closed_;
  uint64_t closed_bytes_ = 0;
  /// The segment being appended to.
  PosixWritableFile current_;
  uint32_t current_index_ = 1;
  uint64_t synced_ = 0;
  uint64_t syncs_ = 0;
};

}  // namespace semcc

#endif  // SEMCC_RECOVERY_FILE_LOG_DEVICE_H_

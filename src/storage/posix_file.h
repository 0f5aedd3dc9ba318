// Thin POSIX file layer for the storage/recovery subsystems: the classical
// write()/fsync() durability path that DiskManager's in-memory page array
// stands in for elsewhere. Everything returns Status — callers (the log
// device, eventually a file-backed DiskManager) decide whether an I/O error
// is fatal, retryable, or a reason to degrade.
#ifndef SEMCC_STORAGE_POSIX_FILE_H_
#define SEMCC_STORAGE_POSIX_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace semcc {

/// \brief Append-only writable file (the log-segment shape): sequential
/// pwrite() at a tracked logical offset with full-write loop semantics,
/// explicit Sync() = fdatasync/fsync.
///
/// The logical size (bytes appended) and the physical size (bytes the file
/// occupies on disk) differ only after PreallocateTo(): appends then
/// overwrite the preallocated zeros in place, which keeps the per-commit
/// fdatasync a pure data flush — no block allocation, no inode size change,
/// no filesystem-journal commit. Measured on ext4 this roughly halves the
/// p50 sync latency and collapses its tail (p90 ~550us -> ~250us).
class PosixWritableFile {
 public:
  PosixWritableFile() = default;
  ~PosixWritableFile();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(PosixWritableFile);

  /// Open (creating if needed); the current file end becomes both the
  /// logical and physical size.
  Status Open(const std::string& path);

  /// Write all of `data` at the logical end, looping over short writes and
  /// EINTR. A partial write followed by an error leaves the partial bytes
  /// in place — exactly the torn-write shape recovery must tolerate.
  Status Append(const char* data, size_t n);

  /// Extend the file with written-through zeros to `physical_bytes` and
  /// fsync, without moving the logical end: later Appends overwrite the
  /// zeros in place. The zero padding beyond the last real append is
  /// indistinguishable from a torn tail to the frame scanner, which is what
  /// makes a crash (or clean close) of a preallocated segment recoverable.
  /// No-op if the file is already at least that large.
  Status PreallocateTo(uint64_t physical_bytes);

  /// fdatasync (fsync where unavailable): make every appended byte durable.
  Status Sync();

  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Logical size: bytes appended (excludes preallocated padding).
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;           // logical: next append offset
  uint64_t physical_size_ = 0;  // on-disk file size (>= size_)
  std::string path_;
};

/// Read the whole file into `*out` (replacing its contents).
Status ReadFileToString(const std::string& path, std::string* out);

/// File size in bytes.
Result<uint64_t> FileSize(const std::string& path);

/// Truncate an existing file to `size` bytes.
Status TruncateFile(const std::string& path, uint64_t size);

Status RemoveFile(const std::string& path);

/// Create the directory if it does not exist (single level).
Status EnsureDirectory(const std::string& dir);

/// fsync the directory itself, making file creations/removals durable.
Status SyncDirectory(const std::string& dir);

/// Sorted names (not paths) of regular files in `dir`.
Result<std::vector<std::string>> ListDirectory(const std::string& dir);

/// Best-effort recursive-free cleanup for tests and benches: remove every
/// regular file in `dir`, then `dir` itself. Missing directory is fine;
/// errors are ignored.
void CleanupDirectoryForTesting(const std::string& dir);

}  // namespace semcc

#endif  // SEMCC_STORAGE_POSIX_FILE_H_

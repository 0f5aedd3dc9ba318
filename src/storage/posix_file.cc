#include "storage/posix_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace semcc {

namespace {
Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}
}  // namespace

PosixWritableFile::~PosixWritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixWritableFile::Open(const std::string& path) {
  if (fd_ >= 0) return Status::InvalidArgument("file already open: " + path_);
  // No O_APPEND: appends go through pwrite at the tracked logical offset
  // (Linux pwrite on an O_APPEND fd ignores the offset and appends, which
  // would defeat preallocated-overwrite segments).
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return Errno("open", path);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Errno("lseek", path);
  }
  fd_ = fd;
  size_ = static_cast<uint64_t>(end);
  physical_size_ = size_;
  path_ = path;
  return Status::OK();
}

Status PosixWritableFile::Append(const char* data, size_t n) {
  if (fd_ < 0) return Status::InvalidArgument("append on closed file");
  while (n > 0) {
    const ssize_t w = ::pwrite(fd_, data, n, static_cast<off_t>(size_));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite", path_);
    }
    data += w;
    n -= static_cast<size_t>(w);
    size_ += static_cast<uint64_t>(w);
  }
  physical_size_ = std::max(physical_size_, size_);
  return Status::OK();
}

Status PosixWritableFile::PreallocateTo(uint64_t physical_bytes) {
  if (fd_ < 0) return Status::InvalidArgument("preallocate on closed file");
  if (physical_size_ >= physical_bytes) return Status::OK();
  // Written-through zeros, not fallocate: unwritten extents would still
  // journal an extent-state conversion on the first real overwrite, which
  // is the metadata cost preallocation exists to pay up front.
  char zeros[1 << 16] = {};
  uint64_t off = physical_size_;
  while (off < physical_bytes) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(sizeof(zeros), physical_bytes - off));
    const ssize_t w = ::pwrite(fd_, zeros, chunk, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite (preallocate)", path_);
    }
    off += static_cast<uint64_t>(w);
  }
  // Full fsync: the size change and new extents must be durable before any
  // commit relies on a data-only fdatasync of the overwritten range.
  if (::fsync(fd_) != 0) return Errno("fsync (preallocate)", path_);
  physical_size_ = physical_bytes;
  return Status::OK();
}

Status PosixWritableFile::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("sync on closed file");
#if defined(__linux__)
  // fdatasync skips the inode-metadata write when only mtime changed. For
  // an append-only log segment the file size changes too, and POSIX
  // guarantees fdatasync still flushes the metadata needed to read the new
  // bytes back — so this is safe for the WAL and saves a journal commit on
  // filesystems that would otherwise flush atime/mtime.
  if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
#else
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
#endif
  return Status::OK();
}

Status PosixWritableFile::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close", path_);
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Errno("open", path);
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return Status::OK();
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  return static_cast<uint64_t>(st.st_size);
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  return Status::OK();
}

Status EnsureDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Errno("mkdir", dir);
}

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

void CleanupDirectoryForTesting(const std::string& dir) {
  auto names = ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& name : names.ValueOrDie()) {
      (void)RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

}  // namespace semcc

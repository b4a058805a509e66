#include "storage/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace mip::storage {

namespace {

Status IOErrorFromErrno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " '" + path + "': " + std::strerror(errno));
}

/// fsyncs the directory containing `path` so a just-renamed entry survives
/// a crash.
Status SyncParentDir(const std::string& path) {
  std::string dir = ".";
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IOErrorFromErrno("open dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IOErrorFromErrno("fsync dir", dir);
  return Status::OK();
}

Status WriteAll(int fd, const uint8_t* data, size_t n,
                const std::string& path) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return IOErrorFromErrno("write", path);
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  return ReadFileRange(path, 0, size);
}

Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                           uint64_t offset, uint64_t n) {
  MIP_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  return file.ReadRange(offset, n);
}

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IOErrorFromErrno("open", path);
  return ReadOnlyFile(path, fd);
}

ReadOnlyFile::ReadOnlyFile(ReadOnlyFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.fd_ = -1;
}

ReadOnlyFile& ReadOnlyFile::operator=(ReadOnlyFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::vector<uint8_t>> ReadOnlyFile::ReadRange(uint64_t offset,
                                                     uint64_t n) const {
  std::vector<uint8_t> out(n);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd_, out.data() + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return IOErrorFromErrno("read", path_);
    }
    if (r == 0) {
      return Status::IOError("read '" + path_ + "': unexpected EOF at " +
                             std::to_string(offset + got));
    }
    got += static_cast<size_t>(r);
  }
  return out;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return IOErrorFromErrno("stat", path);
  return static_cast<uint64_t>(st.st_size);
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IOErrorFromErrno("open", tmp);
  Status st = WriteAll(fd, bytes.data(), bytes.size(), tmp);
  if (st.ok() && ::fsync(fd) != 0) st = IOErrorFromErrno("fsync", tmp);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status rs = IOErrorFromErrno("rename", tmp);
    ::unlink(tmp.c_str());
    return rs;
  }
  return SyncParentDir(path);
}

Status AppendFileSync(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return IOErrorFromErrno("open", path);
  Status st = WriteAll(fd, bytes.data(), bytes.size(), path);
  if (st.ok() && ::fsync(fd) != 0) st = IOErrorFromErrno("fsync", path);
  ::close(fd);
  return st;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return IOErrorFromErrno("truncate", path);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return IOErrorFromErrno("unlink", path);
  return Status::OK();
}

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return IOErrorFromErrno("mkdir", path);
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return IOErrorFromErrno("opendir", dir);
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

}  // namespace mip::storage

#ifndef MIP_STORAGE_IO_H_
#define MIP_STORAGE_IO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace mip::storage {

/// POSIX file helpers for the storage layer. Every failure is a typed
/// Status::IOError carrying errno text — the code the serving layer maps to
/// a typed error frame and the federation fan-out treats as retryable.

/// Whole-file read.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Reads `n` bytes starting at `offset`; fails (kIOError) when the range
/// extends past EOF.
Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                           uint64_t offset, uint64_t n);

/// \brief Read-only file handle for positional reads: one open, then any
/// number of ReadRange calls (one pread loop each). Move-only; closes on
/// destruction.
class ReadOnlyFile {
 public:
  static Result<ReadOnlyFile> Open(const std::string& path);

  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile& operator=(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ~ReadOnlyFile();

  /// Same contract as ReadFileRange.
  Result<std::vector<uint8_t>> ReadRange(uint64_t offset, uint64_t n) const;

  const std::string& path() const { return path_; }

 private:
  ReadOnlyFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

Result<uint64_t> FileSize(const std::string& path);
bool FileExists(const std::string& path);

/// Crash-atomic whole-file publish: write `<path>.tmp`, fsync it, rename
/// over `path`, fsync the parent directory. Readers see either the old or
/// the new content, never a partial write.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes);

/// Appends to (creating if absent) `path` and fsyncs — the WAL's durability
/// primitive.
Status AppendFileSync(const std::string& path,
                      const std::vector<uint8_t>& bytes);

/// Truncates `path` to `size` bytes (torn-tail amputation on WAL replay).
Status TruncateFile(const std::string& path, uint64_t size);

Status RemoveFile(const std::string& path);

/// Creates the directory if missing (one level).
Status EnsureDir(const std::string& path);

/// Non-recursive listing of plain-file names (not paths) in `dir`.
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace mip::storage

#endif  // MIP_STORAGE_IO_H_

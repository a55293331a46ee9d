// The POSIX-like VFS interface every workload and benchmark runs against.
//
// Two interchangeable mounts implement it:
//   * AfsPassthroughFs — bare AFS (the paper's unmodified-OpenAFS baseline),
//   * NexusFs          — NEXUS stacked on the same AFS deployment.
// Workloads therefore issue *identical* operation streams to both systems,
// so measured differences are exactly the NEXUS overhead (§VII).
//
// File handles follow AFS open-to-close semantics: content is buffered
// locally; Sync() flushes dirty bytes (fsync), Close() flushes the rest.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace nexus::vfs {

enum class FileType : std::uint8_t { kFile, kDirectory, kSymlink };

struct Dirent {
  std::string name;
  FileType type = FileType::kFile;
};

struct FileStat {
  FileType type = FileType::kFile;
  std::uint64_t size = 0;
};

enum class OpenMode {
  kRead,     // must exist
  kWrite,    // create or truncate
  kReadWrite // create if missing, keep contents
};

class FileSystem;

/// An open file: a local whole-file buffer (AFS-style) with dirty-range
/// tracking so Sync() ships only changed chunks.
class OpenFile {
 public:
  virtual ~OpenFile() = default;

  /// Reads up to out.size() bytes at `offset`; returns bytes read.
  virtual Result<std::size_t> Read(std::uint64_t offset, MutableByteSpan out) = 0;
  /// Writes at `offset`, extending the file as needed.
  virtual Status Write(std::uint64_t offset, ByteSpan data) = 0;
  virtual Status Append(ByteSpan data) = 0;
  virtual Status Truncate(std::uint64_t new_size) = 0;
  [[nodiscard]] virtual std::uint64_t Size() const = 0;
  /// fsync: pushes dirty bytes to the storage service now.
  virtual Status Sync() = 0;
  /// Flushes (if dirty) and invalidates the handle.
  virtual Status Close() = 0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual Result<std::unique_ptr<OpenFile>> Open(const std::string& path,
                                                 OpenMode mode) = 0;
  virtual Status Mkdir(const std::string& path) = 0;
  virtual Status Remove(const std::string& path) = 0; // file/empty dir/symlink
  virtual Result<std::vector<Dirent>> ReadDir(const std::string& path) = 0;
  virtual Result<FileStat> Stat(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Symlink(const std::string& target, const std::string& linkpath) = 0;
  virtual Result<std::string> Readlink(const std::string& path) = 0;

  // ---- group commit ---------------------------------------------------------
  // Mounts with a write-ahead journal can batch the metadata effects of
  // many operations into one commit. The base implementation is a no-op so
  // workloads can bracket phases unconditionally; the baseline passthrough
  // mount simply ignores the hints.
  virtual Status BeginBatch() { return Status::Ok(); }
  virtual Status CommitBatch() { return Status::Ok(); }

  // ---- whole-file conveniences (open/transfer/close) ----------------------
  Status WriteWholeFile(const std::string& path, ByteSpan content);
  /// Open/Read/Close through a local buffer. Mounts that already hold the
  /// whole content in a fresh buffer may return it directly instead; they
  /// must keep the errors and the operation sequence of the base path.
  virtual Result<Bytes> ReadWholeFile(const std::string& path);
  /// mkdir -p
  Status MkdirAll(const std::string& path);
  [[nodiscard]] bool Exists(const std::string& path);
};

} // namespace nexus::vfs

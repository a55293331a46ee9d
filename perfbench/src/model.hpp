// The correctness oracle: an in-memory model of every file's bytes and
// every directory's entries, updated only when the filesystem reports an
// operation succeeded. Reads are byte-compared and ReadDir results
// compared against it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "vfs/vfs.hpp"

namespace perfbench {

using Content = std::shared_ptr<const nexus::Bytes>;

class Model {
 public:
  void AddDir(const std::string& path);
  void PutFile(const std::string& path, Content content);
  void Remove(const std::string& path);
  /// Renames a file (directories are never renamed by the workloads).
  void Rename(const std::string& from, const std::string& to);

  /// Null when `path` is not a file in the model.
  [[nodiscard]] const Content* File(const std::string& path) const;

  /// True when `got` equals the model's bytes for `path`.
  [[nodiscard]] bool MatchesFile(const std::string& path,
                                 const nexus::Bytes& got) const;
  /// True when `entries` list exactly the model's children of `dir`.
  [[nodiscard]] bool MatchesDir(const std::string& dir,
                                const std::vector<nexus::vfs::Dirent>& entries) const;

  [[nodiscard]] std::size_t file_count() const;
  /// Every file's content buffer (buffers may be shared between files).
  [[nodiscard]] std::vector<Content> contents() const;
  [[nodiscard]] std::size_t dir_count() const;

 private:
  struct Node {
    bool dir = false;
    Content content; // files only
  };
  std::map<std::string, Node> nodes_;
};

/// FileSystem decorator that mirrors successful Mkdir and whole-file
/// writes into a Model; used while a workload populates its tree.
class RecordingFs final : public nexus::vfs::FileSystem {
 public:
  RecordingFs(nexus::vfs::FileSystem& inner, Model& model)
      : inner_(inner), model_(model) {}

  nexus::Result<std::unique_ptr<nexus::vfs::OpenFile>> Open(
      const std::string& path, nexus::vfs::OpenMode mode) override;
  nexus::Status Mkdir(const std::string& path) override;
  nexus::Status Remove(const std::string& path) override;
  nexus::Result<std::vector<nexus::vfs::Dirent>> ReadDir(
      const std::string& path) override;
  nexus::Result<nexus::vfs::FileStat> Stat(const std::string& path) override;
  nexus::Status Rename(const std::string& from, const std::string& to) override;
  nexus::Status Symlink(const std::string& target,
                        const std::string& linkpath) override;
  nexus::Result<std::string> Readlink(const std::string& path) override;
  nexus::Status BeginBatch() override { return inner_.BeginBatch(); }
  nexus::Status CommitBatch() override { return inner_.CommitBatch(); }

 private:
  nexus::vfs::FileSystem& inner_;
  Model& model_;
};

} // namespace perfbench

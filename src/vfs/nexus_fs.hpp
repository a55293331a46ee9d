// The NEXUS mount: the VFS interface backed by a NexusClient (and thus by
// the enclave + AFS). This is the layer unmodified "applications" (our
// workload implementations) run against — the paper's userspace daemon.
#pragma once

#include "core/nexus_client.hpp"
#include "vfs/vfs.hpp"

namespace nexus::vfs {

class NexusFs final : public FileSystem {
 public:
  /// The client must have a mounted volume.
  explicit NexusFs(core::NexusClient& client) : client_(client) {}

  Result<std::unique_ptr<OpenFile>> Open(const std::string& path,
                                         OpenMode mode) override;
  Status Mkdir(const std::string& path) override;
  Status Remove(const std::string& path) override;
  Result<std::vector<Dirent>> ReadDir(const std::string& path) override;
  Result<FileStat> Stat(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Symlink(const std::string& target, const std::string& linkpath) override;
  Result<std::string> Readlink(const std::string& path) override;
  /// Hands `content` to the enclave as it is, not through a buffer copy.
  Status WriteWholeFile(const std::string& path, ByteSpan content) override;
  /// Returns the enclave's plaintext buffer itself, not a copy of it.
  Result<Bytes> ReadWholeFile(const std::string& path) override;
  Status BeginBatch() override { return client_.BeginBatch(); }
  Status CommitBatch() override { return client_.CommitBatch(); }

 private:
  core::NexusClient& client_;
};

} // namespace nexus::vfs

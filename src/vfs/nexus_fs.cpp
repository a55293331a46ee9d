#include "vfs/nexus_fs.hpp"

#include "vfs/buffered_file.hpp"

namespace nexus::vfs {
namespace {

FileType TypeOf(enclave::EntryType t) {
  switch (t) {
    case enclave::EntryType::kFile: return FileType::kFile;
    case enclave::EntryType::kDirectory: return FileType::kDirectory;
    case enclave::EntryType::kSymlink: return FileType::kSymlink;
  }
  return FileType::kFile;
}

} // namespace

Result<std::unique_ptr<OpenFile>> NexusFs::Open(const std::string& path,
                                                OpenMode mode) {
  Bytes content;
  bool created = false;
  auto attrs = client_.Lookup(path);
  if (attrs.ok() && attrs->type != enclave::EntryType::kFile) {
    return Error(ErrorCode::kInvalidArgument, "not a file: " + path);
  }
  if (mode == OpenMode::kRead) {
    NEXUS_ASSIGN_OR_RETURN(content, client_.ReadFile(path));
  } else {
    if (!attrs.ok()) {
      if (attrs.status().code() != ErrorCode::kNotFound) return attrs.status();
      NEXUS_RETURN_IF_ERROR(client_.Touch(path));
      created = true;
    } else if (mode == OpenMode::kReadWrite) {
      NEXUS_ASSIGN_OR_RETURN(content, client_.ReadFile(path));
    } else {
      created = attrs->size != 0; // truncate counts as a content change
    }
  }

  auto flush = [this, path](ByteSpan full, std::uint64_t dirty_offset,
                            std::uint64_t dirty_len) -> Status {
    return client_.WriteFileRange(path, full, dirty_offset, dirty_len);
  };
  return std::unique_ptr<OpenFile>(
      std::make_unique<BufferedFile>(std::move(content), flush, created));
}

Result<Bytes> NexusFs::ReadWholeFile(const std::string& path) {
  // Same Lookup + ReadFile ecalls as Open(kRead), minus the BufferedFile.
  auto attrs = client_.Lookup(path);
  if (attrs.ok() && attrs->type != enclave::EntryType::kFile) {
    return Error(ErrorCode::kInvalidArgument, "not a file: " + path);
  }
  return client_.ReadFile(path);
}

Status NexusFs::Mkdir(const std::string& path) { return client_.Mkdir(path); }

Status NexusFs::Remove(const std::string& path) { return client_.Remove(path); }

Result<std::vector<Dirent>> NexusFs::ReadDir(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(std::vector<enclave::DirEntry> entries,
                         client_.ListDir(path));
  std::vector<Dirent> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back(Dirent{e.name, TypeOf(e.type)});
  }
  return out;
}

Result<FileStat> NexusFs::Stat(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(enclave::Attributes attrs, client_.Lookup(path));
  return FileStat{TypeOf(attrs.type), attrs.size};
}

Status NexusFs::Rename(const std::string& from, const std::string& to) {
  return client_.Rename(from, to);
}

Status NexusFs::Symlink(const std::string& target, const std::string& linkpath) {
  return client_.Symlink(target, linkpath);
}

Result<std::string> NexusFs::Readlink(const std::string& path) {
  return client_.Readlink(path);
}

} // namespace nexus::vfs

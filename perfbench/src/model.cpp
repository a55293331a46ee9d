#include "model.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

using nexus::Bytes;
using nexus::Result;
using nexus::Status;
namespace vfs = nexus::vfs;

void Model::AddDir(const std::string& path) { nodes_[path] = Node{true, nullptr}; }

void Model::PutFile(const std::string& path, Content content) {
  nodes_[path] = Node{false, std::move(content)};
}

void Model::Remove(const std::string& path) { nodes_.erase(path); }

void Model::Rename(const std::string& from, const std::string& to) {
  auto it = nodes_.find(from);
  if (it == nodes_.end()) return;
  Node node = std::move(it->second);
  nodes_.erase(it);
  nodes_[to] = std::move(node);
}

const Content* Model::File(const std::string& path) const {
  const auto it = nodes_.find(path);
  if (it == nodes_.end() || it->second.dir) return nullptr;
  return &it->second.content;
}

bool Model::MatchesFile(const std::string& path, const Bytes& got) const {
  const Content* want = File(path);
  return want != nullptr && *want != nullptr && (*want)->size() == got.size() &&
         std::memcmp((*want)->data(), got.data(), got.size()) == 0;
}

bool Model::MatchesDir(const std::string& dir,
                       const std::vector<vfs::Dirent>& entries) const {
  std::vector<std::pair<std::string, bool>> want;
  const std::string prefix = dir + "/";
  for (auto it = nodes_.lower_bound(prefix);
       it != nodes_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    if (it->first.find('/', prefix.size()) != std::string::npos) continue;
    want.emplace_back(it->first.substr(prefix.size()), it->second.dir);
  }
  std::vector<std::pair<std::string, bool>> got;
  for (const vfs::Dirent& e : entries) {
    got.emplace_back(e.name, e.type == vfs::FileType::kDirectory);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  return want == got;
}

std::size_t Model::file_count() const {
  return static_cast<std::size_t>(std::count_if(
      nodes_.begin(), nodes_.end(), [](const auto& kv) { return !kv.second.dir; }));
}

std::vector<Content> Model::contents() const {
  std::vector<Content> out;
  for (const auto& [path, node] : nodes_) {
    if (!node.dir) out.push_back(node.content);
  }
  return out;
}

std::size_t Model::dir_count() const { return nodes_.size() - file_count(); }

// ---- recording mount ----------------------------------------------------------

namespace {

// Mirrors the bytes written through a handle; publishes them to the model
// when Close() succeeds.
class RecordingFile final : public vfs::OpenFile {
 public:
  RecordingFile(std::unique_ptr<vfs::OpenFile> inner, Model& model,
                std::string path, Bytes initial)
      : inner_(std::move(inner)),
        model_(model),
        path_(std::move(path)),
        shadow_(std::move(initial)) {}

  Result<std::size_t> Read(std::uint64_t offset, nexus::MutableByteSpan out) override {
    return inner_->Read(offset, out);
  }
  Status Write(std::uint64_t offset, nexus::ByteSpan data) override {
    NEXUS_RETURN_IF_ERROR(inner_->Write(offset, data));
    if (shadow_.size() < offset + data.size()) shadow_.resize(offset + data.size());
    std::copy(data.begin(), data.end(), shadow_.begin() + static_cast<std::ptrdiff_t>(offset));
    return Status::Ok();
  }
  Status Append(nexus::ByteSpan data) override {
    NEXUS_RETURN_IF_ERROR(inner_->Append(data));
    shadow_.insert(shadow_.end(), data.begin(), data.end());
    return Status::Ok();
  }
  Status Truncate(std::uint64_t new_size) override {
    NEXUS_RETURN_IF_ERROR(inner_->Truncate(new_size));
    shadow_.resize(new_size);
    return Status::Ok();
  }
  [[nodiscard]] std::uint64_t Size() const override { return inner_->Size(); }
  Status Sync() override { return inner_->Sync(); }
  Status Close() override {
    NEXUS_RETURN_IF_ERROR(inner_->Close());
    model_.PutFile(path_, std::make_shared<const Bytes>(std::move(shadow_)));
    return Status::Ok();
  }

 private:
  std::unique_ptr<vfs::OpenFile> inner_;
  Model& model_;
  std::string path_;
  Bytes shadow_;
};

} // namespace

Result<std::unique_ptr<vfs::OpenFile>> RecordingFs::Open(const std::string& path,
                                                         vfs::OpenMode mode) {
  NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<vfs::OpenFile> file, inner_.Open(path, mode));
  if (mode == vfs::OpenMode::kRead) return file;
  Bytes initial;
  if (mode == vfs::OpenMode::kReadWrite) {
    if (const Content* c = model_.File(path); c != nullptr && *c != nullptr) {
      initial = **c;
    }
  }
  return std::unique_ptr<vfs::OpenFile>(std::make_unique<RecordingFile>(
      std::move(file), model_, path, std::move(initial)));
}

Status RecordingFs::Mkdir(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(inner_.Mkdir(path));
  model_.AddDir(path);
  return Status::Ok();
}

Status RecordingFs::Remove(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(inner_.Remove(path));
  model_.Remove(path);
  return Status::Ok();
}

Result<std::vector<vfs::Dirent>> RecordingFs::ReadDir(const std::string& path) {
  return inner_.ReadDir(path);
}

Result<vfs::FileStat> RecordingFs::Stat(const std::string& path) {
  return inner_.Stat(path);
}

Status RecordingFs::Rename(const std::string& from, const std::string& to) {
  NEXUS_RETURN_IF_ERROR(inner_.Rename(from, to));
  model_.Rename(from, to);
  return Status::Ok();
}

Status RecordingFs::Symlink(const std::string& target, const std::string& linkpath) {
  return inner_.Symlink(target, linkpath);
}

Result<std::string> RecordingFs::Readlink(const std::string& path) {
  return inner_.Readlink(path);
}

} // namespace perfbench

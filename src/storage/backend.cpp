#include "storage/backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>

#include "common/hex.hpp"

namespace nexus::storage {

// ---- MemBackend ------------------------------------------------------------

Result<Bytes> MemBackend::Get(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Error(ErrorCode::kNotFound, "object not found: " + name);
  }
  return it->second;
}

Status MemBackend::Put(const std::string& name, ByteSpan data) {
  Bytes copy = ToBytes(data);
  const std::lock_guard<std::mutex> lock(mu_);
  objects_[name] = std::move(copy);
  return Status::Ok();
}

Status MemBackend::Delete(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (objects_.erase(name) == 0) {
    return Error(ErrorCode::kNotFound, "object not found: " + name);
  }
  return Status::Ok();
}

bool MemBackend::Exists(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return objects_.contains(name);
}

std::vector<std::string> MemBackend::List(const std::string& prefix) {
  std::vector<std::string> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, data] : objects_) {
      if (name.starts_with(prefix)) out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t MemBackend::object_count() const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  return objects_.size();
}

std::uint64_t MemBackend::total_bytes() const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, data] : objects_) total += data.size();
  return total;
}

// ---- default (buffered) PutStream ------------------------------------------

namespace {

// Accumulates segments in memory and forwards one whole-object Put at
// commit; inherits Put's atomicity. Abort (or a completed Commit) kills
// the stream: any later Append/Commit fails instead of silently
// committing an empty or partial object.
class BufferedPutStream final : public StorageBackend::PutStream {
 public:
  BufferedPutStream(StorageBackend& backend, std::string name)
      : backend_(backend), name_(std::move(name)) {}

  Status Append(ByteSpan data) override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "append on finished stream: " + name_);
    }
    nexus::Append(buffered_, data);
    return Status::Ok();
  }
  Status Commit() override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "commit on finished stream: " + name_);
    }
    finished_ = true;
    return backend_.Put(name_, buffered_);
  }
  void Abort() override {
    finished_ = true;
    buffered_.clear();
  }

 private:
  StorageBackend& backend_;
  std::string name_;
  Bytes buffered_;
  bool finished_ = false;
};

} // namespace

Result<std::unique_ptr<StorageBackend::PutStream>> StorageBackend::OpenPutStream(
    const std::string& name) {
  return std::unique_ptr<PutStream>(new BufferedPutStream(*this, name));
}

StorageBackend::ListPage StorageBackend::ListSome(
    const std::string& prefix, const std::string& start_after,
    std::size_t limit) {
  ListPage page;
  if (limit == 0) return page;
  const std::vector<std::string> all = List(prefix);
  auto it = std::upper_bound(all.begin(), all.end(), start_after);
  while (it != all.end() && page.names.size() < limit) {
    page.names.push_back(*it++);
  }
  page.more = it != all.end();
  return page;
}

std::vector<Result<Bytes>> StorageBackend::MultiGet(
    const std::vector<std::string>& names) {
  std::vector<Result<Bytes>> results;
  results.reserve(names.size());
  for (const std::string& name : names) results.push_back(Get(name));
  return results;
}

std::vector<bool> StorageBackend::MultiExists(
    const std::vector<std::string>& names) {
  std::vector<bool> results;
  results.reserve(names.size());
  for (const std::string& name : names) results.push_back(Exists(name));
  return results;
}

// ---- DiskBackend -----------------------------------------------------------

// Escapes object names into flat, safe filenames: alphanumerics, '-', '_'
// and '.' pass through; everything else (incl. '/') becomes %XX. A LEADING
// dot is escaped too, so "." and ".." can never alias the directory
// entries and no object file ever starts with '.' (the ".%tmp-" namespace
// stays reserved for in-flight writes).
std::string EscapeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      (c == '.' && i > 0);
    if (safe) {
      out.push_back(c);
    } else {
      const auto b = static_cast<std::uint8_t>(c);
      out.push_back('%');
      out += HexEncode(ByteSpan(&b, 1));
    }
  }
  return out;
}

std::string UnescapeName(const std::string& file) {
  std::string out;
  out.reserve(file.size());
  for (std::size_t i = 0; i < file.size(); ++i) {
    // A "%XX" escape occupies indices [i, i+2]; it fits (including one at
    // the very end of the name) exactly when i + 3 <= size. Anything that
    // is not a well-formed escape passes through verbatim.
    const bool escape_fits = file[i] == '%' && i + 3 <= file.size();
    if (escape_fits) {
      const auto decoded = HexDecode(file.substr(i + 1, 2));
      if (decoded.ok() && decoded.value().size() == 1) {
        out.push_back(static_cast<char>(decoded.value()[0]));
        i += 2;
        continue;
      }
    }
    out.push_back(file[i]);
  }
  return out;
}

Result<DiskBackend> DiskBackend::Open(const std::string& root) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Error(ErrorCode::kIOError,
                 "cannot create backend root: " + ec.message());
  }
  return DiskBackend(root);
}

std::string DiskBackend::PathFor(const std::string& name) const {
  return root_ + "/" + EscapeName(name);
}

std::string DiskBackend::TempPathFor(const std::string& name) {
  // The sequence number keeps concurrent writers of the SAME name on
  // distinct temp files; the final rename stays last-writer-wins. The
  // ".%tmp-" prefix cannot collide with any escaped object name:
  // EscapeName only emits '%' followed by two hex digits.
  const std::uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
  return root_ + "/.%tmp-" + std::to_string(seq) + "-" + EscapeName(name);
}

Result<Bytes> DiskBackend::Get(const std::string& name) {
  // Size once, then fill an exactly-sized buffer with a bounded read loop.
  // Put publishes by rename, so the open descriptor pins one committed
  // object for the whole read.
  const int fd = ::open(PathFor(name).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Error(ErrorCode::kNotFound, "object not found: " + name);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Error(ErrorCode::kIOError, "stat failed: " + name);
  }
  if (!S_ISREG(st.st_mode)) {
    return Error(ErrorCode::kNotFound, "object not found: " + name);
  }
  Bytes data(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error(ErrorCode::kIOError, "read failed: " + name);
    }
    if (n == 0) break; // truncated underneath us: return what is there
    got += static_cast<std::size_t>(n);
  }
  data.resize(got);
  return data;
}

Status DiskBackend::Put(const std::string& name, ByteSpan data) {
  // Write-to-temp + rename so a host crash mid-Put can never leave a
  // truncated object under the final name — readers see the old bytes or
  // the new bytes, nothing in between.
  const std::string final_path = PathFor(name);
  const std::string tmp_path = TempPathFor(name);
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Error(ErrorCode::kIOError, "cannot open for write: " + name);
    }
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return Error(ErrorCode::kIOError, "write failed: " + name);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec); // atomic: same directory
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp_path, rm);
    return Error(ErrorCode::kIOError,
                 "rename failed: " + name + ": " + ec.message());
  }
  return Status::Ok();
}

namespace {

// Spills segments to the same ".%tmp-" file Put uses and publishes it with
// one rename at Commit. A crash (or Abort) at any point leaves only the
// temp file, which List hides and the next Put of the same name truncates.
class DiskPutStream final : public StorageBackend::PutStream {
 public:
  DiskPutStream(std::string tmp_path, std::string final_path)
      : tmp_path_(std::move(tmp_path)), final_path_(std::move(final_path)),
        out_(tmp_path_, std::ios::binary | std::ios::trunc) {}

  ~DiskPutStream() override {
    if (!finished_) Abort();
  }

  Status Append(ByteSpan data) override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "append on finished stream: " + final_path_);
    }
    if (!out_) {
      return Error(ErrorCode::kIOError, "stream not writable: " + final_path_);
    }
    out_.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
    if (!out_) return Error(ErrorCode::kIOError, "write failed: " + final_path_);
    return Status::Ok();
  }

  Status Commit() override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "commit on finished stream: " + final_path_);
    }
    out_.flush();
    const bool write_ok = static_cast<bool>(out_);
    out_.close();
    if (!write_ok) {
      Abort();
      return Error(ErrorCode::kIOError, "flush failed: " + final_path_);
    }
    finished_ = true;
    std::error_code ec;
    std::filesystem::rename(tmp_path_, final_path_, ec); // atomic: same dir
    if (ec) {
      std::error_code rm;
      std::filesystem::remove(tmp_path_, rm);
      return Error(ErrorCode::kIOError,
                   "rename failed: " + final_path_ + ": " + ec.message());
    }
    return Status::Ok();
  }

  void Abort() override {
    if (finished_) return;
    finished_ = true;
    out_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_path_, ec);
  }

 private:
  std::string tmp_path_;
  std::string final_path_;
  std::ofstream out_;
  bool finished_ = false;
};

} // namespace

Result<std::unique_ptr<StorageBackend::PutStream>> DiskBackend::OpenPutStream(
    const std::string& name) {
  auto stream =
      std::make_unique<DiskPutStream>(TempPathFor(name), PathFor(name));
  return std::unique_ptr<PutStream>(std::move(stream));
}

Status DiskBackend::Delete(const std::string& name) {
  std::error_code ec;
  if (!std::filesystem::remove(PathFor(name), ec) || ec) {
    return Error(ErrorCode::kNotFound, "object not found: " + name);
  }
  return Status::Ok();
}

bool DiskBackend::Exists(const std::string& name) {
  std::error_code ec;
  return std::filesystem::exists(PathFor(name), ec);
}

std::vector<std::string> DiskBackend::List(const std::string& prefix) {
  // The store directory is not exclusively ours: crashed Puts leave
  // ".%tmp-" files, the client cache's disk tier keeps dot-prefixed
  // metadata beside a DiskBackend-backed store, and operators drop stray
  // files and directories in by hand. Anything that is not a regular file
  // holding a canonically escaped object name is skipped, never an error.
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    std::error_code stat_ec;
    if (!entry.is_regular_file(stat_ec) || stat_ec) continue;
    const std::string file = entry.path().filename().string();
    if (file.empty() || file.front() == '.') continue; // temp/cache/hidden
    const std::string name = UnescapeName(file);
    // A file EscapeName could not have produced (bad escapes, characters a
    // writer would have escaped) is foreign — listing it would fabricate an
    // object name Get() can't serve.
    if (EscapeName(name) != file) continue;
    if (name.starts_with(prefix)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

} // namespace nexus::storage

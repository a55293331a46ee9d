// VFS conformance suite, parameterized over both mounts: the bare-AFS
// baseline and NEXUS must expose identical POSIX-like behaviour (they run
// the same workload streams in the evaluation).
#include <gtest/gtest.h>

#include "test_env.hpp"
#include "vfs/afs_passthrough_fs.hpp"
#include "vfs/buffered_file.hpp"
#include "vfs/nexus_fs.hpp"

namespace nexus::vfs {
namespace {

enum class MountKind { kPassthrough, kNexus };

class VfsConformanceTest : public ::testing::TestWithParam<MountKind> {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("user");
    if (GetParam() == MountKind::kNexus) {
      auto handle = machine_->nexus->CreateVolume(machine_->user);
      ASSERT_TRUE(handle.ok());
      fs_ = std::make_unique<NexusFs>(*machine_->nexus);
    } else {
      fs_ = std::make_unique<AfsPassthroughFs>(*machine_->afs);
    }
  }

  FileSystem& fs() { return *fs_; }

  test::World world_;
  test::Machine* machine_ = nullptr;
  std::unique_ptr<FileSystem> fs_;
};

TEST_P(VfsConformanceTest, WholeFileRoundTrip) {
  const Bytes data = ToBytes(std::string_view("vfs round trip"));
  ASSERT_TRUE(fs().WriteWholeFile("f.txt", data).ok());
  EXPECT_EQ(fs().ReadWholeFile("f.txt").value(), data);
}

TEST_P(VfsConformanceTest, ReadMissingFails) {
  EXPECT_EQ(fs().ReadWholeFile("nope").status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(fs().Open("nope", OpenMode::kRead).ok());
}

TEST_P(VfsConformanceTest, OpenModes) {
  ASSERT_TRUE(fs().WriteWholeFile("f", Bytes(100, 1)).ok());
  // kWrite truncates.
  {
    auto f = fs().Open("f", OpenMode::kWrite).value();
    EXPECT_EQ(f->Size(), 0u);
    ASSERT_TRUE(f->Write(0, Bytes{2, 2}).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  EXPECT_EQ(fs().ReadWholeFile("f").value(), (Bytes{2, 2}));
  // kReadWrite preserves and allows in-place update.
  {
    auto f = fs().Open("f", OpenMode::kReadWrite).value();
    EXPECT_EQ(f->Size(), 2u);
    ASSERT_TRUE(f->Write(1, Bytes{9}).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  EXPECT_EQ(fs().ReadWholeFile("f").value(), (Bytes{2, 9}));
}

TEST_P(VfsConformanceTest, ReadsAtOffsets) {
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(fs().WriteWholeFile("f", data).ok());
  auto f = fs().Open("f", OpenMode::kRead).value();
  Bytes buf(10);
  EXPECT_EQ(f->Read(500, buf).value(), 10u);
  EXPECT_EQ(buf[0], static_cast<std::uint8_t>(500));
  EXPECT_EQ(f->Read(995, buf).value(), 5u);    // short read at EOF
  EXPECT_EQ(f->Read(2000, buf).value(), 0u);   // past EOF
  ASSERT_TRUE(f->Close().ok());
}

TEST_P(VfsConformanceTest, AppendAndSync) {
  auto f = fs().Open("log", OpenMode::kWrite).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f->Append(Bytes(100, static_cast<std::uint8_t>(i))).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  ASSERT_TRUE(f->Close().ok());
  const Bytes back = fs().ReadWholeFile("log").value();
  ASSERT_EQ(back.size(), 1000u);
  EXPECT_EQ(back[950], 9);
}

TEST_P(VfsConformanceTest, SyncMakesContentDurable) {
  auto f = fs().Open("f", OpenMode::kWrite).value();
  ASSERT_TRUE(f->Write(0, Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(f->Sync().ok());
  // Visible to a second reader before close.
  EXPECT_EQ(fs().ReadWholeFile("f").value(), (Bytes{1, 2, 3}));
  ASSERT_TRUE(f->Close().ok());
}

TEST_P(VfsConformanceTest, TruncateShrinksAndGrows) {
  ASSERT_TRUE(fs().WriteWholeFile("f", Bytes(100, 7)).ok());
  auto f = fs().Open("f", OpenMode::kReadWrite).value();
  ASSERT_TRUE(f->Truncate(10).ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(fs().ReadWholeFile("f").value(), Bytes(10, 7));
}

TEST_P(VfsConformanceTest, EmptyFileFlushes) {
  auto f = fs().Open("empty", OpenMode::kWrite).value();
  ASSERT_TRUE(f->Close().ok());
  EXPECT_TRUE(fs().Exists("empty"));
  EXPECT_TRUE(fs().ReadWholeFile("empty").value().empty());
}

TEST_P(VfsConformanceTest, DirectoriesAndReadDir) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().Mkdir("d/sub").ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/a", Bytes{1}).ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/b", Bytes{2}).ok());

  auto entries = fs().ReadDir("d").value();
  ASSERT_EQ(entries.size(), 3u);
  int dirs = 0, files = 0;
  for (const auto& e : entries) {
    (e.type == FileType::kDirectory ? dirs : files) += 1;
  }
  EXPECT_EQ(dirs, 1);
  EXPECT_EQ(files, 2);

  EXPECT_FALSE(fs().ReadDir("missing").ok());
  EXPECT_EQ(fs().Mkdir("d").code(), ErrorCode::kAlreadyExists);
}

TEST_P(VfsConformanceTest, MkdirAll) {
  ASSERT_TRUE(fs().MkdirAll("a/b/c/d").ok());
  EXPECT_EQ(fs().Stat("a/b/c/d")->type, FileType::kDirectory);
  // Idempotent.
  EXPECT_TRUE(fs().MkdirAll("a/b/c/d").ok());
}

TEST_P(VfsConformanceTest, StatReportsTypeAndSize) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/f", Bytes(42, 1)).ok());
  EXPECT_EQ(fs().Stat("d")->type, FileType::kDirectory);
  const auto st = fs().Stat("d/f").value();
  EXPECT_EQ(st.type, FileType::kFile);
  EXPECT_EQ(st.size, 42u);
  EXPECT_EQ(fs().Stat("ghost").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs().Stat("")->type, FileType::kDirectory); // root
}

TEST_P(VfsConformanceTest, RemoveSemantics) {
  ASSERT_TRUE(fs().WriteWholeFile("f", Bytes{1}).ok());
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/inner", Bytes{1}).ok());

  EXPECT_TRUE(fs().Remove("f").ok());
  EXPECT_FALSE(fs().Exists("f"));
  EXPECT_FALSE(fs().Remove("d").ok()); // not empty
  ASSERT_TRUE(fs().Remove("d/inner").ok());
  EXPECT_TRUE(fs().Remove("d").ok());
  EXPECT_FALSE(fs().Remove("ghost").ok());
}

TEST_P(VfsConformanceTest, RenameFile) {
  ASSERT_TRUE(fs().WriteWholeFile("old", Bytes{5}).ok());
  ASSERT_TRUE(fs().Rename("old", "new").ok());
  EXPECT_FALSE(fs().Exists("old"));
  EXPECT_EQ(fs().ReadWholeFile("new").value(), Bytes{5});
}

TEST_P(VfsConformanceTest, RenameDirectorySubtree) {
  ASSERT_TRUE(fs().MkdirAll("src/deep").ok());
  ASSERT_TRUE(fs().WriteWholeFile("src/deep/f", Bytes{3}).ok());
  ASSERT_TRUE(fs().Rename("src", "dst").ok());
  EXPECT_EQ(fs().ReadWholeFile("dst/deep/f").value(), Bytes{3});
  EXPECT_FALSE(fs().Exists("src"));
}

TEST_P(VfsConformanceTest, SymlinkRoundTrip) {
  ASSERT_TRUE(fs().WriteWholeFile("target", Bytes{1}).ok());
  ASSERT_TRUE(fs().Symlink("target", "link").ok());
  EXPECT_EQ(fs().Readlink("link").value(), "target");
  EXPECT_EQ(fs().Symlink("target", "link").code(), ErrorCode::kAlreadyExists);
  EXPECT_TRUE(fs().Remove("link").ok());
  EXPECT_FALSE(fs().Readlink("link").ok());
  EXPECT_TRUE(fs().Exists("target"));
}

TEST_P(VfsConformanceTest, ClosedHandleRejectsUse) {
  auto f = fs().Open("f", OpenMode::kWrite).value();
  ASSERT_TRUE(f->Close().ok());
  EXPECT_FALSE(f->Write(0, Bytes{1}).ok());
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(f->Close().ok());
  Bytes buf(4);
  EXPECT_FALSE(f->Read(0, buf).ok());
}

TEST_P(VfsConformanceTest, LargeFileMultiMegabyte) {
  crypto::HmacDrbg rng(AsBytes("vfs-large"));
  const Bytes data = rng.Generate((3 << 20) + 777);
  ASSERT_TRUE(fs().WriteWholeFile("big", data).ok());
  EXPECT_EQ(fs().ReadWholeFile("big").value(), data);
}

TEST_P(VfsConformanceTest, PartialSyncChargesLessThanFullStore) {
  // A 4 MB file where one byte changes: fsync must ship roughly one AFS
  // chunk (or one NEXUS chunk), not the whole file.
  const Bytes data(4 << 20, 0xaa);
  ASSERT_TRUE(fs().WriteWholeFile("big", data).ok());

  auto& clock = world_.clock();
  auto f = fs().Open("big", OpenMode::kReadWrite).value();
  const double t0 = clock.Now();
  ASSERT_TRUE(f->Write(100, Bytes{0x55}).ok());
  ASSERT_TRUE(f->Sync().ok());
  const double partial_cost = clock.Now() - t0;
  ASSERT_TRUE(f->Close().ok());

  // Full store of the same file for comparison.
  const double t1 = clock.Now();
  ASSERT_TRUE(fs().WriteWholeFile("big2", data).ok());
  const double full_cost = clock.Now() - t1;

  EXPECT_LT(partial_cost, full_cost / 2) << "sync shipped too much data";
  // Content must still be correct.
  EXPECT_EQ(fs().ReadWholeFile("big").value()[100], 0x55);
}

// NexusFs returns the enclave's plaintext from ReadWholeFile instead of
// re-buffering it; the result, the error and the enclave work must match
// the generic Open/Read/Close path exactly.
TEST(NexusFsReadWholeFile, MatchesOpenReadCloseAndItsEcalls) {
  test::World world;
  test::Machine& machine = world.AddMachine("user");
  ASSERT_TRUE(machine.nexus->CreateVolume(machine.user).ok());
  NexusFs fs(*machine.nexus);

  crypto::HmacDrbg rng(AsBytes("vfs-read-whole"));
  const Bytes data = rng.Generate((1 << 20) + 333);
  ASSERT_TRUE(fs.WriteWholeFile("f", data).ok());
  ASSERT_TRUE(fs.WriteWholeFile("empty", {}).ok());
  ASSERT_TRUE(fs.Mkdir("d").ok());

  auto open_read_close = [&fs](const std::string& path) -> Result<Bytes> {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<OpenFile> file,
                           fs.Open(path, OpenMode::kRead));
    Bytes out(file->Size());
    NEXUS_ASSIGN_OR_RETURN(std::size_t n, file->Read(0, out));
    out.resize(n);
    NEXUS_RETURN_IF_ERROR(file->Close());
    return out;
  };
  struct Case {
    std::string path;
    ErrorCode code;
  };
  for (const Case& c : {Case{"f", ErrorCode::kOk},
                        Case{"empty", ErrorCode::kOk},
                        Case{"d", ErrorCode::kInvalidArgument},
                        Case{"missing", ErrorCode::kNotFound}}) {
    const std::uint64_t e0 = machine.runtime->ecall_count();
    const auto buffered = open_read_close(c.path);
    const std::uint64_t e1 = machine.runtime->ecall_count();
    const auto direct = fs.ReadWholeFile(c.path);
    const std::uint64_t e2 = machine.runtime->ecall_count();

    EXPECT_EQ(buffered.status().code(), c.code) << c.path;
    EXPECT_EQ(direct.status().code(), c.code) << c.path;
    if (c.code == ErrorCode::kOk) {
      EXPECT_TRUE(direct.value() == buffered.value()) << c.path;
    }
    EXPECT_GT(e1 - e0, 0u) << c.path;
    EXPECT_EQ(e2 - e1, e1 - e0) << c.path;
  }
  EXPECT_TRUE(fs.ReadWholeFile("f").value() == data);
  EXPECT_TRUE(fs.ReadWholeFile("empty").value().empty());
}

TEST(NexusFsWriteWholeFile, MatchesOpenWriteCloseAndItsEcalls) {
  test::World world;
  test::Machine& machine = world.AddMachine("user");
  ASSERT_TRUE(machine.nexus->CreateVolume(machine.user).ok());
  NexusFs fs(*machine.nexus);

  crypto::HmacDrbg rng(AsBytes("vfs-write-whole"));
  const Bytes old_data = rng.Generate((1 << 20) + 333);
  const Bytes new_data = rng.Generate((2 << 20) + 5);

  auto open_write_close = [&fs](const std::string& path,
                                ByteSpan content) -> Status {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<OpenFile> file,
                           fs.Open(path, OpenMode::kWrite));
    NEXUS_RETURN_IF_ERROR(file->Write(0, content));
    return file->Close();
  };
  enum class Prior { kNone, kFile, kDirectory };
  struct Case {
    std::string name;
    Prior prior;
    Bytes content;
    ErrorCode code;
  };
  for (const Case& c :
       {Case{"new", Prior::kNone, new_data, ErrorCode::kOk},
        Case{"overwrite", Prior::kFile, new_data, ErrorCode::kOk},
        Case{"truncate", Prior::kFile, Bytes{}, ErrorCode::kOk},
        Case{"dir", Prior::kDirectory, new_data,
             ErrorCode::kInvalidArgument}}) {
    // Two paths in the same starting state, one per write path.
    const std::string buffered_path = "buffered-" + c.name;
    const std::string direct_path = "direct-" + c.name;
    for (const std::string& path : {buffered_path, direct_path}) {
      if (c.prior == Prior::kFile) {
        ASSERT_TRUE(open_write_close(path, old_data).ok()) << path;
      } else if (c.prior == Prior::kDirectory) {
        ASSERT_TRUE(fs.Mkdir(path).ok()) << path;
      }
    }

    const std::uint64_t e0 = machine.runtime->ecall_count();
    const Status buffered = open_write_close(buffered_path, c.content);
    const std::uint64_t e1 = machine.runtime->ecall_count();
    const Status direct = fs.WriteWholeFile(direct_path, c.content);
    const std::uint64_t e2 = machine.runtime->ecall_count();

    EXPECT_EQ(buffered.code(), c.code) << c.name;
    EXPECT_EQ(direct.code(), c.code) << c.name;
    EXPECT_GT(e1 - e0, 0u) << c.name;
    EXPECT_EQ(e2 - e1, e1 - e0) << c.name;
    if (c.code == ErrorCode::kOk) {
      const auto buffered_back = fs.ReadWholeFile(buffered_path);
      const auto direct_back = fs.ReadWholeFile(direct_path);
      ASSERT_TRUE(buffered_back.ok() && direct_back.ok()) << c.name;
      EXPECT_TRUE(buffered_back.value() == c.content) << c.name;
      EXPECT_TRUE(direct_back.value() == c.content) << c.name;
    } else {
      EXPECT_EQ(fs.Stat(direct_path)->type, FileType::kDirectory) << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothMounts, VfsConformanceTest,
                         ::testing::Values(MountKind::kPassthrough,
                                           MountKind::kNexus),
                         [](const auto& info) {
                           return info.param == MountKind::kPassthrough
                                      ? "OpenAfsBaseline"
                                      : "Nexus";
                         });

} // namespace
} // namespace nexus::vfs

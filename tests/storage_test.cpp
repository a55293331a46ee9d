// Storage substrate tests: backend contract (parameterized over Mem/Disk,
// plus a live RemoteBackend when NEXUS_REMOTE_ADDR points at a nexusd),
// AFS caching semantics, locking, cost accounting and the adversary API.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/remote_backend.hpp"
#include "storage/afs.hpp"
#include "storage/backend.hpp"

namespace nexus::storage {
namespace {

// ---- backend contract, parameterized over implementations -------------------

enum class BackendKind { kMem, kDisk, kRemote };

/// Mem and Disk always run; Remote joins when NEXUS_REMOTE_ADDR=host:port
/// names a live nexusd (the CI loopback smoke step sets it).
std::vector<BackendKind> BackendsUnderTest() {
  std::vector<BackendKind> kinds = {BackendKind::kMem, BackendKind::kDisk};
  if (std::getenv("NEXUS_REMOTE_ADDR") != nullptr) {
    kinds.push_back(BackendKind::kRemote);
  }
  return kinds;
}

class BackendContractTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case BackendKind::kMem:
        backend_ = std::make_unique<MemBackend>();
        break;
      case BackendKind::kDisk:
        dir_ = std::filesystem::temp_directory_path() /
               ("nexus-test-" + std::to_string(::getpid()) + "-" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        backend_ = std::make_unique<DiskBackend>(
            DiskBackend::Open(dir_.string()).value());
        break;
      case BackendKind::kRemote: {
        const std::string addr = std::getenv("NEXUS_REMOTE_ADDR");
        const auto colon = addr.rfind(':');
        ASSERT_NE(colon, std::string::npos) << "NEXUS_REMOTE_ADDR=" << addr;
        auto remote = net::RemoteBackend::Connect(
            addr.substr(0, colon),
            static_cast<std::uint16_t>(std::stoi(addr.substr(colon + 1))));
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        backend_ = std::move(remote).value();
        // The daemon's store outlives individual tests: start each from a
        // clean namespace.
        for (const auto& name : backend_->List("")) {
          ASSERT_TRUE(backend_->Delete(name).ok()) << name;
        }
        break;
      }
    }
  }
  void TearDown() override {
    backend_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<StorageBackend> backend_;
  std::filesystem::path dir_;
};

TEST_P(BackendContractTest, PutGetRoundTrip) {
  const Bytes data = {1, 2, 3, 0, 255};
  ASSERT_TRUE(backend_->Put("obj", data).ok());
  EXPECT_EQ(backend_->Get("obj").value(), data);

  // Sizes around the edges of a sized read: empty, one byte, one past a
  // 64 KiB block, and a multi-megabyte object with an odd tail. The
  // position-dependent fill catches shifted or repeated blocks.
  auto pattern = [](std::size_t n) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(i * 31 + (i >> 16));
    }
    return out;
  };
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{(64u << 10) + 1},
        std::size_t{(4u << 20) + 17}}) {
    const std::string name = "sized-" + std::to_string(size);
    const Bytes want = pattern(size);
    ASSERT_TRUE(backend_->Put(name, want).ok()) << size;
    const auto got = backend_->Get(name);
    ASSERT_TRUE(got.ok()) << size << ": " << got.status().ToString();
    EXPECT_EQ(got.value().size(), size);
    EXPECT_TRUE(got.value() == want) << "content differs at size " << size;
  }

  const auto missing = backend_->Get("sized-missing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);

  // A shorter overwrite must come back at exactly its own size: no stale
  // tail from the longer object it replaced.
  const std::string big = "sized-" + std::to_string((4u << 20) + 17);
  const Bytes shorter(100, 0xEE);
  ASSERT_TRUE(backend_->Put(big, shorter).ok());
  EXPECT_EQ(backend_->Get(big).value(), shorter);
}

TEST_P(BackendContractTest, GetMissingFails) {
  auto r = backend_->Get("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST_P(BackendContractTest, OverwriteReplaces) {
  ASSERT_TRUE(backend_->Put("obj", Bytes{1}).ok());
  ASSERT_TRUE(backend_->Put("obj", Bytes{2, 3}).ok());
  EXPECT_EQ(backend_->Get("obj").value(), (Bytes{2, 3}));
}

TEST_P(BackendContractTest, DeleteRemoves) {
  ASSERT_TRUE(backend_->Put("obj", Bytes{1}).ok());
  EXPECT_TRUE(backend_->Exists("obj"));
  ASSERT_TRUE(backend_->Delete("obj").ok());
  EXPECT_FALSE(backend_->Exists("obj"));
  EXPECT_FALSE(backend_->Delete("obj").ok());
}

TEST_P(BackendContractTest, EmptyObjectAllowed) {
  ASSERT_TRUE(backend_->Put("empty", {}).ok());
  EXPECT_TRUE(backend_->Exists("empty"));
  EXPECT_TRUE(backend_->Get("empty").value().empty());
}

TEST_P(BackendContractTest, ListByPrefixSorted) {
  ASSERT_TRUE(backend_->Put("nx/b", Bytes{1}).ok());
  ASSERT_TRUE(backend_->Put("nx/a", Bytes{1}).ok());
  ASSERT_TRUE(backend_->Put("other/c", Bytes{1}).ok());
  const auto names = backend_->List("nx/");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "nx/a");
  EXPECT_EQ(names[1], "nx/b");
}

TEST_P(BackendContractTest, AwkwardNamesSurvive) {
  for (const std::string name :
       {"with/slash", "with space", "uni\xc3\xa9", "%percent", "..dots"}) {
    ASSERT_TRUE(backend_->Put(name, Bytes{7}).ok()) << name;
    EXPECT_EQ(backend_->Get(name).value(), Bytes{7}) << name;
  }
}

// Regression pin for the name-unescaping bound: an escaped character at
// the very END of a name ("nx/" escapes to "nx%2f") must survive the
// Put → List round trip. The decode bound is i + 3 <= size, which admits
// a trailing %XX — this test keeps it that way.
TEST_P(BackendContractTest, TrailingEscapedCharacterRoundTrips) {
  for (const std::string name : {"nx/", "trailing%", "q?", "a/b/"}) {
    ASSERT_TRUE(backend_->Put(name, Bytes{9}).ok()) << name;
    EXPECT_EQ(backend_->Get(name).value(), Bytes{9}) << name;
    const auto listed = backend_->List(name);
    ASSERT_EQ(listed.size(), 1u) << name;
    EXPECT_EQ(listed[0], name);
  }
}

// Names containing a literal '%' round-trip: escaping re-encodes the '%'
// itself, so unescaping can never misread it as the start of an escape.
TEST_P(BackendContractTest, MalformedEscapesListVerbatim) {
  for (const std::string name : {"100%", "50%off", "a%zz"}) {
    ASSERT_TRUE(backend_->Put(name, Bytes{3}).ok()) << name;
    const auto listed = backend_->List(name);
    ASSERT_EQ(listed.size(), 1u) << name;
    EXPECT_EQ(listed[0], name);
  }
}

// A PutStream is single-shot: after Commit or Abort the stream is dead and
// every further call fails kInvalidArgument instead of silently writing.
TEST_P(BackendContractTest, StreamDeadAfterCommit) {
  auto stream = backend_->OpenPutStream("s").value();
  ASSERT_TRUE(stream->Append(Bytes(10, 1)).ok());
  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(stream->Append(Bytes{2}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(backend_->Get("s").value(), Bytes(10, 1)); // unchanged
}

TEST_P(BackendContractTest, StreamDeadAfterAbort) {
  auto stream = backend_->OpenPutStream("s").value();
  ASSERT_TRUE(stream->Append(Bytes(10, 1)).ok());
  stream->Abort();
  EXPECT_EQ(stream->Append(Bytes{2}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kInvalidArgument);
  stream->Abort(); // double abort is harmless
  EXPECT_FALSE(backend_->Exists("s"));
}

// Whole-object calls are thread-safe per the StorageBackend contract; in
// particular concurrent same-name writers must serialize to one winner's
// complete content, never interleave.
TEST_P(BackendContractTest, ConcurrentSameNameWritersLeaveOneWinner) {
  constexpr int kWriters = 4;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([this, w] {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            backend_->Put("contended", Bytes(512, static_cast<std::uint8_t>(w)))
                .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  const Bytes final = backend_->Get("contended").value();
  ASSERT_EQ(final.size(), 512u);
  for (const auto byte : final) EXPECT_EQ(byte, final[0]); // no interleaving
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         ::testing::ValuesIn(BackendsUnderTest()),
                         [](const auto& info) {
                           switch (info.param) {
                             case BackendKind::kMem: return "Mem";
                             case BackendKind::kDisk: return "Disk";
                             case BackendKind::kRemote: return "Remote";
                           }
                           return "Unknown";
                         });

// ---- DiskBackend name escaping ----------------------------------------------

TEST(DiskNameEscaping, RoundTripsTrickyNames) {
  for (const std::string name :
       {"plain", "a/b/c", "100%", "%", "%%", "trailing%2f", "%2f", "a%zz",
        "uni\xc3\xa9\xe2\x82\xac", "with space", "..", ".", "?q=1&r=2"}) {
    const std::string escaped = EscapeName(name);
    EXPECT_EQ(UnescapeName(escaped), name) << name << " via " << escaped;
    // Escaped form is a safe flat filename: no separators, no traversal.
    EXPECT_EQ(escaped.find('/'), std::string::npos) << escaped;
    EXPECT_NE(escaped, "..") << name;
  }
}

TEST(DiskNameEscaping, EscapingIsInjectiveOnCollidingInputs) {
  // Pairs that would collide if '%' were not itself escaped.
  EXPECT_NE(EscapeName("a/b"), EscapeName("a%2fb"));
  EXPECT_NE(EscapeName("100%"), EscapeName("100%25"));
  EXPECT_NE(EscapeName("nx/"), EscapeName("nx%2f"));
}

TEST(DiskNameEscaping, ListPrefixMatchesLogicalNamesAcrossEscapedBoundaries) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nexus-escape-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DiskBackend backend = DiskBackend::Open(dir.string()).value();
    // "a/" and "a%" escape to different leaders ("a%2f" vs "a%25"): prefix
    // filtering happens on LOGICAL names, so "a/" must match only the
    // slash family even though both share the escaped prefix "a%2".
    for (const std::string name :
         {"a/x", "a/y", "a%x", "a%2fz", "ab", "a"}) {
      ASSERT_TRUE(backend.Put(name, Bytes{1}).ok()) << name;
    }
    const auto slash_family = backend.List("a/");
    ASSERT_EQ(slash_family.size(), 2u);
    EXPECT_EQ(slash_family[0], "a/x");
    EXPECT_EQ(slash_family[1], "a/y");

    const auto percent_family = backend.List("a%");
    ASSERT_EQ(percent_family.size(), 2u);
    EXPECT_EQ(percent_family[0], "a%2fz");
    EXPECT_EQ(percent_family[1], "a%x");

    EXPECT_EQ(backend.List("a").size(), 6u);
    EXPECT_EQ(backend.List("").size(), 6u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskNameEscaping, ListSkipsForeignAndTemporaryFiles) {
  // The store directory is shared territory: crashed Puts leave temp
  // files, the cache's disk tier keeps dot-prefixed metadata beside a
  // disk-backed store, and operators drop stray files in by hand. List
  // must report exactly the canonical objects and nothing else.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nexus-foreign-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DiskBackend backend = DiskBackend::Open(dir.string()).value();
    ASSERT_TRUE(backend.Put("keep/me", Bytes{1}).ok());
    ASSERT_TRUE(backend.Put("keep2", Bytes{2}).ok());

    // Foreign droppings: a subdirectory, hidden metadata, an in-flight
    // temp file, a file with an invalid escape sequence, and a file whose
    // characters a writer would have escaped (non-canonical spelling).
    std::filesystem::create_directory(dir / "subdir");
    for (const std::string foreign :
         {".cache-index", ".%tmp-123", "bad%zq", "not%2Gescaped"}) {
      std::ofstream(dir / foreign) << "junk";
    }
    std::ofstream(dir / "subdir" / "nested") << "junk";

    const auto names = backend.List("");
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "keep/me");
    EXPECT_EQ(names[1], "keep2");
  }
  std::filesystem::remove_all(dir);
}

// ---- DiskBackend atomic Put -------------------------------------------------

class DiskBackendAtomicityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nexus-atomic-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    backend_ = std::make_unique<DiskBackend>(
        DiskBackend::Open(dir_.string()).value());
  }
  void TearDown() override {
    backend_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::size_t TempFileCount() const {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().starts_with(".%tmp-")) ++n;
    }
    return n;
  }

  std::unique_ptr<DiskBackend> backend_;
  std::filesystem::path dir_;
};

// Put goes through a same-directory temp file + rename; a completed Put
// must leave no temp behind (a leftover would mean the visible object
// could have been a torn direct write).
TEST_F(DiskBackendAtomicityTest, PutLeavesNoTempFiles) {
  ASSERT_TRUE(backend_->Put("nx/a", Bytes(100, 1)).ok());
  ASSERT_TRUE(backend_->Put("nx/a", Bytes(5000, 2)).ok()); // overwrite
  EXPECT_EQ(TempFileCount(), 0u);
  EXPECT_EQ(backend_->Get("nx/a").value(), Bytes(5000, 2));
}

// A temp file orphaned by a host crash mid-Put is invisible to the object
// namespace: List skips it, and it shadows nothing.
TEST_F(DiskBackendAtomicityTest, LeftoverTempFilesAreInvisible) {
  ASSERT_TRUE(backend_->Put("nx/real", Bytes{1}).ok());
  {
    std::ofstream junk(dir_ / ".%tmp-nx%2fghost", std::ios::binary);
    junk << "torn write";
  }
  const auto names = backend_->List("nx/");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "nx/real");
  EXPECT_FALSE(backend_->Exists("nx/ghost"));
  EXPECT_FALSE(backend_->Get("nx/ghost").ok());
}

// A streamed Put buffers in the same-directory temp file: nothing is
// visible mid-stream, the object appears atomically at Commit, and the
// temp is gone afterwards.
TEST_F(DiskBackendAtomicityTest, PutStreamInvisibleUntilCommit) {
  auto stream = backend_->OpenPutStream("nx/s").value();
  ASSERT_TRUE(stream->Append(Bytes(4096, 0x11)).ok());
  ASSERT_TRUE(stream->Append(Bytes(100, 0x22)).ok());
  EXPECT_FALSE(backend_->Exists("nx/s")); // mid-stream: not an object yet
  EXPECT_EQ(TempFileCount(), 1u);

  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(TempFileCount(), 0u);
  Bytes want(4096, 0x11);
  want.insert(want.end(), 100, 0x22);
  EXPECT_EQ(backend_->Get("nx/s").value(), want);
}

// Abort (and destruction without Commit) must leave neither the object
// nor the temp file behind — including when it would have overwritten.
TEST_F(DiskBackendAtomicityTest, PutStreamAbortLeavesOldContent) {
  ASSERT_TRUE(backend_->Put("nx/s", Bytes{7}).ok());
  {
    auto stream = backend_->OpenPutStream("nx/s").value();
    ASSERT_TRUE(stream->Append(Bytes(1000, 0xEE)).ok());
    stream->Abort();
  }
  {
    auto dropped = backend_->OpenPutStream("nx/s").value();
    ASSERT_TRUE(dropped->Append(Bytes(10, 0xDD)).ok());
    // Destructor without Commit == Abort.
  }
  EXPECT_EQ(TempFileCount(), 0u);
  EXPECT_EQ(backend_->Get("nx/s").value(), Bytes{7});
}

// ---- AFS semantics ------------------------------------------------------------

class AfsTest : public ::testing::Test {
 protected:
  SimClock clock_;
  AfsServer server_{std::make_unique<MemBackend>(), clock_};
  AfsClient alice_{server_, "alice"};
  AfsClient bob_{server_, "bob"};
};

TEST_F(AfsTest, StoreFetchRoundTrip) {
  const Bytes data(1000, 0xab);
  ASSERT_TRUE(alice_.Store("f", data).ok());
  EXPECT_EQ(bob_.Fetch("f").value(), data);
}

TEST_F(AfsTest, FetchMissingFails) {
  EXPECT_EQ(alice_.Fetch("nope").status().code(), ErrorCode::kNotFound);
}

TEST_F(AfsTest, CacheHitIsFree) {
  ASSERT_TRUE(alice_.Store("f", Bytes(1 << 20, 1)).ok());
  ASSERT_TRUE(alice_.Fetch("f").ok()); // warm (own store already cached it)
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Fetch("f").ok());
  EXPECT_EQ(clock_.Now(), t0); // zero cost: callback held
  EXPECT_GT(alice_.stats().cache_hits, 0u);
}

TEST_F(AfsTest, RemoteWriteInvalidatesCallback) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok());
  // Alice updates; Bob's cached copy must be refetched.
  ASSERT_TRUE(alice_.Store("f", Bytes{2}).ok());
  const auto before = bob_.stats().fetches;
  EXPECT_EQ(bob_.Fetch("f").value(), Bytes{2});
  EXPECT_EQ(bob_.stats().fetches, before + 1);
}

TEST_F(AfsTest, FlushCacheForcesRefetch) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  alice_.FlushCache();
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Fetch("f").ok());
  EXPECT_GT(clock_.Now(), t0);
}

TEST_F(AfsTest, TransferCostScalesWithSize) {
  ASSERT_TRUE(alice_.Store("small", Bytes(1024, 1)).ok());
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Store("big", Bytes(10 << 20, 1)).ok());
  const double big_cost = clock_.Now() - t0;
  const CostModel& cost = server_.cost();
  EXPECT_NEAR(big_cost, cost.RpcSeconds(10 << 20), 1e-9);
  EXPECT_GT(big_cost, cost.RpcSeconds(1024));
}

TEST_F(AfsTest, LockExclusion) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Lock("f").ok());
  EXPECT_EQ(bob_.Lock("f").code(), ErrorCode::kConflict);
  ASSERT_TRUE(alice_.Unlock("f").ok());
  EXPECT_TRUE(bob_.Lock("f").ok());
  EXPECT_TRUE(bob_.Unlock("f").ok());
}

TEST_F(AfsTest, UnlockRequiresHolder) {
  ASSERT_TRUE(alice_.Lock("f").ok());
  EXPECT_FALSE(bob_.Unlock("f").ok());
  EXPECT_TRUE(alice_.Unlock("f").ok());
  EXPECT_FALSE(alice_.Unlock("f").ok()); // double unlock
}

TEST_F(AfsTest, LockForcesRevalidation) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Fetch("f").ok());
  ASSERT_TRUE(alice_.Lock("f").ok());
  // After taking the lock, the cached copy is no longer trusted.
  const auto before = alice_.stats().fetches;
  ASSERT_TRUE(alice_.Fetch("f").ok());
  EXPECT_EQ(alice_.stats().fetches, before + 1);
  ASSERT_TRUE(alice_.Unlock("f").ok());
}

TEST_F(AfsTest, VersionsIncrement) {
  const auto v1 = alice_.StoreVersioned("f", Bytes{1}).value();
  const auto v2 = alice_.StoreVersioned("f", Bytes{2}).value();
  EXPECT_GT(v2, v1);
  EXPECT_TRUE(alice_.CacheFresh("f", v2));
  EXPECT_FALSE(alice_.CacheFresh("f", v1));
}

TEST_F(AfsTest, AdversaryTamperIsInvisibleAtTransport) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(server_.AdversaryWrite("f", Bytes{9, 9, 9}).ok());
  // Alice's callback was NOT broken: she sees her stale cache...
  EXPECT_EQ(alice_.Fetch("f").value(), (Bytes{1, 2, 3}));
  // ...but a cold client sees the tampered bytes with no transport error.
  EXPECT_EQ(bob_.Fetch("f").value(), (Bytes{9, 9, 9}));
}

TEST_F(AfsTest, AdversaryRollbackAndSwap) {
  ASSERT_TRUE(alice_.Store("a", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("b", Bytes{2}).ok());
  const Bytes snapshot = server_.AdversarySnapshot("a").value();
  ASSERT_TRUE(alice_.Store("a", Bytes{3}).ok());
  ASSERT_TRUE(server_.AdversaryRollback("a", snapshot).ok());
  EXPECT_EQ(bob_.Fetch("a").value(), Bytes{1}); // old state served

  ASSERT_TRUE(server_.AdversarySwap("a", "b").ok());
  EXPECT_EQ(bob_.Fetch("b").value(), Bytes{1});
}

TEST_F(AfsTest, RpcCountsAccumulate) {
  const auto rpcs0 = server_.rpc_count();
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 2);
}


TEST_F(AfsTest, PartialStoreChargesOnlyChangedBytes) {
  const Bytes big(10 << 20, 1);
  ASSERT_TRUE(alice_.Store("f", big).ok());
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.StorePartial("f", big, 4096).ok());
  const double partial = clock_.Now() - t0;
  EXPECT_NEAR(partial, server_.cost().RpcSeconds(4096), 1e-9);
  // Content is still fully replaced.
  EXPECT_EQ(bob_.Fetch("f").value().size(), big.size());
}

// ---- segmented (pipelined) stores -------------------------------------------

TEST_F(AfsTest, StreamedStoreAppliesAtomicallyAtCommit) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok()); // bob holds a callback

  const auto handle = alice_.StoreStreamBegin("f", 300).value();
  ASSERT_TRUE(alice_.StoreStreamSegment(handle, Bytes(200, 0xAA)).ok());
  // Mid-stream: nothing visible, bob's callback intact.
  EXPECT_EQ(bob_.Fetch("f").value(), Bytes{1});
  EXPECT_TRUE(server_.CallbackValid("bob", "f"));

  ASSERT_TRUE(alice_.StoreStreamSegment(handle, Bytes(100, 0xBB)).ok());
  ASSERT_TRUE(alice_.StoreStreamCommit(handle, 300).ok());

  // Commit: version bumped, bob's callback broken, content whole.
  EXPECT_FALSE(server_.CallbackValid("bob", "f"));
  Bytes want(200, 0xAA);
  want.insert(want.end(), 100, 0xBB);
  EXPECT_EQ(bob_.Fetch("f").value(), want);
  // Alice's own cache was updated at commit (writeback semantics).
  const double t0 = clock_.Now();
  EXPECT_EQ(alice_.Fetch("f").value(), want);
  EXPECT_EQ(clock_.Now(), t0); // served locally, no RPC cost
}

TEST_F(AfsTest, StreamedStoreAbortLeavesObjectUntouched) {
  ASSERT_TRUE(alice_.Store("f", Bytes{7, 7}).ok());
  const auto handle = alice_.StoreStreamBegin("f", 100).value();
  ASSERT_TRUE(alice_.StoreStreamSegment(handle, Bytes(100, 0xEE)).ok());
  ASSERT_TRUE(alice_.StoreStreamAbort(handle).ok());
  EXPECT_EQ(bob_.Fetch("f").value(), (Bytes{7, 7}));
  // The handle is dead after abort.
  EXPECT_FALSE(alice_.StoreStreamSegment(handle, Bytes{1}).ok());
}

TEST_F(AfsTest, StreamedStoreCostMatchesWholeStorePlusOneRtt) {
  const std::size_t total = 4 << 20;
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Store("w", Bytes(total, 1)).ok());
  const double whole = clock_.Now() - t0;

  const double t1 = clock_.Now();
  const auto handle = alice_.StoreStreamBegin("s", total).value();
  for (std::size_t off = 0; off < total; off += 1 << 20) {
    ASSERT_TRUE(alice_.StoreStreamSegment(handle, Bytes(1 << 20, 2)).ok());
  }
  ASSERT_TRUE(alice_.StoreStreamCommit(handle, total).ok());
  const double streamed = clock_.Now() - t1;

  // Segments ride one logical RPC: only the closing acknowledgement adds
  // a control round-trip over the whole-object store.
  EXPECT_NEAR(streamed - whole,
              server_.cost().rtt_seconds + server_.cost().per_op_seconds, 1e-9);
}

TEST_F(AfsTest, FetchRangeUsesWholeFileCache) {
  const std::size_t size = 2 << 20;
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(alice_.Store("f", data).ok());

  // Cold client: the first range pays a full whole-file fetch (OpenAFS
  // transfers files, not ranges)...
  const double t0 = clock_.Now();
  const auto first = bob_.FetchRange("f", 100, 1000).value();
  const double first_cost = clock_.Now() - t0;
  EXPECT_EQ(first.object_size, size);
  EXPECT_EQ(first.data, Bytes(data.begin() + 100, data.begin() + 1100));
  EXPECT_NEAR(first_cost, server_.cost().RpcSeconds(size), 1e-9);

  // ...and every later range is a free cache slice.
  const double t1 = clock_.Now();
  const auto tail = bob_.FetchRange("f", size - 50, 500).value();
  EXPECT_EQ(clock_.Now(), t1);
  EXPECT_EQ(tail.data.size(), 50u); // clamped at EOF
  EXPECT_EQ(tail.data, Bytes(data.end() - 50, data.end()));
}

TEST_F(AfsTest, GetVersionReestablishesCallback) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok());
  ASSERT_TRUE(alice_.Store("f", Bytes{2}).ok()); // breaks bob's callback
  EXPECT_FALSE(server_.CallbackValid("bob", "f"));
  ASSERT_TRUE(server_.RpcGetVersion("bob", "f").ok());
  EXPECT_TRUE(server_.CallbackValid("bob", "f"));
}

TEST_F(AfsTest, RevalidateOutcomes) {
  const auto v1 = alice_.StoreVersioned("f", Bytes{1}).value();
  // Fresh callback: true without an RPC.
  const auto rpcs0 = server_.rpc_count();
  EXPECT_TRUE(alice_.Revalidate("f", v1).value());
  EXPECT_EQ(server_.rpc_count(), rpcs0);

  // Broken callback, unchanged version: one status RPC, true.
  server_.AdversaryInvalidateCallbacks("f");
  EXPECT_TRUE(alice_.Revalidate("f", v1).value());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 1);

  // Changed version: false, and the stale cache entry is dropped.
  ASSERT_TRUE(bob_.Store("f", Bytes{2}).ok());
  EXPECT_FALSE(alice_.Revalidate("f", v1).value());
  EXPECT_EQ(alice_.Fetch("f").value(), Bytes{2});

  // Deleted object: false, no crash.
  ASSERT_TRUE(bob_.Remove("f").ok());
  EXPECT_FALSE(alice_.Revalidate("f", v1).value());
}

TEST_F(AfsTest, ListDirDistinguishesFilesAndSubtrees) {
  ASSERT_TRUE(alice_.Store("p/file", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("p/dir/nested", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("p/both", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("p/both/child", Bytes{1}).ok());

  const auto children = alice_.ListDir("p/").value();
  ASSERT_EQ(children.size(), 3u);
  auto find = [&](const std::string& name) {
    for (const auto& c : children) {
      if (c.name == name) return c;
    }
    return storage::AfsServer::ChildEntry{};
  };
  EXPECT_TRUE(find("file").is_exact);
  EXPECT_FALSE(find("file").has_children);
  EXPECT_FALSE(find("dir").is_exact);
  EXPECT_TRUE(find("dir").has_children);
  EXPECT_TRUE(find("both").is_exact);
  EXPECT_TRUE(find("both").has_children);
}

TEST_F(AfsTest, ServerSideRenameMovesSubtreeInOneRpc) {
  ASSERT_TRUE(alice_.Store("src", Bytes{0}).ok());
  ASSERT_TRUE(alice_.Store("src/a", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("src/deep/b", Bytes{2}).ok());
  const auto rpcs0 = server_.rpc_count();
  ASSERT_TRUE(alice_.RenameObject("src", "dst").ok());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 1);
  EXPECT_EQ(bob_.Fetch("dst/deep/b").value(), Bytes{2});
  EXPECT_FALSE(bob_.Fetch("src/a").ok());
  // Renaming a missing path fails cleanly.
  EXPECT_FALSE(alice_.RenameObject("ghost", "x").ok());
}

TEST_F(AfsTest, RevalidationDisableForcesRefetch) {
  const auto v1 = alice_.StoreVersioned("f", Bytes(1 << 20, 1)).value();
  alice_.set_revalidation_enabled(false);
  server_.AdversaryInvalidateCallbacks("f");
  EXPECT_FALSE(alice_.Revalidate("f", v1).value()); // would be true otherwise
}

TEST(SimClock, AttributionAccounts) {
  SimClock clock;
  clock.Advance(1.0);
  {
    SimClock::Attribution a(clock, "meta");
    clock.Advance(2.0);
  }
  clock.Advance(4.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 7.0);
  EXPECT_DOUBLE_EQ(clock.Account("meta"), 2.0);
  EXPECT_DOUBLE_EQ(clock.Account("other"), 0.0);
}

} // namespace
} // namespace nexus::storage

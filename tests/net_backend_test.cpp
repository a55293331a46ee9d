// nexusd + RemoteBackend integration over a real loopback socket: the
// backend contract, large streamed puts, concurrent clients, hostile
// frames, and clean shutdown semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus::net {
namespace {

RemoteBackendOptions FastOptions() {
  RemoteBackendOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 2;
  options.rpc_deadline_ms = 10000;
  return options;
}

class NetBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A live connection parks a worker for its lifetime, so give the test
    // daemon headroom for the fixture client plus per-test extras.
    NexusdOptions options;
    options.workers = 8;
    server_ = NexusdServer::Start(store_, options).value();
    auto client =
        RemoteBackend::Connect("127.0.0.1", server_->port(), FastOptions());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    remote_ = std::move(client).value();
  }

  storage::MemBackend store_;
  std::unique_ptr<NexusdServer> server_;
  std::unique_ptr<RemoteBackend> remote_;
};

TEST_F(NetBackendTest, PutGetRoundTrip) {
  const Bytes data = {1, 2, 3, 0, 255};
  ASSERT_TRUE(remote_->Put("obj", data).ok());
  EXPECT_EQ(remote_->Get("obj").value(), data);
  // The object really lives on the server, not in the client.
  EXPECT_EQ(store_.Get("obj").value(), data);
}

TEST_F(NetBackendTest, ServerVerdictsPropagate) {
  auto missing = remote_->Get("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(remote_->Delete("nope").ok());
}

TEST_F(NetBackendTest, ExistsListDelete) {
  ASSERT_TRUE(remote_->Put("nx/b", Bytes{1}).ok());
  ASSERT_TRUE(remote_->Put("nx/a", Bytes{2}).ok());
  ASSERT_TRUE(remote_->Put("other", Bytes{3}).ok());
  EXPECT_TRUE(remote_->Exists("nx/a"));
  EXPECT_FALSE(remote_->Exists("nx/c"));
  const auto names = remote_->List("nx/");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "nx/a");
  EXPECT_EQ(names[1], "nx/b");
  ASSERT_TRUE(remote_->Delete("nx/a").ok());
  EXPECT_FALSE(remote_->Exists("nx/a"));
}

TEST_F(NetBackendTest, AwkwardNamesSurviveTheWire) {
  for (const std::string name :
       {"with/slash", "with space", "uni\xc3\xa9", "%percent", "trailing%",
        "nx/", "..dots"}) {
    ASSERT_TRUE(remote_->Put(name, Bytes{7}).ok()) << name;
    EXPECT_EQ(remote_->Get(name).value(), Bytes{7}) << name;
  }
}

TEST_F(NetBackendTest, EmptyObjectRoundTrips) {
  ASSERT_TRUE(remote_->Put("empty", {}).ok());
  EXPECT_TRUE(remote_->Exists("empty"));
  EXPECT_TRUE(remote_->Get("empty").value().empty());
}

TEST_F(NetBackendTest, SixteenMegabyteStreamedPut) {
  Bytes want;
  auto stream = remote_->OpenPutStream("big").value();
  for (int seg = 0; seg < 16; ++seg) {
    const Bytes segment(1 << 20, static_cast<std::uint8_t>(seg + 1));
    ASSERT_TRUE(stream->Append(segment).ok()) << seg;
    want.insert(want.end(), segment.begin(), segment.end());
    EXPECT_FALSE(store_.Exists("big")); // nothing visible mid-stream
  }
  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(remote_->Get("big").value(), want);
}

TEST_F(NetBackendTest, StreamAbortLeavesStoreUntouched) {
  ASSERT_TRUE(remote_->Put("s", Bytes{7}).ok());
  auto stream = remote_->OpenPutStream("s").value();
  ASSERT_TRUE(stream->Append(Bytes(1000, 0xEE)).ok());
  stream->Abort();
  EXPECT_EQ(remote_->Get("s").value(), Bytes{7});
  // The stream is dead after Abort.
  EXPECT_EQ(stream->Append(Bytes{1}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kInvalidArgument);
}

TEST_F(NetBackendTest, DroppedStreamIsAbortedNotCommitted) {
  {
    auto stream = remote_->OpenPutStream("dropped").value();
    ASSERT_TRUE(stream->Append(Bytes(100, 1)).ok());
    // Destroyed without Commit.
  }
  EXPECT_FALSE(remote_->Exists("dropped"));
}

// A client that dies mid-stream (connection close, no Abort RPC) must not
// leave a partial object: the server aborts the stream with the
// connection.
TEST_F(NetBackendTest, DisconnectAbortsServerSideStreams) {
  {
    auto conn =
        TcpTransport::Dial("127.0.0.1", server_->port(), 2000, 2000).value();
    Writer begin = BeginRequest(Rpc::kStreamBegin);
    begin.Str("torn");
    ASSERT_TRUE(conn->SendFrame(begin.bytes()).ok());
    ASSERT_TRUE(conn->RecvFrame().ok());
    // Connection closes here with the stream open.
  }
  // Another RPC round trip gives the server time to notice the close.
  for (int i = 0; i < 100 && server_->stats().streams_aborted_on_disconnect == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->stats().streams_aborted_on_disconnect, 1u);
  EXPECT_FALSE(remote_->Exists("torn"));
}

TEST_F(NetBackendTest, GarbageFrameKillsConnectionOnly) {
  {
    auto conn =
        TcpTransport::Dial("127.0.0.1", server_->port(), 2000, 2000).value();
    const Bytes junk = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(conn->SendFrame(junk).ok());
    // Server drops the connection without replying.
    EXPECT_FALSE(conn->RecvFrame().ok());
  }
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  // The daemon itself is fine: existing clients keep working.
  ASSERT_TRUE(remote_->Put("after", Bytes{1}).ok());
  EXPECT_EQ(remote_->Get("after").value(), Bytes{1});
}

TEST_F(NetBackendTest, ConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 25;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      auto client =
          RemoteBackend::Connect("127.0.0.1", server_->port(), FastOptions());
      if (!client.ok()) {
        failures[c] = client.status();
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string name =
            "c" + std::to_string(c) + "/o" + std::to_string(i);
        const Bytes data(100 + i, static_cast<std::uint8_t>(c));
        const Status put = client.value()->Put(name, data);
        if (!put.ok()) {
          failures[c] = put;
          return;
        }
        auto back = client.value()->Get(name);
        if (!back.ok() || back.value() != data) {
          failures[c] = Error(ErrorCode::kInternal, "bad readback " + name);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].ok()) << "client " << c << ": "
                                  << failures[c].ToString();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(remote_->List("c" + std::to_string(c) + "/").size(),
              static_cast<std::size_t>(kOpsPerClient));
  }
}

TEST_F(NetBackendTest, CountersTrackTraffic) {
  ASSERT_TRUE(remote_->Put("counted", Bytes(1000, 1)).ok());
  ASSERT_TRUE(remote_->Get("counted").ok());
  const NetCounters counters = remote_->counters();
  EXPECT_GE(counters.rpcs, 3u); // ping + put + get
  EXPECT_GT(counters.bytes_sent, 1000u);
  EXPECT_GT(counters.bytes_received, 1000u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.reconnects, 0u);

  const auto stats = server_->stats();
  EXPECT_GE(stats.rpcs_served, counters.rpcs);
  EXPECT_GE(stats.connections_accepted, 1u);
}

TEST_F(NetBackendTest, StopUnblocksConnectedClientsAndIsIdempotent) {
  ASSERT_TRUE(remote_->Put("pre", Bytes{1}).ok());
  server_->Stop();
  server_->Stop(); // idempotent
  // The client surfaces a clean error (after its bounded retries), not a
  // hang, and the pre-existing object survived in the backend.
  EXPECT_FALSE(remote_->Put("post", Bytes{2}).ok());
  EXPECT_TRUE(store_.Exists("pre"));
  EXPECT_FALSE(store_.Exists("post"));
}

TEST_F(NetBackendTest, ConnectFailsFastAgainstDeadServer) {
  const std::uint16_t port = server_->port();
  server_->Stop();
  RemoteBackendOptions options = FastOptions();
  options.connect_deadline_ms = 500;
  auto client = RemoteBackend::Connect("127.0.0.1", port, options);
  EXPECT_FALSE(client.ok());
}

// ---- hostile Get replies ----------------------------------------------------

/// A peer that answers every request with a well-formed OK head: Ping
/// offers `version`, and every other RPC gets `results` verbatim after the
/// head. The client sees exactly the bytes a hostile server would send.
class ScriptedPeer final : public Transport {
 public:
  ScriptedPeer(std::uint8_t version, Bytes results)
      : version_(version), results_(std::move(results)) {}

  Status SendFrame(ByteSpan request) override {
    Reader reader(request);
    std::uint64_t corr = 0;
    std::uint8_t head_version = 0;
    NEXUS_ASSIGN_OR_RETURN(const Rpc rpc,
                           ParseRequestHead(reader, &corr, &head_version));
    Writer reply = BeginResponse(Status::Ok(), corr, head_version);
    if (rpc == Rpc::kPing) {
      reply.U8(version_);
    } else {
      reply.Raw(results_);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    replies_.push_back(std::move(reply).Take());
    cv_.notify_all();
    return Status::Ok();
  }

  Result<Bytes> RecvFrame() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !replies_.empty(); });
    if (closed_) return Error(ErrorCode::kIOError, "scripted peer closed");
    Bytes reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

  void Close() override {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  const std::uint8_t version_;
  const Bytes results_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Bytes> replies_;
  bool closed_ = false;
};

/// GetLeased("obj") against a ScriptedPeer whose Get reply carries
/// `results`. `version` > 2 negotiates that version first (a v4+ head
/// lets the reply end in a lease flag); 2 stays on lock-step v2.
Result<Bytes> GetFromScriptedPeer(std::uint8_t version, const Bytes& results,
                                  bool* lease_granted) {
  RemoteBackendOptions options = FastOptions();
  options.max_attempts = 1;
  RemoteBackend remote(
      [version, results]() -> Result<std::unique_ptr<Transport>> {
        return std::unique_ptr<Transport>(
            std::make_unique<ScriptedPeer>(version, results));
      },
      options);
  if (version > 2) {
    NEXUS_RETURN_IF_ERROR(remote.Ping());
  }
  return remote.GetLeased("obj", lease_granted);
}

/// `u32 len | body | extra`: a Get reply whose length field may lie.
Bytes GetReplyBytes(std::uint32_t len, const Bytes& body,
                    const Bytes& extra = {}) {
  Writer w;
  w.U32(len);
  w.Raw(body);
  w.Raw(extra);
  return std::move(w).Take();
}

TEST(NetHostileReplyTest, WellFormedGetRepliesDecodeExactly) {
  const Bytes body = {1, 2, 3, 4, 5};
  bool lease = true;
  EXPECT_EQ(GetFromScriptedPeer(2, GetReplyBytes(5, body), &lease).value(),
            body);
  EXPECT_FALSE(lease);
  EXPECT_EQ(GetFromScriptedPeer(6, GetReplyBytes(5, body, {1}), &lease).value(),
            body);
  EXPECT_TRUE(lease);
  EXPECT_EQ(GetFromScriptedPeer(6, GetReplyBytes(5, body, {0}), &lease).value(),
            body);
  EXPECT_FALSE(lease);
  EXPECT_TRUE(GetFromScriptedPeer(6, GetReplyBytes(0, {}, {1}), &lease)
                  .value()
                  .empty());
}

TEST(NetHostileReplyTest, MalformedGetRepliesFailInsteadOfShortOrPadded) {
  const Bytes body = {1, 2, 3, 4, 5};
  struct Case {
    const char* what;
    std::uint8_t version;
    Bytes results;
  };
  const Case cases[] = {
      {"no length field", 6, {}},
      {"truncated length field", 6, {5, 0}},
      {"length runs past the frame", 2, GetReplyBytes(6, body)},
      {"length runs past the frame (v6)", 6, GetReplyBytes(7, body)},
      {"length above kMaxObjectBytes", 6,
       GetReplyBytes(static_cast<std::uint32_t>(kMaxObjectBytes + 1), body)},
      {"trailing byte without lease flag (v2)", 2, GetReplyBytes(5, body, {0})},
      {"short length, body as padding (v2)", 2, GetReplyBytes(3, body)},
      {"short length, body as padding (v6)", 6, GetReplyBytes(3, body)},
      {"bytes after the lease flag", 6, GetReplyBytes(5, body, {1, 0})},
  };
  for (const Case& c : cases) {
    bool lease = false;
    const auto got = GetFromScriptedPeer(c.version, c.results, &lease);
    EXPECT_FALSE(got.ok()) << c.what << ": decoded " << got.value().size()
                           << " bytes";
    EXPECT_FALSE(lease) << c.what;
  }
}

// The daemon serves a DiskBackend identically — the wire protocol composes
// with on-disk name escaping and atomic temp-file publication.
TEST(NetDiskBackendTest, DiskServedRoundTripWithHostileNames) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nexus-netdisk-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto disk = storage::DiskBackend::Open(dir.string());
    ASSERT_TRUE(disk.ok());
    storage::DiskBackend backend = std::move(disk).value();
    auto server = NexusdServer::Start(backend).value();
    auto remote =
        RemoteBackend::Connect("127.0.0.1", server->port(), FastOptions())
            .value();

    for (const std::string name : {"a/b/c", "100%", "uni\xc3\xa9", "nx/"}) {
      ASSERT_TRUE(remote->Put(name, Bytes{5}).ok()) << name;
      EXPECT_EQ(remote->Get(name).value(), Bytes{5}) << name;
    }
    auto stream = remote->OpenPutStream("streamed").value();
    ASSERT_TRUE(stream->Append(Bytes(1 << 20, 0xAB)).ok());
    ASSERT_TRUE(stream->Append(Bytes(123, 0xCD)).ok());
    ASSERT_TRUE(stream->Commit().ok());
    Bytes want(1 << 20, 0xAB);
    want.insert(want.end(), 123, 0xCD);
    EXPECT_EQ(remote->Get("streamed").value(), want);
    server->Stop();
  }
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace nexus::net

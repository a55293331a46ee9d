// nexusd + RemoteBackend integration over a real loopback socket: the
// backend contract, large streamed puts, concurrent clients, hostile
// frames, and clean shutdown semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
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
    server_ = NexusdServer::Start(store_).value();
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

// ---- hostile replies --------------------------------------------------------

/// A peer that answers every request, Ping included, with a well-formed OK
/// head followed by `results` verbatim. The client sees exactly the bytes a
/// hostile server would send.
class ScriptedPeer final : public Transport {
 public:
  explicit ScriptedPeer(Bytes results) : results_(std::move(results)) {}

  Status SendFrame(ByteSpan request) override {
    Reader reader(request);
    std::uint64_t corr = 0;
    NEXUS_RETURN_IF_ERROR(ParseRequestHead(reader, &corr).status());
    Writer reply = BeginResponse(Status::Ok(), corr);
    reply.Raw(results_);
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
  const Bytes results_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Bytes> replies_;
  bool closed_ = false;
};

/// A single-attempt client of a ScriptedPeer whose replies carry `results`.
/// It never Pings: there is nothing to negotiate.
std::unique_ptr<RemoteBackend> ScriptedClient(const Bytes& results) {
  RemoteBackendOptions options = FastOptions();
  options.max_attempts = 1;
  return std::make_unique<RemoteBackend>(
      [results]() -> Result<std::unique_ptr<Transport>> {
        return std::unique_ptr<Transport>(
            std::make_unique<ScriptedPeer>(results));
      },
      options);
}

Result<Bytes> GetFromScriptedPeer(const Bytes& results, bool* lease_granted) {
  return ScriptedClient(results)->GetLeased("obj", lease_granted);
}

Status PutToScriptedPeer(const Bytes& results, bool* lease_granted) {
  return ScriptedClient(results)->PutLeased("obj", Bytes{1, 2},
                                            lease_granted);
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

/// `u32 n | n x Str | u8 more | extra`: a ListPage reply.
Bytes ListPageReplyBytes(const std::vector<std::string>& names, bool more,
                         const Bytes& extra = {}) {
  Writer w;
  w.U32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) w.Str(name);
  w.U8(more ? 1 : 0);
  w.Raw(extra);
  return std::move(w).Take();
}

TEST(NetHostileReplyTest, WellFormedGetRepliesDecodeExactly) {
  const Bytes body = {1, 2, 3, 4, 5};
  bool lease = false;
  EXPECT_EQ(GetFromScriptedPeer(GetReplyBytes(5, body, {1}), &lease).value(),
            body);
  EXPECT_TRUE(lease);
  EXPECT_EQ(GetFromScriptedPeer(GetReplyBytes(5, body, {0}), &lease).value(),
            body);
  EXPECT_FALSE(lease);
  EXPECT_TRUE(
      GetFromScriptedPeer(GetReplyBytes(0, {}, {1}), &lease).value().empty());
}

TEST(NetHostileReplyTest, MalformedGetRepliesFailInsteadOfShortOrPadded) {
  const Bytes body = {1, 2, 3, 4, 5};
  struct Case {
    const char* what;
    Bytes results;
  };
  const Case cases[] = {
      {"no length field", {}},
      {"truncated length field", {5, 0}},
      {"length runs past the frame", GetReplyBytes(6, body)},
      {"length runs past the frame, lease flag included",
       GetReplyBytes(7, body)},
      {"length above kMaxObjectBytes",
       GetReplyBytes(static_cast<std::uint32_t>(kMaxObjectBytes + 1), body)},
      // The v2/v3 layouts carried no lease flag.
      {"object with no lease flag", GetReplyBytes(5, body)},
      {"empty object with no lease flag", GetReplyBytes(0, {})},
      {"short length, body as padding", GetReplyBytes(3, body)},
      {"bytes after the lease flag", GetReplyBytes(5, body, {1, 0})},
  };
  for (const Case& c : cases) {
    bool lease = false;
    const auto got = GetFromScriptedPeer(c.results, &lease);
    EXPECT_FALSE(got.ok()) << c.what << ": decoded " << got.value().size()
                           << " bytes";
    EXPECT_FALSE(lease) << c.what;
  }
}

TEST(NetHostileReplyTest, FixedLayoutRepliesDecodeExactly) {
  bool lease = false;
  EXPECT_TRUE(PutToScriptedPeer({1}, &lease).ok());
  EXPECT_TRUE(lease);
  EXPECT_TRUE(PutToScriptedPeer({0}, &lease).ok());
  EXPECT_FALSE(lease);
  EXPECT_TRUE(ScriptedClient({kProtocolVersion})->Ping().ok());
  EXPECT_TRUE(ScriptedClient({1})->Exists("obj"));
  const auto page = ScriptedClient(ListPageReplyBytes({"a", "b"}, true))
                        ->ListSome("", "", 10);
  EXPECT_EQ(page.names, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(page.more);
}

TEST(NetHostileReplyTest, EmptyOrPaddedFixedLayoutRepliesFail) {
  for (const Bytes& results : {Bytes{}, Bytes{1, 0}, Bytes{0, 0}}) {
    bool lease = false;
    EXPECT_FALSE(PutToScriptedPeer(results, &lease).ok()) << results.size();
    EXPECT_FALSE(lease);
  }
  for (const Bytes& results : {Bytes{}, Bytes{kProtocolVersion, 0}}) {
    EXPECT_FALSE(ScriptedClient(results)->Ping().ok()) << results.size();
  }
  // Exists and ListPage cannot report an error: a malformed reply reads as
  // "absent" and as an empty final page.
  EXPECT_FALSE(ScriptedClient({1, 0})->Exists("obj"));
  EXPECT_FALSE(ScriptedClient({1, 1})->Exists("obj"));
  const auto page = ScriptedClient(ListPageReplyBytes({"a", "b"}, true, {0}))
                        ->ListSome("", "", 10);
  EXPECT_TRUE(page.names.empty());
  EXPECT_FALSE(page.more);
}

// ---- pipelined put streams --------------------------------------------------

/// One frame crossing a StreamPeer connection: a request the client sent,
/// or the response to one that the client read back.
struct WireEvent {
  bool sent = false;
  Rpc rpc = Rpc::kPing;
  std::size_t append_bytes = 0; // segment size of a sent kStreamAppend
};

/// State shared by every connection of one scripted peer: the objects its
/// stream commits published and each connection's event log, in dial order.
struct StreamPeerState {
  std::mutex mu;
  std::map<std::string, Bytes> published;
  std::vector<std::vector<WireEvent>> logs;
  /// Connection `reset_connection` resets once it has received
  /// `reset_after_appends` appends; `inflight_at_reset` then records how
  /// many of its requests were still unanswered.
  std::size_t reset_connection = SIZE_MAX;
  std::size_t reset_after_appends = 0;
  std::optional<std::size_t> inflight_at_reset;
};

/// An in-memory nexusd stand-in that serves Ping and the
/// four stream RPCs, answers every request in order, and logs each frame.
class StreamPeer final : public Transport {
 public:
  StreamPeer(std::shared_ptr<StreamPeerState> state, std::size_t index)
      : state_(std::move(state)), index_(index) {}

  Status SendFrame(ByteSpan request) override {
    Reader reader(request);
    std::uint64_t corr = 0;
    NEXUS_ASSIGN_OR_RETURN(const Rpc rpc, ParseRequestHead(reader, &corr));
    const std::lock_guard<std::mutex> lock(mu_);
    if (Reset()) return Error(ErrorCode::kIOError, "connection reset");
    WireEvent event{true, rpc, 0};
    Writer reply = BeginResponse(Status::Ok(), corr);
    switch (rpc) {
      case Rpc::kPing:
        reply.U8(kProtocolVersion);
        break;
      case Rpc::kStreamBegin: {
        NEXUS_ASSIGN_OR_RETURN(name_, reader.Str());
        pending_.clear();
        reply.U64(1);
        break;
      }
      case Rpc::kStreamAppend: {
        NEXUS_RETURN_IF_ERROR(reader.U64().status());
        NEXUS_ASSIGN_OR_RETURN(Bytes segment, reader.Var());
        event.append_bytes = segment.size();
        pending_.insert(pending_.end(), segment.begin(), segment.end());
        ++appends_;
        break;
      }
      case Rpc::kStreamCommit: {
        const std::lock_guard<std::mutex> shared(state_->mu);
        state_->published[name_] = pending_;
        break;
      }
      default:
        break;
    }
    Log(event);
    replies_.push_back({rpc, std::move(reply).Take()});
    ++unanswered_;
    cv_.notify_all();
    return Status::Ok();
  }

  Result<Bytes> RecvFrame() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || Reset() || !replies_.empty(); });
    if (closed_ || Reset()) {
      return Error(ErrorCode::kIOError, "connection reset");
    }
    auto [rpc, reply] = std::move(replies_.front());
    replies_.pop_front();
    --unanswered_;
    Log(WireEvent{false, rpc, 0});
    return std::move(reply);
  }

  void Close() override {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  /// True once this connection's scripted reset point has passed; the
  /// first time, records the requests it leaves unanswered. Holds mu_.
  bool Reset() {
    const std::lock_guard<std::mutex> shared(state_->mu);
    if (index_ != state_->reset_connection ||
        appends_ < state_->reset_after_appends) {
      return false;
    }
    if (!state_->inflight_at_reset) state_->inflight_at_reset = unanswered_;
    return true;
  }

  void Log(const WireEvent& event) {
    const std::lock_guard<std::mutex> shared(state_->mu);
    state_->logs[index_].push_back(event);
  }

  const std::shared_ptr<StreamPeerState> state_;
  const std::size_t index_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<Rpc, Bytes>> replies_;
  std::size_t unanswered_ = 0;
  std::size_t appends_ = 0;
  std::string name_;
  Bytes pending_;
  bool closed_ = false;
};

/// A RemoteBackend whose every dial is a fresh StreamPeer connection.
/// Connection 0 carries a Ping; stream connections follow.
/// `window` 0 takes NEXUS_RPC_WINDOW.
std::unique_ptr<RemoteBackend> StreamPeerClient(
    const std::shared_ptr<StreamPeerState>& state, std::size_t window) {
  RemoteBackendOptions options = FastOptions();
  options.rpc_window = window;
  auto remote = std::make_unique<RemoteBackend>(
      [state]() -> Result<std::unique_ptr<Transport>> {
        std::size_t index = 0;
        {
          const std::lock_guard<std::mutex> lock(state->mu);
          index = state->logs.size();
          state->logs.emplace_back();
        }
        return std::unique_ptr<Transport>(
            std::make_unique<StreamPeer>(state, index));
      },
      options);
  EXPECT_TRUE(remote->Ping().ok());
  return remote;
}

/// `count` distinct segments; segment i is `base + 37 * i` bytes.
std::vector<Bytes> Segments(std::size_t count, std::size_t base) {
  std::vector<Bytes> out;
  for (std::size_t i = 0; i < count; ++i) {
    Bytes segment(base + 37 * i);
    for (std::size_t j = 0; j < segment.size(); ++j) {
      segment[j] = static_cast<std::uint8_t>(i * 131 + j * 7);
    }
    out.push_back(std::move(segment));
  }
  return out;
}

Bytes Concat(const std::vector<Bytes>& segments) {
  Bytes out;
  for (const Bytes& s : segments) out.insert(out.end(), s.begin(), s.end());
  return out;
}

/// Requests sent but not yet answered at each point of `log`; returns the
/// maximum, and the count of appends sent before the first append
/// response was read.
std::pair<std::size_t, std::size_t> InflightProfile(
    const std::vector<WireEvent>& log) {
  std::size_t inflight = 0;
  std::size_t peak = 0;
  std::size_t appends_before_first_ack = 0;
  bool acked = false;
  for (const WireEvent& e : log) {
    if (e.sent) {
      peak = std::max(peak, ++inflight);
      if (e.rpc == Rpc::kStreamAppend && !acked) ++appends_before_first_ack;
    } else {
      --inflight;
      if (e.rpc == Rpc::kStreamAppend) acked = true;
    }
  }
  return {peak, appends_before_first_ack};
}

std::size_t AppendsIn(const std::vector<WireEvent>& log) {
  return static_cast<std::size_t>(
      std::count_if(log.begin(), log.end(), [](const WireEvent& e) {
        return e.sent && e.rpc == Rpc::kStreamAppend;
      }));
}

TEST(NetPutStreamTest, WindowOfAppendsIsOnTheWireBeforeTheFirstAck) {
  for (const std::size_t window : {2u, 4u, 8u}) {
    auto state = std::make_shared<StreamPeerState>();
    auto remote = StreamPeerClient(state, window);
    const std::vector<Bytes> segments = Segments(2 * window + 3, 1000);
    auto stream = remote->OpenPutStream("obj").value();
    for (const Bytes& s : segments) ASSERT_TRUE(stream->Append(s).ok());
    ASSERT_TRUE(stream->Commit().ok());

    EXPECT_EQ(state->published["obj"], Concat(segments)) << window;
    ASSERT_EQ(state->logs.size(), 2u) << window;
    const auto [peak, before_ack] = InflightProfile(state->logs[1]);
    EXPECT_EQ(before_ack, window);
    EXPECT_EQ(peak, window);
    EXPECT_EQ(AppendsIn(state->logs[1]), segments.size());
  }
}

TEST(NetPutStreamTest, RpcWindowOfOneIsLockStep) {
  const char* saved = std::getenv("NEXUS_RPC_WINDOW");
  const std::optional<std::string> restore =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  ::setenv("NEXUS_RPC_WINDOW", "1", 1);
  auto state = std::make_shared<StreamPeerState>();
  auto remote = StreamPeerClient(state, /*window=*/0);
  if (restore) {
    ::setenv("NEXUS_RPC_WINDOW", restore->c_str(), 1);
  } else {
    ::unsetenv("NEXUS_RPC_WINDOW");
  }

  const std::vector<Bytes> segments = Segments(6, 500);
  auto stream = remote->OpenPutStream("obj").value();
  for (const Bytes& s : segments) ASSERT_TRUE(stream->Append(s).ok());
  ASSERT_TRUE(stream->Commit().ok());

  EXPECT_EQ(state->published["obj"], Concat(segments));
  ASSERT_EQ(state->logs.size(), 2u);
  const std::vector<WireEvent>& log = state->logs[1];
  ASSERT_EQ(log.size() % 2, 0u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sent, i % 2 == 0) << i; // send, read, send, read, ...
  }
}

TEST(NetPutStreamTest, ResetWithAppendsInFlightReplaysByteIdentical) {
  auto state = std::make_shared<StreamPeerState>();
  state->reset_connection = 1; // the first stream connection
  state->reset_after_appends = 3;
  auto remote = StreamPeerClient(state, 4);
  const std::vector<Bytes> segments = Segments(10, 3000);
  auto stream = remote->OpenPutStream("obj").value();
  for (const Bytes& s : segments) ASSERT_TRUE(stream->Append(s).ok());
  ASSERT_TRUE(stream->Commit().ok());

  ASSERT_TRUE(state->inflight_at_reset.has_value());
  EXPECT_GE(*state->inflight_at_reset, 2u);
  EXPECT_EQ(state->published["obj"], Concat(segments));
  // The restart replayed on a fresh connection, each segment as itself.
  ASSERT_EQ(state->logs.size(), 3u);
  std::vector<std::size_t> replayed;
  for (const WireEvent& e : state->logs[2]) {
    if (e.sent && e.rpc == Rpc::kStreamAppend) {
      replayed.push_back(e.append_bytes);
    }
  }
  ASSERT_EQ(replayed.size(), segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(replayed[i], segments[i].size()) << i;
  }
}

TEST(NetPutStreamTest, UnbufferedStreamFailsForGoodOnReset) {
  auto state = std::make_shared<StreamPeerState>();
  state->reset_connection = 1;
  state->reset_after_appends = 3;
  auto remote = StreamPeerClient(state, 4);
  const std::vector<Bytes> segments = Segments(10, 3000);
  auto stream = remote->OpenUnbufferedPutStream("obj").value();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(stream->Append(segments[i]).ok()) << i;
  }
  EXPECT_EQ(stream->Append(segments[3]).code(), ErrorCode::kIOError);
  EXPECT_EQ(stream->Append(segments[4]).code(), ErrorCode::kIOError);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kIOError);
  EXPECT_EQ(state->published.count("obj"), 0u);
  EXPECT_EQ(state->logs.size(), 2u); // no second stream connection
}

TEST(NetPutStreamTest, FirstSegmentOverOneMebibyteIsOneAppend) {
  auto state = std::make_shared<StreamPeerState>();
  auto remote = StreamPeerClient(state, 8);
  const Bytes segment = Segments(1, (1u << 20) + 16).front();
  auto stream = remote->OpenPutStream("obj").value();
  ASSERT_TRUE(stream->Append(segment).ok());
  ASSERT_TRUE(stream->Commit().ok());

  EXPECT_EQ(state->published["obj"], segment);
  ASSERT_EQ(state->logs.size(), 2u);
  EXPECT_EQ(AppendsIn(state->logs[1]), 1u);
  EXPECT_EQ(remote->counters().rpcs, 4u); // ping, begin, append, commit
}

TEST(NetPutStreamTest, CommitFollowsEveryAppendVerdict) {
  for (const std::size_t segment_count : {1u, 5u, 20u}) {
    auto state = std::make_shared<StreamPeerState>();
    auto remote = StreamPeerClient(state, 8);
    const std::vector<Bytes> segments = Segments(segment_count, 100);
    auto stream = remote->OpenPutStream("obj").value();
    for (const Bytes& s : segments) ASSERT_TRUE(stream->Append(s).ok());
    ASSERT_TRUE(stream->Commit().ok());

    ASSERT_EQ(state->logs.size(), 2u);
    std::size_t sent = 0;
    std::size_t read = 0;
    bool committed = false;
    for (const WireEvent& e : state->logs[1]) {
      if (e.sent && e.rpc == Rpc::kStreamCommit) {
        EXPECT_EQ(read, sent) << segment_count; // nothing left unanswered
        committed = true;
      }
      ++(e.sent ? sent : read);
    }
    EXPECT_TRUE(committed) << segment_count;
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

// Pipelined RPC multiplexing: out-of-order responses, windowed failure
// isolation, correlation-desync handling, readahead through the cache
// tier, and the protocol version check — all against a live loopback
// nexusd or a scripted TCP peer.
//
// These tests pin the PROTOCOL-level behaviors the mux introduced: a
// connection resolves responses by correlation id rather than arrival
// order; a transport failure inside a full window retries only the
// requests that were actually robbed of their response; a desynchronized
// response kills the connection without orphaning its siblings; a client
// speaks the whole protocol from its first RPC, Ping or not; and a peer of
// another protocol version is refused at once, never retried.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_counters.hpp"
#include "cache/cached_backend.hpp"
#include "common/bytes.hpp"
#include "net/fault.hpp"
#include "net/net_counters.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus {
namespace {

using net::NexusdOptions;
using net::NexusdServer;
using net::RemoteBackend;
using net::RemoteBackendOptions;

Bytes Blob(char fill, std::size_t n) { return Bytes(n, static_cast<std::uint8_t>(fill)); }

// ---- server-side gate ------------------------------------------------------

// Wraps a MemBackend (which is final) and blocks Get() on selected names
// until released — lets a test hold one RPC open server-side while its
// connection keeps serving others.
class GateBackend final : public storage::StorageBackend {
 public:
  /// Blocks every Get whose name is `gated` until Release(); Gets arriving
  /// before Release() count as waiters (WaitForWaiters observes them).
  explicit GateBackend(std::string gated) : gated_(std::move(gated)) {}

  Result<Bytes> Get(const std::string& name) override {
    if (name == gated_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++waiters_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return inner_.Get(name);
  }
  Status Put(const std::string& name, ByteSpan data) override {
    return inner_.Put(name, data);
  }
  Status Delete(const std::string& name) override { return inner_.Delete(name); }
  bool Exists(const std::string& name) override { return inner_.Exists(name); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }

  /// Blocks until `n` Gets of the gated name are parked inside the server.
  void WaitForWaiters(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiters_ >= n; });
  }
  void Release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  storage::MemBackend& inner() { return inner_; }

 private:
  storage::MemBackend inner_;
  std::string gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiters_ = 0;
  bool released_ = false;
};

// ---- client-side response tampering ----------------------------------------

// Watches outgoing requests for a Get of `victim` and swallows exactly one
// response carrying its correlation id. State is shared across reconnects
// so the retry's response passes through.
class DropVictimResponse final : public net::Transport {
 public:
  struct Shared {
    std::mutex mu;
    std::uint64_t victim_corr = 0;
    bool armed = false;
    bool dropped = false;
  };

  DropVictimResponse(std::unique_ptr<net::Transport> inner,
                     std::shared_ptr<Shared> shared, std::string victim)
      : inner_(std::move(inner)),
        shared_(std::move(shared)),
        victim_(std::move(victim)) {}

  Status SendFrame(ByteSpan payload) override {
    Reader reader(payload);
    std::uint64_t corr = 0;
    const auto rpc = net::ParseRequestHead(reader, &corr);
    if (rpc.ok() && rpc.value() == net::Rpc::kGet) {
      const auto name = reader.Str();
      if (name.ok() && name.value() == victim_) {
        const std::lock_guard<std::mutex> lock(shared_->mu);
        if (!shared_->dropped) {
          shared_->victim_corr = corr;
          shared_->armed = true;
        }
      }
    }
    return inner_->SendFrame(payload);
  }

  Result<Bytes> RecvFrame() override {
    for (;;) {
      auto frame = inner_->RecvFrame();
      if (!frame.ok()) return frame;
      {
        const std::lock_guard<std::mutex> lock(shared_->mu);
        if (shared_->armed && !shared_->dropped &&
            net::ResponseCorrelation(frame.value()) == shared_->victim_corr) {
          shared_->dropped = true;
          continue; // the one stolen response; everything else flows
        }
      }
      return frame;
    }
  }

  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::shared_ptr<Shared> shared_;
  std::string victim_;
};

// Once armed (two Gets seen on the wire), overwrites the correlation id of
// the next response with an id no request ever used — the demux must treat
// the stream as desynchronized and fail the whole connection.
class CorruptNextCorrelation final : public net::Transport {
 public:
  struct Shared {
    std::atomic<int> gets_sent{0};
    std::atomic<bool> corrupted{false};
  };

  CorruptNextCorrelation(std::unique_ptr<net::Transport> inner,
                         std::shared_ptr<Shared> shared)
      : inner_(std::move(inner)), shared_(std::move(shared)) {}

  Status SendFrame(ByteSpan payload) override {
    if (net::RequestRpc(payload) == net::Rpc::kGet) shared_->gets_sent++;
    return inner_->SendFrame(payload);
  }

  Result<Bytes> RecvFrame() override {
    auto frame = inner_->RecvFrame();
    if (!frame.ok()) return frame;
    Bytes bytes = std::move(frame).value();
    // Response head: u8 version, u64 correlation. Clobber the correlation
    // once both Gets are known to be in flight.
    if (bytes.size() >= 9 && shared_->gets_sent.load() >= 2 &&
        !shared_->corrupted.exchange(true)) {
      for (std::size_t i = 1; i <= 8; ++i) bytes[i] = 0xFF;
    }
    return bytes;
  }

  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::shared_ptr<Shared> shared_;
};

// ---- out-of-order responses ------------------------------------------------

TEST(NetMux, OutOfOrderRepliesResolveByCorrelation) {
  GateBackend backend("slow");
  ASSERT_TRUE(backend.inner().Put("slow", Blob('s', 512)).ok());
  ASSERT_TRUE(backend.inner().Put("fast", Blob('f', 128)).ok());

  NexusdOptions server_options;
  server_options.rpc_workers = 4;
  auto server = NexusdServer::Start(backend, server_options).value();

  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  std::thread slow_reader([&] {
    EXPECT_EQ(client.Get("slow").value(), Blob('s', 512));
  });
  backend.WaitForWaiters(1); // "slow" is parked inside the server

  // The SAME connection answers "fast" while "slow" is still open: the
  // fast response overtakes the slow one and the demux routes each to its
  // caller by correlation id.
  EXPECT_EQ(client.Get("fast").value(), Blob('f', 128));

  backend.Release();
  slow_reader.join();

  EXPECT_EQ(client.counters().retries, 0u);
  // One TCP connection carried everything — overtaking happened inside
  // one multiplexed stream, not across parallel connections.
  EXPECT_EQ(server->stats().connections_accepted, 1u);
  server->Stop();
}

// ---- failure isolation inside a window -------------------------------------

TEST(NetMux, DroppedResponseInFullWindowRetriesOnlyThatRequest) {
  storage::MemBackend backend;
  const std::vector<std::string> names = {"a", "b", "c", "victim"};
  for (const auto& name : names) {
    ASSERT_TRUE(backend.Put(name, Blob(name[0], 256)).ok());
  }

  auto server = NexusdServer::Start(backend).value();

  auto shared = std::make_shared<DropVictimResponse::Shared>();
  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  options.sleep_ms = [](int) {}; // don't serve real backoff in a test
  const std::uint16_t port = server->port();
  RemoteBackend client(
      [port, shared]() -> Result<std::unique_ptr<net::Transport>> {
        // Short recv deadline: the demux notices the stolen response fast.
        auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 250);
        if (!tcp.ok()) return tcp.status();
        return Result<std::unique_ptr<net::Transport>>(
            std::make_unique<DropVictimResponse>(std::move(tcp).value(),
                                                 shared, "victim"));
      },
      options);
  ASSERT_TRUE(client.Ping().ok());

  // Fill the window: four concurrent Gets on one connection, one of which
  // loses its response. The other three must complete from the original
  // connection; only the victim may retry.
  std::vector<std::thread> readers;
  readers.reserve(names.size());
  for (const auto& name : names) {
    readers.emplace_back([&client, name] {
      EXPECT_EQ(client.Get(name).value(), Blob(name[0], 256));
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_TRUE(shared->dropped);
  EXPECT_EQ(client.counters().retries, 1u);    // the victim, nobody else
  EXPECT_EQ(client.counters().reconnects, 1u); // one fresh dial for it
  server->Stop();
}

TEST(NetMux, CorrelationMismatchDropsConnectionWithoutOrphans) {
  GateBackend backend("a"); // barrier below uses WaitForWaiters on "a"
  ASSERT_TRUE(backend.inner().Put("a", Blob('a', 300)).ok());
  ASSERT_TRUE(backend.inner().Put("b", Blob('b', 301)).ok());

  NexusdOptions server_options;
  server_options.rpc_workers = 2;
  auto server = NexusdServer::Start(backend, server_options).value();

  auto shared = std::make_shared<CorruptNextCorrelation::Shared>();
  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  options.sleep_ms = [](int) {};
  const std::uint16_t port = server->port();
  RemoteBackend client(
      [port, shared]() -> Result<std::unique_ptr<net::Transport>> {
        auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 2000);
        if (!tcp.ok()) return tcp.status();
        return Result<std::unique_ptr<net::Transport>>(
            std::make_unique<CorruptNextCorrelation>(std::move(tcp).value(),
                                                     shared));
      },
      options);
  ASSERT_TRUE(client.Ping().ok());

  // Hold "a" open server-side until both Gets are in flight, so the
  // corrupted response provably has a sibling outstanding.
  std::thread reader_a([&] {
    EXPECT_EQ(client.Get("a").value(), Blob('a', 300));
  });
  backend.WaitForWaiters(1);
  std::thread reader_b([&] {
    EXPECT_EQ(client.Get("b").value(), Blob('b', 301));
  });
  while (shared->gets_sent.load() < 2) std::this_thread::yield();
  backend.Release();
  reader_a.join();
  reader_b.join();

  // The poisoned frame killed the connection; BOTH in-flight requests
  // failed over and retried rather than one hanging forever orphaned.
  EXPECT_TRUE(shared->corrupted.load());
  EXPECT_EQ(client.counters().retries, 2u);
  EXPECT_GE(client.counters().reconnects, 1u);
  server->Stop();
}

// ---- concurrent window soak (run under TSan in CI) --------------------------

TEST(NetMux, ConcurrentWindowSoak) {
  storage::MemBackend backend;
  NexusdOptions server_options;
  server_options.rpc_workers = 4;
  auto server = NexusdServer::Start(backend, server_options).value();

  constexpr std::size_t kBudget = 1u << 20;
  RemoteBackendOptions options;
  options.rpc_window = 16;
  options.max_pooled_connections = 2;
  options.readahead_budget_bytes = kBudget;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend* raw = remote.value().get();
  cache::CacheOptions cache_options;
  cache_options.mem_budget_bytes = kBudget;
  cache::CachedBackend client(std::move(remote).value(), cache_options);
  EXPECT_TRUE(client.lease_mode()); // loopback: soak covers leases too

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&client, id] {
      // Private name space per thread: every expectation is deterministic
      // even though all threads share the window.
      std::map<std::string, Bytes> model;
      for (int k = 0; k < kOpsPerThread; ++k) {
        const std::string name =
            "t" + std::to_string(id) + "-" + std::to_string(k % 6);
        switch (k % 5) {
          case 0: {
            Bytes data = Blob(static_cast<char>('A' + id), 64 + k);
            ASSERT_TRUE(client.Put(name, data).ok());
            model[name] = std::move(data);
            break;
          }
          case 1: {
            auto got = client.Get(name);
            const auto it = model.find(name);
            if (it == model.end()) {
              EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
            } else {
              EXPECT_EQ(got.value(), it->second);
            }
            break;
          }
          case 2:
            EXPECT_EQ(client.Exists(name), model.count(name) == 1);
            break;
          case 3: {
            std::vector<std::string> batch;
            for (int j = 0; j < 3; ++j) {
              batch.push_back("t" + std::to_string(id) + "-" +
                              std::to_string((k + j) % 6));
            }
            const auto results = client.MultiGet(batch);
            ASSERT_EQ(results.size(), batch.size());
            for (std::size_t j = 0; j < batch.size(); ++j) {
              const auto it = model.find(batch[j]);
              if (it == model.end()) {
                EXPECT_EQ(results[j].status().code(), ErrorCode::kNotFound);
              } else {
                EXPECT_EQ(results[j].value(), it->second);
              }
            }
            break;
          }
          default:
            client.Prefetch(name); // advisory; next Get may consume it
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const net::NetCounters counters = raw->counters();
  EXPECT_EQ(counters.retries, 0u); // loopback is clean
  EXPECT_GT(counters.rpcs, 0u);
  EXPECT_LE(client.mem_bytes(), kBudget);
  ASSERT_TRUE(client.Flush().ok()); // drain writeback before Stop
  server->Stop();
}

// ---- readahead budget ------------------------------------------------------

TEST(NetMux, ReadaheadEvictionStaysUnderBudget) {
  cache::ResetGlobalCacheCounters();
  storage::MemBackend backend;
  const std::size_t kObject = 4096;
  for (char c : {'w', 'x', 'y', 'z'}) {
    ASSERT_TRUE(backend.Put(std::string(1, c), Blob(c, kObject)).ok());
  }
  // Strictly in-order replies: this test reasons about WHICH prefetched
  // entries the LRU keeps, so prefetch deliveries must land in issue
  // order. Pooled handlers may legally reorder replies, which would
  // leave a different pair resident.
  NexusdOptions server_options;
  server_options.rpc_workers = 0;
  auto server = NexusdServer::Start(backend, server_options).value();

  // Cache budget fits TWO buffered 4 KiB objects but not four: completing
  // four prefetches must evict LRU-oldest entries as wasted bytes.
  constexpr std::size_t kBudget = 8192;
  RemoteBackendOptions options;
  options.rpc_window = 8;
  options.max_pooled_connections = 1;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cache::CacheOptions cache_options;
  cache_options.mem_budget_bytes = kBudget;
  cache::CachedBackend client(std::move(remote).value(), cache_options);

  for (char c : {'w', 'x', 'y', 'z'}) client.Prefetch(std::string(1, c));

  // Prefetches complete on the demux thread; wait until the budget has
  // provably forced at least one eviction.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cache::GlobalCacheSnapshot().prefetch_issued >= 4 &&
        client.counters().prefetch_wasted_bytes > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_EQ(cache::GlobalCacheSnapshot().prefetch_issued, 4u);
  EXPECT_GE(client.counters().prefetch_wasted_bytes, kObject); // one object
  EXPECT_LE(client.mem_bytes(), kBudget);

  // Every demand read is still correct — evicted entries just fall back to
  // the wire — and at least one surviving entry serves as a hit. Read
  // newest-first: the LRU keeps the LAST prefetches, and refilling an
  // evicted name would itself evict a survivor before it was read.
  for (char c : {'z', 'y', 'x', 'w'}) {
    EXPECT_EQ(client.Get(std::string(1, c)).value(), Blob(c, kObject));
  }
  EXPECT_GE(client.counters().prefetch_hits, 1u);
  EXPECT_LE(client.mem_bytes(), kBudget);
  server->Stop();
}

TEST(NetMux, BatchOpsAppearInServerStats) {
  storage::MemBackend backend;
  ASSERT_TRUE(backend.Put("one", Blob('1', 32)).ok());
  ASSERT_TRUE(backend.Put("two", Blob('2', 33)).ok());
  auto server = NexusdServer::Start(backend).value();

  auto remote = RemoteBackend::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  const auto results = client.MultiGet({"one", "two", "absent"});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].value(), Blob('1', 32));
  EXPECT_EQ(results[1].value(), Blob('2', 33));
  EXPECT_EQ(results[2].status().code(), ErrorCode::kNotFound);
  const auto exists = client.MultiExists({"one", "absent"});
  ASSERT_EQ(exists.size(), 2u);
  EXPECT_TRUE(exists[0]);
  EXPECT_FALSE(exists[1]);

  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::uint64_t multiget_count = 0;
  std::uint64_t multiexists_count = 0;
  for (const auto& row : stats.value().per_op) {
    if (row.rpc == static_cast<std::uint8_t>(net::Rpc::kMultiGet)) {
      multiget_count = row.count;
    }
    if (row.rpc == static_cast<std::uint8_t>(net::Rpc::kMultiExists)) {
      multiexists_count = row.count;
    }
  }
  EXPECT_EQ(multiget_count, 1u);   // the whole fan-out was ONE frame
  EXPECT_EQ(multiexists_count, 1u);
  server->Stop();
}

// ---- one protocol version ---------------------------------------------------

/// Dials plain TCP to a loopback port; `io_ms` < 0 means no I/O deadline.
net::TransportFactory TcpFactory(std::uint16_t port, int io_ms) {
  return [port, io_ms]() -> Result<std::unique_ptr<net::Transport>> {
    auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, io_ms);
    if (!tcp.ok()) return tcp.status();
    return std::unique_ptr<net::Transport>(std::move(tcp).value());
  };
}

std::uint64_t ServedCount(const NexusdServer& server, net::Rpc rpc) {
  for (const auto& row : server.WireStats().per_op) {
    if (row.rpc == static_cast<std::uint8_t>(rpc)) return row.count;
  }
  return 0;
}

// A RemoteBackend that never sent a Ping still batches and takes leases:
// there is no negotiated state for a missing Ping to leave behind.
TEST(NetMux, UnpingedClientSpeaksFullProtocol) {
  storage::MemBackend backend;
  ASSERT_TRUE(backend.Put("a", Blob('a', 64)).ok());
  ASSERT_TRUE(backend.Put("b", Blob('b', 65)).ok());
  auto server = NexusdServer::Start(backend).value();

  RemoteBackendOptions options;
  options.lease_transport_factory = TcpFactory(server->port(), -1);
  RemoteBackend client(TcpFactory(server->port(), 5000), options);

  const auto results = client.MultiGet({"a", "b", "missing"});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].value(), Blob('a', 64));
  EXPECT_EQ(results[1].value(), Blob('b', 65));
  EXPECT_EQ(results[2].status().code(), ErrorCode::kNotFound);
  // The whole fan-out was one kMultiGet frame, not three single Gets.
  EXPECT_EQ(ServedCount(*server, net::Rpc::kMultiGet), 1u);
  EXPECT_EQ(ServedCount(*server, net::Rpc::kGet), 0u);
  EXPECT_EQ(ServedCount(*server, net::Rpc::kPing), 0u);

  ASSERT_TRUE(client.SubscribeInvalidations(
      [](const std::vector<std::string>&) {}, [] {}));
  bool granted = false;
  EXPECT_EQ(client.GetLeased("a", &granted).value(), Blob('a', 64));
  EXPECT_TRUE(granted);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
  server->Stop();
}

/// A one-port TCP peer that answers every request frame it receives with
/// `reply(request)`. Counts the connections it accepts.
class ScriptedTcpPeer {
 public:
  using Reply = std::function<Bytes(ByteSpan request)>;

  explicit ScriptedTcpPeer(Reply reply) : reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    EXPECT_EQ(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~ScriptedTcpPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR); // accept() returns
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int accepted() const { return accepted_.load(); }

 private:
  void Serve() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      ++accepted_;
      net::TcpTransport conn(fd, /*io_deadline_ms=*/2000);
      for (;;) {
        auto request = conn.RecvFrame();
        if (!request.ok()) break;
        if (!conn.SendFrame(reply_(request.value())).ok()) break;
      }
    }
  }

  Reply reply_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<int> accepted_{0};
  std::thread thread_;
};

// A peer of another version is refused on both ends: nexusd answers a
// v5 head with a refusal and closes only that connection, and a client
// whose peer answers as v5 fails at once, without a retry or a backoff.
TEST(NetMux, VersionMismatchIsRefused) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  std::atomic<bool> refused{false};
  std::thread v6_traffic([&] {
    for (int i = 0; i < 50 || !refused.load(); ++i) {
      const std::string name = "k" + std::to_string(i % 8);
      ASSERT_TRUE(client.Put(name, Blob('v', 32 + i % 8)).ok());
      ASSERT_EQ(client.Get(name).value(), Blob('v', 32 + i % 8));
    }
  });

  auto raw = net::TcpTransport::Dial("127.0.0.1", server->port(), 2000, 2000);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  Writer v5_ping;
  v5_ping.U8(5);
  v5_ping.U8(static_cast<std::uint8_t>(net::Rpc::kPing));
  v5_ping.U64(7);
  v5_ping.U8(5);
  ASSERT_TRUE(raw.value()->SendFrame(v5_ping.bytes()).ok());
  auto refusal = raw.value()->RecvFrame();
  ASSERT_TRUE(refusal.ok()) << refusal.status().ToString();
  Reader reader(refusal.value());
  Status verdict = Status::Ok();
  std::uint64_t echoed = 0;
  ASSERT_TRUE(net::ParseResponseHead(reader, &verdict, &echoed).ok());
  EXPECT_EQ(echoed, 7u);
  EXPECT_EQ(verdict.code(), ErrorCode::kUnimplemented);
  EXPECT_NE(verdict.message().find("v5"), std::string::npos);
  EXPECT_NE(verdict.message().find("v6"), std::string::npos);
  EXPECT_FALSE(raw.value()->RecvFrame().ok()); // and the connection closed
  refused = true;
  v6_traffic.join();

  EXPECT_EQ(server->stats().protocol_errors, 1u);
  EXPECT_EQ(client.counters().retries, 0u);
  server->Stop();

  // Client side: a peer that answers as v5, once through its response
  // head and once through the Ping's version byte.
  const ScriptedTcpPeer::Reply v5_head = [](ByteSpan request) {
    Writer w;
    w.U8(5);
    w.U64(net::RequestCorrelation(request));
    w.U8(net::CodeToWire(ErrorCode::kOk));
    w.Str("");
    w.U8(5);
    return std::move(w).Take();
  };
  const ScriptedTcpPeer::Reply v5_ping_byte = [](ByteSpan request) {
    Writer w =
        net::BeginResponse(Status::Ok(), net::RequestCorrelation(request));
    w.U8(5);
    return std::move(w).Take();
  };
  for (const auto& reply : {v5_head, v5_ping_byte}) {
    ScriptedTcpPeer peer(reply);
    std::vector<int> sleeps;
    RemoteBackendOptions options;
    options.sleep_ms = [&sleeps](int ms) { sleeps.push_back(ms); };
    net::ResetGlobalNetCounters();
    auto connected = RemoteBackend::Connect("127.0.0.1", peer.port(), options);
    ASSERT_FALSE(connected.ok());
    EXPECT_EQ(connected.status().code(), ErrorCode::kUnimplemented);
    EXPECT_NE(connected.status().message().find("v5"), std::string::npos)
        << connected.status().message();
    EXPECT_NE(connected.status().message().find("v6"), std::string::npos)
        << connected.status().message();
    EXPECT_EQ(peer.accepted(), 1);
    EXPECT_EQ(net::GlobalNetSnapshot().retries, 0u);
    EXPECT_TRUE(sleeps.empty());
  }

  // A put stream, on its own connection, gives up just as fast.
  ScriptedTcpPeer peer(v5_head);
  std::vector<int> sleeps;
  RemoteBackendOptions options;
  options.sleep_ms = [&sleeps](int ms) { sleeps.push_back(ms); };
  RemoteBackend unpinged(TcpFactory(peer.port(), 2000), options);
  auto stream = unpinged.OpenPutStream("obj").value();
  EXPECT_EQ(stream->Append(Blob('s', 16)).code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(peer.accepted(), 1);
  EXPECT_TRUE(sleeps.empty());
}

} // namespace
} // namespace nexus

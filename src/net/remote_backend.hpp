// RemoteBackend: a StorageBackend whose objects live behind a nexusd
// daemon on a real socket.
//
// This is the client half of the first genuine network boundary in the
// repo: NexusClient, the journal and the streaming data path all keep
// talking to a StorageBackend, unaware that every call now crosses a wire
// to an untrusted — and unreliable — server. Reliability policy lives
// entirely here:
//
//   * pipelined multiplexing — every pooled connection is a MuxConnection
//     keeping up to `rpc_window` RPCs in flight, matched to their
//     responses by correlation id (mux.hpp). Callers on different threads
//     share connections instead of queueing behind each other,
//   * per-REQUEST retries with exponential backoff + deterministic jitter
//     — a transport failure fails every request on that connection at
//     once, and each affected request independently retries on a fresh
//     connection up to max_attempts. The backoff delay derives from a
//     shared consecutive-failure streak that RESETS on any success, so
//     one transient blip early in a connection's life doesn't inflate
//     every later retry. Server VERDICTS inside a well-formed response
//     are authoritative and never retried,
//   * ambiguity resolution — all RPCs here are idempotent (Put/stream
//     commit are last-writer-wins), so blind re-execution is safe. The
//     one wrinkle is Delete: if an earlier attempt's outcome is unknown
//     and the retry says kNotFound, the delete DID happen — report Ok,
//   * version negotiation — requests go out with v2 heads and a window of
//     1 until a Ping learns the peer speaks v3/v4 (wire.hpp); then the
//     window widens and MultiGet/MultiExists coalesce name fan-outs into
//     one frame each way. v2 peers keep working, lock-step, forever,
//   * chunk readahead — Prefetch(name) speculatively issues a Get through
//     any spare window slot (never blocking, never retrying, never
//     dialing) and delivers the parsed object to the registered
//     PrefetchSink on the demux thread. The cache layer (cache/
//     cached_backend.hpp) owns buffering, budgets and eviction; this
//     backend holds no prefetched bytes of its own,
//   * lease coherence (wire v4) — SubscribeInvalidations dials a
//     dedicated callback connection, registers a lease session, and
//     pumps server-pushed kInvalidate frames to the listener, acking
//     each. GetLeased asks the server for a read lease on the fetched
//     object; pooled data connections (and stream connections) attach
//     themselves to the session so the server can skip invalidating the
//     writer's own cache. Pre-v4 peers simply never grant leases.
//
// Streamed puts replay: the stream keeps the bytes appended so far, and a
// transport failure at any point (including an ambiguous Commit) restarts
// the whole stream — Begin, replayed segments, Commit — on a fresh
// dedicated connection, preserving exactly-once-visible semantics because
// the server publishes nothing until a Commit it fully received.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/mux.hpp"
#include "net/net_counters.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus::net {

/// Dials one fresh connection to the server (called for the initial
/// connections and every reconnect). Tests wrap the returned transport in
/// a FaultyTransport.
using TransportFactory =
    std::function<Result<std::unique_ptr<Transport>>()>;

/// Window size from NEXUS_RPC_WINDOW (default 8, clamped to [1, 256]).
std::size_t DefaultRpcWindow();
/// Readahead budget from NEXUS_READAHEAD_BUDGET (bytes; default 32 MiB).
std::size_t DefaultReadaheadBudgetBytes();

struct RemoteBackendOptions {
  int rpc_deadline_ms = 5000;
  int connect_deadline_ms = 5000;
  /// Total tries per RPC (1 = no retries).
  int max_attempts = 4;
  int backoff_base_ms = 5;
  int backoff_cap_ms = 100;
  /// Seed for the backoff jitter (deterministic given the call sequence).
  std::uint64_t jitter_seed = 0x6e657875736e6574ull; // "nexusnet"
  /// Connections kept in the pool. 0 = never pool: every RPC dials its
  /// own connection (tests that need one fault schedule per RPC).
  std::size_t max_pooled_connections = 4;
  /// Injectable sleep so fault tests record backoff instead of waiting.
  std::function<void(int ms)> sleep_ms; // null => real sleep
  /// Max in-flight RPCs per connection once the peer negotiated v3.
  /// 0 = DefaultRpcWindow() (NEXUS_RPC_WINDOW).
  std::size_t rpc_window = 0;
  /// Highest wire version this client will speak — lowering it simulates
  /// a legacy client against a modern server (2 = lock-step singles,
  /// 3 = batches but no leases).
  std::uint8_t max_protocol_version = kProtocolVersion;
  /// Readahead gate: 0 = default (NEXUS_READAHEAD_BUDGET, 32 MiB) and an
  /// EXPLICIT NEXUS_READAHEAD_BUDGET=0 disables speculation entirely. The
  /// byte budget itself is enforced by the cache tier that consumes the
  /// deliveries; prefetch is also off while the negotiated window is 1
  /// (nothing to overlap with).
  std::size_t readahead_budget_bytes = 0;
  /// Most speculative Gets in flight at once.
  std::size_t max_inflight_prefetches = 8;
  /// Dials the dedicated lease-callback connection. Null uses the main
  /// factory — fine for tests; Connect() installs a deadline-free dialer
  /// here because the callback channel blocks in RecvFrame indefinitely
  /// between pushes. Fault tests substitute a dropping transport to
  /// exercise lost invalidations.
  TransportFactory lease_transport_factory;
};

class RemoteBackend final : public storage::StorageBackend {
 public:
  RemoteBackend(TransportFactory factory, RemoteBackendOptions options = {});
  ~RemoteBackend() override;

  /// TCP convenience: dials host:port eagerly once (a Ping) so a dead
  /// server fails fast at construction instead of on the first Get — and
  /// the Ping doubles as the wire-version negotiation.
  static Result<std::unique_ptr<RemoteBackend>> Connect(
      const std::string& host, std::uint16_t port,
      RemoteBackendOptions options = {});

  Result<Bytes> Get(const std::string& name) override;
  Result<Bytes> GetLeased(const std::string& name,
                          bool* lease_granted) override;
  Status Put(const std::string& name, ByteSpan data) override;
  Status PutLeased(const std::string& name, ByteSpan data,
                   bool* lease_granted) override;
  Status Delete(const std::string& name) override;
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  /// One kListPage round trip against a v6 peer; pre-v6 peers fall back
  /// to the base-class slice over List().
  ListPage ListSome(const std::string& prefix, const std::string& start_after,
                    std::size_t limit) override;
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;
  /// Pipelined multi-append stream on a dedicated mux connection: keeps up
  /// to the negotiated window of segments in flight and retains NOTHING
  /// after a segment hits the socket, so client memory is O(window), not
  /// O(object). No replay buffer means a transport failure mid-stream
  /// fails the stream permanently — callers with their own redundancy
  /// (the cluster's quorum commit) take this; everyone else keeps the
  /// replaying OpenPutStream.
  Result<std::unique_ptr<PutStream>> OpenUnbufferedPutStream(
      const std::string& name) override;
  std::vector<Result<Bytes>> MultiGet(
      const std::vector<std::string>& names) override;
  std::vector<Result<Bytes>> MultiGetLeased(
      const std::vector<std::string>& names,
      std::vector<bool>* leased) override;
  std::vector<bool> MultiExists(const std::vector<std::string>& names) override;
  void Prefetch(const std::string& name) override;
  void SetPrefetchSink(PrefetchSink sink) override;
  bool SubscribeInvalidations(InvalidationListener on_invalidate,
                              ChannelDownHandler on_channel_down) override;

  /// Liveness probe through the full RPC machinery (retries included).
  /// Also negotiates the wire version: the request carries this client's
  /// max version, and a v3+ server's reply names the version to use.
  Status Ping();

  /// Fetches the server's lifetime counters and per-op latency summary
  /// (Rpc::kStats), through the same retry machinery as every other RPC.
  Result<ServerStats> Stats();

  [[nodiscard]] NetCounters counters() const;
  /// Negotiated peer wire version (0 until the first Ping completes; a
  /// peer that never confirmed v3 is treated as v2).
  [[nodiscard]] std::uint8_t peer_version() const noexcept;
  /// Lease session id on the server (0 = not subscribed / channel down).
  [[nodiscard]] std::uint64_t lease_session() const noexcept;

 private:
  friend class RemotePutStream;
  friend class MuxPutStream;

  /// One RPC through the mux with per-request retry/reconnect/backoff.
  /// On a well-formed response returns the payload after the verified
  /// head (stripped in place); the server's verdict is authoritative.
  /// `ambiguous` (optional) reports whether any FAILED attempt may have
  /// reached the server.
  Result<Bytes> Call(const Writer& request, bool* ambiguous = nullptr);
  /// Call without the strip: returns the whole response frame and sets
  /// `*results_at` to the offset just past its verified head.
  Result<Bytes> CallFrame(const Writer& request, std::size_t* results_at,
                          bool* ambiguous = nullptr);

  /// Starts a request with the negotiated head version.
  Writer Req(Rpc rpc) const;
  [[nodiscard]] std::uint8_t wire_version() const noexcept;
  [[nodiscard]] bool peer_speaks_v3() const noexcept;
  [[nodiscard]] bool peer_speaks_v5() const noexcept;
  [[nodiscard]] bool peer_speaks_v4() const noexcept;
  [[nodiscard]] bool peer_speaks_v6() const noexcept;
  [[nodiscard]] std::size_t effective_window() const noexcept;

  /// Returns a connection with window room, dialing a fresh one when the
  /// pool has none to give. Counts a reconnect when `is_retry` dials.
  Result<std::shared_ptr<MuxConnection>> AcquireConnection(bool is_retry);
  std::shared_ptr<MuxConnection> NewConnection(
      std::unique_ptr<Transport> transport);
  /// Best-effort kLeaseAttach on a fresh data connection (no-op when no
  /// session is live or the peer predates v4).
  void AttachLease(MuxConnection& conn);

  /// Consecutive-failure streak driving the backoff delay.
  void NoteFailure();
  void NoteSuccess();
  void Backoff();
  void CountRetry();

  /// Demux-thread landing of a speculative Get: parses the response and
  /// hands the object to the sink.
  /// `v4` says whether the request head let the reply carry a lease flag.
  void OnPrefetchDone(const std::string& name, const PrefetchSink& sink,
                      std::uint64_t correlation, bool v4,
                      const Status& failure, const Bytes& response);
  /// Pumps server-pushed kInvalidate frames until the channel dies.
  void LeaseCallbackLoop();

  TransportFactory factory_;
  RemoteBackendOptions options_;
  std::size_t rpc_window_;
  std::size_t readahead_budget_;

  std::atomic<std::uint8_t> peer_version_{0}; // 0 = not yet negotiated
  std::atomic<int> failure_streak_{0};

  mutable std::mutex mu_;
  std::uint64_t jitter_state_;
  NetCounters counters_;

  /// One speculative Get in flight. A demand read for the same name JOINS
  /// the speculation (waits on `cv`) instead of issuing a duplicate RPC —
  /// the duplicate would race the prefetch delivery into the cache tier
  /// and could evict a surviving entry with its second insert. The result
  /// bytes are copied in only when a joiner is actually waiting.
  struct PrefetchFlight {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t waiters = 0;  // under mu
    bool done = false;        // under mu
    Status verdict = Status::Ok(); // under mu, valid once done
    // A joiner that registered too late to be seen at completion finds
    // has_data false (despite an ok verdict) and falls back to a demand
    // fetch — which the sink delivery has usually made a cache hit anyway.
    bool has_data = false; // under mu
    Bytes data;            // under mu, valid when done && has_data
  };
  /// Completes a flight and wakes its joiners (never under prefetch_mu_).
  static void FinishFlight(const std::shared_ptr<PrefetchFlight>& flight,
                           Status verdict, const Bytes* data);

  mutable std::mutex prefetch_mu_;
  PrefetchSink sink_;                          // under prefetch_mu_
  std::map<std::string, std::shared_ptr<PrefetchFlight>>
      prefetch_inflight_;                      // names being speculated

  // Lease-callback channel. The listener/handler are written once under
  // lease_mu_ before the thread starts and read by it without locking.
  std::mutex lease_mu_;
  std::unique_ptr<Transport> lease_transport_;
  std::thread lease_thread_;
  InvalidationListener lease_listener_;
  ChannelDownHandler lease_on_down_;
  std::atomic<std::uint64_t> lease_session_{0};
  std::atomic<bool> lease_shutdown_{false};

  // Declared LAST: connections (and their demux threads, which may still
  // run delivery hooks touching the members above) die first.
  mutable std::mutex pool_mu_;
  std::vector<std::shared_ptr<MuxConnection>> pool_;
};

} // namespace nexus::net

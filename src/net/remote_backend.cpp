#include "net/remote_backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "cache/cache_counters.hpp"
#include "common/clock.hpp"
#include "trace/trace.hpp"

namespace nexus::net {

namespace {

std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t EnvSize(const char* name, std::size_t fallback, bool* found) {
  if (found != nullptr) *found = false;
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return fallback;
  if (found != nullptr) *found = true;
  return static_cast<std::size_t>(v);
}

/// Where the object sits in a Get reply `u32 len | object | u8 leased`
/// whose results start at `at` in the untrusted `frame`.
struct GetReply {
  std::size_t object_at = 0;
  std::size_t object_len = 0;
  bool lease_granted = false;
};

/// Bounds-checks a Get reply without copying it: the length may neither
/// exceed kMaxObjectBytes nor run past the frame, and exactly one byte,
/// the lease flag, follows the object.
Result<GetReply> ParseGetReply(ByteSpan frame, std::size_t at) {
  Reader reader(frame.subspan(at));
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t len, reader.U32());
  if (len > kMaxObjectBytes || len > reader.Remaining()) {
    return Error(ErrorCode::kIOError,
                 "malformed get reply: object length " + std::to_string(len) +
                     " with " + std::to_string(reader.Remaining()) +
                     " bytes left");
  }
  const std::size_t tail = reader.Remaining() - len;
  if (tail != 1) {
    return Error(ErrorCode::kIOError,
                 "malformed get reply: " + std::to_string(tail) +
                     " bytes after the object, want the lease flag");
  }
  GetReply reply;
  reply.object_at = at + 4;
  reply.object_len = len;
  reply.lease_granted = frame.back() != 0;
  return reply;
}

/// A peer of another protocol version stays one: the failure is final,
/// never retried.
bool IsVersionMismatch(const Status& status) {
  return status.code() == ErrorCode::kUnimplemented;
}

Status Malformed(const char* rpc) {
  return Error(ErrorCode::kIOError,
               std::string("malformed ") + rpc + " reply");
}

/// Drops the first `n` bytes of `frame` in place (one memmove, no new
/// buffer) and keeps the following `keep` bytes.
Bytes KeepRange(Bytes frame, std::size_t n, std::size_t keep) {
  frame.erase(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(n));
  frame.resize(keep);
  return frame;
}

} // namespace

std::size_t DefaultRpcWindow() {
  const std::size_t w = EnvSize("NEXUS_RPC_WINDOW", 8, nullptr);
  return std::clamp<std::size_t>(w, 1, 256);
}

std::size_t DefaultReadaheadBudgetBytes() {
  bool found = false;
  const std::size_t b = EnvSize("NEXUS_READAHEAD_BUDGET", 0, &found);
  return found ? b : (32u << 20); // explicit 0 disables readahead
}

RemoteBackend::RemoteBackend(TransportFactory factory,
                             RemoteBackendOptions options)
    : factory_(std::move(factory)), options_(options),
      rpc_window_(options.rpc_window != 0
                      ? std::clamp<std::size_t>(options.rpc_window, 1, 256)
                      : DefaultRpcWindow()),
      readahead_budget_(options.readahead_budget_bytes != 0
                            ? options.readahead_budget_bytes
                            : DefaultReadaheadBudgetBytes()),
      jitter_state_(options.jitter_seed) {}

RemoteBackend::~RemoteBackend() {
  // Silence the callback channel first: after this no invalidation or
  // channel-down callback can fire against a half-dead backend.
  lease_shutdown_.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    if (lease_transport_ != nullptr) lease_transport_->Shutdown();
  }
  if (lease_thread_.joinable()) lease_thread_.join();
  // Then tear down every connection: their demux threads run delivery and
  // prefetch hooks that touch this object's counters and sink.
  std::vector<std::shared_ptr<MuxConnection>> conns;
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    conns.swap(pool_);
  }
  conns.clear(); // joins each demux thread still referencing this object
}

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::Connect(
    const std::string& host, std::uint16_t port, RemoteBackendOptions options) {
  const int connect_ms = options.connect_deadline_ms;
  const int rpc_ms = options.rpc_deadline_ms;
  auto factory = [host, port, connect_ms, rpc_ms]()
      -> Result<std::unique_ptr<Transport>> {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> t,
                           TcpTransport::Dial(host, port, connect_ms, rpc_ms));
    return std::unique_ptr<Transport>(std::move(t));
  };
  if (!options.lease_transport_factory) {
    // The callback channel sits idle in RecvFrame between pushes, so it
    // must dial WITHOUT an I/O deadline — the data-path deadline would
    // kill a perfectly healthy subscription.
    options.lease_transport_factory = [host, port, connect_ms]()
        -> Result<std::unique_ptr<Transport>> {
      NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> t,
                             TcpTransport::Dial(host, port, connect_ms, -1));
      return std::unique_ptr<Transport>(std::move(t));
    };
  }
  auto backend =
      std::make_unique<RemoteBackend>(std::move(factory), options);
  NEXUS_RETURN_IF_ERROR(backend->Ping());
  return backend;
}

// ---- retry discipline -------------------------------------------------------

void RemoteBackend::NoteFailure() {
  failure_streak_.fetch_add(1, std::memory_order_relaxed);
}

void RemoteBackend::NoteSuccess() {
  // Any delivered, well-formed response proves the path works again, so
  // the NEXT failure backs off from the base delay — one transient blip
  // must not inflate every later retry on a long-lived backend.
  failure_streak_.store(0, std::memory_order_relaxed);
}

void RemoteBackend::Backoff() {
  // Bounded exponential with jitter in [0.5, 1.0): a streak of k
  // consecutive failures sleeps roughly base * 2^(k-1), capped, and
  // jittered so a fleet of clients hammered by the same outage does not
  // retry in lockstep.
  const int streak =
      std::max(1, failure_streak_.load(std::memory_order_relaxed));
  int delay = options_.backoff_base_ms;
  for (int i = 1; i < streak && delay < options_.backoff_cap_ms; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.backoff_cap_ms);
  double jitter;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jitter = 0.5 + 0.5 * (static_cast<double>(Mix(jitter_state_) >> 11) *
                          0x1.0p-53);
  }
  const int ms = std::max(1, static_cast<int>(delay * jitter));
  if (options_.sleep_ms) {
    options_.sleep_ms(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

void RemoteBackend::CountRetry() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.retries;
  }
  NetCounters delta;
  delta.retries = 1;
  GlobalNetAdd(delta);
}

// ---- connection pool --------------------------------------------------------

std::uint64_t RemoteBackend::lease_session() const noexcept {
  return lease_session_.load(std::memory_order_acquire);
}

void RemoteBackend::CountDelivery(std::size_t request_bytes,
                                  std::size_t response_bytes,
                                  std::uint64_t start_ns) {
  const double ms = static_cast<double>(MonotonicNanos() - start_ns) * 1e-6;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rpcs;
    counters_.bytes_sent += request_bytes + 4;
    counters_.bytes_received += response_bytes + 4;
  }
  NetCounters delta;
  delta.rpcs = 1;
  delta.bytes_sent = request_bytes + 4;
  delta.bytes_received = response_bytes + 4;
  GlobalNetAdd(delta);
  GlobalNetRecordLatencyMs(ms);
}

std::shared_ptr<MuxConnection> RemoteBackend::NewConnection(
    std::unique_ptr<Transport> transport) {
  // Client rpcs/bytes/latency are counted at DELIVERY time on the demux
  // thread — the one place every response passes, demand and speculative
  // alike — so the client's view stays in exact agreement with the
  // server's rpcs_served even while prefetched responses sit unconsumed.
  auto hook = [this](std::size_t request_bytes, std::size_t response_bytes,
                     std::uint64_t start_ns) {
    CountDelivery(request_bytes, response_bytes, start_ns);
  };
  return std::make_shared<MuxConnection>(std::move(transport), rpc_window_,
                                         std::move(hook));
}

void RemoteBackend::AttachLease(MuxConnection& conn) {
  const std::uint64_t sid = lease_session();
  if (sid == 0) return;
  Writer req = BeginRequest(Rpc::kLeaseAttach);
  req.U64(sid);
  auto slot = conn.Submit(req.bytes());
  // Best effort: an unattached connection still works, the server just
  // cannot tell our own writes from a stranger's (we self-invalidate).
  if (slot != nullptr) (void)slot->Wait();
}

Result<std::shared_ptr<MuxConnection>> RemoteBackend::AcquireConnection(
    bool is_retry) {
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    // Prune broken connections so their demux threads wind down and a
    // retry never lands back on the transport that just failed it.
    std::erase_if(pool_, [](const auto& conn) { return conn->broken(); });
    std::shared_ptr<MuxConnection> spare;    // least-loaded with room
    std::shared_ptr<MuxConnection> fallback; // least-loaded overall
    std::size_t spare_load = 0;
    std::size_t fallback_load = 0;
    for (const auto& conn : pool_) {
      const std::size_t load = conn->inflight();
      if (fallback == nullptr || load < fallback_load) {
        fallback = conn;
        fallback_load = load;
      }
      if (load < conn->window() && (spare == nullptr || load < spare_load)) {
        spare = conn;
        spare_load = load;
      }
    }
    if (spare != nullptr) return spare;
    if (pool_.size() >= options_.max_pooled_connections &&
        fallback != nullptr) {
      // Every window is full and the pool is at capacity: share the
      // least-loaded connection; Submit blocks until a slot frees up.
      return fallback;
    }
  }
  // Dial outside the lock — a slow handshake must not stall siblings.
  NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<Transport> fresh, factory_());
  if (is_retry) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++counters_.reconnects;
    }
    NetCounters delta;
    delta.reconnects = 1;
    GlobalNetAdd(delta);
  }
  auto conn = NewConnection(std::move(fresh));
  // Tie the data connection to the lease session BEFORE publishing it so
  // RPCs racing onto it are already recognizable as ours.
  AttachLease(*conn);
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    if (pool_.size() < options_.max_pooled_connections) pool_.push_back(conn);
    // max_pooled_connections == 0: never pooled — the caller's shared_ptr
    // keeps the connection alive for exactly one call (fault tests rely
    // on one fault schedule per RPC).
  }
  return conn;
}

// ---- the RPC engine ---------------------------------------------------------

Result<Bytes> RemoteBackend::Call(const Writer& request, bool* ambiguous) {
  std::size_t at = 0;
  NEXUS_ASSIGN_OR_RETURN(Bytes frame, CallFrame(request, &at, ambiguous));
  const std::size_t results = frame.size() - at;
  return KeepRange(std::move(frame), at, results);
}

Result<Bytes> RemoteBackend::CallFrame(const Writer& request,
                                       std::size_t* results_at,
                                       bool* ambiguous) {
  const std::uint64_t corr = RequestCorrelation(request.bytes());
  trace::Span span(RpcName(RequestRpc(request.bytes())), "net.client");
  span.SetCorrelation(corr);

  Status last = Error(ErrorCode::kIOError, "rpc never attempted");
  bool ambig = false;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      CountRetry();
      Backoff();
    }
    auto acquired = AcquireConnection(attempt > 0);
    if (!acquired.ok()) {
      NoteFailure();
      last = acquired.status();
      continue;
    }
    std::shared_ptr<MuxConnection> conn = std::move(acquired).value();

    auto slot = conn->Submit(request.bytes());
    if (slot == nullptr) {
      // The connection broke between acquisition and send; nothing of
      // ours hit the wire.
      NoteFailure();
      last = Error(ErrorCode::kIOError, "connection broke before send");
      continue;
    }
    auto response = slot->Wait();
    if (!response.ok()) {
      // Whole-connection failure. Ambiguous only if OUR frame was fully
      // sent — a sibling's failure mid-window does not put this request
      // on the server.
      ambig |= slot->sent.load(std::memory_order_acquire);
      NoteFailure();
      last = response.status();
      continue;
    }
    Reader reader(response.value());
    Status verdict = Status::Ok();
    std::uint64_t echoed = 0;
    const Status parsed = ParseResponseHead(reader, &verdict, &echoed);
    if (!parsed.ok() || echoed != corr) {
      // Delivered but untrustworthy: the demux routed it here by its
      // correlation bytes, yet the head does not hold up. Protocol
      // desync — poison the connection so the siblings re-home too.
      ambig = true;
      last = parsed.ok() ? Error(ErrorCode::kIOError,
                                 "correlation mismatch: sent " +
                                     std::to_string(corr) + ", got " +
                                     std::to_string(echoed))
                         : parsed;
      conn->Poison(last);
      if (IsVersionMismatch(last)) break;
      NoteFailure();
      continue;
    }

    NoteSuccess();
    if (ambiguous != nullptr) *ambiguous = ambig;
    // The server's verdict — success or not — is authoritative.
    NEXUS_RETURN_IF_ERROR(verdict);
    *results_at = response.value().size() - reader.Remaining();
    return std::move(response).value();
  }
  if (ambiguous != nullptr) *ambiguous = ambig;
  return last;
}

Status RemoteBackend::Ping() {
  Writer req = BeginRequest(Rpc::kPing);
  req.U8(kProtocolVersion);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  if (payload.size() != 1) return Malformed("ping");
  if (payload[0] != kProtocolVersion) return VersionMismatch(payload[0]);
  return Status::Ok();
}

Result<ServerStats> RemoteBackend::Stats() {
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(BeginRequest(Rpc::kStats)));
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(ServerStats stats, DecodeServerStats(reader));
  if (!reader.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing bytes after stats");
  }
  return stats;
}

// ---- whole-object ops -------------------------------------------------------

Result<Bytes> RemoteBackend::Get(const std::string& name) {
  return GetLeased(name, nullptr);
}

Result<Bytes> RemoteBackend::GetLeased(const std::string& name,
                                       bool* lease_granted) {
  if (lease_granted != nullptr) *lease_granted = false;
  // A demand read for a name already being speculated JOINS the in-flight
  // prefetch RPC instead of issuing a duplicate Get: the duplicate would
  // race the prefetch delivery into the cache tier, where the second
  // insert can evict a surviving entry. The join never takes a lease
  // (speculations ask for none) — the entry stays TTL-bounded, which only
  // costs coherence freshness, never correctness.
  std::shared_ptr<PrefetchFlight> flight;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    const auto it = prefetch_inflight_.find(name);
    if (it != prefetch_inflight_.end()) flight = it->second;
  }
  if (flight != nullptr) {
    std::unique_lock<std::mutex> lock(flight->mu);
    ++flight->waiters;
    const bool done = flight->cv.wait_for(
        lock, std::chrono::milliseconds(options_.rpc_deadline_ms + 1000),
        [&] { return flight->done; });
    --flight->waiters;
    if (done && flight->verdict.ok() && flight->has_data) {
      Bytes data = flight->data; // copied: other joiners may want it too
      lock.unlock();
      {
        const std::lock_guard<std::mutex> count_lock(mu_);
        ++counters_.prefetch_joined;
      }
      cache::CacheCounters delta;
      delta.prefetch_joined = 1;
      cache::GlobalCacheAdd(delta);
      return data;
    }
    // Timed out, failed, withdrawn, or completed without retaining the
    // bytes: fall through to an ordinary demand fetch.
  }
  Writer req = BeginRequest(Rpc::kGet);
  req.Str(name);
  // The server only registers a lease holder (and pays the break protocol
  // later) when the caller will track the grant.
  req.U8(lease_granted != nullptr ? 1 : 0);
  // The receive buffer becomes the object: decode in place, then slide the
  // object to the front instead of copying it out.
  std::size_t at = 0;
  NEXUS_ASSIGN_OR_RETURN(Bytes frame, CallFrame(req, &at));
  NEXUS_ASSIGN_OR_RETURN(const GetReply reply, ParseGetReply(frame, at));
  if (lease_granted != nullptr) *lease_granted = reply.lease_granted;
  return KeepRange(std::move(frame), reply.object_at, reply.object_len);
}

Status RemoteBackend::Put(const std::string& name, ByteSpan data) {
  return PutLeased(name, data, nullptr);
}

Status RemoteBackend::PutLeased(const std::string& name, ByteSpan data,
                                bool* lease_granted) {
  if (lease_granted != nullptr) *lease_granted = false;
  if (data.size() > kMaxObjectBytes) {
    return Error(ErrorCode::kInvalidArgument, "object too large: " + name);
  }
  Writer req = BeginRequest(Rpc::kPut);
  req.Str(name);
  req.Var(data);
  // As with Get, the server only registers a write-lease holder when the
  // caller will track the grant.
  req.U8(lease_granted != nullptr ? 1 : 0);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  if (payload.size() != 1) return Malformed("put");
  if (lease_granted != nullptr) *lease_granted = payload[0] != 0;
  return Status::Ok();
}

Status RemoteBackend::Delete(const std::string& name) {
  Writer req = BeginRequest(Rpc::kDelete);
  req.Str(name);
  bool ambiguous = false;
  const Status verdict = Call(req, &ambiguous).status();
  if (verdict.code() == ErrorCode::kNotFound && ambiguous) {
    // An earlier attempt with unknown outcome plus "not found" now means
    // OUR delete (or a concurrent one) already won; either way the
    // object is gone, which is what the caller asked for.
    return Status::Ok();
  }
  return verdict;
}

bool RemoteBackend::Exists(const std::string& name) {
  Writer req = BeginRequest(Rpc::kExists);
  req.Str(name);
  auto payload = Call(req);
  // The StorageBackend contract cannot express transport failure here;
  // an unreachable server (or a malformed reply) reports "absent",
  // matching a store that lost the object — callers treat both as a
  // re-fetch/recreate signal.
  return payload.ok() && payload.value().size() == 1 && payload.value()[0] != 0;
}

std::vector<std::string> RemoteBackend::List(const std::string& prefix) {
  // Whole listings page through kListPage, so no reply ever nears the
  // frame bound; a listing of up to kMaxMultiEntries names is one RPC. A
  // failed page reads as an empty listing, the contract's only failure
  // signal here.
  std::vector<std::string> names;
  std::string cursor;
  for (;;) {
    auto page = FetchListPage(prefix, cursor, kMaxMultiEntries);
    // An empty page that claims more would never advance the cursor.
    if (!page.ok() || (page.value().more && page.value().names.empty())) {
      return {};
    }
    names.insert(names.end(),
                 std::make_move_iterator(page.value().names.begin()),
                 std::make_move_iterator(page.value().names.end()));
    if (!page.value().more) return names;
    cursor = names.back();
  }
}

storage::StorageBackend::ListPage RemoteBackend::ListSome(
    const std::string& prefix, const std::string& start_after,
    std::size_t limit) {
  if (limit == 0) return {};
  // An unreachable server (or a malformed reply) reads as an empty page
  // with no continuation.
  auto page = FetchListPage(prefix, start_after, limit);
  return page.ok() ? std::move(page).value() : ListPage{};
}

Result<storage::StorageBackend::ListPage> RemoteBackend::FetchListPage(
    const std::string& prefix, const std::string& start_after,
    std::size_t limit) {
  // The server treats limits above kMaxMultiEntries as a protocol error;
  // clamp here so callers can pass any bound they like.
  const std::uint32_t capped = static_cast<std::uint32_t>(
      std::min<std::size_t>(limit, kMaxMultiEntries));
  Writer req = BeginRequest(Rpc::kListPage);
  req.Str(prefix);
  req.Str(start_after);
  req.U32(capped);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.U32());
  if (count > capped) return Malformed("list_page");
  ListPage page;
  page.names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NEXUS_ASSIGN_OR_RETURN(std::string name, reader.Str());
    page.names.push_back(std::move(name));
  }
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t more, reader.U8());
  if (!reader.AtEnd()) return Malformed("list_page");
  page.more = more != 0;
  return page;
}

// ---- batch ops --------------------------------------------------------------

std::vector<Result<Bytes>> RemoteBackend::MultiGet(
    const std::vector<std::string>& names) {
  return MultiGetLeased(names, nullptr);
}

std::vector<Result<Bytes>> RemoteBackend::MultiGetLeased(
    const std::vector<std::string>& names, std::vector<bool>* leased) {
  if (leased != nullptr) leased->assign(names.size(), false);
  const bool want_lease = leased != nullptr;
  std::vector<Result<Bytes>> results;
  results.reserve(names.size());
  for (std::size_t base = 0; base < names.size(); base += kMaxMultiEntries) {
    const std::size_t n = std::min(kMaxMultiEntries, names.size() - base);
    const std::vector<std::string> batch(names.begin() + base,
                                         names.begin() + base + n);
    Writer req = BeginRequest(Rpc::kMultiGet);
    EncodeNameList(req, batch);
    req.U8(want_lease ? 1 : 0);
    auto payload = Call(req);
    if (!payload.ok()) {
      for (std::size_t i = 0; i < n; ++i) results.push_back(payload.status());
      continue;
    }
    Reader reader(payload.value());
    auto entries = DecodeMultiGetEntries(reader);
    const bool shape_ok = entries.ok() && reader.AtEnd() &&
                          entries.value().size() == n;
    if (!shape_ok) {
      const Status bad =
          entries.ok() ? Error(ErrorCode::kIOError,
                               "malformed multi-get response shape")
                       : entries.status();
      for (std::size_t i = 0; i < n; ++i) results.push_back(bad);
      continue;
    }
    std::vector<std::size_t> deferred_slots; // indexes into `results`
    std::vector<std::string> deferred_names;
    for (std::size_t i = 0; i < n; ++i) {
      MultiGetEntry& entry = entries.value()[i];
      switch (entry.state) {
        case MultiGetEntry::State::kOk:
          if (want_lease) (*leased)[results.size()] = entry.leased;
          results.push_back(std::move(entry.data));
          break;
        case MultiGetEntry::State::kError:
          results.push_back(entry.error);
          break;
        case MultiGetEntry::State::kDeferred:
          // The server hit its response-size budget before this name.
          deferred_slots.push_back(results.size());
          deferred_names.push_back(batch[i]);
          results.push_back(
              Error(ErrorCode::kIOError, "multi-get entry unresolved"));
          break;
      }
    }
    // Re-fetch stragglers in follow-up BATCHES, not singles: each round
    // packs another response-budget's worth, so a deferred tail of k
    // objects costs ~(total bytes / budget) round trips instead of k.
    while (!deferred_names.empty()) {
      Writer follow = BeginRequest(Rpc::kMultiGet);
      EncodeNameList(follow, deferred_names);
      follow.U8(want_lease ? 1 : 0);
      auto follow_payload = Call(follow);
      if (!follow_payload.ok()) {
        for (const std::size_t slot : deferred_slots) {
          results[slot] = follow_payload.status();
        }
        break;
      }
      Reader follow_reader(follow_payload.value());
      auto follow_entries = DecodeMultiGetEntries(follow_reader);
      const bool follow_ok = follow_entries.ok() && follow_reader.AtEnd() &&
                             follow_entries.value().size() ==
                                 deferred_names.size();
      std::vector<std::size_t> next_slots;
      std::vector<std::string> next_names;
      if (follow_ok) {
        for (std::size_t i = 0; i < deferred_names.size(); ++i) {
          MultiGetEntry& entry = follow_entries.value()[i];
          switch (entry.state) {
            case MultiGetEntry::State::kOk:
              if (want_lease) (*leased)[deferred_slots[i]] = entry.leased;
              results[deferred_slots[i]] = std::move(entry.data);
              break;
            case MultiGetEntry::State::kError:
              results[deferred_slots[i]] = entry.error;
              break;
            case MultiGetEntry::State::kDeferred:
              next_slots.push_back(deferred_slots[i]);
              next_names.push_back(deferred_names[i]);
              break;
          }
        }
      }
      if (!follow_ok || next_names.size() == deferred_names.size()) {
        // Malformed round, or zero progress (a first entry so large its
        // encoding alone overflows the budget): single Gets have no
        // response budget and always terminate.
        const std::vector<std::size_t>& slots =
            follow_ok ? next_slots : deferred_slots;
        const std::vector<std::string>& strays =
            follow_ok ? next_names : deferred_names;
        for (std::size_t i = 0; i < strays.size(); ++i) {
          if (want_lease) {
            bool granted = false;
            results[slots[i]] = GetLeased(strays[i], &granted);
            (*leased)[slots[i]] = granted;
          } else {
            results[slots[i]] = Get(strays[i]);
          }
        }
        break;
      }
      deferred_slots = std::move(next_slots);
      deferred_names = std::move(next_names);
    }
  }
  return results;
}

std::vector<bool> RemoteBackend::MultiExists(
    const std::vector<std::string>& names) {
  std::vector<bool> results;
  results.reserve(names.size());
  for (std::size_t base = 0; base < names.size(); base += kMaxMultiEntries) {
    const std::size_t n = std::min(kMaxMultiEntries, names.size() - base);
    const std::vector<std::string> batch(names.begin() + base,
                                         names.begin() + base + n);
    Writer req = BeginRequest(Rpc::kMultiExists);
    EncodeNameList(req, batch);
    auto payload = Call(req);
    // One u8 flag per requested name, in request order. Transport failure
    // or a malformed shape degrades to "absent", same as Exists.
    if (!payload.ok() || payload.value().size() != n) {
      for (std::size_t i = 0; i < n; ++i) results.push_back(false);
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      results.push_back(payload.value()[i] != 0);
    }
  }
  return results;
}

// ---- readahead --------------------------------------------------------------

void RemoteBackend::SetPrefetchSink(PrefetchSink sink) {
  const std::lock_guard<std::mutex> lock(prefetch_mu_);
  sink_ = std::move(sink);
}

void RemoteBackend::FinishFlight(const std::shared_ptr<PrefetchFlight>& flight,
                                 Status verdict, const Bytes* data) {
  {
    const std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->verdict = std::move(verdict);
    // The copy is paid only when a demand read is actually parked on this
    // speculation; the common case hands the bytes to the sink alone.
    if (data != nullptr && flight->waiters > 0) {
      flight->data = *data;
      flight->has_data = true;
    }
  }
  flight->cv.notify_all();
}

void RemoteBackend::Prefetch(const std::string& name) {
  if (readahead_budget_ == 0 || rpc_window_ <= 1) return;
  PrefetchSink sink;
  std::shared_ptr<PrefetchFlight> flight;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    if (!sink_) return; // nowhere for the bytes to land
    if (prefetch_inflight_.contains(name)) return;
    if (prefetch_inflight_.size() >= options_.max_inflight_prefetches) return;
    // Register BEFORE submitting so a duplicate hint arriving while the
    // speculation is in flight stays a no-op.
    flight = std::make_shared<PrefetchFlight>();
    prefetch_inflight_[name] = flight;
    sink = sink_;
  }

  // Speculation only rides spare capacity: an unbroken pooled connection
  // with window room. Never dials, never blocks, never retries.
  std::shared_ptr<MuxConnection> conn;
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    for (const auto& candidate : pool_) {
      if (!candidate->broken() && candidate->inflight() < candidate->window()) {
        conn = candidate;
        break;
      }
    }
  }
  std::shared_ptr<MuxConnection::Slot> slot;
  if (conn != nullptr) {
    trace::Span span("prefetch_issue", "net.prefetch");
    Writer req = BeginRequest(Rpc::kGet);
    req.Str(name);
    req.U8(0); // speculation never takes a lease
    const std::uint64_t corr = RequestCorrelation(req.bytes());
    slot = conn->TrySubmit(
        req.bytes(), [this, name, sink, corr](const Status& failure,
                                              const Bytes& response) {
          OnPrefetchDone(name, sink, corr, failure, response);
        });
  }
  if (slot == nullptr) {
    // Window filled up (or no connection): withdraw the registration and
    // release any demand read that latched onto it in the meantime.
    {
      const std::lock_guard<std::mutex> lock(prefetch_mu_);
      prefetch_inflight_.erase(name);
    }
    FinishFlight(flight, Error(ErrorCode::kIOError, "speculation withdrawn"),
                 nullptr);
    return;
  }
  cache::CacheCounters delta;
  delta.prefetch_issued = 1;
  cache::GlobalCacheAdd(delta);
}

void RemoteBackend::OnPrefetchDone(const std::string& name,
                                   const PrefetchSink& sink,
                                   std::uint64_t correlation,
                                   const Status& failure,
                                   const Bytes& response) {
  std::shared_ptr<PrefetchFlight> flight;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    const auto it = prefetch_inflight_.find(name);
    if (it != prefetch_inflight_.end()) {
      flight = std::move(it->second);
      prefetch_inflight_.erase(it);
    }
  }
  // Speculative traffic never retries; transport failures drop silently —
  // but a joined demand read must still be released to re-fetch.
  if (!failure.ok()) {
    if (flight != nullptr) FinishFlight(flight, failure, nullptr);
    return;
  }
  Reader reader(response);
  Status verdict = Status::Ok();
  std::uint64_t echoed = 0;
  if (!ParseResponseHead(reader, &verdict, &echoed).ok() ||
      echoed != correlation) {
    // Malformed speculation: the demand path re-fetches.
    if (flight != nullptr) {
      FinishFlight(flight, Error(ErrorCode::kIOError, "malformed speculation"),
                   nullptr);
    }
    return;
  }
  if (!verdict.ok()) {
    // A well-formed negative verdict (kNotFound) is a real answer — the
    // sink decides whether it is cacheable, and a joiner surfaces it
    // directly.
    sink(name, Result<Bytes>(verdict), false);
    if (flight != nullptr) FinishFlight(flight, verdict, nullptr);
    return;
  }
  const auto reply =
      ParseGetReply(response, response.size() - reader.Remaining());
  if (!reply.ok()) {
    if (flight != nullptr) {
      FinishFlight(flight, Error(ErrorCode::kIOError, "malformed speculation"),
                   nullptr);
    }
    return;
  }
  // The slot keeps the frame, so the speculation copies the object out.
  const auto object_at =
      response.begin() + static_cast<std::ptrdiff_t>(reply->object_at);
  Bytes body(object_at,
             object_at + static_cast<std::ptrdiff_t>(reply->object_len));
  // Wake joiners first (copying the bytes only if someone waits), then
  // move the bytes to the sink. If a woken joiner re-inserts before the
  // sink delivery lands, the cache tier's "demand path won the race"
  // check makes the delivery a no-op — never a double insert.
  if (flight != nullptr) FinishFlight(flight, Status::Ok(), &body);
  sink(name, Result<Bytes>(std::move(body)), false);
}

// ---- lease subscription -----------------------------------------------------

bool RemoteBackend::SubscribeInvalidations(InvalidationListener on_invalidate,
                                           ChannelDownHandler on_channel_down) {
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    if (lease_thread_.joinable()) return false; // already subscribed
    const TransportFactory& dial = options_.lease_transport_factory
                                       ? options_.lease_transport_factory
                                       : factory_;
    auto dialed = dial();
    if (!dialed.ok()) return false;
    std::unique_ptr<Transport> transport = std::move(dialed).value();

    // Lock-step subscription handshake on the dedicated connection.
    Writer req = BeginRequest(Rpc::kLeaseSubscribe);
    const std::uint64_t corr = RequestCorrelation(req.bytes());
    if (!transport->SendFrame(req.bytes()).ok()) return false;
    auto response = transport->RecvFrame();
    if (!response.ok()) return false;
    Reader reader(response.value());
    Status verdict = Status::Ok();
    std::uint64_t echoed = 0;
    if (!ParseResponseHead(reader, &verdict, &echoed).ok() ||
        echoed != corr || !verdict.ok()) {
      return false;
    }
    auto sid = reader.U64();
    if (!sid.ok() || sid.value() == 0 || !reader.AtEnd()) return false;

    lease_session_.store(sid.value(), std::memory_order_release);
    lease_transport_ = std::move(transport);
    lease_listener_ = std::move(on_invalidate);
    lease_on_down_ = std::move(on_channel_down);
    lease_thread_ = std::thread([this] { LeaseCallbackLoop(); });
  }
  // Tie the connections dialed before the subscription (Connect's Ping
  // connection at least) to the session so their writes are already
  // recognizable as ours.
  std::vector<std::shared_ptr<MuxConnection>> conns;
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    conns = pool_;
  }
  for (const auto& conn : conns) AttachLease(*conn);
  return true;
}

void RemoteBackend::LeaseCallbackLoop() {
  // The server originates request-format kInvalidate frames here; each is
  // acked with an ordinary response frame AFTER the listener ran, so a
  // server waiting on the ack knows the cache entry is already gone.
  for (;;) {
    auto frame = lease_transport_->RecvFrame();
    if (!frame.ok()) break;
    Reader reader(frame.value());
    std::uint64_t corr = 0;
    auto rpc = ParseRequestHead(reader, &corr);
    if (!rpc.ok() || rpc.value() != Rpc::kInvalidate) break;
    auto names = DecodeNameList(reader);
    if (!names.ok()) break;
    {
      trace::Span span("cache.invalidate_push", "net.lease");
      span.SetCorrelation(corr);
      if (lease_listener_) lease_listener_(names.value());
    }
    Writer ack = BeginResponse(Status::Ok(), corr);
    if (!lease_transport_->SendFrame(ack.bytes()).ok()) break;
  }
  lease_session_.store(0, std::memory_order_release);
  if (!lease_shutdown_.load(std::memory_order_acquire)) {
    // Real channel loss (not our own destructor): leases are void now.
    if (lease_on_down_) lease_on_down_();
  }
}

NetCounters RemoteBackend::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

// ---- streamed puts ----------------------------------------------------------

// Client half of the streaming RPC, on its own dedicated transport: stream
// handles are per-connection server state, so the pooled mux connections
// cannot carry them. Appends are pipelined: up to the window (rpc_window,
// NEXUS_RPC_WINDOW) of kStreamAppend frames are on the
// wire at once, sent and received on the calling thread. No demux thread is
// needed because every response on this connection answers a request this
// stream sent. Begin (and the lease attach before it) stays lock-step, since
// appends need its handle.
//
// Every append verdict is collected BEFORE the commit frame goes out. The
// server executes per-connection stream ops in FIFO order but leaves a
// failed stream open, so a commit pipelined behind an unverified append
// could publish a truncated object.
//
// Two modes:
//  * replaying (OpenPutStream) keeps every appended segment as it was
//    appended. A transport failure at any point, an ambiguous Commit
//    included, restarts the whole stream (Begin, replayed segments, Commit)
//    on a fresh connection within the retry budget. The server publishes
//    nothing before a Commit it fully received, so a replay can never
//    produce a partial object, only delay the atomic publish.
//  * unbuffered (OpenUnbufferedPutStream) retains nothing once a segment is
//    on the socket, so client memory is O(window), not O(object). With
//    nothing to rebuild a fresh stream from, a failure is final and
//    redundancy is the caller's job (the cluster's quorum commit).
class RemotePutStream final : public storage::StorageBackend::PutStream {
 public:
  RemotePutStream(RemoteBackend& backend, std::string name, bool replay)
      : backend_(backend), name_(std::move(name)), replay_(replay) {}

  ~RemotePutStream() override {
    if (!finished_) Abort();
  }

  Status Append(ByteSpan data) override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "append on finished stream: " + name_);
    }
    if (broken_) {
      return Error(ErrorCode::kIOError, "append on broken stream: " + name_);
    }
    if (replay_) segments_.push_back(ToBytes(data));
    if (conn_ == nullptr) {
      // First segment (or the connection broke on an earlier call): a
      // replaying stream (re)establishes and replays everything so far,
      // this segment included.
      if (replay_) return RestartWithRetries();
      const Status begun = Restart();
      if (!begun.ok()) return Fail(begun);
    }
    const Status sent = SendAppend(data);
    if (sent.ok()) return Status::Ok();
    DropConnection();
    return replay_ ? RestartWithRetries() : Fail(sent);
  }

  Status Commit() override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "commit on finished stream: " + name_);
    }
    finished_ = true;
    if (broken_) {
      return Error(ErrorCode::kIOError, "commit on broken stream: " + name_);
    }
    Status last = Error(ErrorCode::kIOError, "commit never attempted");
    const int attempts = replay_ ? backend_.options_.max_attempts : 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        backend_.CountRetry();
        backend_.Backoff();
      }
      // No connection yet means a zero-byte object (or, when replaying, a
      // connection lost earlier): Restart opens the stream and replays.
      if (conn_ == nullptr) {
        const Status restarted = Restart();
        if (!restarted.ok()) {
          last = restarted;
          if (IsVersionMismatch(last)) break;
          continue;
        }
      }
      Status drained = Status::Ok();
      while (drained.ok() && !inflight_.empty()) drained = ReceiveVerdict();
      if (!drained.ok()) {
        DropConnection();
        last = drained;
        continue;
      }
      Writer req = BeginRequest(Rpc::kStreamCommit);
      req.U64(handle_);
      Status verdict = Status::Ok();
      auto payload = Exchange(req, &verdict);
      DropConnection();
      // Well-formed server verdict: final, success or not.
      if (payload.ok()) return verdict;
      // Transport failure: the commit outcome is unknown. Re-running the
      // whole stream and committing again is safe — publishing the same
      // bytes twice is idempotent (last writer wins, identical content).
      last = payload.status();
    }
    return last;
  }

  void Abort() override {
    if (finished_) return;
    finished_ = true;
    if (conn_ != nullptr) {
      // Best effort: the abort queues behind the in-flight appends (FIFO)
      // and a disconnect aborts the server-side stream anyway.
      Writer req = BeginRequest(Rpc::kStreamAbort);
      req.U64(handle_);
      if (Send(req).ok()) {
        // Wait for the abort's own answer; the verdicts no longer matter.
        Status verdict = Status::Ok();
        while (!inflight_.empty() && Receive(&verdict).ok()) continue;
      }
      DropConnection();
    }
    segments_.clear();
  }

 private:
  /// A request on the wire whose response has not been read yet.
  struct InFlight {
    std::uint64_t correlation = 0;
    Rpc rpc = Rpc::kPing;
    std::uint64_t start_ns = 0;
    std::size_t request_bytes = 0;
  };

  /// Writes one request frame and records it as in flight. A send failure
  /// feeds the backend's failure streak; the caller drops the connection.
  Status Send(const Writer& request) {
    const ByteSpan frame = request.bytes();
    const std::uint64_t start = MonotonicNanos();
    const Status sent = conn_->SendFrame(frame);
    if (!sent.ok()) {
      backend_.NoteFailure();
      return sent;
    }
    inflight_.push_back(InFlight{RequestCorrelation(frame), RequestRpc(frame),
                                 start, frame.size()});
    return Status::Ok();
  }

  /// Reads one response and retires the in-flight request it answers. The
  /// OUTER result is transport/protocol health (error => drop the
  /// connection); on outer success `verdict` holds the server's
  /// authoritative answer and the bytes are the payload after the head.
  Result<Bytes> Receive(Status* verdict) {
    auto frame = conn_->RecvFrame();
    if (!frame.ok()) {
      backend_.NoteFailure();
      return frame.status();
    }
    Reader reader(frame.value());
    Status server = Status::Ok();
    std::uint64_t echoed = 0;
    const Status head = ParseResponseHead(reader, &server, &echoed);
    const auto it = std::find_if(
        inflight_.begin(), inflight_.end(),
        [echoed](const InFlight& f) { return f.correlation == echoed; });
    if (!head.ok() || it == inflight_.end()) {
      backend_.NoteFailure();
      if (!head.ok()) return head;
      return Error(ErrorCode::kIOError,
                   "correlation mismatch on stream connection");
    }
    backend_.CountDelivery(it->request_bytes, frame.value().size(),
                           it->start_ns);
    trace::CompleteSpan(RpcName(it->rpc), "net.client", it->start_ns,
                        MonotonicNanos() - it->start_ns, it->correlation);
    inflight_.erase(it);
    backend_.NoteSuccess();
    *verdict = std::move(server);
    return reader.Raw(reader.Remaining());
  }

  /// Lock-step request/response; nothing else may be in flight.
  Result<Bytes> Exchange(const Writer& request, Status* verdict) {
    NEXUS_RETURN_IF_ERROR(Send(request));
    return Receive(verdict);
  }

  /// Retires one in-flight append: a transport loss or a server rejection.
  Status ReceiveVerdict() {
    Status verdict = Status::Ok();
    auto payload = Receive(&verdict);
    return payload.ok() ? verdict : payload.status();
  }

  /// Puts one append on the wire, first retiring the oldest verdicts until
  /// it fits in the window — this is what bounds the bytes in flight and
  /// surfaces a rejected segment before many more chase it.
  Status SendAppend(ByteSpan segment) {
    while (inflight_.size() >= window_) {
      NEXUS_RETURN_IF_ERROR(ReceiveVerdict());
    }
    Writer req = BeginRequest(Rpc::kStreamAppend);
    req.U64(handle_);
    req.Var(segment);
    return Send(req);
  }

  void DropConnection() {
    conn_.reset();
    handle_ = 0;
    inflight_.clear();
  }

  /// Unbuffered streams cannot replay: a failure is final. Dropping the
  /// connection aborts the server-side stream.
  Status Fail(Status reason) {
    broken_ = true;
    DropConnection();
    return reason;
  }

  /// Fresh connection + StreamBegin + replay of the segments kept so far
  /// (none for an unbuffered stream). Any failure (transport or server
  /// verdict) fails this attempt; the caller decides whether to retry.
  Status Restart() {
    DropConnection();
    auto dialed = backend_.factory_();
    if (!dialed.ok()) {
      backend_.NoteFailure();
      return dialed.status();
    }
    conn_ = std::move(dialed).value();
    window_ = backend_.rpc_window_;

    // Tie the stream connection to the lease session so the commit does
    // not invalidate the writer's own cache. A server verdict error
    // (stale session) is benign — the stream works unattached.
    const std::uint64_t sid = backend_.lease_session();
    if (sid != 0) {
      Writer attach = BeginRequest(Rpc::kLeaseAttach);
      attach.U64(sid);
      Status attach_verdict = Status::Ok();
      auto acked = Exchange(attach, &attach_verdict);
      if (!acked.ok()) {
        DropConnection();
        return acked.status();
      }
    }

    Writer begin = BeginRequest(Rpc::kStreamBegin);
    begin.Str(name_);
    Status verdict = Status::Ok();
    auto payload = Exchange(begin, &verdict);
    if (!payload.ok() || !verdict.ok()) {
      DropConnection();
      return payload.ok() ? verdict : payload.status();
    }
    Reader reader(payload.value());
    auto handle = reader.U64();
    if (!handle.ok() || !reader.AtEnd()) {
      DropConnection();
      return Error(ErrorCode::kIOError, "malformed stream-begin response");
    }
    handle_ = handle.value();

    for (const Bytes& segment : segments_) {
      const Status sent = SendAppend(segment);
      if (!sent.ok()) {
        DropConnection();
        return sent;
      }
    }
    return Status::Ok();
  }

  Status RestartWithRetries() {
    Status last = Error(ErrorCode::kIOError, "stream restart never attempted");
    for (int attempt = 0; attempt < backend_.options_.max_attempts;
         ++attempt) {
      if (attempt > 0) {
        backend_.CountRetry();
        backend_.Backoff();
      }
      const Status restarted = Restart();
      if (restarted.ok()) return Status::Ok();
      last = restarted;
      if (IsVersionMismatch(last)) break;
    }
    return last;
  }

  RemoteBackend& backend_;
  const std::string name_;
  const bool replay_;
  std::vector<Bytes> segments_; // replaying mode: every append, as appended
  std::unique_ptr<Transport> conn_;
  std::size_t window_ = 1;
  std::deque<InFlight> inflight_;
  std::uint64_t handle_ = 0;
  bool broken_ = false; // unbuffered mode: a failure is final
  bool finished_ = false;
};

Result<std::unique_ptr<storage::StorageBackend::PutStream>>
RemoteBackend::OpenPutStream(const std::string& name) {
  return std::unique_ptr<PutStream>(
      new RemotePutStream(*this, name, /*replay=*/true));
}

Result<std::unique_ptr<storage::StorageBackend::PutStream>>
RemoteBackend::OpenUnbufferedPutStream(const std::string& name) {
  return std::unique_ptr<PutStream>(
      new RemotePutStream(*this, name, /*replay=*/false));
}

} // namespace nexus::net

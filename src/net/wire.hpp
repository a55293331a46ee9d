// NEXUS remote-store wire protocol (nexusd <-> RemoteBackend).
//
// Every message is one length-prefixed binary frame on a byte stream:
//
//   [u32 LE payload length][payload]
//
// Request payload:   u8 version, u8 rpc id, u64 correlation id, arguments
// Response payload:  u8 version, u64 correlation id, u8 error code,
//                    Str message, results (OK responses only)
//
// Integers are little-endian; Str and Var are a u32 length plus that many
// bytes (serial.hpp). There is one protocol version, kProtocolVersion, and
// both ends ship from this tree. A request head of any other version is
// refused: nexusd answers it with a kUnimplemented response naming both
// versions and closes the connection, and a client that reads a response
// head of another version fails the call the same way, without retrying.
// Ping carries the version byte in both directions, so a client learns of
// a mismatch on its first RPC.
//
// The correlation id is drawn by the client per request and echoed by the
// server. The client matches responses to requests by it, so the server
// may answer the requests of one connection in any order and the client
// keeps a window of them in flight; an id nobody is waiting for means the
// byte stream is desynchronized and the connection is dropped. Both sides
// stamp it on their trace spans.
//
// Arguments and results have a fixed layout per RPC, and a frame with
// bytes left after its last field is malformed, in either direction:
//
//   rpc            request arguments                 OK results
//   Ping           u8 version                        u8 version
//   Get            Str name, u8 want_lease           Var object, u8 leased
//   Put            Str name, Var data, u8 want_lease u8 leased
//   Delete         Str name                          -
//   Exists         Str name                          u8 present
//   ListPage       Str prefix, Str start_after,      u32 n, n x Str,
//                  u32 limit (1..kMaxMultiEntries)   u8 more
//   StreamBegin    Str name                          u64 handle
//   StreamAppend   u64 handle, Var segment           -
//   StreamCommit   u64 handle                        -
//   StreamAbort    u64 handle                        -
//   Stats          -                                 ServerStats
//   MultiGet       u32 n, n x Str, u8 want_lease     u32 n, n x entry
//   MultiExists    u32 n, n x Str                    n x u8 present
//   LeaseSubscribe -                                 u64 session id
//   LeaseAttach    u64 session id                    -
//   Invalidate     u32 n, n x Str (server to client) - (the client's ack)
//
// A MultiGet entry is u8 state, then for kOk `Var object, u8 leased`, for
// kError `u8 code, Str message`, and nothing for kDeferred (the server ran
// out of frame budget; the client fetches those names again).
//
// Leases keep client caches coherent. A client turns one connection into
// its invalidation channel with LeaseSubscribe; from then on the SERVER
// sends request-format Invalidate frames on it and the client acks each
// with an OK response. LeaseAttach ties a data connection to the session,
// so the server can tell the writer's own mutations from a stranger's. A
// want_lease byte of 1 asks for a read lease (Get, MultiGet) or a write
// lease (Put); the leased byte says whether the server granted it. A
// granted lease covers exactly the bytes returned or written, until an
// Invalidate for the name arrives.
//
// The server is untrusted in the NEXUS threat model, so nothing here is
// authenticated — the protocol only moves ciphertext and opaque object
// names, and the enclave's MACs catch any tampering above this layer. What
// the framing DOES defend against is resource abuse and desync: lengths
// are bounded before allocation, every decode is bounds-checked (the
// decoder also runs client-side on attacker-controlled response bytes),
// and a malformed frame kills the connection rather than resynchronizing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/serial.hpp"

namespace nexus::net {

inline constexpr std::uint8_t kProtocolVersion = 6;

/// Largest object the protocol moves (bulk data chunks are ≤1 MiB today;
/// whole journal records and streamed segments stay far below this).
inline constexpr std::size_t kMaxObjectBytes = 64u << 20;
/// Frame-size sanity bound: one max object plus framing/name slack. A
/// length prefix above this is a protocol violation, not an allocation.
inline constexpr std::size_t kMaxFrameBytes = kMaxObjectBytes + (1u << 16);

/// Wire length prefix: 4 bytes, little-endian. Shared by the blocking
/// transport and the reactor's in-slab frame parser.
inline constexpr std::size_t kFramePrefixBytes = 4;

inline void EncodeFrameLength(std::uint32_t len, std::uint8_t out[4]) noexcept {
  out[0] = static_cast<std::uint8_t>(len);
  out[1] = static_cast<std::uint8_t>(len >> 8);
  out[2] = static_cast<std::uint8_t>(len >> 16);
  out[3] = static_cast<std::uint8_t>(len >> 24);
}

inline std::uint32_t DecodeFrameLength(const std::uint8_t in[4]) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

/// RPC surface: the StorageBackend interface verbatim, plus the segmented
/// OpenPutStream as a four-message streaming RPC, a Ping for liveness, and
/// a Stats introspection call (nexus-stat).
enum class Rpc : std::uint8_t {
  kPing = 1,
  kGet = 2,
  kPut = 3,
  kDelete = 4,
  kExists = 5,
  // Id 6 is unassigned (whole listings page through kListPage), so a
  // frame carrying it is a protocol error.
  kStreamBegin = 7,   // name -> u64 stream handle
  kStreamAppend = 8,  // handle, segment bytes
  kStreamCommit = 9,  // handle; object becomes visible atomically
  kStreamAbort = 10,  // handle; store untouched
  kStats = 11,        // -> ServerStats (counters, per-op latency)
  // Batch ops: one frame each way for a whole fan-out of names.
  kMultiGet = 12,     // name list -> per-name ok/error/deferred entries
  kMultiExists = 13,  // name list -> per-name presence flags
  // Cache-coherence ops.
  kLeaseSubscribe = 14, // -> u64 session id; connection becomes the
                        //    server-push invalidation channel
  kLeaseAttach = 15,    // u64 session id; ties a data connection to it
  kInvalidate = 16,     // SERVER-sent on the subscription channel: name
                        //    list whose leases are revoked; client acks
  // Bounded-batch listing.
  kListPage = 17,       // prefix, start-after cursor, u32 limit -> one
                        //    sorted page of names + u8 truncated flag
};

/// Stable lowercase name for an RPC id ("get", "stream_begin", ...), or
/// "unknown" for an id this protocol does not define. Used as span names
/// and in nexus-stat output.
const char* RpcName(Rpc rpc) noexcept;

/// Offset of the correlation id within a request payload (after version
/// and rpc bytes) — lets middle layers read it from raw frame bytes.
inline constexpr std::size_t kRequestCorrelationOffset = 2;

/// Process-unique correlation ids, starting at 1 (0 means "none").
std::uint64_t NextCorrelationId() noexcept;

/// Starts a request: version + rpc id + fresh correlation id. Callers
/// append arguments and hand the bytes to Transport::SendFrame.
Writer BeginRequest(Rpc rpc);
/// Same, with an explicit correlation id (tests, retransmissions).
Writer BeginRequest(Rpc rpc, std::uint64_t correlation);

/// Reads the rpc id out of raw request bytes (0 if too short).
Rpc RequestRpc(ByteSpan request) noexcept;
/// Reads the correlation id out of raw request bytes (0 if too short).
std::uint64_t RequestCorrelation(ByteSpan request) noexcept;
/// Reads the correlation id out of raw RESPONSE bytes without validating
/// the rest of the head (0 if too short — real ids start at 1). The demux
/// thread uses this to route a frame before anyone decodes it.
std::uint64_t ResponseCorrelation(ByteSpan response) noexcept;

/// The refusal of a peer that speaks version `peer`: kUnimplemented, with
/// a message naming both versions.
Status VersionMismatch(std::uint8_t peer);

/// Parses (and validates) a request head; the reader is left at the first
/// argument. When `correlation` is non-null it receives the request's
/// correlation id. A head of another version fails with VersionMismatch.
Result<Rpc> ParseRequestHead(Reader& reader,
                             std::uint64_t* correlation = nullptr);

/// Starts a response carrying `status`, echoing the request's correlation
/// id (OK responses append results).
Writer BeginResponse(const Status& status, std::uint64_t correlation);

/// Parses a response head. The RETURNED Status is a protocol violation
/// (malformed frame — treat the connection as broken; a head of another
/// version returns VersionMismatch, which is final); on success,
/// `verdict` receives the server's verdict for the RPC, which is
/// authoritative and final (never retried), and `correlation` (when
/// non-null) the echoed correlation id for the caller to verify.
Status ParseResponseHead(Reader& reader, Status* verdict,
                         std::uint64_t* correlation = nullptr);

/// ErrorCode <-> wire byte. Unknown bytes decode to kInternal so a rogue
/// server cannot smuggle an out-of-range enum into client code.
std::uint8_t CodeToWire(ErrorCode code) noexcept;
ErrorCode CodeFromWire(std::uint8_t wire) noexcept;

// ---- Stats RPC payload ------------------------------------------------------

/// Per-RPC slice of a nexusd's lifetime counters.
struct RpcOpStats {
  std::uint8_t rpc = 0; // Rpc id this row describes
  std::uint64_t count = 0;
  std::uint64_t bytes_in = 0;  // request payload bytes
  std::uint64_t bytes_out = 0; // response payload bytes
  double p50_ms = 0;           // server-side service latency
  double p99_ms = 0;

  bool operator==(const RpcOpStats&) const = default;
};

/// Everything a nexusd reports through Rpc::kStats.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t active_connections = 0; // gauge
  std::uint64_t rpcs_served = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t open_streams = 0; // gauge
  std::uint64_t streams_aborted_on_disconnect = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  // Lease/coherence counters.
  std::uint64_t lease_sessions = 0; // gauge
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_broken = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t lease_break_timeouts = 0;
  // Object-cache counters mirrored by a cache-enabled nexusd (zero when
  // the daemon runs without --cache-mem).
  std::uint64_t cache_mem_hits = 0;
  std::uint64_t cache_disk_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_writeback_batches = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t cache_dirty_high_water = 0; // gauge
  // Event-loop / buffer-arena health.
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t arena_slabs_in_use = 0;    // gauge
  std::uint64_t arena_slabs_high_water = 0;
  std::uint64_t arena_oversize_frames = 0; // frames that bypassed the arena
  std::uint64_t resident_threads = 0;      // gauge: loop + pools + channels
  double loop_dispatch_p50_ms = 0; // per-wakeup dispatch latency
  double loop_dispatch_p99_ms = 0;
  std::vector<RpcOpStats> per_op; // ascending rpc id, served ops only

  bool operator==(const ServerStats&) const = default;
};

/// Upper bound on per_op rows a decoder accepts — there are only that many
/// RPC ids, so anything larger is malformed.
inline constexpr std::size_t kMaxStatsEntries =
    static_cast<std::size_t>(Rpc::kListPage);

void EncodeServerStats(Writer& writer, const ServerStats& stats);
Result<ServerStats> DecodeServerStats(Reader& reader);

// ---- Batch RPC payloads -----------------------------------------------------

/// Most names one MultiGet/MultiExists frame carries. Far above any real
/// fan-out (a chunk table tops out in the hundreds) but small enough that
/// a hostile count cannot force a large allocation.
inline constexpr std::size_t kMaxMultiEntries = 4096;

/// Request body shared by kMultiGet and kMultiExists: u32 count + names.
void EncodeNameList(Writer& writer, const std::vector<std::string>& names);
Result<std::vector<std::string>> DecodeNameList(Reader& reader);

/// One per-name result inside a MultiGet response. The server fills data
/// until the response would exceed the frame bound, then defers the rest;
/// the client re-fetches deferred entries as single Gets.
struct MultiGetEntry {
  enum class State : std::uint8_t { kOk = 0, kError = 1, kDeferred = 2 };
  State state = State::kDeferred;
  Bytes data;                  // kOk only
  Status error = Status::Ok(); // kError only (the per-name verdict)
  bool leased = false;         // kOk only: lease granted
};

void EncodeMultiGetEntries(Writer& writer,
                           const std::vector<MultiGetEntry>& entries);
Result<std::vector<MultiGetEntry>> DecodeMultiGetEntries(Reader& reader);

} // namespace nexus::net

// Framed byte-stream transports for the nexusd wire protocol.
//
// A Transport moves whole frames (wire.hpp framing) between one client
// and one server connection. Errors are all kIOError at this layer —
// RemoteBackend treats any transport failure as "the connection is dead,
// the RPC outcome is unknown" and decides retry policy above; server
// verdicts travel inside well-formed response frames instead.
//
// TcpTransport is the real thing: a connected socket with per-frame I/O
// deadlines (poll + non-blocking reads). FaultyTransport (fault.hpp)
// wraps it for deterministic failure injection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace nexus::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one length-prefixed frame.
  virtual Status SendFrame(ByteSpan payload) = 0;
  /// Receives the next frame's payload, blocking up to the I/O deadline.
  virtual Result<Bytes> RecvFrame() = 0;
  /// Hard-closes the connection; subsequent calls fail.
  virtual void Close() = 0;
  /// Breaks the connection WITHOUT releasing the descriptor: any thread
  /// blocked in SendFrame/RecvFrame fails promptly, and the fd stays
  /// allocated until Close()/destruction. This is the only member safe to
  /// call concurrently with in-flight I/O — the multiplexer uses it to
  /// unblock its demux thread (a concurrent Close would race fd reuse).
  virtual void Shutdown() { Close(); }
};

class TcpTransport final : public Transport {
 public:
  /// Connects to host:port. `io_deadline_ms` bounds every subsequent
  /// frame send/receive; <= 0 means block forever (server side).
  static Result<std::unique_ptr<TcpTransport>> Dial(const std::string& host,
                                                    std::uint16_t port,
                                                    int connect_deadline_ms,
                                                    int io_deadline_ms);

  /// Adopts an already-connected socket (accepted server side).
  TcpTransport(int fd, int io_deadline_ms);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status SendFrame(ByteSpan payload) override;
  Result<Bytes> RecvFrame() override;
  void Close() override;
  void Shutdown() override;

  /// Fault-injection seam: writes the frame's length prefix but only the
  /// first `keep` payload bytes, then shuts the socket down — the peer
  /// observes a torn frame followed by EOF, exactly like a crash mid-write.
  Status SendTruncated(ByteSpan payload, std::size_t keep);

 private:
  Status WriteAll(int fd, const std::uint8_t* data, std::size_t len);
  Status ReadAll(int fd, std::uint8_t* data, std::size_t len);

  // Atomic so Shutdown() can read it while another thread is mid-I/O;
  // only Close() writes it (to -1), exactly once.
  std::atomic<int> fd_{-1};
  int io_deadline_ms_ = 0;
};

} // namespace nexus::net

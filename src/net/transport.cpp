#include "net/transport.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/wire.hpp"

namespace nexus::net {

namespace {

Status Errno(const std::string& what) {
  return Error(ErrorCode::kIOError, what + ": " + std::strerror(errno));
}

} // namespace

Result<std::unique_ptr<TcpTransport>> TcpTransport::Dial(
    const std::string& host, std::uint16_t port, int connect_deadline_ms,
    int io_deadline_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error(ErrorCode::kInvalidArgument, "bad address: " + host);
  }

  // Non-blocking connect so the connect deadline is enforceable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Status err = Errno("connect to " + host);
    ::close(fd);
    return err;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, connect_deadline_ms > 0 ? connect_deadline_ms : -1);
    if (rc == 0) {
      ::close(fd);
      return Error(ErrorCode::kIOError, "connect deadline exceeded: " + host);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (rc < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      ::close(fd);
      return Error(ErrorCode::kIOError,
                   "connect failed: " + host + ": " +
                       std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  ::fcntl(fd, F_SETFL, flags); // back to blocking; I/O uses poll deadlines

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpTransport>(fd, io_deadline_ms);
}

TcpTransport::TcpTransport(int fd, int io_deadline_ms)
    : fd_(fd), io_deadline_ms_(io_deadline_ms) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpTransport::~TcpTransport() { Close(); }

void TcpTransport::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void TcpTransport::Shutdown() {
  // shutdown(), not close(): the fd number stays ours, so a thread
  // blocked in poll/read on it wakes with EOF instead of racing reuse.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status TcpTransport::WriteAll(int fd, const std::uint8_t* data,
                              std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer reset yields EPIPE instead of killing the
    // process — resets are an expected, retryable event here.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status TcpTransport::ReadAll(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, io_deadline_ms_ > 0 ? io_deadline_ms_ : -1);
    if (rc == 0) {
      return Error(ErrorCode::kIOError, "recv deadline exceeded");
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    const ssize_t n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      return Error(ErrorCode::kIOError, "connection closed by peer");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status TcpTransport::SendFrame(ByteSpan payload) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Error(ErrorCode::kIOError, "transport closed");
  if (payload.size() > kMaxFrameBytes) {
    return Error(ErrorCode::kInvalidArgument, "frame too large");
  }
  std::uint8_t prefix[4];
  EncodeFrameLength(static_cast<std::uint32_t>(payload.size()), prefix);
  NEXUS_RETURN_IF_ERROR(WriteAll(fd, prefix, sizeof(prefix)));
  return WriteAll(fd, payload.data(), payload.size());
}

Result<Bytes> TcpTransport::RecvFrame() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Error(ErrorCode::kIOError, "transport closed");
  std::uint8_t prefix[4];
  NEXUS_RETURN_IF_ERROR(ReadAll(fd, prefix, sizeof(prefix)));
  const std::uint32_t len = DecodeFrameLength(prefix);
  if (len > kMaxFrameBytes) {
    // Bound BEFORE allocating: a lying length cannot OOM the client.
    return Error(ErrorCode::kIOError,
                 "oversized frame (" + std::to_string(len) + " bytes)");
  }
  Bytes payload(len);
  if (len > 0)
    NEXUS_RETURN_IF_ERROR(ReadAll(fd, payload.data(), payload.size()));
  return payload;
}

Status TcpTransport::SendTruncated(ByteSpan payload, std::size_t keep) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Error(ErrorCode::kIOError, "transport closed");
  std::uint8_t prefix[4];
  EncodeFrameLength(static_cast<std::uint32_t>(payload.size()), prefix);
  NEXUS_RETURN_IF_ERROR(WriteAll(fd, prefix, sizeof(prefix)));
  const std::size_t n = std::min(keep, payload.size());
  const Status sent = WriteAll(fd, payload.data(), n);
  // Shutdown, not Close: the peer still observes torn-frame-then-FIN, but
  // the fd survives for any thread currently blocked reading it.
  Shutdown();
  return sent;
}

} // namespace nexus::net

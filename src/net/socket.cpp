#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/fault.hpp"

namespace sap::net {
namespace {

void fault_sleep(int delay_ms) {
  if (delay_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SAP_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "socket: cannot switch fd to nonblocking");
  // CLOEXEC everywhere: processes this one spawns (cli_test daemons, the
  // bench's driver children) must not inherit live connections — an
  // inherited server fd would keep a "closed" connection half-alive.
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: NODELAY failing (e.g. on a non-TCP fd in tests) only costs
  // latency, never correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in to_sockaddr(const SocketAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  const std::string host = (addr.host == "localhost") ? "127.0.0.1" : addr.host;
  SAP_REQUIRE(::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1,
              "socket: bad IPv4 host '" + addr.host + "'");
  return sa;
}

}  // namespace

SocketAddr SocketAddr::parse(const std::string& text) {
  const auto colon = text.rfind(':');
  SAP_REQUIRE(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
              "SocketAddr: expected HOST:PORT, got '" + text + "'");
  SocketAddr addr;
  addr.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  std::uint32_t port = 0;
  for (const char c : port_text) {
    SAP_REQUIRE(c >= '0' && c <= '9', "SocketAddr: bad port in '" + text + "'");
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    SAP_REQUIRE(port <= 65535, "SocketAddr: port out of range in '" + text + "'");
  }
  addr.port = static_cast<std::uint16_t>(port);
  (void)to_sockaddr(addr);  // validate the host eagerly
  return addr;
}

std::string SocketAddr::to_string() const {
  return host + ":" + std::to_string(port);
}

bool poll_fd(int fd, short events, int timeout_ms) {
  // The deadline is absolute: EINTR retries poll with the REMAINING time,
  // so a stream of signals cannot extend it indefinitely.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  int remaining = timeout_ms;
  for (;;) {
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc < 0 && errno == EINTR) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      remaining = static_cast<int>(left.count());
      if (remaining <= 0) return false;
      continue;
    }
    SAP_REQUIRE(rc >= 0, "socket: poll failed");
    if (rc == 0) return false;
    return true;
  }
}

// ---- TcpSocket -----------------------------------------------------------

TcpSocket::TcpSocket(int fd) : fd_(fd) {
  SAP_REQUIRE(fd_ >= 0, "TcpSocket: bad fd");
  set_nonblocking(fd_);
  set_nodelay(fd_);
}

TcpSocket::~TcpSocket() { close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpSocket TcpSocket::connect(const SocketAddr& addr, int timeout_ms) {
  if (fault::enabled() && fault::next_connect_fault()) {
    SAP_FAIL("TcpSocket::connect: connect to " + addr.to_string() +
             " failed: injected fault (reset)");
  }
  const sockaddr_in sa = to_sockaddr(addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SAP_REQUIRE(fd >= 0, "TcpSocket::connect: cannot create socket");
  TcpSocket sock(fd);  // takes ownership; nonblocking from here on
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (rc != 0) {
    SAP_REQUIRE(errno == EINPROGRESS,
                "TcpSocket::connect: connect to " + addr.to_string() + " failed: " +
                    std::strerror(errno));
    SAP_REQUIRE(poll_fd(fd, POLLOUT, timeout_ms),
                "TcpSocket::connect: timed out connecting to " + addr.to_string());
    int err = 0;
    socklen_t len = sizeof err;
    SAP_REQUIRE(::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0,
                "TcpSocket::connect: connect to " + addr.to_string() + " failed: " +
                    std::strerror(err));
  }
  return sock;
}

namespace {

// The deadline-driven send loop write_all always used; factored out so the
// fault hooks can send prefixes / corrupted copies through the exact same
// kernel path as healthy traffic.
void send_all(int fd, const std::uint8_t* bytes, std::size_t len, int timeout_ms) {
  std::size_t written = 0;
  while (written < len) {
    const ssize_t rc = ::send(fd, bytes + written, len - written, MSG_NOSIGNAL);
    if (rc > 0) {
      written += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SAP_REQUIRE(poll_fd(fd, POLLOUT, timeout_ms),
                  "TcpSocket::write_all: write stalled past the deadline");
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    SAP_FAIL(std::string("TcpSocket::write_all: connection lost: ") + std::strerror(errno));
  }
}

}  // namespace

void TcpSocket::write_all(const void* data, std::size_t len, int timeout_ms) {
  SAP_REQUIRE(valid(), "TcpSocket::write_all: closed socket");
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (fault::enabled()) {
    const fault::WriteFault f = fault::next_write_fault(len);
    switch (f.kind) {
      case fault::Kind::kDrop:
        return;  // swallowed whole: the peer's read deadline surfaces it
      case fault::Kind::kDelay:
        fault_sleep(f.delay_ms);
        break;
      case fault::Kind::kPartialWrite:
        // Prefix now, a pause, then the remainder — exercises reassembly.
        send_all(fd_, bytes, f.keep, timeout_ms);
        fault_sleep(f.delay_ms);
        bytes += f.keep;
        len -= f.keep;
        break;
      case fault::Kind::kTruncate:
        send_all(fd_, bytes, f.keep, timeout_ms);
        return;  // remainder discarded: peer sees a short frame
      case fault::Kind::kCorrupt: {
        std::vector<std::uint8_t> copy(bytes, bytes + len);
        copy[f.corrupt_at] = static_cast<std::uint8_t>(copy[f.corrupt_at] ^ f.corrupt_mask);
        send_all(fd_, copy.data(), len, timeout_ms);
        return;  // the frame CRC catches the flip on the peer
      }
      case fault::Kind::kReset:
        close();
        SAP_FAIL("TcpSocket::write_all: connection lost: injected fault (reset)");
      default:
        break;
    }
  }
  send_all(fd_, bytes, len, timeout_ms);
}

std::size_t TcpSocket::writev_some(const struct iovec* iov, int iovcnt) {
  SAP_REQUIRE(valid(), "TcpSocket::writev_some: closed socket");
  if (fault::enabled() && iovcnt > 0) {
    std::size_t total = 0;
    for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
    const fault::WriteFault f = fault::next_write_fault(total);
    if (f.kind == fault::Kind::kDrop) return total;  // pretend written
    if (f.kind == fault::Kind::kReset) {
      close();
      SAP_FAIL("TcpSocket::writev_some: connection lost: injected fault (reset)");
    }
    if (f.kind == fault::Kind::kCorrupt && iov[0].iov_len >= 1) {
      // Corrupt within the first buffer and send only it; the caller's
      // partial-progress handling resumes the queue behind the bad bytes.
      const auto* base = static_cast<const std::uint8_t*>(iov[0].iov_base);
      std::vector<std::uint8_t> copy(base, base + iov[0].iov_len);
      const std::size_t at = f.corrupt_at % copy.size();
      copy[at] = static_cast<std::uint8_t>(copy[at] ^ f.corrupt_mask);
      for (;;) {
        const ssize_t rc = ::send(fd_, copy.data(), copy.size(), MSG_NOSIGNAL);
        if (rc >= 0) return static_cast<std::size_t>(rc);
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        if (errno == EINTR) continue;
        SAP_FAIL(std::string("TcpSocket::writev_some: connection lost: ") + std::strerror(errno));
      }
    }
  }
  // sendmsg rather than writev for MSG_NOSIGNAL: a peer that closed mid-queue
  // must surface as sap::Error, not SIGPIPE.
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  for (;;) {
    const ssize_t rc = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (rc >= 0) return static_cast<std::size_t>(rc);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == EINTR) continue;
    SAP_FAIL(std::string("TcpSocket::writev_some: connection lost: ") + std::strerror(errno));
  }
}

std::size_t TcpSocket::read_some(void* data, std::size_t len, int timeout_ms, bool& closed) {
  SAP_REQUIRE(valid(), "TcpSocket::read_some: closed socket");
  closed = false;
  if (!poll_fd(fd_, POLLIN, timeout_ms)) return 0;
  for (;;) {
    const ssize_t rc = ::recv(fd_, data, len, 0);
    if (rc > 0) {
      if (fault::enabled()) {
        const fault::ReadFault f = fault::next_read_fault(static_cast<std::size_t>(rc));
        switch (f.kind) {
          case fault::Kind::kDelay:
            fault_sleep(f.delay_ms);
            break;
          case fault::Kind::kCorrupt:
            if (f.corrupt_at < static_cast<std::size_t>(rc)) {
              auto* bytes = static_cast<std::uint8_t*>(data);
              bytes[f.corrupt_at] =
                  static_cast<std::uint8_t>(bytes[f.corrupt_at] ^ f.corrupt_mask);
            }
            break;
          case fault::Kind::kReset:
            // Received bytes vanish and the connection reads as torn down —
            // the framing layer above turns mid-frame EOF into an error.
            closed = true;
            close();
            return 0;
          default:
            break;
        }
      }
      return static_cast<std::size_t>(rc);
    }
    if (rc == 0) {
      closed = true;
      return 0;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    // Reset by peer etc. — surface as a close, the caller's framing layer
    // decides whether mid-frame EOF is an error.
    closed = true;
    return 0;
  }
}

void TcpSocket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- TcpListener ---------------------------------------------------------

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpListener TcpListener::listen(const SocketAddr& addr, int backlog) {
  const sockaddr_in sa = to_sockaddr(addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SAP_REQUIRE(fd >= 0, "TcpListener: cannot create socket");
  TcpListener listener;
  listener.fd_ = fd;
  set_nonblocking(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  SAP_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0,
              "TcpListener: cannot bind " + addr.to_string() + ": " + std::strerror(errno));
  SAP_REQUIRE(::listen(fd, backlog > 0 ? backlog : SOMAXCONN) == 0,
              "TcpListener: listen failed");
  return listener;
}

SocketAddr TcpListener::local_addr() const {
  SAP_REQUIRE(valid(), "TcpListener::local_addr: closed listener");
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  SAP_REQUIRE(::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0,
              "TcpListener::local_addr: getsockname failed");
  char host[INET_ADDRSTRLEN] = {};
  SAP_REQUIRE(::inet_ntop(AF_INET, &sa.sin_addr, host, sizeof host) != nullptr,
              "TcpListener::local_addr: inet_ntop failed");
  return {host, ntohs(sa.sin_port)};
}

TcpSocket TcpListener::accept(int timeout_ms) {
  SAP_REQUIRE(valid(), "TcpListener::accept: closed listener");
  if (timeout_ms > 0 && !poll_fd(fd_, POLLIN, timeout_ms)) return {};
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return {};  // kernel queue empty (EAGAIN), raced, or transient
  if (fault::enabled() && fault::next_accept_fault()) {
    // Drop the connection before any byte flows: the client sees an
    // immediate close, indistinguishable from a crashing peer.
    ::close(fd);
    return {};
  }
  return TcpSocket(fd);
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sap::net

// Thin POSIX TCP plumbing for sap::net — nonblocking sockets with explicit
// deadlines.
//
// Everything here is deliberately low-level and deadline-driven: the
// in-process transports detect liveness failures by starvation analysis
// (all workers blocked => mail can never arrive), which does not translate
// to sockets — a peer process can simply be gone. Every blocking operation
// in this layer (connect, accept, read, write) therefore takes an explicit
// timeout in milliseconds and fails with sap::Error when it expires, so a
// hung peer turns into a clean protocol error instead of a wedged process.
//
// All sockets are nonblocking + TCP_NODELAY; helpers poll() for readiness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

struct iovec;  // <sys/uio.h>; forward-declared so this header stays light

namespace sap::net {

/// "HOST:PORT" endpoint. Host is an IPv4 dotted quad or "localhost"; port 0
/// asks the kernel for an ephemeral port (listeners only — see
/// TcpListener::local_addr for the resolved value).
struct SocketAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Parse "HOST:PORT"; throws sap::Error on malformed input.
  static SocketAddr parse(const std::string& text);

  [[nodiscard]] std::string to_string() const;
};

/// Poll one fd for `events` (POLLIN/POLLOUT); true when ready, false on
/// timeout. Throws sap::Error on poll failure or error/hangup conditions
/// when waiting for writability.
bool poll_fd(int fd, short events, int timeout_ms);

/// Move-only connected TCP socket (owner of the fd).
class TcpSocket {
 public:
  TcpSocket() = default;
  /// Adopt a connected fd; switches it to nonblocking + TCP_NODELAY.
  explicit TcpSocket(int fd);
  ~TcpSocket();
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connect with a deadline; throws sap::Error on refusal or timeout.
  static TcpSocket connect(const SocketAddr& addr, int timeout_ms);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Write the whole buffer; polls for writability whenever the kernel
  /// buffer is full, allowing at most `timeout_ms` per stall. Throws
  /// sap::Error on timeout or a closed/reset connection.
  void write_all(const void* data, std::size_t len, int timeout_ms);

  /// Read up to `len` bytes once the fd is readable (waiting at most
  /// `timeout_ms`). Returns the byte count (0 on timeout); sets `closed`
  /// when the peer has shut down the connection.
  std::size_t read_some(void* data, std::size_t len, int timeout_ms, bool& closed);

  /// Nonblocking gathered write: one syscall over `iovcnt` buffers (many
  /// queued frames per syscall — the reactor's batched flush). Returns
  /// bytes written (0 when the kernel buffer is full); throws sap::Error on
  /// a closed/reset connection. Never waits.
  std::size_t writev_some(const struct iovec* iov, int iovcnt);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Move-only listening socket.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind + listen (SO_REUSEADDR). `backlog <= 0` means SOMAXCONN — a
  /// connection storm queues in the kernel instead of getting RSTs while
  /// the acceptor drains. Throws sap::Error on failure.
  static TcpListener listen(const SocketAddr& addr, int backlog = 0);

  /// The bound address with port 0 resolved to the kernel-assigned port.
  [[nodiscard]] SocketAddr local_addr() const;

  /// Accept one connection, waiting at most `timeout_ms`; the returned
  /// socket is invalid (valid() == false) on timeout. `timeout_ms == 0`
  /// never polls: one nonblocking accept() syscall, invalid when the
  /// kernel queue is empty — acceptor loops drain with this until EAGAIN.
  TcpSocket accept(int timeout_ms);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  void close() noexcept;

 private:
  int fd_ = -1;
};

}  // namespace sap::net

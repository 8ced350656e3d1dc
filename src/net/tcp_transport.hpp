// TcpTransport — the exchange link over real sockets.
//
// Topology: hub-and-spoke. The miner daemon runs the *hub*
// (TcpTransport::listen) and hosts the miner id on it; each party process
// runs a *client* (TcpTransport::connect) hosting its one provider id.
// Clients claim ids from the hub via a Hello/Welcome handshake, and every
// protocol message travels as a kData frame (net/frame.hpp) carrying the
// link-encrypted envelope. The hub routes frames between connections by
// destination id — it can open only envelopes addressed to parties it
// hosts itself, so a routing hub observes ciphertext + (from, to, kind)
// and nothing more. Frames for ids nobody claimed yet are parked (bounded)
// until the owner connects, so parties need no start barrier. Serving
// traffic does not ride this link: it goes to the miner's serving door
// (net/reactor.hpp, DESIGN.md §10).
//
// Liveness: sockets have no starvation analysis, so every wait is
// deadline-bound (TcpOptions): connect, the claim handshake, receive(), and
// stalled writes all fail with sap::Error when their deadline expires.
// TCP ordering keeps per-link FIFO delivery.
//
// Threading: one background I/O thread per transport (the hub's runs
// accept+route, a client's demultiplexes its socket into the inbox).
// send()/receive()/try_receive() are safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "protocol/transport.hpp"

namespace sap::net {

struct TcpOptions {
  int connect_timeout_ms = 5000;  ///< TCP connect + claim handshake deadline
  int receive_timeout_ms = 30000; ///< receive() deadline
  int write_timeout_ms = 5000;    ///< per-stall deadline for socket writes
  std::size_t max_frame_body = kDefaultMaxBody;
};

class TcpTransport {
 public:
  /// A decrypted message as seen by its addressee.
  using Delivery = proto::Transport::Delivery;

  /// Hub role: bind `addr` (port 0 = ephemeral; see local_addr()) and start
  /// routing. `session_secret` seeds per-link key derivation exactly like
  /// the in-process backends.
  static std::unique_ptr<TcpTransport> listen(const SocketAddr& addr,
                                              std::uint64_t session_secret,
                                              TcpOptions opts = {});

  /// Client role: connect to a hub.
  static std::unique_ptr<TcpTransport> connect(const SocketAddr& addr,
                                               std::uint64_t session_secret,
                                               TcpOptions opts = {});

  ~TcpTransport();

  /// Encrypt `payload` for the (from, to) link and send it. A client writes
  /// the frame; the hub routes it (parking it while `to` is unclaimed).
  void send(proto::PartyId from, proto::PartyId to, proto::PayloadKind kind,
            std::span<const double> payload);

  /// Blocks until mail arrives for `party` or the receive deadline expires
  /// (sap::Error). Throws immediately when the connection is gone.
  Delivery receive(proto::PartyId party);

  /// Claim a specific party id (kClaimAnyParty = auto-assign). Throws
  /// sap::Error if the id is already claimed.
  proto::PartyId claim_party(std::uint32_t desired);

  /// Non-throwing receive with an explicit deadline; false on timeout.
  bool try_receive(proto::PartyId party, Delivery& out, int timeout_ms);

  /// Hub: the bound address (ephemeral port resolved). Client: the hub
  /// address it connected to.
  [[nodiscard]] SocketAddr local_addr() const;

  /// Hub: currently open client connections.
  [[nodiscard]] std::size_t live_connections() const;

  /// Client: polite shutdown — sends kBye and stops accepting new mail.
  void send_bye();

 private:
  enum class Role : std::uint8_t { kHub, kClient };
  struct Conn;

  TcpTransport(Role role, std::uint64_t session_secret, TcpOptions opts);

  [[nodiscard]] std::uint64_t link_key(proto::PartyId from, proto::PartyId to) const noexcept;

  /// The one copy of claim semantics shared by local (claim_party) and
  /// remote (kHello) claims: id resolution, conflict check, route
  /// registration, parked-frame extraction. conn_mutex_ held.
  struct ClaimOutcome {
    std::uint32_t id = 0;
    bool conflict = false;
    std::vector<Frame> parked;
  };
  ClaimOutcome register_claim_locked(std::uint32_t desired, std::size_t owner)
      SAP_REQUIRES(conn_mutex_);

  // Hub internals. Lock order (outermost first): a Conn's write_mutex →
  // conn_mutex_ → mutex_. The hub NEVER blocks on a peer's socket: frames
  // ENQUEUE onto the destination's bounded outbound queue (write_mutex)
  // and the io loop drains it as POLLOUT allows — a slow client can delay
  // only frames addressed to it, and one that stops draining is
  // disconnected once its queue makes no progress for write_timeout_ms.
  // A dead conn's fd is closed only by the io thread (or the destructor)
  // under that conn's write_mutex, so no thread ever writes a recycled
  // descriptor.
  void io_loop_hub();
  void io_loop_client();
  // no locks held on entry:
  void hub_handle_frame(std::size_t conn_index, Frame frame)
      SAP_EXCLUDES(conn_mutex_, mutex_);
  void hub_dispatch(Frame frame) SAP_EXCLUDES(conn_mutex_, mutex_);
  void hub_write(std::size_t conn_index, const Frame& frame)
      SAP_EXCLUDES(conn_mutex_, mutex_);
  // caller holds conn.write_mutex:
  bool enqueue_frame_locked(Conn& conn, const Frame& frame)
      SAP_REQUIRES(conn.write_mutex);
  bool flush_outq_locked(Conn& conn) SAP_REQUIRES(conn.write_mutex);
  void mark_conn_closed(Conn* conn) SAP_EXCLUDES(conn_mutex_, mutex_);
  void client_handle_frame(Frame frame) SAP_EXCLUDES(mutex_);
  void deliver_local(const Frame& frame) SAP_EXCLUDES(mutex_);
  void deliver_locked(const Frame& frame) SAP_REQUIRES(mutex_);
  void fail_all(const std::string& why) SAP_EXCLUDES(mutex_);

  const Role role_;
  const std::uint64_t session_secret_;
  const TcpOptions opts_;

  // ---- shared mailbox state (mutex_/cv_) -------------------------------
  mutable Mutex mutex_;
  mutable CondVar cv_;
  std::map<proto::PartyId, std::deque<proto::Message>> inbox_ SAP_GUARDED_BY(mutex_);
  /// Granted id of the pending claim.
  std::optional<std::uint32_t> welcome_ SAP_GUARDED_BY(mutex_);
  /// Sticky failure (kError / EOF).
  std::string error_ SAP_GUARDED_BY(mutex_);
  bool closed_ SAP_GUARDED_BY(mutex_) = false;
  bool bye_sent_ SAP_GUARDED_BY(mutex_) = false;

  // ---- hub connection state --------------------------------------------
  // conn_mutex_ guards conns_ membership, route_, pending_ and the
  // connection counter; each Conn's write_mutex serializes writes and fd close;
  // `open` is atomic so writers can bail without conn_mutex_. Entries are
  // never erased, so Conn pointers stay stable for the transport lifetime.
  // Lock order (outermost first, annotated via SAP_ACQUIRED_BEFORE below):
  // a Conn's write_mutex → conn_mutex_ → mutex_.
  struct Conn {
    TcpSocket sock;          ///< reads: io thread; writes/close: write_mutex
    FrameReader reader;      ///< io thread only
    Mutex write_mutex;       ///< serializes socket writes and the fd close
    std::atomic<bool> open{true};
    /// Outbound queue: encoded frames waiting for POLLOUT; bounded —
    /// overflow marks the conn dead instead of growing.
    std::deque<std::vector<std::uint8_t>> outq SAP_GUARDED_BY(write_mutex);
    /// Bytes of outq.front() already written.
    std::size_t outq_head SAP_GUARDED_BY(write_mutex) = 0;
    std::atomic<std::size_t> outq_bytes{0};       ///< lock-free pending peek
    std::atomic<std::uint64_t> flushed_total{0};  ///< drain-progress detector
    // Stall accounting, io thread only:
    std::uint64_t io_prev_flushed = 0;
    std::chrono::steady_clock::time_point io_stall_start{};
    bool io_stalled = false;
    Conn(TcpSocket s, std::size_t max_body) : sock(std::move(s)), reader(max_body) {}
  };
  mutable Mutex conn_mutex_ SAP_ACQUIRED_BEFORE(mutex_);
  TcpListener listener_;
  std::vector<std::unique_ptr<Conn>> conns_ SAP_GUARDED_BY(conn_mutex_);
  /// party id -> conn index, or kLocalHost for parties hosted here.
  static constexpr std::size_t kLocalHost = static_cast<std::size_t>(-1);
  std::map<proto::PartyId, std::size_t> route_ SAP_GUARDED_BY(conn_mutex_);
  /// Frames for unclaimed ids.
  std::map<proto::PartyId, std::vector<Frame>> pending_ SAP_GUARDED_BY(conn_mutex_);
  /// Body bytes across all of pending_.
  std::size_t pending_bytes_ SAP_GUARDED_BY(conn_mutex_) = 0;
  /// Auto-assigned ids start high: parties claim their ids explicitly, so a
  /// client asking for any id (a misdirected serving client, say) is never
  /// handed a party's id, even when it arrives before that party does.
  std::uint32_t next_auto_id_ SAP_GUARDED_BY(conn_mutex_) = 1u << 20;
  std::size_t live_conns_ SAP_GUARDED_BY(conn_mutex_) = 0;

  // ---- client connection state -----------------------------------------
  TcpSocket socket_;
  Mutex write_mutex_ SAP_ACQUIRED_BEFORE(mutex_);
  SocketAddr peer_addr_;

  std::thread io_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace sap::net

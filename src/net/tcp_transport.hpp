// TcpTransport — a party's exchange link over a real socket.
//
// Topology: one door. The miner daemon's epoll door (net/reactor.hpp)
// routes the exchange; each party process connects a TcpTransport to it
// and hosts its one provider id there. The id is claimed with a
// Hello/Welcome handshake, and every protocol message travels as a kData
// frame (net/frame.hpp) carrying the link-encrypted envelope. The door
// routes frames between parties by destination id and hands the frames
// addressed to the miner to the miner — it observes ciphertext + (from, to,
// kind) and nothing more. Frames for ids nobody claimed yet are parked at
// the door until the owner connects, so parties need no start barrier.
//
// Liveness: sockets have no starvation analysis, so every wait is
// deadline-bound (TcpOptions): connect, the claim handshake, receive(), and
// stalled writes all fail with sap::Error when their deadline expires.
// TCP ordering keeps per-link FIFO delivery. Any kError from the door is
// fatal to the link.
//
// Threading: one background I/O thread demultiplexes the socket into the
// inbox, so peers' frames never back up at the door while the party runs
// LocalOptimize. send()/receive()/try_receive() are safe from any thread.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/mutex.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "protocol/transport.hpp"

namespace sap::net {

struct TcpOptions {
  int connect_timeout_ms = 5000;  ///< TCP connect + claim handshake deadline
  int receive_timeout_ms = 30000; ///< receive() deadline
  int write_timeout_ms = 5000;    ///< per-stall deadline for socket writes
};

class TcpTransport {
 public:
  /// A decrypted message as seen by its addressee.
  using Delivery = proto::Transport::Delivery;

  /// Connect to a door. `session_secret` seeds per-link key derivation
  /// exactly like the in-process network.
  static std::unique_ptr<TcpTransport> connect(const SocketAddr& addr,
                                               std::uint64_t session_secret,
                                               TcpOptions opts = {});

  ~TcpTransport();

  /// Encrypt `payload` for the (from, to) link and write the frame.
  void send(proto::PartyId from, proto::PartyId to, proto::PayloadKind kind,
            std::span<const double> payload);

  /// Blocks until mail arrives for `party` or the receive deadline expires
  /// (sap::Error). Throws immediately when the connection is gone.
  Delivery receive(proto::PartyId party);

  /// Claim a specific party id (kClaimAnyParty = auto-assign). Throws
  /// sap::Error if the door refuses the claim.
  proto::PartyId claim_party(std::uint32_t desired);

  /// Non-throwing receive with an explicit deadline; false on timeout.
  bool try_receive(proto::PartyId party, Delivery& out, int timeout_ms);

  /// Polite shutdown — sends kBye and stops accepting new mail.
  void send_bye();

 private:
  TcpTransport(std::uint64_t session_secret, TcpOptions opts);

  [[nodiscard]] std::uint64_t link_key(proto::PartyId from, proto::PartyId to) const noexcept;

  void io_loop();
  void handle_frame(Frame frame) SAP_EXCLUDES(mutex_);
  void deliver(const Frame& frame) SAP_EXCLUDES(mutex_);
  void fail_all(const std::string& why) SAP_EXCLUDES(mutex_);

  const std::uint64_t session_secret_;
  const TcpOptions opts_;

  // ---- mailbox state (mutex_/cv_) --------------------------------------
  mutable Mutex mutex_;
  mutable CondVar cv_;
  std::map<proto::PartyId, std::deque<proto::Message>> inbox_ SAP_GUARDED_BY(mutex_);
  /// Granted id of the pending claim.
  std::optional<std::uint32_t> welcome_ SAP_GUARDED_BY(mutex_);
  /// Sticky failure (kError / EOF).
  std::string error_ SAP_GUARDED_BY(mutex_);
  bool closed_ SAP_GUARDED_BY(mutex_) = false;
  bool bye_sent_ SAP_GUARDED_BY(mutex_) = false;

  // ---- connection ------------------------------------------------------
  TcpSocket socket_;
  Mutex write_mutex_ SAP_ACQUIRED_BEFORE(mutex_);

  std::thread io_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace sap::net

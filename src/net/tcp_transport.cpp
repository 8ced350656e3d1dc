#include "net/tcp_transport.hpp"

#include <poll.h>

#include <chrono>

#include "common/error.hpp"

namespace sap::net {
namespace {

/// Hub io-loop tick: long enough to be cheap, short enough that stop_ and
/// freshly-registered connections are noticed promptly.
constexpr int kIoTickMs = 20;
/// Frames parked for party ids nobody has claimed yet (clients that are
/// still connecting). Bounded by COUNT per id and by total BYTES across all
/// ids — parking is for setup races, not storage; beyond either cap frames
/// are dropped.
constexpr std::size_t kMaxPendingPerParty = 4096;
constexpr std::size_t kMaxPendingBytes = 64u << 20;

std::vector<std::uint8_t> frame_bytes(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  return bytes;
}

}  // namespace

// ---- construction --------------------------------------------------------

TcpTransport::TcpTransport(Role role, std::uint64_t session_secret, TcpOptions opts)
    : role_(role), session_secret_(session_secret), opts_(opts) {}

std::unique_ptr<TcpTransport> TcpTransport::listen(const SocketAddr& addr,
                                                   std::uint64_t session_secret,
                                                   TcpOptions opts) {
  std::unique_ptr<TcpTransport> t(new TcpTransport(Role::kHub, session_secret, opts));
  t->listener_ = TcpListener::listen(addr);
  t->io_thread_ = std::thread([raw = t.get()] { raw->io_loop_hub(); });
  return t;
}

std::unique_ptr<TcpTransport> TcpTransport::connect(const SocketAddr& addr,
                                                    std::uint64_t session_secret,
                                                    TcpOptions opts) {
  std::unique_ptr<TcpTransport> t(new TcpTransport(Role::kClient, session_secret, opts));
  t->peer_addr_ = addr;
  t->socket_ = TcpSocket::connect(addr, opts.connect_timeout_ms);
  t->io_thread_ = std::thread([raw = t.get()] { raw->io_loop_client(); });
  return t;
}

TcpTransport::~TcpTransport() {
  if (role_ == Role::kClient) {
    try {
      send_bye();
    } catch (...) {
      // best-effort goodbye; the hub treats EOF the same way
    }
  }
  stop_.store(true);
  if (io_thread_.joinable()) io_thread_.join();
  socket_.close();
  listener_.close();
}

std::uint64_t TcpTransport::link_key(proto::PartyId from, proto::PartyId to) const noexcept {
  return proto::detail::derive_link_key(session_secret_, from, to);
}

// ---- party registration --------------------------------------------------

TcpTransport::ClaimOutcome TcpTransport::register_claim_locked(std::uint32_t desired,
                                                               std::size_t owner) {
  ClaimOutcome outcome;
  outcome.id = desired;
  if (outcome.id == kClaimAnyParty) {
    while (route_.count(next_auto_id_)) ++next_auto_id_;
    outcome.id = next_auto_id_;
  }
  if (route_.count(outcome.id)) {
    outcome.conflict = true;
    return outcome;
  }
  route_[outcome.id] = owner;
  if (const auto it = pending_.find(outcome.id); it != pending_.end()) {
    outcome.parked = std::move(it->second);
    for (const Frame& f : outcome.parked) pending_bytes_ -= f.body.size();
    pending_.erase(it);
  }
  return outcome;
}

proto::PartyId TcpTransport::claim_party(std::uint32_t desired) {
  if (role_ == Role::kHub) {
    MutexLock conn_lock(conn_mutex_);
    const auto claim = register_claim_locked(desired, kLocalHost);
    SAP_REQUIRE(!claim.conflict,
                "TcpTransport: party id " + std::to_string(claim.id) + " already claimed");
    const std::uint32_t id = claim.id;
    MutexLock lock(mutex_);
    inbox_.try_emplace(id);
    for (const Frame& f : claim.parked) {
      try {
        deliver_locked(f);
      } catch (const Error&) {
        // Parked frames are adversarial input like any inbound traffic: a
        // malformed body is dropped per-message, it must not throw out of
        // the daemon's startup path.
      }
    }
    cv_.notify_all();
    return id;
  }

  // Client: Hello/Welcome handshake. Claims are serialized by the protocol
  // structure (parties register before any exchange traffic).
  {
    MutexLock lock(mutex_);
    SAP_REQUIRE(!closed_ && error_.empty(), "TcpTransport: connection is down");
    welcome_.reset();
  }
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body = u32_body(desired);
  const auto bytes = frame_bytes(hello);
  {
    MutexLock wlock(write_mutex_);
    socket_.write_all(bytes.data(), bytes.size(), opts_.write_timeout_ms);
  }
  MutexLock lock(mutex_);
  const auto deadline = deadline_after_ms(opts_.connect_timeout_ms);
  bool awake = true;
  while (awake && !welcome_.has_value() && !closed_ && error_.empty())
    awake = cv_.wait_until(lock, deadline);
  SAP_REQUIRE(error_.empty(), "TcpTransport: hub refused claim: " + error_);
  SAP_REQUIRE(welcome_.has_value() && !closed_,
              "TcpTransport: claim handshake timed out or connection closed");
  const proto::PartyId id = *welcome_;
  welcome_.reset();
  inbox_.try_emplace(id);
  return id;
}

// ---- send path -----------------------------------------------------------

void TcpTransport::send(proto::PartyId from, proto::PartyId to, proto::PayloadKind kind,
                        std::span<const double> payload) {
  SAP_REQUIRE(from != to, "TcpTransport::send: self-send is not a protocol step");
  Frame frame;
  frame.type = FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(kind);
  frame.from = from;
  frame.to = to;
  frame.body = envelope_body(proto::EncryptedEnvelope(payload, link_key(from, to)));
  SAP_REQUIRE(frame.body.size() <= kDefaultMaxBody,
              "TcpTransport::send: payload exceeds the frame size cap");
  if (role_ == Role::kHub) {
    hub_dispatch(std::move(frame));
    return;
  }
  const auto bytes = frame_bytes(frame);
  MutexLock wlock(write_mutex_);
  socket_.write_all(bytes.data(), bytes.size(), opts_.write_timeout_ms);
}

// ---- receive path --------------------------------------------------------

TcpTransport::Delivery TcpTransport::receive(proto::PartyId party) {
  Delivery out;
  SAP_REQUIRE(try_receive(party, out, opts_.receive_timeout_ms),
              "TcpTransport::receive: timed out waiting for mail (deadline " +
                  std::to_string(opts_.receive_timeout_ms) + " ms) — peer gone or message "
                  "lost");
  return out;
}

bool TcpTransport::try_receive(proto::PartyId party, Delivery& out, int timeout_ms) {
  MutexLock lock(mutex_);
  const auto it = inbox_.find(party);
  SAP_REQUIRE(it != inbox_.end(), "TcpTransport::receive: party not hosted here");
  auto& box = it->second;
  const auto deadline = deadline_after_ms(timeout_ms);
  bool awake = true;
  while (awake && box.empty() && !closed_ && error_.empty())
    awake = cv_.wait_until(lock, deadline);
  if (box.empty()) {
    SAP_REQUIRE(error_.empty(), "TcpTransport::receive: " + error_);
    SAP_REQUIRE(!closed_, "TcpTransport::receive: connection closed by peer");
    return false;
  }
  proto::Message msg = std::move(box.front());
  box.pop_front();
  lock.unlock();
  out = {msg.from, msg.kind, msg.envelope.open(link_key(msg.from, msg.to))};
  return true;
}

// ---- misc accessors ------------------------------------------------------

SocketAddr TcpTransport::local_addr() const {
  if (role_ == Role::kHub) return listener_.local_addr();
  return peer_addr_;
}

std::size_t TcpTransport::live_connections() const {
  MutexLock lock(conn_mutex_);
  return live_conns_;
}

void TcpTransport::send_bye() {
  if (role_ != Role::kClient || !socket_.valid()) return;
  {
    MutexLock lock(mutex_);
    if (closed_ || bye_sent_) return;
    bye_sent_ = true;
  }
  Frame bye;
  bye.type = FrameType::kBye;
  const auto bytes = frame_bytes(bye);
  MutexLock wlock(write_mutex_);
  socket_.write_all(bytes.data(), bytes.size(), opts_.write_timeout_ms);
}

// ---- delivery ------------------------------------------------------------

void TcpTransport::deliver_locked(const Frame& frame) {
  const auto it = inbox_.find(frame.to);
  if (it == inbox_.end()) return;  // raced with a claim we never made
  proto::Message msg;
  msg.from = frame.from;
  msg.to = frame.to;
  msg.kind = static_cast<proto::PayloadKind>(frame.payload_kind);
  msg.envelope = body_envelope(frame.body);
  it->second.push_back(std::move(msg));
}

void TcpTransport::deliver_local(const Frame& frame) {
  MutexLock lock(mutex_);
  deliver_locked(frame);
  cv_.notify_all();
}

void TcpTransport::fail_all(const std::string& why) {
  MutexLock lock(mutex_);
  if (error_.empty()) error_ = why;
  cv_.notify_all();
}

// ---- client I/O ----------------------------------------------------------

void TcpTransport::client_handle_frame(Frame frame) {
  switch (frame.type) {
    case FrameType::kWelcome: {
      MutexLock lock(mutex_);
      welcome_ = body_u32(frame.body);
      // The hub flushes frames parked for this id right behind the Welcome;
      // the inbox must exist BEFORE this thread processes them, not when
      // the claiming thread eventually wakes up.
      inbox_.try_emplace(*welcome_);
      cv_.notify_all();
      break;
    }
    case FrameType::kError:
      fail_all("hub error: " + body_text(frame.body));
      break;
    case FrameType::kData:
      deliver_local(frame);
      break;
    case FrameType::kBye: {
      MutexLock lock(mutex_);
      closed_ = true;
      cv_.notify_all();
      break;
    }
    case FrameType::kHello:
      fail_all("protocol violation: hub sent Hello");
      break;
  }
}

void TcpTransport::io_loop_client() {
  FrameReader reader;
  std::uint8_t buf[64 * 1024];
  while (!stop_.load()) {
    bool closed = false;
    std::size_t n = 0;
    try {
      n = socket_.read_some(buf, sizeof buf, kIoTickMs, closed);
      if (n > 0) {
        reader.feed(buf, n);
        Frame frame;
        while (reader.next(frame)) client_handle_frame(std::move(frame));
      }
    } catch (const Error& e) {
      fail_all(std::string("wire error: ") + e.what());
      return;
    }
    if (closed) {
      MutexLock lock(mutex_);
      closed_ = true;
      cv_.notify_all();
      return;
    }
  }
}

// ---- hub I/O -------------------------------------------------------------

bool TcpTransport::enqueue_frame_locked(Conn& conn, const Frame& frame) {
  if (!conn.open.load()) return false;
  auto bytes = frame_bytes(frame);
  if (conn.outq_bytes.load() + bytes.size() > kMaxOutqBytes) return false;  // not draining
  conn.outq_bytes.fetch_add(bytes.size());
  conn.outq.push_back(std::move(bytes));
  return true;
}

bool TcpTransport::flush_outq_locked(Conn& conn) {
  if (!conn.open.load()) return false;
  try {
    while (!conn.outq.empty()) {
      const auto& front = conn.outq.front();
      const std::size_t n =
          conn.sock.write_some(front.data() + conn.outq_head, front.size() - conn.outq_head);
      if (n == 0) break;  // kernel buffer full — the io loop resumes on POLLOUT
      conn.outq_head += n;
      conn.outq_bytes.fetch_sub(n);
      conn.flushed_total.fetch_add(n);
      if (conn.outq_head == front.size()) {
        conn.outq.pop_front();
        conn.outq_head = 0;
      }
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

void TcpTransport::mark_conn_closed(Conn* conn) {
  if (!conn->open.exchange(false)) return;  // exactly-once: bye/EOF/write-error race
  {
    MutexLock conn_lock(conn_mutex_);
    --live_conns_;
  }
  cv_.notify_all();
  // The fd itself is closed later by the io thread (or the destructor)
  // under the conn's write_mutex — never here, where an in-flight writer
  // could still hold the descriptor.
}

void TcpTransport::hub_write(std::size_t conn_index, const Frame& frame) {
  Conn* conn;
  {
    MutexLock conn_lock(conn_mutex_);
    conn = conns_[conn_index].get();
  }
  bool ok;
  {
    MutexLock wlock(conn->write_mutex);
    // Enqueue plus an opportunistic nonblocking drain: the common case
    // goes straight to the socket, a full kernel buffer leaves the rest
    // for the io loop's POLLOUT pass — never a blocking wait.
    ok = enqueue_frame_locked(*conn, frame) && flush_outq_locked(*conn);
  }
  if (!ok) mark_conn_closed(conn);
}

void TcpTransport::hub_dispatch(Frame frame) {
  std::size_t dest = kLocalHost;
  bool to_local = false;
  {
    MutexLock conn_lock(conn_mutex_);
    const auto it = route_.find(frame.to);
    if (it == route_.end()) {
      // Unclaimed destination: park (count- AND byte-bounded) until the
      // owner connects.
      auto& parked = pending_[frame.to];
      if (parked.size() < kMaxPendingPerParty &&
          pending_bytes_ + frame.body.size() <= kMaxPendingBytes) {
        pending_bytes_ += frame.body.size();
        parked.push_back(std::move(frame));
      }
      return;
    }
    to_local = it->second == kLocalHost;
    dest = it->second;
  }
  if (to_local) {
    deliver_local(frame);
  } else {
    hub_write(dest, frame);
  }
}

void TcpTransport::hub_handle_frame(std::size_t conn_index, Frame frame) {
  Conn* conn;
  {
    MutexLock conn_lock(conn_mutex_);
    conn = conns_[conn_index].get();
  }
  switch (frame.type) {
    case FrameType::kHello: {
      // Hold this conn's write_mutex across claim registration AND the
      // Welcome/parked-frame flush: a concurrent router either parks
      // (pre-registration, flushed here) or blocks on the write_mutex
      // (post-registration) — either way nothing reaches the client
      // before its Welcome.
      MutexLock wlock(conn->write_mutex);
      ClaimOutcome claim;
      {
        MutexLock conn_lock(conn_mutex_);
        claim = register_claim_locked(body_u32(frame.body), conn_index);
      }
      bool ok;
      if (claim.conflict) {
        Frame err;
        err.type = FrameType::kError;
        err.body = text_body("party id " + std::to_string(claim.id) + " already claimed");
        ok = enqueue_frame_locked(*conn, err);
      } else {
        Frame welcome;
        welcome.type = FrameType::kWelcome;
        welcome.body = u32_body(claim.id);
        ok = enqueue_frame_locked(*conn, welcome);
        for (const Frame& f : claim.parked) ok = ok && enqueue_frame_locked(*conn, f);
      }
      ok = ok && flush_outq_locked(*conn);
      if (!ok) mark_conn_closed(conn);
      break;
    }
    case FrameType::kData: {
      // Anti-spoof: the claimed sender must be hosted by this connection.
      bool spoofed;
      {
        MutexLock conn_lock(conn_mutex_);
        const auto owner = route_.find(frame.from);
        spoofed = owner == route_.end() || owner->second != conn_index;
      }
      if (spoofed) {
        Frame err;
        err.type = FrameType::kError;
        err.body = text_body("data frame from a party this connection does not host");
        hub_write(conn_index, err);
        return;
      }
      hub_dispatch(std::move(frame));
      break;
    }
    case FrameType::kBye:
      mark_conn_closed(conn);
      break;
    case FrameType::kWelcome:
    case FrameType::kError: {
      Frame err;
      err.type = FrameType::kError;
      err.body = text_body("protocol violation: client sent a hub-only frame");
      hub_write(conn_index, err);
      break;
    }
  }
}

void TcpTransport::io_loop_hub() {
  std::uint8_t buf[64 * 1024];
  while (!stop_.load()) {
    // Snapshot the poll set without holding the lock across poll(); close
    // fds of conns that died since the last pass (io thread is the sole
    // reader, and the write_mutex excludes in-flight writers).
    std::vector<pollfd> pfds;
    std::vector<std::pair<std::size_t, Conn*>> polled;
    std::vector<Conn*> dead;
    {
      MutexLock conn_lock(conn_mutex_);
      pfds.push_back({listener_.fd(), POLLIN, 0});
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn* conn = conns_[i].get();
        if (!conn->open.load()) {
          if (conn->sock.valid()) dead.push_back(conn);
          continue;
        }
        const short events =
            static_cast<short>(POLLIN | (conn->outq_bytes.load() > 0 ? POLLOUT : 0));
        pfds.push_back({conn->sock.fd(), events, 0});
        polled.emplace_back(i, conn);
      }
    }
    // Close dead fds OUTSIDE conn_mutex_ (lock order: write_mutex first);
    // free their buffers with them — undeliverable queues AND any
    // half-received frame, so connection churn cannot accumulate memory
    // (only the tiny Conn shells are retained).
    for (Conn* conn : dead) {
      MutexLock wlock(conn->write_mutex);
      conn->sock.close();
      conn->outq.clear();
      conn->outq_bytes.store(0);
      conn->reader.reset();
    }
    const int rc = ::poll(pfds.data(), pfds.size(), kIoTickMs);
    if (rc < 0) continue;

    // New connections.
    if (pfds[0].revents & POLLIN) {
      MutexLock conn_lock(conn_mutex_);
      for (;;) {
        TcpSocket sock = listener_.accept(0);
        if (!sock.valid()) break;
        conns_.push_back(std::make_unique<Conn>(std::move(sock)));
        ++live_conns_;
      }
    }
    // Inbound frames — handled WITHOUT conn_mutex_ held, so routing a
    // frame to a slow client never stalls the other connections.
    for (std::size_t p = 1; p < pfds.size(); ++p) {
      const auto [i, conn] = polled[p - 1];
      if (!conn->open.load()) continue;
      if (pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) {
        bool closed = false;
        try {
          const std::size_t n = conn->sock.read_some(buf, sizeof buf, 0, closed);
          if (n > 0) {
            conn->reader.feed(buf, n);
            Frame frame;
            // A frame can close the connection (kBye) — stop consuming then.
            while (conn->open.load() && conn->reader.next(frame))
              hub_handle_frame(i, std::move(frame));
          }
        } catch (const Error&) {
          // Malformed stream: this connection is unrecoverable.
          closed = true;
        }
        if (closed) {
          mark_conn_closed(conn);
          continue;
        }
      }
      // Drain the outbound queue as the socket allows; disconnect a peer
      // whose queue is nonempty but makes no progress for the write
      // deadline (it stopped reading — the hub must not hold its frames
      // forever).
      if (conn->outq_bytes.load() > 0) {
        if (pfds[p].revents & POLLOUT) {
          MutexLock wlock(conn->write_mutex);
          if (!flush_outq_locked(*conn)) {
            mark_conn_closed(conn);
            continue;
          }
        }
        const std::uint64_t flushed = conn->flushed_total.load();
        if (flushed != conn->io_prev_flushed || conn->outq_bytes.load() == 0) {
          conn->io_prev_flushed = flushed;
          conn->io_stalled = false;
        } else if (!conn->io_stalled) {
          conn->io_stalled = true;
          conn->io_stall_start = std::chrono::steady_clock::now();
        } else if (std::chrono::steady_clock::now() - conn->io_stall_start >
                   std::chrono::milliseconds(opts_.write_timeout_ms)) {
          mark_conn_closed(conn);
        }
      } else {
        conn->io_stalled = false;
      }
    }
  }
}

}  // namespace sap::net

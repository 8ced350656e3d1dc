#include "net/tcp_transport.hpp"

#include "common/error.hpp"

namespace sap::net {
namespace {

/// I/O tick: long enough to be cheap, short enough that stop_ is noticed
/// promptly.
constexpr int kIoTickMs = 20;

std::vector<std::uint8_t> frame_bytes(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  return bytes;
}

}  // namespace

// ---- construction --------------------------------------------------------

TcpTransport::TcpTransport(std::uint64_t session_secret, TcpOptions opts)
    : session_secret_(session_secret), opts_(opts) {}

std::unique_ptr<TcpTransport> TcpTransport::connect(const SocketAddr& addr,
                                                    std::uint64_t session_secret,
                                                    TcpOptions opts) {
  std::unique_ptr<TcpTransport> t(new TcpTransport(session_secret, opts));
  t->socket_ = TcpSocket::connect(addr, opts.connect_timeout_ms);
  t->io_thread_ = std::thread([raw = t.get()] { raw->io_loop(); });
  return t;
}

TcpTransport::~TcpTransport() {
  try {
    send_bye();
  } catch (...) {
    // best-effort goodbye; the door treats EOF the same way
  }
  stop_.store(true);
  if (io_thread_.joinable()) io_thread_.join();
  socket_.close();
}

std::uint64_t TcpTransport::link_key(proto::PartyId from, proto::PartyId to) const noexcept {
  return proto::detail::derive_link_key(session_secret_, from, to);
}

// ---- party registration --------------------------------------------------

proto::PartyId TcpTransport::claim_party(std::uint32_t desired) {
  // Hello/Welcome handshake. Claims are serialized by the protocol
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
  SAP_REQUIRE(error_.empty(), "TcpTransport: claim refused: " + error_);
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

void TcpTransport::send_bye() {
  if (!socket_.valid()) return;
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

void TcpTransport::deliver(const Frame& frame) {
  MutexLock lock(mutex_);
  const auto it = inbox_.find(frame.to);
  if (it == inbox_.end()) return;  // raced with a claim we never made
  proto::Message msg;
  msg.from = frame.from;
  msg.to = frame.to;
  msg.kind = static_cast<proto::PayloadKind>(frame.payload_kind);
  msg.envelope = body_envelope(frame.body);
  it->second.push_back(std::move(msg));
  cv_.notify_all();
}

void TcpTransport::fail_all(const std::string& why) {
  MutexLock lock(mutex_);
  if (error_.empty()) error_ = why;
  cv_.notify_all();
}

// ---- I/O -----------------------------------------------------------------

void TcpTransport::handle_frame(Frame frame) {
  switch (frame.type) {
    case FrameType::kWelcome: {
      MutexLock lock(mutex_);
      welcome_ = body_u32(frame.body);
      // The door flushes frames parked for this id right behind the
      // Welcome; the inbox must exist BEFORE this thread processes them,
      // not when the claiming thread eventually wakes up.
      inbox_.try_emplace(*welcome_);
      cv_.notify_all();
      break;
    }
    case FrameType::kError:
      fail_all("door error: " + body_text(frame.body));
      break;
    case FrameType::kData:
      deliver(frame);
      break;
    case FrameType::kBye: {
      MutexLock lock(mutex_);
      closed_ = true;
      cv_.notify_all();
      break;
    }
    case FrameType::kHello:
      fail_all("protocol violation: door sent Hello");
      break;
  }
}

void TcpTransport::io_loop() {
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
        while (reader.next(frame)) handle_frame(std::move(frame));
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

}  // namespace sap::net

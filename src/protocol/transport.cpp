#include "protocol/transport.hpp"

#include "common/error.hpp"

namespace sap::proto {

Transport::Transport(std::uint64_t session_secret) : session_secret_(session_secret) {}

PartyId Transport::add_party() {
  inboxes_.emplace_back();
  return static_cast<PartyId>(inboxes_.size() - 1);
}

void Transport::set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

void Transport::send(PartyId from, PartyId to, PayloadKind kind,
                     std::span<const double> payload) {
  SAP_REQUIRE(from < party_count() && to < party_count(), "Transport::send: unknown party");
  SAP_REQUIRE(from != to, "Transport::send: self-send is not a protocol step");
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.kind = kind;
  msg.envelope = EncryptedEnvelope(payload, detail::derive_link_key(session_secret_, from, to));
  msg.wire_bytes = msg.envelope.size_doubles() * sizeof(double);
  total_bytes_ += msg.wire_bytes;
  const bool dropped = drop_filter_ && drop_filter_(from, to, kind);
  trace_.push_back(std::move(msg));
  if (dropped) {
    ++dropped_;
  } else {
    inboxes_[to].push_back(trace_.size() - 1);
  }
}

bool Transport::has_mail(PartyId party) const {
  SAP_REQUIRE(party < party_count(), "Transport::has_mail: unknown party");
  return !inboxes_[party].empty();
}

Transport::Delivery Transport::receive(PartyId party) {
  SAP_REQUIRE(party < party_count(), "Transport::receive: unknown party");
  SAP_REQUIRE(!inboxes_[party].empty(), "Transport::receive: empty inbox");
  const std::size_t idx = inboxes_[party].front();
  inboxes_[party].pop_front();
  const Message& msg = trace_[idx];
  return {msg.from, msg.kind,
          msg.envelope.open(detail::derive_link_key(session_secret_, msg.from, msg.to))};
}

std::map<std::pair<PartyId, PartyId>, std::size_t> Transport::link_bytes() const {
  std::map<std::pair<PartyId, PartyId>, std::size_t> bytes;
  for (const Message& msg : trace_) bytes[{msg.from, msg.to}] += msg.wire_bytes;
  return bytes;
}

std::size_t Transport::count_received(PartyId party, PayloadKind kind) const {
  std::size_t count = 0;
  for (const Message& msg : trace_) count += (msg.to == party && msg.kind == kind);
  return count;
}

namespace detail {

std::uint64_t derive_link_key(std::uint64_t session_secret, PartyId from,
                              PartyId to) noexcept {
  std::uint64_t h = session_secret;
  h ^= 0x9E3779B97F4A7C15ULL + (static_cast<std::uint64_t>(from) << 32 | to);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace detail

}  // namespace sap::proto

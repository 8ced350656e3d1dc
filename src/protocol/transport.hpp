// Transport — the in-process encrypted network every SapSession runs over.
//
// The Space Adaptation Protocol only needs five capabilities from its
// channel layer: register parties, send an encrypted payload, test for
// pending mail, receive-and-decrypt, and (for tests) drop injection plus a
// metadata trace. Delivery is synchronous: send() enqueues at once and
// receive() pops the oldest message or throws when the inbox is empty.
// SapSession makes every send and receive from its own thread in role-index
// order, so a run's trace is a pure function of its data and options; party
// concurrency lives in the session's step bodies (session.hpp), not here.
//
// Substitution note (DESIGN.md §2): the paper assumes encrypted channels
// over a real network; here delivery is in-process, but the *information
// flow* is faithful — every payload is encrypted per link, each party can
// only open envelopes addressed to it, and the trace records (from, to,
// kind, bytes) so tests and benches can audit exactly what each role
// observed and what the protocol costs. The concurrent deployment over real
// sockets is net/remote.hpp (DESIGN.md §7).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "protocol/message.hpp"

namespace sap::proto {

/// The one in-process backend. Nothing in the library reads
/// SapOptions::transport; the enum and the field stay because perfbench
/// (src/common.cpp) still assigns the field, and the protocol test suites
/// are instantiated over the enum (tests/protocol_test.cpp,
/// tests/contribute_test.cpp). Both go once the benchmark stops naming them.
enum class TransportKind : std::uint8_t {
  kSimulated = 0,  ///< synchronous in-process delivery (Transport)
};

/// Encrypted in-process channels between dense party ids. All byte/message
/// accounting is in ciphertext terms; payload plaintext never appears in
/// the trace.
class Transport {
 public:
  /// A decrypted message as seen by its addressee.
  struct Delivery {
    PartyId from;
    PayloadKind kind;
    std::vector<double> payload;
  };

  /// Failure injection: messages matching the predicate are dropped
  /// (recorded in the trace, never delivered).
  using DropFilter = std::function<bool(PartyId from, PartyId to, PayloadKind kind)>;

  /// `session_secret` seeds per-link key derivation (models the out-of-band
  /// key exchange the paper assumes).
  explicit Transport(std::uint64_t session_secret);

  /// Register a party; returns its id (dense, starting at 0).
  PartyId add_party();

  [[nodiscard]] std::size_t party_count() const noexcept { return inboxes_.size(); }

  /// Encrypt `payload` for the (from, to) link and enqueue it.
  void send(PartyId from, PartyId to, PayloadKind kind, std::span<const double> payload);

  /// True when `party` has pending messages.
  [[nodiscard]] bool has_mail(PartyId party) const;

  /// Pop the oldest message addressed to `party` and decrypt it. Throws
  /// sap::Error when the inbox is empty.
  Delivery receive(PartyId party);

  /// Drop (silently discard) messages matching the predicate. Dropped
  /// messages still appear in the trace but are never delivered — models
  /// lossy links / crashed parties so tests can verify the protocol detects
  /// incomplete exchanges instead of mining a partial pool.
  void set_drop_filter(DropFilter filter);

  /// Number of messages dropped so far.
  [[nodiscard]] std::size_t dropped_count() const noexcept { return dropped_; }

  /// Complete metadata trace (ciphertext retained, no plaintext).
  [[nodiscard]] const std::vector<Message>& trace() const noexcept { return trace_; }

  /// Total ciphertext bytes sent so far.
  [[nodiscard]] std::size_t total_bytes() const noexcept { return total_bytes_; }

  /// Bytes per (from, to) link — the protocol-cost experiments read this.
  [[nodiscard]] std::map<std::pair<PartyId, PartyId>, std::size_t> link_bytes() const;

  /// Messages of `kind` received by `party` (metadata audit for tests).
  [[nodiscard]] std::size_t count_received(PartyId party, PayloadKind kind) const;

 private:
  std::uint64_t session_secret_;
  std::vector<std::deque<std::size_t>> inboxes_;  // indices into trace_
  std::vector<Message> trace_;
  std::size_t total_bytes_ = 0;
  DropFilter drop_filter_;
  std::size_t dropped_ = 0;
};

namespace detail {
/// Deterministic per-directed-link key derivation from a session secret
/// (SplitMix64 finalizer) — shared by Transport and the TCP deployment.
[[nodiscard]] std::uint64_t derive_link_key(std::uint64_t session_secret, PartyId from,
                                            PartyId to) noexcept;
}  // namespace detail

}  // namespace sap::proto

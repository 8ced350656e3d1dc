// Transport — the protocol layer's messaging seam.
//
// The Space Adaptation Protocol only needs five capabilities from its
// channel layer: register parties, send an encrypted payload, test for
// pending mail, receive-and-decrypt, and (for tests) drop injection plus a
// metadata trace. Transport abstracts exactly that surface so the identical
// protocol code runs over interchangeable backends:
//
//   * SimulatedNetwork      — synchronous, single-threaded, in-process
//                             (network.hpp; the original simulation),
//   * ThreadedLocalTransport — concurrent: mutex+condvar inboxes with one
//                             worker thread per party task
//                             (threaded_transport.hpp).
//
// Backends also own the *execution policy* for per-party work via
// run_parties(): the synchronous backend runs party tasks sequentially in
// order, the threaded backend runs each on its own worker. SapSession
// structures every phase as run_parties() batches with a barrier between a
// send stage and the matching receive stage, so protocol code never needs to
// know which policy is active.
//
// Substitution note (DESIGN.md §2): both in-process backends stand in for
// the encrypted point-to-point channels the paper assumes; the information
// flow — who can open which envelope, what the wire observer sees — is
// faithful in either case.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "protocol/message.hpp"

namespace sap::proto {

/// Built-in transport backends selectable through SapOptions.
enum class TransportKind : std::uint8_t {
  kSimulated = 0,      ///< synchronous in-process delivery (SimulatedNetwork)
  kThreadedLocal = 1,  ///< concurrent in-process delivery (ThreadedLocalTransport)
};

/// Printable backend name for test parameterization and CLI flags.
std::string to_string(TransportKind kind);

/// Abstract encrypted-channel backend. All byte/message accounting is in
/// ciphertext terms; payload plaintext never appears in the trace.
class Transport {
 public:
  virtual ~Transport() = default;

  /// A decrypted message as seen by its addressee.
  struct Delivery {
    PartyId from;
    PayloadKind kind;
    std::vector<double> payload;
  };

  /// Failure injection: messages matching the predicate are dropped
  /// (recorded in the trace, never delivered).
  using DropFilter = std::function<bool(PartyId from, PartyId to, PayloadKind kind)>;

  /// Register a party; returns its id (dense, starting at 0).
  virtual PartyId add_party() = 0;

  [[nodiscard]] virtual std::size_t party_count() const = 0;

  /// Encrypt `payload` for the (from, to) link and enqueue it.
  virtual void send(PartyId from, PartyId to, PayloadKind kind,
                    std::span<const double> payload) = 0;

  /// True when `party` has pending messages. Only meaningful when no sender
  /// for `party` can still be in flight (i.e. between run_parties batches).
  [[nodiscard]] virtual bool has_mail(PartyId party) const = 0;

  /// Pop the oldest message addressed to `party` and decrypt it. Throws
  /// sap::Error when no message is pending and none can still arrive.
  virtual Delivery receive(PartyId party) = 0;

  virtual void set_drop_filter(DropFilter filter) = 0;

  /// Number of messages dropped so far.
  [[nodiscard]] virtual std::size_t dropped_count() const = 0;

  /// Complete metadata trace (ciphertext retained, no plaintext). Call only
  /// while no run_parties() batch is executing.
  [[nodiscard]] virtual const std::vector<Message>& trace() const = 0;

  /// Total ciphertext bytes sent so far.
  [[nodiscard]] virtual std::size_t total_bytes() const = 0;

  /// Execute one task per party. The base implementation runs the tasks
  /// sequentially in index order (the synchronous simulation); concurrent
  /// backends override this to run each task on its own worker. Null tasks
  /// are skipped. The first exception raised by any task is rethrown after
  /// every task has finished.
  virtual void run_parties(std::vector<std::function<void()>> tasks);

  /// True when run_parties() executes tasks concurrently.
  [[nodiscard]] virtual bool concurrent() const noexcept { return false; }

  // ---- trace-derived accounting shared by every backend ----------------

  /// Bytes per (from, to) link — the protocol-cost experiments read this.
  [[nodiscard]] std::map<std::pair<PartyId, PartyId>, std::size_t> link_bytes() const;

  /// Messages of `kind` received by `party` (metadata audit for tests).
  [[nodiscard]] std::size_t count_received(PartyId party, PayloadKind kind) const;
};

/// Construct a backend of the given kind. `session_secret` seeds per-link
/// key derivation (models the out-of-band key exchange the paper assumes).
std::unique_ptr<Transport> make_transport(TransportKind kind, std::uint64_t session_secret);

namespace detail {
/// Deterministic per-directed-link key derivation from a session secret
/// (SplitMix64 finalizer) — shared by every in-process backend.
[[nodiscard]] std::uint64_t derive_link_key(std::uint64_t session_secret, PartyId from,
                                            PartyId to) noexcept;
}  // namespace detail

}  // namespace sap::proto

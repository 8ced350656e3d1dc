#include "protocol/transport.hpp"

#include <exception>

#include "common/error.hpp"
#include "protocol/network.hpp"
#include "protocol/threaded_transport.hpp"

namespace sap::proto {

std::string to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSimulated: return "simulated";
    case TransportKind::kThreadedLocal: return "threaded-local";
  }
  return "unknown";
}

void Transport::run_parties(std::vector<std::function<void()>> tasks) {
  // Sequential policy: tasks run in index order on the calling thread. The
  // protocol orders its batches so every receive happens after the batch
  // that produced the mail, which this policy preserves trivially.
  std::exception_ptr first_error;
  for (auto& task : tasks) {
    if (!task) continue;
    try {
      task();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::map<std::pair<PartyId, PartyId>, std::size_t> Transport::link_bytes() const {
  std::map<std::pair<PartyId, PartyId>, std::size_t> bytes;
  for (const Message& msg : trace()) bytes[{msg.from, msg.to}] += msg.wire_bytes;
  return bytes;
}

std::size_t Transport::count_received(PartyId party, PayloadKind kind) const {
  std::size_t count = 0;
  for (const Message& msg : trace()) count += (msg.to == party && msg.kind == kind);
  return count;
}

std::unique_ptr<Transport> make_transport(TransportKind kind, std::uint64_t session_secret) {
  switch (kind) {
    case TransportKind::kSimulated:
      return std::make_unique<SimulatedNetwork>(session_secret);
    case TransportKind::kThreadedLocal:
      return std::make_unique<ThreadedLocalTransport>(session_secret);
  }
  SAP_FAIL("make_transport: unknown transport kind");
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

// Per-role protocol computations, shared verbatim by the in-process
// SapSession and the cross-process net:: drivers (MinerDaemon/PartyClient).
//
// A logical SAP run is a pure function of (provider shards, SapOptions) —
// the same math has to produce bit-identical results whether every party
// lives in one process (SapSession over an in-process Transport) or each
// party is its own OS process talking TCP (sap::net). These helpers are the
// single home of that math: each one reproduces exactly the draws and
// floating-point operations of the corresponding SapSession phase task, and
// SapSession itself calls them, so the two deployments cannot drift apart.
//
// RNG discipline: derive_session_seeds() reproduces the session's engine
// derivation (master -> session secret -> one engine per provider -> the
// coordinator engine) from the master seed alone, so any process that knows
// the seed and its party index can regenerate its own private stream without
// any in-band seed exchange.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"
#include "protocol/message.hpp"
#include "protocol/session.hpp"
#include "rng/rng.hpp"

namespace sap::proto::logic {

/// The session-wide RNG material every process derives from the master seed.
struct SessionSeeds {
  std::uint64_t session_secret = 0;        ///< per-link key derivation input
  std::vector<rng::Engine> provider_eng;   ///< one private stream per provider
  rng::Engine coordinator_eng{0};          ///< target space, tau, shuffle
};
[[nodiscard]] SessionSeeds derive_session_seeds(std::uint64_t seed, std::size_t k);

/// Phase 1 (per provider): locally optimized perturbation, privacy bound,
/// and the provider's protocol nonce. Exactly the LocalOptimize task.
struct LocalPerturbation {
  perturb::GeometricPerturbation g;
  double rho = 0.0;
  double bound = 0.0;
  std::uint64_t nonce = 0;
};
[[nodiscard]] LocalPerturbation optimize_local(const linalg::Matrix& x_dxn, std::size_t dims,
                                               const SapOptions& opts, rng::Engine& eng);

/// Phase 2 (coordinator): the noise-free target space G_t.
[[nodiscard]] perturb::GeometricPerturbation make_target_space(std::size_t dims,
                                                               rng::Engine& coord_eng);

/// Phase 3 (coordinator): tau with the coordinator redirect, as provider
/// *indices* (party ids are dense by protocol construction).
struct ExchangePlan {
  std::vector<std::size_t> receiver_of_source;  ///< source index -> receiver index
  std::vector<std::uint32_t> inbound;           ///< receiver index -> peer datasets expected
};
[[nodiscard]] ExchangePlan make_exchange_plan(std::size_t k, rng::Engine& coord_eng);

/// Phase 3 (provider): reject a routing notice no exchange plan over k
/// parties can produce. make_exchange_plan only routes to receivers in
/// [0, k-2] — never the coordinator — and a receiver gets at most two
/// peer datasets: its position's own source plus the redirected one.
/// Throws sap::Error naming the notice.
void check_routing_notice(const RoutingNotice& notice, std::size_t k);

/// [nonce, body...] — the tagging shared by perturbed-data and adaptor wires
/// (and, through encode_contribution, contributions).
[[nodiscard]] std::vector<double> tagged_wire(std::uint64_t nonce,
                                              std::span<const double> body);

/// A tagged wire split into its checked nonce and a view of its body (valid
/// while `payload` is). Throws sap::Error on an empty payload or a nonce
/// that is not an integer below the double-exact bound.
struct Untagged {
  std::uint64_t nonce = 0;
  std::span<const double> body;
};
[[nodiscard]] Untagged untag(std::span<const double> payload);

/// Phase 5 (coordinator): unbiased in-place shuffle of the adaptor sequence
/// so wire order carries no source information. Exactly the session's loop.
void shuffle_entries(std::vector<std::vector<double>>& entries, rng::Engine& coord_eng);

/// Phase 6 (miner): pool the forwarded shards in canonical nonce order
/// through their matching adaptors. Throws sap::Error unless exactly k
/// shards and k adaptors pair up.
struct MinerShard {
  std::uint64_t nonce = 0;
  PartyId forwarder = 0;  ///< audit only; the miner never maps it to a source
  DecodedDataset data;
};
struct UnifiedPool {
  data::Dataset pool;  ///< N x d rows, canonical nonce order
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors;
  std::vector<std::pair<std::uint64_t, PartyId>> forwarder_of_nonce;
};
[[nodiscard]] UnifiedPool unify_pool(
    std::vector<MinerShard> received,
    std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors, std::size_t k);

/// Adapt one post-exchange contribution into the target space; the caller
/// appends the result to the live pool. Throws on dimension mismatch.
[[nodiscard]] data::Dataset adapt_contribution(const DecodedContribution& contribution,
                                               const perturb::SpaceAdaptor& adaptor,
                                               std::size_t dims);

/// Final accounting (party-side knowledge only). Exactly the session's
/// per-party accounting task, including its conditional engine draws.
[[nodiscard]] PartyReport account_party(const linalg::Matrix& x, const linalg::Matrix& y,
                                        const perturb::SpaceAdaptor& adaptor, PartyId id,
                                        double rho, double bound, std::size_t k,
                                        const SapOptions& opts, rng::Engine& eng);

}  // namespace sap::proto::logic

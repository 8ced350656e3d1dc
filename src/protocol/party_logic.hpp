// The exchange's three roles (paper §3) — providers, the coordinator
// (provider k-1) and the miner — each written once, as a list of steps
// beside the per-role math they run.
//
// A step names the mail it consumes (expects(): kind, count and the senders
// allowed to send it) and returns the sends it makes (run()). It does no I/O
// and holds no clock. SapSession runs the steps in process (session.hpp);
// PartyClient and MinerDaemon run one role each over a door
// (net/remote.hpp). No step reads mail sent in its own step.
//
// The sender rule: only the coordinator sends the target space, the routing
// notices and the adaptor sequence; any provider sends perturbed data;
// providers 0..k-2 send adaptors to the coordinator and forward shards to
// the miner; only the miner sends the serving-started notice.
//
// RNG discipline: derive_session_seeds() reproduces the session's engine
// derivation (master -> session secret -> one engine per provider -> the
// coordinator engine) from the master seed alone, so every process
// regenerates its own private stream without an in-band seed exchange.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "optimize/optimizer.hpp"
#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"
#include "protocol/message.hpp"
#include "protocol/transport.hpp"
#include "rng/rng.hpp"

namespace sap::proto {

struct SapOptions {
  /// Common noise level Delta shared by all parties (paper §3).
  double noise_sigma = 0.1;
  /// Locally optimize G_i (paper default). false → random G_i, the
  /// baseline of Figure 2.
  bool optimize_local = true;
  /// Randomized-optimizer configuration (also supplies the attack suite
  /// used for rho / satisfaction accounting). `optimizer.threads` sizes the
  /// per-party LocalOptimize scoring pool, nested inside the session's
  /// one-worker-per-role pool; results are bit-identical for any thread
  /// count (optimizer.hpp), so it is purely a latency knob.
  opt::OptimizerOptions optimizer{};
  /// Extra optimization runs per party used to estimate the bound b_i
  /// (>= 1; the paper estimates b empirically as a max over runs).
  std::size_t bound_runs = 2;
  /// Evaluate satisfaction s_i = rho^G_i / rho_i (costs one attack-suite
  /// evaluation per party; disable for pure cost benches).
  bool compute_satisfaction = true;
  /// Master seed: a run is bit-for-bit reproducible given options + data,
  /// for any thread counts (the miner pools shards in a canonical order).
  std::uint64_t seed = 0x5A9;
  /// Unused by the library: there is one in-process backend. Kept because
  /// perfbench and the protocol tests assign it (see TransportKind);
  /// deleted with the enum.
  TransportKind transport = TransportKind::kSimulated;
  /// Worker threads for the session's MiningEngine (0 = serve batches
  /// inline; the engine's reports are thread-count-invariant either way).
  std::size_t mining_threads = 0;

  /// Cheap preset for unit tests (few candidates, no refinement).
  static SapOptions fast();
};

/// Per-provider accounting, all in the paper's notation.
struct PartyReport {
  PartyId id = 0;
  double local_rho = 0.0;        ///< rho_i
  double bound = 0.0;            ///< b-hat_i
  double unified_rho = 0.0;      ///< rho^G_i (privacy in the target space)
  double satisfaction = 0.0;     ///< s_i = rho^G_i / rho_i (capped at b_i/rho_i)
  double identifiability = 0.0;  ///< pi_i = 1/(k-1)
  double risk_breach = 0.0;      ///< eq. (1), miner's view
  double risk_sap = 0.0;         ///< eq. (2), overall
};

namespace logic {

/// The session-wide RNG material every process derives from the master seed.
struct SessionSeeds {
  std::uint64_t session_secret = 0;        ///< per-link key derivation input
  std::vector<rng::Engine> provider_eng;   ///< one private stream per provider
  rng::Engine coordinator_eng{0};          ///< target space, tau, shuffle
};
[[nodiscard]] SessionSeeds derive_session_seeds(std::uint64_t seed, std::size_t k);

/// LocalOptimize (per provider): locally optimized perturbation, privacy
/// bound, and the provider's protocol nonce.
struct LocalPerturbation {
  perturb::GeometricPerturbation g;
  double rho = 0.0;
  double bound = 0.0;
  std::uint64_t nonce = 0;
};
[[nodiscard]] LocalPerturbation optimize_local(const linalg::Matrix& x_dxn, std::size_t dims,
                                               const SapOptions& opts, rng::Engine& eng);

/// The coordinator's noise-free target space G_t.
[[nodiscard]] perturb::GeometricPerturbation make_target_space(std::size_t dims,
                                                               rng::Engine& coord_eng);

/// The coordinator's tau with its redirect, as provider *indices* (party
/// ids are dense by protocol construction).
struct ExchangePlan {
  std::vector<std::size_t> receiver_of_source;  ///< source index -> receiver index
  std::vector<std::uint32_t> inbound;           ///< receiver index -> peer datasets expected
};
[[nodiscard]] ExchangePlan make_exchange_plan(std::size_t k, rng::Engine& coord_eng);

/// Reject a routing notice no exchange plan over k parties can produce.
/// make_exchange_plan only routes to receivers in [0, k-2] — never the
/// coordinator — and a receiver gets at most two peer datasets: its
/// position's own source plus the redirected one. Throws sap::Error naming
/// the notice.
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

/// The miner's pooling: the forwarded shards in canonical nonce order, each
/// through its matching adaptor. Throws sap::Error unless k shards with
/// distinct nonces pair up with k adaptors.
struct MinerShard {
  std::uint64_t nonce = 0;
  PartyId forwarder = 0;  ///< audit only; the miner never maps it to a source
  DecodedDataset data;
};
struct UnifiedPool {
  data::Dataset pool;  ///< N x d rows, canonical nonce order
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors;
  /// One per shard, in pool order: how the pool splits back into per-nonce
  /// segments, and who forwarded each (audit only).
  struct Segment {
    std::uint64_t nonce = 0;
    PartyId forwarder = 0;
    std::size_t records = 0;
  };
  std::vector<Segment> segments;
};
[[nodiscard]] UnifiedPool unify_pool(
    std::vector<MinerShard> received,
    std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors, std::size_t k);

/// Adapt one post-exchange contribution into the target space; the caller
/// appends the result to the live pool. Throws on dimension mismatch.
[[nodiscard]] data::Dataset adapt_contribution(const DecodedContribution& contribution,
                                               const perturb::SpaceAdaptor& adaptor,
                                               std::size_t dims);

/// Final accounting (party-side knowledge only), including its conditional
/// engine draws.
[[nodiscard]] PartyReport account_party(const linalg::Matrix& x, const linalg::Matrix& y,
                                        const perturb::SpaceAdaptor& adaptor, PartyId id,
                                        double rho, double bound, std::size_t k,
                                        const SapOptions& opts, rng::Engine& eng);

// ---- the step lists --------------------------------------------------------

/// The exchange's steps in execution order (DESIGN.md §3).
enum class Step : std::uint8_t {
  kLocalOptimize,  ///< S0: every provider runs LocalOptimize
  kTarget,         ///< S1: the coordinator sends G_t to providers 0..k-2
  kRouting,        ///< S2: the coordinator draws tau, sends the routing notices
  kPerturb,        ///< S3: providers take both setup messages, perturb, send Y_i (or hold it)
  kForward,        ///< S4: non-coordinators forward held, then inbound, shards to the miner
  kAdaptor,        ///< S5: non-coordinators send their adaptor; the coordinator computes its own
  kAlign,          ///< S6: the coordinator collects k-1 adaptors, shuffles, sends k to the miner
  kUnify,          ///< S7: the miner pairs by nonce and unifies; providers account
};
inline constexpr std::array<Step, 8> kSteps = {
    Step::kLocalOptimize, Step::kTarget,  Step::kRouting, Step::kPerturb,
    Step::kForward,       Step::kAdaptor, Step::kAlign,   Step::kUnify};
[[nodiscard]] std::string to_string(Step step);

/// A delivered message, as its addressee sees it.
using Mail = Transport::Delivery;

/// One message a step sends.
struct Send {
  PartyId to = 0;
  PayloadKind kind{};
  std::vector<double> payload;
};

/// The party ids [first, last) allowed to send an expected message.
struct Senders {
  PartyId first = 0;
  PartyId last = 0;
  [[nodiscard]] bool contains(PartyId id) const noexcept { return id >= first && id < last; }
};

/// Mail a step consumes: `count` messages of `kind`, each from `from`.
struct Expect {
  PayloadKind kind{};
  std::size_t count = 0;
  Senders from;
};

/// One step's mail as it arrives: drivers offer() every delivery and run
/// the step on take() once complete().
class Mailbag {
 public:
  explicit Mailbag(std::vector<Expect> expects) : wanted_(std::move(expects)) {}

  enum class Fit : std::uint8_t {
    kTaken,        ///< filed (and moved from)
    kWrongSender,  ///< the step expects the kind, but not from this sender
    kUnexpected,   ///< not expected now: mail for a later step, or a surplus
  };
  Fit offer(Mail& mail);

  [[nodiscard]] bool complete() const noexcept;
  /// What is still missing, for errors: "1 routing-notice from party 2".
  [[nodiscard]] std::string missing() const;
  /// The filed mail, in arrival order.
  [[nodiscard]] std::vector<Mail> take() noexcept { return std::move(mail_); }

 private:
  std::vector<Expect> wanted_;  ///< counts still expected
  std::vector<Mail> mail_;
};

/// One role's step list.
class Role {
 public:
  virtual ~Role() = default;
  /// The mail `step` consumes, given what earlier steps received.
  [[nodiscard]] virtual std::vector<Expect> expects(Step step) const = 0;
  /// Run `step` on exactly the mail expects(step) named; returns its sends.
  virtual std::vector<Send> run(Step step, std::vector<Mail> mail) = 0;
};

/// Provider DP_index over its private shard; provider k-1 is also the
/// coordinator. Throws sap::Error unless k >= 3, index < k and the shard
/// holds at least 8 records.
class Provider final : public Role {
 public:
  Provider(std::size_t index, std::size_t k, const data::Dataset& shard, const SapOptions& opts,
           const SessionSeeds& seeds);

  [[nodiscard]] std::vector<Expect> expects(Step step) const override;
  std::vector<Send> run(Step step, std::vector<Mail> mail) override;

  /// The door's serving-started notice, sent by the miner alone once it
  /// has installed the pool; it follows the exchange and is no step of it.
  [[nodiscard]] Expect serving_started() const;

  /// A contribution batch (N x d rows) perturbed as the shard was: G_i with
  /// fresh noise from the provider's own stream.
  [[nodiscard]] linalg::Matrix perturb_batch(const data::Dataset& batch);

  [[nodiscard]] std::size_t dims() const noexcept { return x_.rows(); }
  [[nodiscard]] const LocalPerturbation& local() const noexcept { return local_; }
  [[nodiscard]] const perturb::GeometricPerturbation& target() const noexcept { return target_; }
  [[nodiscard]] const PartyReport& report() const noexcept { return report_; }
  /// The coordinator's plan (audit only; empty at other providers).
  [[nodiscard]] const ExchangePlan& plan() const noexcept { return plan_; }

 private:
  [[nodiscard]] bool coordinator() const noexcept { return id_ + 1 == k_; }
  void take_notice(const RoutingNotice& notice);

  PartyId id_ = 0;
  std::size_t k_ = 0;
  linalg::Matrix x_;  ///< d x N original (normalized) data
  std::vector<int> labels_;
  SapOptions opts_;
  rng::Engine eng_{0};
  rng::Engine coord_eng_{0};  ///< drawn from by the coordinator alone
  LocalPerturbation local_;
  perturb::GeometricPerturbation target_;
  ExchangePlan plan_;
  RoutingNotice notice_;       ///< where Y_i goes, how many shards come in
  linalg::Matrix y_;           ///< the perturbed shard as shipped
  std::vector<double> held_;   ///< Y_i's wire when tau kept it here
  perturb::SpaceAdaptor adaptor_;
  PartyReport report_;
};

/// The miner: it consumes mail only at kUnify, where it pairs the k
/// forwarded shards with the k aligned adaptors by nonce and pools them.
class Miner final : public Role {
 public:
  explicit Miner(std::size_t k) : k_(k) {}

  [[nodiscard]] std::vector<Expect> expects(Step step) const override;
  std::vector<Send> run(Step step, std::vector<Mail> mail) override;

  /// The pool kUnify built (moved out).
  [[nodiscard]] UnifiedPool take_pool() noexcept { return std::move(pool_); }

 private:
  std::size_t k_ = 0;
  UnifiedPool pool_;
};

}  // namespace logic
}  // namespace sap::proto

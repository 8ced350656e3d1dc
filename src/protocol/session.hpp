// SapSession — the Space Adaptation Protocol (paper §3) as a phase-explicit
// state machine over the in-process Transport.
//
// Roles (all in-process over one Transport, which enforces and records the
// information flow):
//   * k data providers DP_0 .. DP_{k-1}; DP_{k-1} doubles as the
//     *coordinator* (the paper's DP_k),
//   * one mining service provider (SP / "the miner").
//
// Phases (each individually observable via phase() / phase_log()). The two
// that send no messages — LocalOptimize and the per-party accounting at the
// end of AdaptorAlignment — run on a pool with one worker per provider;
// every send and receive happens on the session's thread in provider-index
// order, so the trace and the pool are the same on every run:
//
//   LocalOptimize        every provider locally optimizes its perturbation
//                        G_i : (R_i, t_i) with the common noise level sigma;
//   TargetDistribution   the coordinator selects a random *noise-free*
//                        target space G_t and distributes it (encrypted);
//   PermutationExchange  the coordinator samples a permutation tau and
//                        redirects its own slot to a random non-coordinator
//                        provider — the coordinator must never receive data
//                        because it later holds the space adaptors, which
//                        would let it undo any perturbation it saw;
//   PerturbAndForward    providers perturb (Y_i = R_i X_i + Psi_i + Delta_i)
//                        and send Y_i to their assigned peer; peers forward
//                        everything to the miner — source identifiability
//                        drops to 1/(k-1);
//   AdaptorAlignment     providers send their space adaptor A_it to the
//                        coordinator, which aligns adaptors with forwarders
//                        via tau and ships the aligned sequence to the miner;
//   Mine                 the miner applies each adaptor to the matching
//                        dataset, pools every record in the unified target
//                        space, and serves mining jobs.
//
// Mine is a *serving* state, not a single shot: once the exchange has run,
// the session's MiningEngine (mining_engine.hpp) serves any number of
// parameterized mining requests against the pooled unified space without
// redoing the exchange — concurrently, with fitted models cached per (job,
// params) and extended incrementally across pool epochs. mine_named() is a
// thin single-request wrapper that additionally broadcasts the job's model
// report to every provider; engine() exposes the batched serving surface
// directly (no broadcasts). Jobs are named JobSpecs (jobs.hpp); register
// new ones through engine().registry().
//
// Contribute (the streaming extension, DESIGN.md §6): after the exchange,
// any provider can keep submitting perturbed record batches — contribute()
// perturbs with the provider's already-optimized G_i and ships a
// kContribution message to the miner, which maps the batch into the unified
// space by REUSING the space adaptor negotiated in the initial exchange (no
// re-run of LocalOptimize/Exchange, no new information to the miner beyond
// pool growth) and appends it to the engine's epoch-scoped live pool.
// Serving stays available during ingest: in-flight mining requests finish
// against the pool epoch they started on, and cached models refit
// incrementally where the classifier supports partial_fit. A rejected
// contribution (unknown nonce, dimension mismatch, dropped message) throws
// but leaves the pool untouched and the session serviceable.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "optimize/optimizer.hpp"
#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/risk.hpp"
#include "protocol/transport.hpp"

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
  /// one-worker-per-provider pool; results are bit-identical for any thread
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
  /// Cache fitted models in the engine (per job, params and pool-epoch).
  bool cache_models = true;

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

struct SapResult {
  /// Miner's pooled dataset in the unified target space (N x d rows).
  data::Dataset unified;
  /// Target space parameters (provider-side knowledge; needed to transform
  /// test data into the mining space — never shipped to the miner).
  perturb::GeometricPerturbation target_space;
  std::vector<PartyReport> parties;

  // ---- cost statistics (from the transport trace)
  std::size_t messages = 0;
  std::size_t total_bytes = 0;

  // ---- audit-only ground truth (invisible to the simulated miner; used by
  //      tests to verify the anonymity mechanics)
  std::vector<PartyId> audit_receiver_of;   ///< provider i's data went to this peer
  std::vector<PartyId> audit_forwarder_of;  ///< and reached the miner via this peer
};

/// Protocol phases in execution order. kMine is terminal: the session stays
/// there serving mining jobs against the pooled unified space.
enum class SessionPhase : std::uint8_t {
  kLocalOptimize = 0,
  kTargetDistribution = 1,
  kPermutationExchange = 2,
  kPerturbAndForward = 3,
  kAdaptorAlignment = 4,
  kMine = 5,
};

/// Printable phase name for logs and tests.
std::string to_string(SessionPhase phase);

class SapSession {
 public:
  /// One dataset per provider (>= 3 providers: with fewer than two
  /// non-coordinator providers the exchange cannot anonymize anything).
  /// All datasets must share dimensionality and be pre-normalized.
  SapSession(std::vector<data::Dataset> provider_data, SapOptions opts);

  SapSession(const SapSession&) = delete;
  SapSession& operator=(const SapSession&) = delete;

  // ---- phase stepping --------------------------------------------------

  /// Contract checks run by the constructor: >= 3 providers, equal
  /// dimensionality, >= 8 records each, valid options. Throws sap::Error on
  /// violation.
  static void validate(const std::vector<data::Dataset>& provider_data,
                       const SapOptions& opts);

  /// The next phase advance() would execute; kMine once the exchange is
  /// complete and the unified pool is available.
  [[nodiscard]] SessionPhase phase() const noexcept { return phase_; }

  /// True once a phase has thrown: partially-executed exchange state cannot
  /// be resumed, so every later advance()/mine() refuses to run. Construct
  /// a fresh session to retry.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Execute the current phase and move to the next. No-op at kMine.
  /// If the phase throws, the session is poisoned (see failed()).
  void advance();

  /// advance() until phase() == target.
  void run_until(SessionPhase target);

  /// Convenience single-shot: run every phase, then mine().
  SapResult run();

  // ---- mining (served by the engine over the pooled unified space) ------

  /// The unified pool and the exchange's accounting, without serving a
  /// job. Implicitly completes outstanding phases.
  SapResult mine();

  /// Serve one request from the engine's job registry (seeded with the
  /// built-in jobs; see jobs.hpp), optionally parameterized, and broadcast
  /// its report. Throws sap::Error for unknown names or invalid params.
  SapResult mine_named(const std::string& job_name, const JobParams& params = {});

  /// Names in the engine's registry, sorted.
  [[nodiscard]] std::vector<std::string> job_names() const;

  /// Direct access to the mining engine (batched, concurrent, cached
  /// serving — no per-request broadcasts). Implicitly completes outstanding
  /// phases so the pool is installed. See mining_engine.hpp.
  [[nodiscard]] MiningEngine& engine();

  // ---- Contribute phase (streaming ingest into the live pool) ----------

  /// What the miner acknowledges after accepting a contribution.
  struct ContributionReceipt {
    std::uint64_t pool_epoch = 0;   ///< engine pool epoch after the append
    std::size_t pool_records = 0;   ///< unified pool size after the append
  };

  /// Provider `provider_index` contributes `batch` (records in its own
  /// original normalized space, N x d rows like every Dataset): the provider
  /// perturbs it with its negotiated G_i (fresh noise), ships it to the
  /// miner as kContribution, and the miner unifies it with the adaptor from
  /// the initial exchange and appends it to the live pool. Implicitly
  /// completes outstanding phases. Throws sap::Error on a malformed or
  /// undeliverable contribution — the pool is left untouched and the
  /// session keeps serving. Contribute calls must not overlap each other
  /// (engine requests may run concurrently; see MiningEngine).
  ContributionReceipt contribute(std::size_t provider_index, const data::Dataset& batch);

  /// Wire-level variant: submit an already-perturbed d x m batch under an
  /// explicit nonce via provider `via_provider`'s link. This is the actual
  /// deployment surface (contributions are identified by nonce, not by
  /// link) and the fault-modeling hook: an unknown nonce models a party
  /// outside the exchange and is rejected by the miner.
  ContributionReceipt contribute_raw(std::size_t via_provider, std::uint64_t nonce,
                                     const linalg::Matrix& y_dxm,
                                     std::span<const int> labels);

  // ---- observability ---------------------------------------------------

  /// Per-executed-phase timing and cumulative transport cost.
  struct PhaseStats {
    SessionPhase phase = SessionPhase::kLocalOptimize;
    double millis = 0.0;
    std::size_t messages = 0;     ///< cumulative trace size after the phase
    std::size_t total_bytes = 0;  ///< cumulative ciphertext bytes after the phase
  };
  [[nodiscard]] const std::vector<PhaseStats>& phase_log() const noexcept {
    return phase_log_;
  }

  /// The transport carrying this session (trace, cost and drop accounting).
  [[nodiscard]] const Transport& transport() const noexcept { return transport_; }

  /// Failure injection for tests/benches: messages matching the filter are
  /// dropped by the transport. The protocol must detect the incomplete
  /// exchange and throw sap::Error rather than mine a partial pool
  /// (DESIGN.md §4 invariant 3).
  void inject_faults(Transport::DropFilter filter);

  [[nodiscard]] std::size_t provider_count() const noexcept { return ps_.size(); }

  /// Audit-only: provider i's exchange nonce (its protocol-level identity
  /// for contributions). Tests use this to forge wire-accurate Contribute
  /// traffic; a real deployment's party holds only its own nonce.
  [[nodiscard]] std::uint64_t provider_nonce(std::size_t provider_index) const;

 private:
  /// Simulation container for one provider's private state; nothing outside
  /// the owning party's steps reads an entry except through the transport.
  struct ProviderState {
    linalg::Matrix x;  // d x N original (normalized) data
    std::vector<int> labels;
    perturb::GeometricPerturbation g;
    double rho = 0.0;
    double bound = 0.0;
    linalg::Matrix y;  // perturbed data actually shipped
    perturb::GeometricPerturbation target;  // G_t as received
    perturb::SpaceAdaptor adaptor;
    std::uint64_t nonce = 0;
    PartyId send_to = 0;
    std::uint32_t inbound = 0;  // peer datasets to expect (from routing notice)
    rng::Engine eng{0};
  };

  void run_phase(SessionPhase executing);
  void run_local_optimize();
  void run_target_distribution();
  void run_permutation_exchange();
  void run_perturb_and_forward();
  void run_adaptor_alignment();
  void run_unify_and_account();

  /// Shared mine()/mine_named() tail: assemble the SapResult, broadcast
  /// `report` as kModelReport when asked, snapshot transport costs.
  SapResult finish_mine(const std::vector<double>& report, bool broadcast);

  std::size_t dims_ = 0;
  SapOptions opts_;
  Transport transport_{0};  // re-keyed from the session secret on construction
  std::vector<PartyId> provider_id_;
  PartyId coordinator_ = 0;
  PartyId miner_ = 0;
  std::vector<ProviderState> ps_;
  rng::Engine coord_eng_{0};

  SessionPhase phase_ = SessionPhase::kLocalOptimize;
  bool failed_ = false;
  std::vector<PhaseStats> phase_log_;

  perturb::GeometricPerturbation g_t_;
  std::vector<PartyId> receiver_of_source_;
  std::vector<std::vector<std::vector<double>>> self_held_;
  /// Miner-side state retained for the Contribute phase: the adaptor
  /// negotiated per contributor nonce (the miner's only knowledge of a
  /// source, exactly as in the initial exchange).
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> miner_adaptors_;

  std::vector<PartyReport> reports_;
  std::vector<PartyId> audit_receiver_of_;
  std::vector<PartyId> audit_forwarder_of_;

  /// Serves the Mine state; owns the unified pool once the exchange is done.
  MiningEngine engine_;
};

}  // namespace sap::proto

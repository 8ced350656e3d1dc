// SapSession — the Space Adaptation Protocol (paper §3) in one process: the
// in-process driver of the role steps in protocol/party_logic.hpp.
//
// Roles, all over one Transport that enforces and records the information
// flow: providers DP_0 .. DP_{k-1}, where DP_{k-1} doubles as the
// *coordinator* (the paper's DP_k), and the miner (party id k).
//
// The driver runs step s of every role before step s + 1: it takes each
// role's expected mail from its inbox, runs the step bodies on a pool with
// one worker per role, and delivers their sends in role-index order, so the
// trace is a pure function of data and options. Mail missing when a step
// expects it will never come, so it throws sap::Error at once; mail a step
// does not expect, or from a sender it does not allow, is an invariant
// violation. The phases group the steps (DESIGN.md §3). Mine is a serving
// state: the session's MiningEngine (mining_engine.hpp) serves any number
// of mining requests against the pool without redoing the exchange;
// mine_named() serves one and broadcasts its report to every provider,
// engine() serves batches directly.
//
// Contribute (DESIGN.md §6): after the exchange a provider perturbs a batch
// with its negotiated G_i and ships it to the miner as kContribution; the
// miner maps it into the unified space with the adaptor negotiated for the
// provider's nonce and appends it to the live pool. A rejected contribution
// throws but leaves the pool untouched.
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/party_logic.hpp"
#include "protocol/risk.hpp"

namespace sap::proto {

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

  [[nodiscard]] std::size_t provider_count() const noexcept { return providers_.size(); }

  /// Audit-only: provider i's exchange nonce (its protocol-level identity
  /// for contributions). Tests use this to forge wire-accurate Contribute
  /// traffic; a real deployment's party holds only its own nonce.
  [[nodiscard]] std::uint64_t provider_nonce(std::size_t provider_index) const;

 private:
  /// Run every role's part of `step` (see the header comment).
  void run_step(logic::Step step, ThreadPool& party_pool);
  /// Take the mail `expects` names from `party`'s inbox.
  std::vector<logic::Mail> take_mail(PartyId party, logic::Step step,
                                     std::vector<logic::Expect> expects);
  /// After kUnify: install the miner's pool and keep its adaptors.
  void install_pool();
  [[nodiscard]] PartyId miner_id() const noexcept {
    return static_cast<PartyId>(providers_.size());
  }

  /// Shared mine()/mine_named() tail: assemble the SapResult, broadcast
  /// `report` as kModelReport when asked, snapshot transport costs.
  SapResult finish_mine(const std::vector<double>& report, bool broadcast);

  std::size_t dims_ = 0;
  SapOptions opts_;
  Transport transport_{0};  // re-keyed from the session secret on construction
  /// The roles; each reads nothing of another but its mail.
  std::vector<logic::Provider> providers_;
  logic::Miner miner_;
  std::vector<logic::Role*> roles_;  ///< providers_ in index order, then miner_
  std::size_t next_step_ = 0;  ///< index into logic::kSteps

  SessionPhase phase_ = SessionPhase::kLocalOptimize;
  bool failed_ = false;
  std::vector<PhaseStats> phase_log_;

  /// Miner-side state retained for the Contribute phase: the adaptor
  /// negotiated per contributor nonce (the miner's only knowledge of a
  /// source, exactly as in the initial exchange).
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> miner_adaptors_;
  std::vector<PartyId> audit_forwarder_of_;

  /// Serves the Mine state; owns the unified pool once the exchange is done.
  MiningEngine engine_;
};

}  // namespace sap::proto

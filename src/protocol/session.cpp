#include "protocol/session.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace sap::proto {

std::string to_string(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kLocalOptimize: return "local-optimize";
    case SessionPhase::kTargetDistribution: return "target-distribution";
    case SessionPhase::kPermutationExchange: return "permutation-exchange";
    case SessionPhase::kPerturbAndForward: return "perturb-and-forward";
    case SessionPhase::kAdaptorAlignment: return "adaptor-alignment";
    case SessionPhase::kMine: return "mine";
  }
  return "unknown";
}

void SapSession::validate(const std::vector<data::Dataset>& provider_data,
                          const SapOptions& opts) {
  SAP_REQUIRE(provider_data.size() >= 3,
              "SapSession: need at least 3 providers (2 non-coordinator peers)");
  const std::size_t d = provider_data.front().dims();
  for (const auto& ds : provider_data) {
    SAP_REQUIRE(ds.dims() == d, "SapSession: providers disagree on dimensionality");
    SAP_REQUIRE(ds.size() >= 8, "SapSession: provider dataset too small (need >= 8 records)");
  }
  SAP_REQUIRE(opts.bound_runs >= 1, "SapSession: bound_runs must be >= 1");
  SAP_REQUIRE(opts.noise_sigma >= 0.0, "SapSession: noise_sigma must be non-negative");
}

SapSession::SapSession(std::vector<data::Dataset> provider_data, SapOptions opts)
    : opts_(opts),
      miner_(provider_data.size()),
      engine_({.threads = opts.mining_threads,
               .shards = 1,
               .layout = proto::ShardLayout::kHashMod,
               .owned = {}}) {
  validate(provider_data, opts_);
  dims_ = provider_data.front().dims();

  const std::size_t k = provider_data.size();
  const auto seeds = logic::derive_session_seeds(opts_.seed, k);
  transport_ = Transport(seeds.session_secret);
  // Party ids are dense: providers 0..k-1, then the miner k.
  for (std::size_t id = 0; id <= k; ++id) (void)transport_.add_party();
  providers_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) providers_.emplace_back(i, k, provider_data[i], opts_, seeds);
  for (auto& provider : providers_) roles_.push_back(&provider);
  roles_.push_back(&miner_);
}

void SapSession::inject_faults(Transport::DropFilter filter) {
  transport_.set_drop_filter(std::move(filter));
}

void SapSession::advance() {
  SAP_REQUIRE(!failed_,
              "SapSession: a phase failed; the partially-executed exchange cannot be "
              "resumed — construct a new session");
  if (phase_ == SessionPhase::kMine) return;
  const SessionPhase executing = phase_;
  // The last step each phase runs (DESIGN.md §3).
  static constexpr logic::Step kLastStep[] = {logic::Step::kLocalOptimize, logic::Step::kTarget,
                                              logic::Step::kRouting, logic::Step::kForward,
                                              logic::Step::kUnify};
  const auto last = static_cast<std::size_t>(kLastStep[static_cast<std::size_t>(executing)]);
  Stopwatch sw;
  try {
    ThreadPool party_pool(roles_.size());  // one worker per role
    while (next_step_ <= last) run_step(logic::kSteps[next_step_++], party_pool);
    if (executing == SessionPhase::kAdaptorAlignment) install_pool();
  } catch (...) {
    failed_ = true;
    throw;
  }
  phase_ = static_cast<SessionPhase>(static_cast<std::size_t>(executing) + 1);
  phase_log_.push_back({executing, sw.millis(), transport_.trace().size(),
                        transport_.total_bytes()});
}

void SapSession::run_until(SessionPhase target) {
  while (static_cast<int>(phase_) < static_cast<int>(target)) advance();
}

SapResult SapSession::run() { return mine(); }

void SapSession::run_step(logic::Step step, ThreadPool& party_pool) {
  const std::size_t roles = roles_.size();
  // Every role's mail first: no step reads mail sent in its own step.
  std::vector<std::vector<logic::Mail>> mail(roles);
  for (std::size_t r = 0; r < roles; ++r)
    mail[r] = take_mail(static_cast<PartyId>(r), step, roles_[r]->expects(step));
  // Each body touches only its own role; the lowest-index error wins, so a
  // failing run fails the same way on every schedule.
  std::vector<std::vector<logic::Send>> sends(roles);
  std::vector<std::exception_ptr> errors(roles);
  party_pool.run_indexed(roles, [&](std::size_t r) {
    try {
      sends[r] = roles_[r]->run(step, std::move(mail[r]));
    } catch (...) {
      errors[r] = std::current_exception();
    }
  });
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  for (std::size_t r = 0; r < roles; ++r)
    for (const auto& send : sends[r])
      transport_.send(static_cast<PartyId>(r), send.to, send.kind, send.payload);
}

std::vector<logic::Mail> SapSession::take_mail(PartyId party, logic::Step step,
                                               std::vector<logic::Expect> expects) {
  if (expects.empty()) return {};
  logic::Mailbag bag(std::move(expects));
  while (transport_.has_mail(party)) {
    auto mail = transport_.receive(party);
    SAP_REQUIRE(bag.offer(mail) == logic::Mailbag::Fit::kTaken,
                "SapSession invariant violated: party " + std::to_string(party) + " got " +
                    to_string(mail.kind) + " from party " + std::to_string(mail.from) +
                    " at step " + logic::to_string(step));
  }
  SAP_REQUIRE(bag.complete(), "SapSession: party " + std::to_string(party) + " at step " +
                                  logic::to_string(step) + " is missing " + bag.missing() +
                                  " (dropped message?)");
  return bag.take();
}

void SapSession::install_pool() {
  auto unified = miner_.take_pool();
  audit_forwarder_of_.clear();
  for (const auto& provider : providers_) {
    const auto it = std::find_if(unified.segments.begin(), unified.segments.end(),
                                 [&](const auto& s) { return s.nonce == provider.local().nonce; });
    SAP_REQUIRE(it != unified.segments.end(), "SapSession: audit lost a dataset");
    audit_forwarder_of_.push_back(it->forwarder);
  }
  // The Contribute path reuses the negotiated adaptors per nonce.
  miner_adaptors_ = std::move(unified.adaptors);
  engine_.set_pool(std::move(unified.pool));
}

// ---------------- mining (served by the engine) ---------------------------

SapResult SapSession::finish_mine(const std::vector<double>& report, bool broadcast) {
  SapResult result;
  result.unified = engine_.pool();
  result.target_space = providers_.back().target();
  for (const auto& provider : providers_) result.parties.push_back(provider.report());
  for (const std::size_t receiver : providers_.back().plan().receiver_of_source)
    result.audit_receiver_of.push_back(static_cast<PartyId>(receiver));
  result.audit_forwarder_of = audit_forwarder_of_;

  if (broadcast) {
    for (PartyId id = 0; id < miner_id(); ++id)
      transport_.send(miner_id(), id, PayloadKind::kModelReport, report);
    // Providers drain their report (best effort: a dropped report degrades
    // service but must not corrupt the protocol result).
    for (PartyId id = 0; id < miner_id(); ++id)
      while (transport_.has_mail(id)) (void)transport_.receive(id);
  }

  result.messages = transport_.trace().size();
  result.total_bytes = transport_.total_bytes();
  return result;
}

SapResult SapSession::mine() {
  run_until(SessionPhase::kMine);
  return finish_mine({}, /*broadcast=*/false);
}

SapResult SapSession::mine_named(const std::string& job_name, const JobParams& params) {
  // Fail fast: reject an unknown name or invalid params BEFORE paying for
  // any outstanding exchange phases.
  (void)engine_.registry().find(job_name).resolve_params(params);
  run_until(SessionPhase::kMine);
  const auto response = engine_.run({job_name, params});
  return finish_mine(response.values, /*broadcast=*/true);
}

std::vector<std::string> SapSession::job_names() const { return engine_.registry().names(); }

MiningEngine& SapSession::engine() {
  run_until(SessionPhase::kMine);
  return engine_;
}

std::uint64_t SapSession::provider_nonce(std::size_t provider_index) const {
  SAP_REQUIRE(provider_index < providers_.size(), "SapSession::provider_nonce: unknown provider");
  return providers_[provider_index].local().nonce;
}

// ---------------- Contribute phase (streaming ingest) ---------------------

SapSession::ContributionReceipt SapSession::contribute(std::size_t provider_index,
                                                       const data::Dataset& batch) {
  SAP_REQUIRE(provider_index < providers_.size(), "SapSession::contribute: unknown provider");
  SAP_REQUIRE(batch.size() >= 1, "SapSession::contribute: empty batch");
  SAP_REQUIRE(batch.dims() == dims_, "SapSession::contribute: dimension mismatch");
  run_until(SessionPhase::kMine);
  auto& provider = providers_[provider_index];
  const linalg::Matrix y = provider.perturb_batch(batch);
  return contribute_raw(provider_index, provider.local().nonce, y, batch.labels());
}

SapSession::ContributionReceipt SapSession::contribute_raw(std::size_t via_provider,
                                                           std::uint64_t nonce,
                                                           const linalg::Matrix& y_dxm,
                                                           std::span<const int> labels) {
  SAP_REQUIRE(via_provider < providers_.size(), "SapSession::contribute_raw: unknown provider");
  run_until(SessionPhase::kMine);
  const auto wire = encode_contribution(nonce, y_dxm, labels);

  // The contributor sends, the miner ingests. A dropped contribution leaves
  // the miner's inbox empty, so receive() throws at once. Ingest failures of
  // any kind leave the pool untouched, so the session keeps serving the
  // previous epoch.
  transport_.send(static_cast<PartyId>(via_provider), miner_id(), PayloadKind::kContribution,
                  wire);
  const auto msg = transport_.receive(miner_id());
  SAP_REQUIRE(msg.kind == PayloadKind::kContribution,
              "SapSession: miner expected a contribution");
  const auto contribution = decode_contribution(msg.payload);
  const auto it = std::find_if(miner_adaptors_.begin(), miner_adaptors_.end(),
                               [&](const auto& a) { return a.first == contribution.nonce; });
  SAP_REQUIRE(it != miner_adaptors_.end(),
              "SapSession: contribution from unknown party (no adaptor for nonce)");
  const data::Dataset appended = logic::adapt_contribution(contribution, it->second, dims_);
  ContributionReceipt receipt;
  receipt.pool_epoch = engine_.append_records(appended);
  receipt.pool_records = engine_.pool_view().data->size();
  return receipt;
}

}  // namespace sap::proto

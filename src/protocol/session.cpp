#include "protocol/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "protocol/party_logic.hpp"

namespace sap::proto {

SapOptions SapOptions::fast() {
  SapOptions o;
  o.optimizer.candidates = 4;
  o.optimizer.refine_steps = 2;
  o.optimizer.max_eval_records = 80;
  o.optimizer.attacks.ica = false;  // naive + known-input: cheap and sufficient for tests
  o.optimizer.attacks.known_inputs = 3;
  o.bound_runs = 1;
  return o;
}

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
      engine_({.threads = opts.mining_threads,
               .cache_models = opts.cache_models,
               .shards = 1,
               .layout = proto::ShardLayout::kHashMod,
               .owned = {}}) {
  validate(provider_data, opts_);
  dims_ = provider_data.front().dims();

  const std::size_t k = provider_data.size();
  auto seeds = logic::derive_session_seeds(opts_.seed, k);
  transport_ = Transport(seeds.session_secret);

  provider_id_.resize(k);
  for (std::size_t i = 0; i < k; ++i) provider_id_[i] = transport_.add_party();
  coordinator_ = provider_id_[k - 1];
  miner_ = transport_.add_party();

  ps_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    ps_[i].x = provider_data[i].features_T();
    ps_[i].labels = provider_data[i].labels();
    ps_[i].eng = seeds.provider_eng[i];
  }
  coord_eng_ = seeds.coordinator_eng;
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
  Stopwatch sw;
  try {
    run_phase(executing);
  } catch (...) {
    failed_ = true;
    throw;
  }
  phase_log_.push_back({executing, sw.millis(), transport_.trace().size(),
                        transport_.total_bytes()});
}

void SapSession::run_phase(SessionPhase executing) {
  switch (executing) {
    case SessionPhase::kLocalOptimize:
      run_local_optimize();
      phase_ = SessionPhase::kTargetDistribution;
      break;
    case SessionPhase::kTargetDistribution:
      run_target_distribution();
      phase_ = SessionPhase::kPermutationExchange;
      break;
    case SessionPhase::kPermutationExchange:
      run_permutation_exchange();
      phase_ = SessionPhase::kPerturbAndForward;
      break;
    case SessionPhase::kPerturbAndForward:
      run_perturb_and_forward();
      phase_ = SessionPhase::kAdaptorAlignment;
      break;
    case SessionPhase::kAdaptorAlignment:
      run_adaptor_alignment();
      run_unify_and_account();
      phase_ = SessionPhase::kMine;
      break;
    case SessionPhase::kMine:
      break;
  }
}

void SapSession::run_until(SessionPhase target) {
  while (static_cast<int>(phase_) < static_cast<int>(target)) advance();
}

SapResult SapSession::run() { return mine(); }

// ---------------- phase 1: local perturbation optimization ---------------

void SapSession::run_local_optimize() {
  // Compute only, so every provider runs on its own worker: each touches
  // nothing but ps_[i], and the results do not depend on the schedule.
  const std::size_t k = ps_.size();
  ThreadPool(k).run_indexed(k, [this](std::size_t i) {
    auto& p = ps_[i];
    auto local = logic::optimize_local(p.x, dims_, opts_, p.eng);
    p.g = std::move(local.g);
    p.rho = local.rho;
    p.bound = local.bound;
    p.nonce = local.nonce;
  });
}

// ---------------- phase 2: coordinator selects the noise-free target ------

void SapSession::run_target_distribution() {
  const std::size_t k = ps_.size();
  g_t_ = logic::make_target_space(dims_, coord_eng_);
  const auto target_wire = encode_target_space(g_t_.rotation(), g_t_.translation());
  for (std::size_t i = 0; i + 1 < k; ++i)
    transport_.send(coordinator_, provider_id_[i], PayloadKind::kTargetSpace, target_wire);
  ps_[k - 1].target = g_t_;  // the coordinator knows its own choice
}

// ---------------- phase 3: permutation with coordinator redirect ----------

void SapSession::run_permutation_exchange() {
  const std::size_t k = ps_.size();
  // provider_id_ values are dense 0..k-1 by construction, so the plan's
  // provider indices map straight onto party ids. Self-assignments stay
  // local; see the exchange phase.
  const auto plan = logic::make_exchange_plan(k, coord_eng_);
  receiver_of_source_.assign(k, 0);
  for (std::size_t source = 0; source < k; ++source)
    receiver_of_source_[source] = provider_id_[plan.receiver_of_source[source]];
  for (std::size_t i = 0; i + 1 < k; ++i)
    transport_.send(coordinator_, provider_id_[i], PayloadKind::kRoutingNotice,
                    encode_routing(receiver_of_source_[i], plan.inbound[i]));
  ps_[k - 1].send_to = receiver_of_source_[k - 1];
  ps_[k - 1].inbound = plan.inbound[k - 1];  // 0 by construction (coordinator redirect)

  // Providers drain target-space + routing notices; a provider that did not
  // receive BOTH must abort the round (a dropped setup message would
  // otherwise silently misroute its data).
  for (std::size_t i = 0; i + 1 < k; ++i) {
    bool got_target = false;
    bool got_routing = false;
    while (transport_.has_mail(provider_id_[i])) {
      const auto msg = transport_.receive(provider_id_[i]);
      switch (msg.kind) {
        case PayloadKind::kTargetSpace: {
          const auto ts = decode_target_space(msg.payload);
          ps_[i].target = perturb::GeometricPerturbation(ts.r, ts.t, 0.0);
          got_target = true;
          break;
        }
        case PayloadKind::kRoutingNotice: {
          const auto notice = decode_routing(msg.payload);
          logic::check_routing_notice(notice, k);
          ps_[i].send_to = notice.receiver;
          ps_[i].inbound = notice.inbound;
          got_routing = true;
          break;
        }
        default:
          SAP_FAIL("SapSession: unexpected message kind in setup phase");
      }
    }
    SAP_REQUIRE(got_target && got_routing,
                "SapSession: provider missed setup messages (lossy network?) — aborting");
  }
}

// ---------------- phase 4: perturb and exchange ---------------------------

void SapSession::run_perturb_and_forward() {
  const std::size_t k = ps_.size();
  // tau may map a provider to itself; in that case the dataset simply stays
  // put (no wire message) and the provider forwards its own perturbed data —
  // the miner cannot distinguish this case, so pi_i = 1/(k-1) still holds.
  self_held_.assign(k, {});
  for (std::size_t i = 0; i < k; ++i) {
    auto& p = ps_[i];
    p.y = p.g.apply(p.x, p.eng);
    auto wire = logic::tagged_wire(p.nonce, encode_dataset(p.y, p.labels));
    if (p.send_to == provider_id_[i]) {
      self_held_[i].push_back(std::move(wire));
    } else {
      transport_.send(provider_id_[i], p.send_to, PayloadKind::kPerturbedData, wire);
    }
  }

  // Peers forward everything they received (or held) to the miner. Each
  // provider knows exactly how many peer datasets to expect from its routing
  // notice, so a dropped exchange message is detected here.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    for (const auto& wire : self_held_[i])
      transport_.send(provider_id_[i], miner_, PayloadKind::kForwardedData, wire);
    for (std::uint32_t n = 0; n < ps_[i].inbound; ++n) {
      SAP_REQUIRE(transport_.has_mail(provider_id_[i]),
                  "SapSession: missing perturbed dataset (dropped message?)");
      const auto msg = transport_.receive(provider_id_[i]);
      SAP_REQUIRE(msg.kind == PayloadKind::kPerturbedData,
                  "SapSession: unexpected message kind in exchange phase");
      transport_.send(provider_id_[i], miner_, PayloadKind::kForwardedData, msg.payload);
    }
  }

  SAP_REQUIRE(self_held_[k - 1].empty(),
              "SapSession invariant violated: coordinator assigned as receiver");
  SAP_REQUIRE(!transport_.has_mail(coordinator_),
              "SapSession invariant violated: coordinator received a dataset");
}

// ---------------- phase 5: adaptors to the coordinator, aligned to miner --

void SapSession::run_adaptor_alignment() {
  const std::size_t k = ps_.size();
  for (std::size_t i = 0; i < k; ++i) {
    auto& p = ps_[i];
    p.adaptor = perturb::SpaceAdaptor::between(p.g, p.target);
    if (provider_id_[i] != coordinator_) {
      transport_.send(provider_id_[i], coordinator_, PayloadKind::kSpaceAdaptor,
                      logic::tagged_wire(p.nonce, p.adaptor.serialize()));
    }
  }

  // Coordinator collects (nonce, adaptor) pairs — its own included — and
  // ships the sequence to the miner. It never learns more than it already
  // knows (it generated tau), and the miner learns nothing about sources.
  std::vector<std::vector<double>> entries;
  while (transport_.has_mail(coordinator_)) {
    const auto msg = transport_.receive(coordinator_);
    SAP_REQUIRE(msg.kind == PayloadKind::kSpaceAdaptor,
                "SapSession: coordinator expected only adaptors");
    entries.push_back(msg.payload);
  }
  SAP_REQUIRE(entries.size() == k - 1,
              "SapSession: coordinator missing space adaptors (dropped message?)");
  entries.push_back(logic::tagged_wire(ps_[k - 1].nonce, ps_[k - 1].adaptor.serialize()));
  // Shuffle so the wire order itself carries no information about provider
  // identity.
  logic::shuffle_entries(entries, coord_eng_);
  for (const auto& e : entries)
    transport_.send(coordinator_, miner_, PayloadKind::kAdaptorSequence, e);
}

// ---------------- phase 6 (entry): the miner unifies; accounting ----------

void SapSession::run_unify_and_account() {
  const std::size_t k = ps_.size();

  std::vector<logic::MinerShard> received;
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors;
  while (transport_.has_mail(miner_)) {
    const auto msg = transport_.receive(miner_);
    const auto [nonce, body] = logic::untag(msg.payload);
    if (msg.kind == PayloadKind::kForwardedData) {
      received.push_back({nonce, msg.from, decode_dataset(body)});
    } else if (msg.kind == PayloadKind::kAdaptorSequence) {
      adaptors.emplace_back(nonce, perturb::SpaceAdaptor::deserialize(body));
    } else {
      SAP_FAIL("SapSession: unexpected message kind at miner");
    }
  }
  auto unified = logic::unify_pool(std::move(received), std::move(adaptors), k);
  // miner_adaptors_ kept beyond this phase: the Contribute path reuses the
  // negotiated adaptors per nonce.
  miner_adaptors_ = std::move(unified.adaptors);
  engine_.set_pool(std::move(unified.pool));

  audit_receiver_of_ = receiver_of_source_;
  audit_forwarder_of_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto it = std::find_if(unified.forwarder_of_nonce.begin(),
                                 unified.forwarder_of_nonce.end(),
                                 [&](const auto& f) { return f.first == ps_[i].nonce; });
    SAP_REQUIRE(it != unified.forwarder_of_nonce.end(), "SapSession: audit lost a dataset");
    audit_forwarder_of_[i] = it->second;
  }

  // Accounting (party-side knowledge only: each provider knows X_i, G_i,
  // G_t and can score its own exposure). The satisfaction evaluation is the
  // expensive part and sends nothing, so it runs on the party pool too.
  reports_.assign(k, PartyReport{});
  ThreadPool(k).run_indexed(k, [this, k](std::size_t i) {
    auto& p = ps_[i];
    reports_[i] = logic::account_party(p.x, p.y, p.adaptor, provider_id_[i], p.rho, p.bound,
                                       k, opts_, p.eng);
  });
}

// ---------------- mining (served by the engine) ---------------------------

SapResult SapSession::finish_mine(const std::vector<double>& report, bool broadcast) {
  SapResult result;
  result.unified = engine_.pool();
  result.target_space = g_t_;
  result.parties = reports_;
  result.audit_receiver_of = audit_receiver_of_;
  result.audit_forwarder_of = audit_forwarder_of_;

  if (broadcast) {
    for (const PartyId id : provider_id_)
      transport_.send(miner_, id, PayloadKind::kModelReport, report);
    // Providers drain their report (best effort: a dropped report degrades
    // service but must not corrupt the protocol result).
    for (const PartyId id : provider_id_)
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
  SAP_REQUIRE(provider_index < ps_.size(), "SapSession::provider_nonce: unknown provider");
  return ps_[provider_index].nonce;
}

// ---------------- Contribute phase (streaming ingest) ---------------------

SapSession::ContributionReceipt SapSession::contribute(std::size_t provider_index,
                                                       const data::Dataset& batch) {
  SAP_REQUIRE(provider_index < ps_.size(), "SapSession::contribute: unknown provider");
  SAP_REQUIRE(batch.size() >= 1, "SapSession::contribute: empty batch");
  SAP_REQUIRE(batch.dims() == dims_, "SapSession::contribute: dimension mismatch");
  run_until(SessionPhase::kMine);
  auto& p = ps_[provider_index];
  // Same perturbation, fresh noise: the batch leaves the provider exactly as
  // the initial shard did (Y = G_i(X)), drawn from the provider's own
  // deterministic stream so runs are reproducible.
  const linalg::Matrix y = p.g.apply(batch.features_T(), p.eng);
  return contribute_raw(provider_index, p.nonce, y, batch.labels());
}

SapSession::ContributionReceipt SapSession::contribute_raw(std::size_t via_provider,
                                                           std::uint64_t nonce,
                                                           const linalg::Matrix& y_dxm,
                                                           std::span<const int> labels) {
  SAP_REQUIRE(via_provider < ps_.size(), "SapSession::contribute_raw: unknown provider");
  run_until(SessionPhase::kMine);
  const auto wire = encode_contribution(nonce, y_dxm, labels);

  // The contributor sends, the miner ingests. A dropped contribution leaves
  // the miner's inbox empty, so receive() throws at once. Ingest failures of
  // any kind leave the pool untouched, so the session keeps serving the
  // previous epoch.
  transport_.send(provider_id_[via_provider], miner_, PayloadKind::kContribution, wire);
  const auto msg = transport_.receive(miner_);
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

#include "protocol/party_logic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/wire.hpp"
#include "optimize/optimizer.hpp"
#include "privacy/attacks.hpp"
#include "protocol/risk.hpp"

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

namespace logic {
namespace {

/// Joint column subsample of an (original, transformed) pair so the privacy
/// metric compares the same records on both sides.
void joint_subsample(const linalg::Matrix& x, const linalg::Matrix& y,
                     std::size_t max_records, rng::Engine& eng, linalg::Matrix& x_out,
                     linalg::Matrix& y_out) {
  if (x.cols() <= max_records) {
    x_out = x;
    y_out = y;
    return;
  }
  const auto idx = eng.sample_without_replacement(x.cols(), max_records);
  x_out = linalg::Matrix(x.rows(), max_records);
  y_out = linalg::Matrix(y.rows(), max_records);
  for (std::size_t j = 0; j < max_records; ++j) {
    const linalg::Vector xc = x.col(idx[j]);
    const linalg::Vector yc = y.col(idx[j]);
    x_out.set_col(j, xc);
    y_out.set_col(j, yc);
  }
}

/// Unbiased in-place shuffle of the adaptor sequence, so wire order
/// carries no source information.
void shuffle_entries(std::vector<std::vector<double>>& entries, rng::Engine& coord_eng) {
  for (std::size_t i = entries.size(); i > 1; --i)
    std::swap(entries[i - 1], entries[coord_eng.uniform_index(i)]);
}

std::string to_string(Senders senders) {
  if (senders.last == senders.first + 1) return "party " + std::to_string(senders.first);
  return "parties " + std::to_string(senders.first) + ".." + std::to_string(senders.last - 1);
}

}  // namespace

SessionSeeds derive_session_seeds(std::uint64_t seed, std::size_t k) {
  rng::Engine master(seed);
  SessionSeeds seeds;
  seeds.session_secret = master();
  seeds.provider_eng.reserve(k);
  for (std::size_t i = 0; i < k; ++i) seeds.provider_eng.push_back(master.spawn());
  seeds.coordinator_eng = master.spawn();
  return seeds;
}

LocalPerturbation optimize_local(const linalg::Matrix& x_dxn, std::size_t dims,
                                 const SapOptions& opts, rng::Engine& eng) {
  LocalPerturbation out;
  auto opt_opts = opts.optimizer;
  opt_opts.noise_sigma = opts.noise_sigma;  // common noise component
  if (opts.optimize_local) {
    // One scoring pool shared by the main run and every bound run (results
    // are thread-count-invariant, so opt_opts.threads is purely a speed
    // knob here — see optimizer.hpp's determinism contract).
    ThreadPool pool(opt_opts.threads);
    opt::OptimizationResult first = opt::optimize_perturbation(x_dxn, opt_opts, eng, pool);
    out.g = first.best;
    out.rho = first.best_rho;
    out.bound = first.best_rho;
    for (std::size_t r = 1; r < opts.bound_runs; ++r) {
      const auto extra = opt::optimize_perturbation(x_dxn, opt_opts, eng, pool);
      out.bound = std::max(out.bound, extra.best_rho);
    }
  } else {
    out.g = perturb::GeometricPerturbation::random(dims, opts.noise_sigma, eng);
    out.rho = opt::evaluate_perturbation(x_dxn, out.g, opt_opts.attacks,
                                         opt_opts.max_eval_records, eng);
    out.bound = out.rho;
    for (std::size_t r = 1; r < opts.bound_runs; ++r) {
      const auto probe = perturb::GeometricPerturbation::random(dims, opts.noise_sigma, eng);
      out.bound = std::max(out.bound, opt::evaluate_perturbation(x_dxn, probe, opt_opts.attacks,
                                                                 opt_opts.max_eval_records,
                                                                 eng));
    }
  }
  out.nonce = eng() >> 32;  // 32-bit nonce, exactly representable as double
  return out;
}

perturb::GeometricPerturbation make_target_space(std::size_t dims, rng::Engine& coord_eng) {
  return perturb::GeometricPerturbation::random(dims, /*noise_sigma=*/0.0, coord_eng);
}

ExchangePlan make_exchange_plan(std::size_t k, rng::Engine& coord_eng) {
  const auto tau = coord_eng.permutation(k);
  const std::size_t redirect = coord_eng.uniform_index(k - 1);
  ExchangePlan plan;
  plan.receiver_of_source.assign(k, 0);
  for (std::size_t pos = 0; pos < k; ++pos) {
    const std::size_t source = tau[pos];
    plan.receiver_of_source[source] = (pos == k - 1) ? redirect : pos;
  }
  plan.inbound.assign(k, 0);
  for (std::size_t source = 0; source < k; ++source) {
    if (plan.receiver_of_source[source] != source) ++plan.inbound[plan.receiver_of_source[source]];
  }
  return plan;
}

void check_routing_notice(const RoutingNotice& notice, std::size_t k) {
  SAP_REQUIRE(std::size_t{notice.receiver} + 2 <= k && notice.inbound <= 2,
              "routing notice (receiver " + std::to_string(notice.receiver) + ", inbound " +
                  std::to_string(notice.inbound) + ") is not one an exchange plan over " +
                  std::to_string(k) + " parties can produce");
}

std::vector<double> tagged_wire(std::uint64_t nonce, std::span<const double> body) {
  wire::Writer w("tagged_wire", 1 + body.size());
  w.u64(nonce, "nonce");
  w.block(body);
  return w.take();
}

Untagged untag(std::span<const double> payload) {
  wire::Reader in(payload, "untag");
  const std::uint64_t nonce = in.u64("nonce");
  return {nonce, in.rest()};
}

UnifiedPool unify_pool(std::vector<MinerShard> received,
                       std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors,
                       std::size_t k) {
  SAP_REQUIRE(received.size() == k && adaptors.size() == k,
              "unify_pool: the miner did not receive k datasets and k adaptors");

  // Canonical pooling order: sort by nonce so the unified dataset is
  // bit-identical in one process and over TCP (where the miner sees
  // arrivals in network order). Nonces are per-run random values and carry
  // no source information the adaptor matching does not already use.
  std::sort(received.begin(), received.end(),
            [](const MinerShard& a, const MinerShard& b) { return a.nonce < b.nonce; });

  linalg::Matrix unified_features;  // d x N_total, built incrementally
  std::vector<int> unified_labels;
  UnifiedPool out;
  for (const auto& rec : received) {
    // k distinct shard nonces each with an adaptor leave no adaptor unpaired.
    SAP_REQUIRE(out.segments.empty() || out.segments.back().nonce != rec.nonce,
                "unify_pool: two shards share a nonce");
    const auto it = std::find_if(adaptors.begin(), adaptors.end(),
                                 [&](const auto& a) { return a.first == rec.nonce; });
    SAP_REQUIRE(it != adaptors.end(), "unify_pool: no adaptor for a received dataset");
    linalg::Matrix in_target = it->second.apply(rec.data.features);
    unified_features = unified_features.empty()
                           ? std::move(in_target)
                           : linalg::Matrix::hcat(unified_features, in_target);
    unified_labels.insert(unified_labels.end(), rec.data.labels.begin(),
                          rec.data.labels.end());
    out.segments.push_back({rec.nonce, rec.forwarder, rec.data.labels.size()});
  }
  out.pool = data::Dataset("sap-unified", unified_features.transpose(),
                           std::move(unified_labels));
  out.adaptors = std::move(adaptors);
  return out;
}

data::Dataset adapt_contribution(const DecodedContribution& contribution,
                                 const perturb::SpaceAdaptor& adaptor, std::size_t dims) {
  SAP_REQUIRE(contribution.data.features.rows() == dims,
              "SapSession: contribution dimension mismatch");
  const linalg::Matrix in_target = adaptor.apply(contribution.data.features);
  return data::Dataset("sap-unified", in_target.transpose(), contribution.data.labels);
}

PartyReport account_party(const linalg::Matrix& x, const linalg::Matrix& y,
                          const perturb::SpaceAdaptor& adaptor, PartyId id, double rho,
                          double bound, std::size_t k, const SapOptions& opts,
                          rng::Engine& eng) {
  const double pi = 1.0 / static_cast<double>(k - 1);
  PartyReport report;
  report.id = id;
  report.local_rho = rho;
  report.bound = std::max(bound, rho);
  report.identifiability = pi;

  if (opts.compute_satisfaction && rho > 0.0) {
    const privacy::AttackSuite suite(opts.optimizer.attacks);
    const linalg::Matrix y_in_target = adaptor.apply(y);
    linalg::Matrix x_s, y_s;
    joint_subsample(x, y_in_target, opts.optimizer.max_eval_records, eng, x_s, y_s);
    report.unified_rho = suite.evaluate(x_s, y_s, eng).rho;
    report.satisfaction = std::min(report.unified_rho / rho, report.bound / rho);
  } else {
    report.unified_rho = rho;
    report.satisfaction = 1.0;
  }

  RiskInputs in{.rho = std::min(report.local_rho, report.bound),
                .bound = report.bound,
                .satisfaction = report.satisfaction,
                .identifiability = pi};
  report.risk_breach = risk_of_privacy_breach(in);
  report.risk_sap = sap_risk(in, k);
  return report;
}

// ---- the step lists --------------------------------------------------------

std::string to_string(Step step) {
  static constexpr const char* kNames[] = {"local-optimize", "target-space", "routing",
                                           "setup-and-perturb", "forward", "adaptor",
                                           "align", "unify-and-account"};
  return kNames[static_cast<std::size_t>(step)];
}

Mailbag::Fit Mailbag::offer(Mail& mail) {
  // A step expects each kind once, and one kind has one set of senders.
  const auto it = std::find_if(wanted_.begin(), wanted_.end(),
                               [&](const Expect& e) { return e.kind == mail.kind; });
  if (it == wanted_.end()) return Fit::kUnexpected;
  if (!it->from.contains(mail.from)) return Fit::kWrongSender;
  if (it->count == 0) return Fit::kUnexpected;
  --it->count;
  mail_.push_back(std::move(mail));
  return Fit::kTaken;
}

bool Mailbag::complete() const noexcept {
  return std::all_of(wanted_.begin(), wanted_.end(), [](const Expect& e) { return e.count == 0; });
}

std::string Mailbag::missing() const {
  std::string out;
  for (const Expect& e : wanted_) {
    if (e.count == 0) continue;
    if (!out.empty()) out += ", ";
    out += std::to_string(e.count) + " " + proto::to_string(e.kind) + " from " + to_string(e.from);
  }
  return out;
}

Provider::Provider(std::size_t index, std::size_t k, const data::Dataset& shard,
                   const SapOptions& opts, const SessionSeeds& seeds)
    : id_(static_cast<PartyId>(index)), k_(k), opts_(opts) {
  SAP_REQUIRE(k >= 3 && index < k && seeds.provider_eng.size() == k,
              "Provider: need an index below k >= 3 parties");
  SAP_REQUIRE(shard.size() >= 8, "Provider: shard too small (need >= 8 records)");
  x_ = shard.features_T();
  labels_ = shard.labels();
  eng_ = seeds.provider_eng[index];
  coord_eng_ = seeds.coordinator_eng;
}

std::vector<Expect> Provider::expects(Step step) const {
  const PartyId k = static_cast<PartyId>(k_);
  if (step == Step::kPerturb && !coordinator())
    return {{PayloadKind::kTargetSpace, 1, {k - 1, k}},
            {PayloadKind::kRoutingNotice, 1, {k - 1, k}}};
  if (step == Step::kForward && notice_.inbound > 0)
    return {{PayloadKind::kPerturbedData, notice_.inbound, {0, k}}};
  if (step == Step::kAlign && coordinator())
    return {{PayloadKind::kSpaceAdaptor, k_ - 1, {0, k - 1}}};
  return {};
}

Expect Provider::serving_started() const {
  const PartyId miner = static_cast<PartyId>(k_);
  return {PayloadKind::kServingStarted, 1, {miner, miner + 1}};
}

void Provider::take_notice(const RoutingNotice& notice) {
  check_routing_notice(notice, k_);
  notice_ = notice;
}

std::vector<Send> Provider::run(Step step, std::vector<Mail> mail) {
  const PartyId coordinator_id = static_cast<PartyId>(k_ - 1);
  const PartyId miner = static_cast<PartyId>(k_);
  std::vector<Send> out;
  switch (step) {
    case Step::kLocalOptimize:
      local_ = optimize_local(x_, dims(), opts_, eng_);
      break;
    case Step::kTarget: {
      if (!coordinator()) break;
      target_ = make_target_space(dims(), coord_eng_);
      const auto wire = encode_target_space(target_.rotation(), target_.translation());
      for (PartyId j = 0; j < coordinator_id; ++j)
        out.push_back({j, PayloadKind::kTargetSpace, wire});
      break;
    }
    case Step::kRouting:
      if (!coordinator()) break;
      // The coordinator must never receive data: it later holds every
      // adaptor. Its own notice passes the same check as everyone's.
      plan_ = make_exchange_plan(k_, coord_eng_);
      for (PartyId j = 0; j < coordinator_id; ++j)
        out.push_back({j, PayloadKind::kRoutingNotice,
                       encode_routing(static_cast<PartyId>(plan_.receiver_of_source[j]),
                                      plan_.inbound[j])});
      take_notice({static_cast<PartyId>(plan_.receiver_of_source[id_]), plan_.inbound[id_]});
      break;
    case Step::kPerturb: {
      for (const Mail& m : mail) {
        if (m.kind == PayloadKind::kTargetSpace) {
          const auto ts = decode_target_space(m.payload);
          target_ = perturb::GeometricPerturbation(ts.r, ts.t, 0.0);
        } else {
          take_notice(decode_routing(m.payload));
        }
      }
      y_ = local_.g.apply(x_, eng_);
      auto wire = tagged_wire(local_.nonce, encode_dataset(y_, labels_));
      // tau may keep a dataset where it is: no wire message, and the miner
      // cannot tell, so pi_i = 1/(k-1) still holds.
      if (notice_.receiver == id_)
        held_ = std::move(wire);
      else
        out.push_back({notice_.receiver, PayloadKind::kPerturbedData, std::move(wire)});
      break;
    }
    case Step::kForward:
      if (!held_.empty()) out.push_back({miner, PayloadKind::kForwardedData, std::move(held_)});
      for (Mail& m : mail)
        out.push_back({miner, PayloadKind::kForwardedData, std::move(m.payload)});
      break;
    case Step::kAdaptor:
      adaptor_ = perturb::SpaceAdaptor::between(local_.g, target_);
      if (!coordinator())
        out.push_back({coordinator_id, PayloadKind::kSpaceAdaptor,
                       tagged_wire(local_.nonce, adaptor_.serialize())});
      break;
    case Step::kAlign: {
      if (!coordinator()) break;
      // The coordinator learns nothing it did not know (it drew tau), and
      // the shuffled sequence tells the miner nothing about sources.
      std::vector<std::vector<double>> entries;
      entries.reserve(mail.size() + 1);
      for (Mail& m : mail) entries.push_back(std::move(m.payload));
      entries.push_back(tagged_wire(local_.nonce, adaptor_.serialize()));
      shuffle_entries(entries, coord_eng_);
      for (auto& e : entries) out.push_back({miner, PayloadKind::kAdaptorSequence, std::move(e)});
      break;
    }
    case Step::kUnify:
      report_ = account_party(x_, y_, adaptor_, id_, local_.rho, local_.bound, k_, opts_, eng_);
      break;
  }
  return out;
}

linalg::Matrix Provider::perturb_batch(const data::Dataset& batch) {
  return local_.g.apply(batch.features_T(), eng_);
}

std::vector<Expect> Miner::expects(Step step) const {
  if (step != Step::kUnify) return {};
  const PartyId k = static_cast<PartyId>(k_);
  return {{PayloadKind::kForwardedData, k_, {0, k - 1}},
          {PayloadKind::kAdaptorSequence, k_, {k - 1, k}}};
}

std::vector<Send> Miner::run(Step step, std::vector<Mail> mail) {
  if (step != Step::kUnify) return {};
  std::vector<MinerShard> shards;
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors;
  for (const Mail& m : mail) {
    const auto [nonce, body] = untag(m.payload);
    if (m.kind == PayloadKind::kForwardedData)
      shards.push_back({nonce, m.from, decode_dataset(body)});
    else
      adaptors.emplace_back(nonce, perturb::SpaceAdaptor::deserialize(body));
  }
  pool_ = unify_pool(std::move(shards), std::move(adaptors), k_);
  return {};
}

}  // namespace logic
}  // namespace sap::proto

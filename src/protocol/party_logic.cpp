#include "protocol/party_logic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "optimize/optimizer.hpp"
#include "privacy/attacks.hpp"
#include "protocol/risk.hpp"

namespace sap::proto::logic {
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

std::vector<double> tagged_wire(std::uint64_t nonce, std::span<const double> body) {
  std::vector<double> wire;
  wire.reserve(1 + body.size());
  wire.push_back(static_cast<double>(nonce));
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

void shuffle_entries(std::vector<std::vector<double>>& entries, rng::Engine& coord_eng) {
  for (std::size_t i = entries.size(); i > 1; --i)
    std::swap(entries[i - 1], entries[coord_eng.uniform_index(i)]);
}

UnifiedPool unify_pool(std::vector<MinerShard> received,
                       std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors,
                       std::size_t k) {
  SAP_REQUIRE(received.size() == k && adaptors.size() == k,
              "SapSession: miner did not receive k datasets and k adaptors");

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
    const auto it = std::find_if(adaptors.begin(), adaptors.end(),
                                 [&](const auto& a) { return a.first == rec.nonce; });
    SAP_REQUIRE(it != adaptors.end(), "SapSession: no adaptor for received dataset");
    linalg::Matrix in_target = it->second.apply(rec.data.features);
    unified_features = unified_features.empty()
                           ? std::move(in_target)
                           : linalg::Matrix::hcat(unified_features, in_target);
    unified_labels.insert(unified_labels.end(), rec.data.labels.begin(),
                          rec.data.labels.end());
    out.forwarder_of_nonce.emplace_back(rec.nonce, rec.forwarder);
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

}  // namespace sap::proto::logic

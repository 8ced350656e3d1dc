#include "protocol/baseline.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "privacy/attacks.hpp"

namespace sap::proto {

DirectSubmissionProtocol::DirectSubmissionProtocol(std::vector<data::Dataset> provider_data,
                                                   SapOptions opts)
    : provider_data_(std::move(provider_data)), opts_(opts) {
  SAP_REQUIRE(provider_data_.size() >= 2, "DirectSubmissionProtocol: need >= 2 providers");
  const std::size_t d = provider_data_.front().dims();
  for (const auto& ds : provider_data_) {
    SAP_REQUIRE(ds.dims() == d, "DirectSubmissionProtocol: dimensionality mismatch");
    SAP_REQUIRE(ds.size() >= 8, "DirectSubmissionProtocol: provider dataset too small");
  }
}

const Transport& DirectSubmissionProtocol::transport() const {
  SAP_REQUIRE(net_ != nullptr, "DirectSubmissionProtocol::transport: call run() first");
  return *net_;
}

SapResult DirectSubmissionProtocol::run() {
  const std::size_t k = provider_data_.size();
  const std::size_t d = provider_data_.front().dims();
  rng::Engine master(opts_.seed);

  net_ = std::make_unique<Transport>(master());
  std::vector<PartyId> provider_id(k);
  for (std::size_t i = 0; i < k; ++i) provider_id[i] = net_->add_party();
  const PartyId miner = net_->add_party();

  struct ProviderState {
    linalg::Matrix x;
    std::vector<int> labels;
    perturb::GeometricPerturbation g;
    double rho = 0.0;
    double bound = 0.0;
    linalg::Matrix y;
    perturb::SpaceAdaptor adaptor;
    rng::Engine eng{0};
  };
  std::vector<ProviderState> ps(k);
  for (std::size_t i = 0; i < k; ++i) {
    ps[i].x = provider_data_[i].features_T();
    ps[i].labels = provider_data_[i].labels();
    ps[i].eng = master.spawn();
  }

  // Local optimization — identical to SAP phase 1, and like it one worker
  // per provider: the dominant cost, and it sends nothing.
  ThreadPool(k).run_indexed(k, [this, &ps, d](std::size_t i) {
    auto& p = ps[i];
    auto opt_opts = opts_.optimizer;
    opt_opts.noise_sigma = opts_.noise_sigma;
    if (opts_.optimize_local) {
      // One scoring pool for the main run and every bound run, as in
      // party_logic::optimize_local (results are thread-count-invariant).
      ThreadPool pool(opt_opts.threads);
      const auto first = opt::optimize_perturbation(p.x, opt_opts, p.eng, pool);
      p.g = first.best;
      p.rho = first.best_rho;
      p.bound = first.best_rho;
      for (std::size_t r = 1; r < opts_.bound_runs; ++r)
        p.bound = std::max(p.bound,
                           opt::optimize_perturbation(p.x, opt_opts, p.eng, pool).best_rho);
    } else {
      p.g = perturb::GeometricPerturbation::random(d, opts_.noise_sigma, p.eng);
      p.rho = opt::evaluate_perturbation(p.x, p.g, opt_opts.attacks, opt_opts.max_eval_records,
                                         p.eng);
      p.bound = p.rho;
    }
  });

  // Provider 0 selects the target space and shares it with the other
  // providers (the miner must still not learn G_t).
  rng::Engine picker = master.spawn();
  const auto g_t = perturb::GeometricPerturbation::random(d, 0.0, picker);
  const auto target_wire = encode_target_space(g_t.rotation(), g_t.translation());
  for (std::size_t i = 1; i < k; ++i)
    net_->send(provider_id[0], provider_id[i], PayloadKind::kTargetSpace, target_wire);
  for (std::size_t i = 1; i < k; ++i) {
    const auto msg = net_->receive(provider_id[i]);
    SAP_REQUIRE(msg.kind == PayloadKind::kTargetSpace,
                "DirectSubmissionProtocol: expected target space");
    const auto ts = decode_target_space(msg.payload);
    (void)perturb::GeometricPerturbation(ts.r, ts.t, 0.0);  // providers validate receipt
  }

  // Every provider perturbs and submits (data, adaptor) straight to the
  // miner — one hop, full source attribution.
  for (std::size_t i = 0; i < k; ++i) {
    auto& p = ps[i];
    p.y = p.g.apply(p.x, p.eng);
    p.adaptor = perturb::SpaceAdaptor::between(p.g, g_t);
    net_->send(provider_id[i], miner, PayloadKind::kForwardedData,
               encode_dataset(p.y, p.labels));
    net_->send(provider_id[i], miner, PayloadKind::kAdaptorSequence, p.adaptor.serialize());
  }

  // Miner unifies in arrival order (source identity is plain to see).
  linalg::Matrix unified_features;
  std::vector<int> unified_labels;
  std::size_t received = 0;
  std::optional<DecodedDataset> pending;
  while (net_->has_mail(miner)) {
    const auto msg = net_->receive(miner);
    if (msg.kind == PayloadKind::kForwardedData) {
      pending = decode_dataset(msg.payload);
    } else {
      SAP_REQUIRE(msg.kind == PayloadKind::kAdaptorSequence,
                  "DirectSubmissionProtocol: unexpected message at miner");
      SAP_REQUIRE(pending.has_value(), "DirectSubmissionProtocol: adaptor before data");
      const auto adaptor = perturb::SpaceAdaptor::deserialize(msg.payload);
      linalg::Matrix in_target = adaptor.apply(pending->features);
      unified_features = unified_features.empty()
                             ? std::move(in_target)
                             : linalg::Matrix::hcat(unified_features, in_target);
      unified_labels.insert(unified_labels.end(), pending->labels.begin(),
                            pending->labels.end());
      pending.reset();
      ++received;
    }
  }
  SAP_REQUIRE(received == k, "DirectSubmissionProtocol: miner missed submissions");

  SapResult result;
  result.unified = data::Dataset("direct-unified", unified_features.transpose(),
                                 std::move(unified_labels));
  result.target_space = g_t;

  // Accounting: identical formulas, but the miner attributes every shard —
  // identifiability 1 (and eq. (2)'s anonymity dilution does not apply, so
  // risk_sap is reported with the k=2 worst case of a known source:
  // max{local, full collaboration term}).
  const privacy::AttackSuite suite(opts_.optimizer.attacks);
  for (std::size_t i = 0; i < k; ++i) {
    auto& p = ps[i];
    PartyReport report;
    report.id = provider_id[i];
    report.local_rho = p.rho;
    report.bound = std::max(p.bound, p.rho);
    report.identifiability = 1.0;

    if (opts_.compute_satisfaction && p.rho > 0.0) {
      const linalg::Matrix y_t = p.adaptor.apply(p.y);
      linalg::Matrix x_s = p.x, y_s = y_t;
      if (p.x.cols() > opts_.optimizer.max_eval_records) {
        const auto idx = p.eng.sample_without_replacement(p.x.cols(),
                                                          opts_.optimizer.max_eval_records);
        x_s = linalg::Matrix(p.x.rows(), idx.size());
        y_s = linalg::Matrix(p.x.rows(), idx.size());
        for (std::size_t j = 0; j < idx.size(); ++j) {
          const linalg::Vector xc = p.x.col(idx[j]);
          const linalg::Vector yc = y_t.col(idx[j]);
          x_s.set_col(j, xc);
          y_s.set_col(j, yc);
        }
      }
      report.unified_rho = suite.evaluate(x_s, y_s, p.eng).rho;
      report.satisfaction = std::min(report.unified_rho / p.rho, report.bound / p.rho);
    } else {
      report.unified_rho = p.rho;
      report.satisfaction = 1.0;
    }

    RiskInputs in{.rho = std::min(report.local_rho, report.bound),
                  .bound = report.bound,
                  .satisfaction = report.satisfaction,
                  .identifiability = 1.0};
    report.risk_breach = risk_of_privacy_breach(in);
    report.risk_sap = sap_risk(in, 2);  // no anonymity set: worst-case k-1 = 1
    result.parties.push_back(report);
  }

  result.messages = net_->trace().size();
  result.total_bytes = net_->total_bytes();
  return result;
}

}  // namespace sap::proto

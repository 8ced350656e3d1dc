#include "protocol/baseline.hpp"

#include <optional>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "protocol/party_logic.hpp"

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

  // Local optimization — SAP phase 1 itself, and like it one worker per
  // provider: the dominant cost, and it sends nothing. The nonce it draws
  // stays unused: the miner attributes every submission anyway.
  ThreadPool(k).run_indexed(k, [this, &ps, d](std::size_t i) {
    auto& p = ps[i];
    auto local = logic::optimize_local(p.x, d, opts_, p.eng);
    p.g = std::move(local.g);
    p.rho = local.rho;
    p.bound = local.bound;
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

  // Accounting: SAP's per-party accounting with k = 2, because the miner
  // attributes every shard: identifiability 1/(2-1) = 1, and eq. (2) has no
  // anonymity set to dilute the risk (risk_sap at k = 2 is max{local, full
  // collaboration term}).
  for (std::size_t i = 0; i < k; ++i) {
    auto& p = ps[i];
    result.parties.push_back(logic::account_party(p.x, p.y, p.adaptor, provider_id[i], p.rho,
                                                  p.bound, /*k=*/2, opts_, p.eng));
  }

  result.messages = net_->trace().size();
  result.total_bytes = net_->total_bytes();
  return result;
}

}  // namespace sap::proto

// Direct-submission baseline: collaborative mining WITHOUT space adaptation.
//
// Each provider locally perturbs its shard and sends it (plus its space
// adaptor) straight to the miner. Utility is identical to SAP — the miner
// unifies with the same adaptors — but the miner knows exactly whose data is
// whose: source identifiability pi_i = 1. This is the comparator implicit in
// the paper's eq. (1)/(2): SAP's whole point is dividing that risk by (k-1)
// at the cost of one extra data hop. The baseline_direct_vs_sap bench
// quantifies both sides of that trade.
#pragma once

#include "protocol/session.hpp"

namespace sap::proto {

/// Same options as SAP (optimizer budget, noise level, seed, transport
/// backend); the exchange and coordinator machinery are simply not used.
class DirectSubmissionProtocol {
 public:
  /// Requires >= 2 providers with equal dimensionality (same contract as
  /// SapSession, minus the need for an anonymizing peer group).
  DirectSubmissionProtocol(std::vector<data::Dataset> provider_data, SapOptions opts);

  /// Execute the direct submission. PartyReports carry identifiability 1.
  SapResult run();

  /// The transport of the last run (throws before the first run()).
  [[nodiscard]] const Transport& transport() const;

 private:
  std::vector<data::Dataset> provider_data_;
  SapOptions opts_;
  std::unique_ptr<Transport> net_;
};

}  // namespace sap::proto

#include "classify/knn.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace sap::ml {
namespace {

constexpr std::size_t kAutoTreeThreshold = 256;

}  // namespace

Knn::Knn(std::size_t k, KnnBackend backend) : k_(k), backend_(backend) {
  SAP_REQUIRE(k >= 1, "Knn: k must be >= 1");
}

bool Knn::wants_tree(std::size_t records) const noexcept {
  return backend_ == KnnBackend::kKdTree ||
         (backend_ == KnnBackend::kAuto && records >= kAutoTreeThreshold);
}

std::size_t Knn::dims() const noexcept { return tree_ ? tree_->dims() : features_.cols(); }

void Knn::fit(const data::Dataset& train) {
  SAP_REQUIRE(train.size() >= 1, "Knn::fit: empty training set");
  labels_ = train.labels();
  if (wants_tree(train.size())) {
    tree_ = std::make_unique<KdTree>(train.features());
    features_ = linalg::Matrix();
  } else {
    tree_ = nullptr;
    features_ = train.features();
  }
}

std::unique_ptr<Classifier> Knn::partial_fit(const data::Dataset& batch) const {
  SAP_REQUIRE(trained(), "Knn::partial_fit before fit");
  SAP_REQUIRE(batch.size() >= 1, "Knn::partial_fit: empty batch");
  SAP_REQUIRE(batch.dims() == dims(), "Knn::partial_fit: dimension mismatch");
  auto extended = std::make_unique<Knn>(k_, backend_);
  extended->labels_ = labels_;
  extended->labels_.insert(extended->labels_.end(), batch.labels().begin(),
                           batch.labels().end());
  if (tree_) {
    // Reuse the existing structure via the extension copy: one point
    // matrix copy, batch joins the brute tail (queries stay exact; see
    // kdtree.hpp).
    extended->tree_ = std::make_unique<KdTree>(*tree_, batch.features());
  } else if (wants_tree(extended->labels_.size())) {
    // The append crossed the auto threshold: first (and only) full build.
    extended->tree_ =
        std::make_unique<KdTree>(linalg::Matrix::vcat(features_, batch.features()));
  } else {
    extended->features_ = linalg::Matrix::vcat(features_, batch.features());
  }
  return extended;
}

int Knn::predict(std::span<const double> record) const {
  SAP_REQUIRE(trained(), "Knn::predict before fit");
  SAP_REQUIRE(record.size() == dims(), "Knn::predict: dimension mismatch");

  // The k nearest as (index, distance_sq), ascending with the
  // (distance, index) tie-break — identical for both backends.
  const std::size_t k = std::min(k_, labels_.size());
  std::vector<Neighbor> nearest;
  if (tree_) {
    nearest = tree_->nearest(record, k);
  } else {
    NearestK best(record, k);
    best.scan(features_.data().data(), features_.rows(), std::size_t{0});
    nearest = best.take();
  }

  // Majority vote over the k nearest; break ties by summed proximity
  // (smaller total distance wins).
  std::map<int, std::pair<std::size_t, double>> votes;  // label -> (count, dist sum)
  for (const auto& nb : nearest) {
    auto& [count, dsum] = votes[labels_[nb.index]];
    ++count;
    dsum += nb.distance_sq;
  }
  int best_label = votes.begin()->first;
  std::pair<std::size_t, double> best{0, 0.0};
  for (const auto& [label, tally] : votes) {
    const bool wins = tally.first > best.first ||
                      (tally.first == best.first && tally.second < best.second);
    if (wins) {
      best = tally;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace sap::ml

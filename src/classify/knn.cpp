#include "classify/knn.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sap::ml {
namespace {

constexpr std::size_t kAutoTreeThreshold = 256;

}  // namespace

KnnVote::KnnVote(std::size_t k) : spill_(k > kInPlace) {
  if (spill_) spilled_.reserve(k);
}

std::span<const KnnVote::Tally> KnnVote::tallies() const noexcept {
  if (spill_) return spilled_;
  return std::span(in_place_).first(in_place_count_);
}

void KnnVote::add(int label, double distance_sq) {
  const auto held = tallies();
  const auto at = static_cast<std::size_t>(
      std::find_if(held.begin(), held.end(), [label](const Tally& t) { return t.label == label; }) -
      held.begin());
  if (at == held.size()) {
    if (spill_) {
      spilled_.push_back({label, 0, 0.0});
    } else {
      SAP_REQUIRE(at < kInPlace, "KnnVote: more labels than k");
      in_place_[at] = {label, 0, 0.0};
      ++in_place_count_;
    }
  }
  Tally& tally = spill_ ? spilled_[at] : in_place_[at];
  ++tally.count;
  tally.distance_sum += distance_sq;
}

int KnnVote::winner() const {
  const auto held = tallies();
  SAP_REQUIRE(!held.empty(), "KnnVote: no votes");
  const auto beats = [](const Tally& a, const Tally& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.distance_sum != b.distance_sum) return a.distance_sum < b.distance_sum;
    return a.label < b.label;
  };
  return std::min_element(held.begin(), held.end(), beats)->label;
}

Knn::Knn(std::size_t k, KnnBackend backend) : k_(k), backend_(backend) {
  SAP_REQUIRE(k >= 1, "Knn: k must be >= 1");
}

bool Knn::wants_tree(std::size_t records) const noexcept {
  return backend_ == KnnBackend::kKdTree ||
         (backend_ == KnnBackend::kAuto && records >= kAutoTreeThreshold);
}

std::size_t Knn::dims() const noexcept { return tree_ ? tree_->dims() : features_.dims(); }

void Knn::fit(const data::Dataset& train) {
  SAP_REQUIRE(train.size() >= 1, "Knn::fit: empty training set");
  labels_ = train.labels();
  if (wants_tree(train.size())) {
    tree_ = std::make_unique<KdTree>(train.features());
    features_ = LaneBlocks();
  } else {
    tree_ = nullptr;
    features_ = LaneBlocks(train.features());
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
    // Reuse the existing structure via the extension copy: one copy of the
    // points, batch joins the brute tail (queries stay exact; see
    // kdtree.hpp).
    extended->tree_ = std::make_unique<KdTree>(*tree_, batch.features());
  } else if (wants_tree(extended->labels_.size())) {
    // The append crossed the auto threshold: first (and only) full build.
    extended->tree_ =
        std::make_unique<KdTree>(linalg::Matrix::vcat(features_.unpack(), batch.features()));
  } else {
    extended->features_ = features_;
    extended->features_.append(batch.features());
  }
  return extended;
}

int Knn::predict(std::span<const double> record) const {
  SAP_REQUIRE(trained(), "Knn::predict before fit");
  SAP_REQUIRE(record.size() == dims(), "Knn::predict: dimension mismatch");

  // The k nearest, ascending with the (distance, index) tie-break:
  // identical for both backends.
  NearestK best(record, std::min(k_, labels_.size()));
  if (tree_) {
    tree_->search(best);
  } else {
    best.scan(features_, 0);
  }
  const auto nearest = best.sorted();
  KnnVote vote(nearest.size());
  for (const auto& nb : nearest) vote.add(labels_[nb.index], nb.distance_sq);
  return vote.winner();
}

}  // namespace sap::ml

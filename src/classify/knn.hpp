// k-nearest-neighbor classifier (majority vote, Euclidean metric).
//
// Two interchangeable backends with identical results (both run the exact
// k-nearest kernel of classify/nearest.hpp with the row index as tie-id):
// brute force, and a kd-tree for larger training sets. kAuto picks the tree
// once the training set is big enough for the build cost to pay off. The
// model keeps the labels plus one copy of the points, as lane blocks: the
// brute backend's, in training order, or the tree's.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "classify/classifier.hpp"
#include "classify/kdtree.hpp"

namespace sap::ml {

enum class KnnBackend {
  kAuto,        ///< kd-tree when training size >= 256, else brute force
  kBruteForce,
  kKdTree,
};

/// The k-NN majority vote. Knn::predict and the shard merge's replay
/// (knn_merge, protocol/jobs.cpp) both call it, which keeps the router's
/// merge bit-identical to the flat engine. Feed the k nearest in ascending
/// (distance_sq, tie-id) order, the order each label's summed distance
/// accumulates in. Most votes wins; a tie goes to the smaller summed
/// distance, then to the smaller label. Up to k = kInPlace the tallies sit
/// in place, so a vote at a small k allocates nothing.
class KnnVote {
 public:
  explicit KnnVote(std::size_t k);

  void add(int label, double distance_sq);
  /// The winning label; at least one add() must come first.
  [[nodiscard]] int winner() const;

 private:
  struct Tally {
    int label;
    std::size_t count;
    double distance_sum;
  };
  static constexpr std::size_t kInPlace = 8;

  /// One per label voted for, in first-vote order.
  [[nodiscard]] std::span<const Tally> tallies() const noexcept;

  bool spill_;                              ///< k > kInPlace
  std::size_t in_place_count_ = 0;          ///< tallies held in place
  std::array<Tally, kInPlace> in_place_{};  ///< the tallies, k <= kInPlace
  std::vector<Tally> spilled_;              ///< the tallies, k > kInPlace
};

class Knn final : public Classifier {
 public:
  /// k must be >= 1; ties are broken toward the closer neighbor set.
  explicit Knn(std::size_t k = 5, KnnBackend backend = KnnBackend::kAuto);

  void fit(const data::Dataset& train) override;
  [[nodiscard]] int predict(std::span<const double> record) const override;
  [[nodiscard]] bool trained() const override { return !labels_.empty(); }

  [[nodiscard]] bool supports_partial_fit() const override { return true; }
  /// Incremental extension: appends `batch` to the training set, reusing the
  /// existing kd-tree via bulk insert instead of a full rebuild (the tree's
  /// exact-search guarantee makes the result prediction-identical to a full
  /// refit on the concatenated data).
  [[nodiscard]] std::unique_ptr<Classifier> partial_fit(
      const data::Dataset& batch) const override;

  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] bool using_kdtree() const noexcept { return tree_ != nullptr; }

 private:
  [[nodiscard]] bool wants_tree(std::size_t records) const noexcept;
  [[nodiscard]] std::size_t dims() const noexcept;

  std::size_t k_;
  KnnBackend backend_;
  std::vector<int> labels_;        ///< by training row
  LaneBlocks features_;            ///< brute backend only
  std::unique_ptr<KdTree> tree_;   ///< kd-tree backend only
};

}  // namespace sap::ml

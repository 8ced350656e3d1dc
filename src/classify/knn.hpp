// k-nearest-neighbor classifier (majority vote, Euclidean metric).
//
// Two interchangeable backends with identical results (both run the exact
// k-nearest kernel of classify/nearest.hpp with the row index as tie-id):
// brute force, and a kd-tree for larger training sets. kAuto picks the tree
// once the training set is big enough for the build cost to pay off. The
// model keeps the labels plus one copy of the points: the brute backend's
// feature matrix or the tree's tree-ordered storage.
#pragma once

#include <memory>

#include "classify/classifier.hpp"
#include "classify/kdtree.hpp"

namespace sap::ml {

enum class KnnBackend {
  kAuto,        ///< kd-tree when training size >= 256, else brute force
  kBruteForce,
  kKdTree,
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
  linalg::Matrix features_;        ///< brute backend only
  std::unique_ptr<KdTree> tree_;   ///< kd-tree backend only
};

}  // namespace sap::ml

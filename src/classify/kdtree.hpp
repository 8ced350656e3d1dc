// kd-tree for exact k-nearest-neighbor queries.
//
// Median-split build (O(N log N)), branch-and-bound search over the exact
// k-nearest kernel (classify/nearest.hpp). Results are EXACTLY the
// brute-force neighbor set, including the deterministic (distance, index)
// tie-break — the property tests in classify_test assert bit-for-bit
// agreement, which is what lets Knn switch between backends freely.
//
// Storage: the points live in tree order — every leaf's rows are one
// contiguous block that the kernel scans directly — with one insertion
// index per stored row. That matrix is the only copy of the points a Knn
// model keeps.
//
// Streaming ingest: insert() appends points without a full rebuild. New
// points form a contiguous brute-scanned *tail* after the indexed rows; every
// query feeds it to the same selection as the tree search (exactness is
// preserved: one (distance, index) order for both). When the tail outgrows
// half the indexed prefix the whole structure is rebuilt once — amortized
// O(log N) structure cost per inserted point, and queries never degrade
// past 1.5x the point count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "classify/nearest.hpp"
#include "linalg/matrix.hpp"

namespace sap::ml {

class KdTree {
 public:
  /// Build over an N x d point matrix (rows = points; taken over and
  /// reordered in place).
  explicit KdTree(linalg::Matrix points);

  /// Extension copy: `base`'s structure over (base points ⧺ more) with
  /// `more` joining the brute tail — one point-matrix copy instead of
  /// copy-then-insert. Equivalent to copying base and calling insert(more).
  KdTree(const KdTree& base, const linalg::Matrix& more);

  [[nodiscard]] std::size_t size() const noexcept { return points_.rows(); }
  [[nodiscard]] std::size_t dims() const noexcept { return points_.cols(); }

  /// The k nearest points to `query`, sorted ascending by
  /// (distance_sq, index), where index is the point's insertion index (its
  /// row in the concatenation of every matrix given to this tree). k is
  /// clamped to size().
  [[nodiscard]] std::vector<Neighbor> nearest(std::span<const double> query,
                                              std::size_t k) const;

  /// Append `more` (rows = points, dims must match) to the point set. The
  /// new rows receive indices size()..size()+more.rows()-1 and join the
  /// brute-scanned tail; the tree is rebuilt over everything once the tail
  /// exceeds half the indexed prefix. Query results after insert() are
  /// exactly those of a tree freshly built over the concatenated points.
  void insert(const linalg::Matrix& more);

  /// Points currently answered by the brute-scanned tail (observability for
  /// tests and the rebuild heuristic).
  [[nodiscard]] std::size_t tail_size() const noexcept { return size() - indexed_; }

 private:
  struct Node {
    std::size_t begin = 0;   ///< range of stored rows
    std::size_t end = 0;
    std::size_t split_dim = 0;
    double split_value = 0.0;
    int left = -1;   ///< child node indices; -1 = leaf
    int right = -1;
  };

  int build(std::vector<std::size_t>& order, std::size_t begin, std::size_t end,
            std::size_t depth);
  void rebuild();
  void maybe_rebuild();
  void search(int node, std::span<const double> query, NearestK& best) const;

  static constexpr std::size_t kLeafSize = 16;

  linalg::Matrix points_;         ///< stored rows: the indexed prefix in tree order, then the tail
  std::vector<std::size_t> ids_;  ///< insertion index of each stored row
  std::vector<Node> nodes_;
  int root_ = -1;
  std::size_t indexed_ = 0;       ///< rows [0, indexed_) are under the tree
};

}  // namespace sap::ml

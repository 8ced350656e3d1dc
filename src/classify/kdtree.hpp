// kd-tree for exact k-nearest-neighbor queries.
//
// Median-split build (O(N log N)), branch-and-bound search over the exact
// k-nearest kernel (classify/nearest.hpp) that bounds a far cell by all of
// its query-to-box gaps. Results are EXACTLY the brute-force neighbor set,
// including the deterministic (distance, index) tie-break — the property
// tests in classify_test assert bit-for-bit agreement, which is what lets
// Knn switch between backends freely.
//
// Storage: the indexed rows live in tree order as lane blocks
// (classify/nearest.hpp) with one insertion index per row. Every node's rows
// start at a lane-group boundary (splits fall on multiples of 8 rows), so a
// leaf is whole groups the kernel scores directly; only the last group of
// the tree is padded. Those blocks and the tail's are the only copy of the
// points a Knn model keeps.
//
// Streaming ingest: insert() appends points without a full rebuild. New
// points form a brute-scanned *tail* of lane blocks in insertion order; every
// query feeds it to the same selection as the tree search (exactness is
// preserved: one (distance, index) order for both). The whole structure is
// rebuilt once the tail exceeds an eighth of the indexed prefix — amortized
// O(log N) structure cost per inserted point, and queries never degrade
// past 1.125x the point count. A rebuild unpacks the rows into one transient
// row-major matrix, builds over it, and packs the result.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "classify/nearest.hpp"
#include "linalg/matrix.hpp"

namespace sap::ml {

class KdTree {
 public:
  /// Build over an N x d point matrix (rows = points).
  explicit KdTree(const linalg::Matrix& points);

  /// Extension copy: `base`'s structure over (base points ⧺ more) with
  /// `more` joining the brute tail. Equivalent to copying base and calling
  /// insert(more).
  KdTree(const KdTree& base, const linalg::Matrix& more);

  [[nodiscard]] std::size_t size() const noexcept { return tree_.rows() + tail_.rows(); }
  [[nodiscard]] std::size_t dims() const noexcept { return tree_.dims(); }

  /// The k nearest points to `query`, sorted ascending by
  /// (distance_sq, index), where index is the point's insertion index (its
  /// row in the concatenation of every matrix given to this tree). k is
  /// clamped to size().
  [[nodiscard]] std::vector<Neighbor> nearest(std::span<const double> query,
                                              std::size_t k) const;
  /// Offer `best` every point it could take, with insertion indices as
  /// tie-ids: the tree's cells in a branch-and-bound walk that skips a cell
  /// no point of which can enter, then the tail. best.query() must have
  /// dims() values.
  void search(NearestK& best) const;

  /// Append `more` (rows = points, dims must match) to the point set. The
  /// new rows receive indices size()..size()+more.rows()-1 and join the
  /// brute-scanned tail; the tree is rebuilt over everything once the tail
  /// exceeds an eighth of the indexed prefix. Query results after insert()
  /// are exactly those of a tree freshly built over the concatenated points.
  void insert(const linalg::Matrix& more);

  /// Points currently answered by the brute-scanned tail (observability for
  /// tests and the rebuild heuristic).
  [[nodiscard]] std::size_t tail_size() const noexcept { return tail_.rows(); }
  /// The splits between the root and the leaf that holds the indexed point
  /// with insertion index `index`, root first, as (dimension, value): the
  /// cell shape a test's data relies on (observability for tests).
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> splits_above(
      std::size_t index) const;

 private:
  struct Node {
    std::size_t begin = 0;   ///< range of tree_'s rows; begin is a multiple of kLanes
    std::size_t end = 0;
    std::size_t split_dim = 0;
    double split_value = 0.0;
    int left = -1;   ///< child node indices; -1 = leaf
    int right = -1;
  };

  /// Build the tree over `rows` (ids[r] is row r's insertion index) and
  /// store them in tree order; the tail empties.
  void index(const linalg::Matrix& rows, const std::vector<std::size_t>& ids);
  int build(const linalg::Matrix& rows, std::vector<std::size_t>& order, std::size_t begin,
            std::size_t end, std::size_t depth);
  void rebuild();
  void maybe_rebuild();
  /// `gaps` holds the query's signed offset from `node`'s cell box along
  /// each axis (0.0 inside it); descend() leaves it as it found it.
  void descend(int node, std::span<const double> query, std::span<double> gaps,
               NearestK& best) const;

  /// Eight lane groups: with the lane kernel a leaf's rows cost less than
  /// the cell bounds a smaller leaf would add (bench/micro_knn).
  static constexpr std::size_t kLeafSize = 64;
  /// Dimensions whose cell gaps a search keeps on the stack (every built-in
  /// dataset has fewer); more go to the heap.
  static constexpr std::size_t kStackGaps = 64;

  LaneBlocks tree_;               ///< the indexed rows, in tree order
  std::vector<std::size_t> ids_;  ///< insertion index of each row of tree_
  LaneBlocks tail_;               ///< rows inserted since the last build; ids follow tree_'s
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace sap::ml

// The exact k-nearest kernel behind every kNN path: the kd-tree's leaves and
// brute tail, Knn's brute backend, and the shard partial of
// knn-train-accuracy (protocol/jobs.cpp).
//
// Exactness contract: each squared distance is ONE ascending-dimension chain
// `diff = row[c] - q[c]; acc += diff * diff` starting from 0.0, exactly the
// plain one-row loop the tests use as their brute-force reference. scan()
// interleaves four rows so their independent chains overlap in the
// pipeline; it never reassociates a chain, so every distance is
// bit-identical to that loop. Candidates then enter one bounded selection
// under the total order (distance_sq, index), where the index is the
// caller's tie-id (unique per row). Given finite inputs, the k smallest
// under that order are a pure function of the rows, the query and the ids —
// not of scan order or block boundaries — which is what lets the tree, the
// brute backend and the shard merge agree bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sap::ml {

struct Neighbor {
  std::size_t index;   ///< the candidate's tie-id
  double distance_sq;  ///< squared Euclidean distance to the query
};

/// Bounded selection of the k smallest (distance_sq, index) candidates for
/// one query. Holds up to k candidates: filled unordered until it has k,
/// then, once a candidate contests them, kept as a max-heap whose root is
/// the one to evict.
class NearestK {
 public:
  /// k = 0 selects nothing; k larger than the number of candidates offered
  /// keeps them all. `query` must outlive this object.
  NearestK(std::span<const double> query, std::size_t k);

  /// Offer `count` contiguous row-major rows of query.size() values each;
  /// row r has tie-id ids[r].
  void scan(const double* rows, std::size_t count, const std::size_t* ids);
  /// Same, with tie-ids first_id, first_id + 1, ...
  void scan(const double* rows, std::size_t count, std::size_t first_id);

  /// Largest squared distance a new candidate can have and still enter:
  /// +inf until a candidate contests k held ones, then the worst one's
  /// distance.
  [[nodiscard]] double bound() const noexcept { return bound_; }

  /// The selection, ascending by (distance_sq, index). Call once, after the
  /// last scan().
  [[nodiscard]] std::vector<Neighbor> take();

 private:
  template <typename IdOf>
  void scan_rows(const double* rows, std::size_t count, IdOf id_of);
  void offer(double distance_sq, std::size_t index);
  void replace_worst(Neighbor candidate);

  std::span<const double> query_;
  std::size_t k_;
  std::vector<Neighbor> best_;
  bool heap_ = false;
  double bound_;
};

}  // namespace sap::ml

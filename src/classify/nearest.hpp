// The exact k-nearest kernel behind every kNN path: the kd-tree's leaves and
// insert tail, Knn's brute backend, and the shard partial of
// knn-train-accuracy (protocol/jobs.cpp).
//
// Storage: every point set the kernel scans is a LaneBlocks — rows in 8-row
// lane groups, dimension-major inside a group, the last group zero-padded —
// and it is that point set's only copy.
//
// Exactness contract: each squared distance is ONE ascending-dimension chain
// `diff = row[c] - q[c]; acc += diff * diff` starting from 0.0, exactly the
// plain one-row loop the tests use as their brute-force reference. The lane
// kernel runs that chain in every lane of a group at once, as IEEE vector
// sub/mul/add with no fused multiply-add (the library builds with
// -ffp-contract=off), so every distance is bit-identical to that loop on
// every ISA variant. Candidates then enter one bounded selection under the
// total order (distance_sq, index), where the index is the caller's tie-id
// (unique per row): each variant tests a group's lanes against the
// selection's live bound in registers, and offers only the lanes of real
// rows that pass it (a distance equal to the bound passes), so padding
// lanes are never offered. Given finite inputs, the k smallest under that
// order are a pure function of the rows, the query and the ids — not of
// scan order or block boundaries — which is what lets the tree, the brute
// backend and the shard merge agree bit for bit.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace sap::ml {

struct Neighbor {
  std::size_t index;   ///< the candidate's tie-id
  double distance_sq;  ///< squared Euclidean distance to the query
};

/// Rows stored as lane groups of kLanes rows, dimension-major inside a
/// group: coordinate c of row r is group(r / kLanes)[c * kLanes + r % kLanes].
/// The lanes past the last row are 0.0.
class LaneBlocks {
 public:
  static constexpr std::size_t kLanes = 8;

  explicit LaneBlocks(std::size_t dims = 0) : dims_(dims) {}
  /// Every row of `rows`, in order.
  explicit LaneBlocks(const linalg::Matrix& rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }
  [[nodiscard]] std::size_t groups() const noexcept { return (rows_ + kLanes - 1) / kLanes; }
  /// The g-th group: kLanes * dims() values.
  [[nodiscard]] const double* group(std::size_t g) const noexcept {
    return data_.data() + g * kLanes * dims_;
  }

  /// Room for `rows` rows without reallocating.
  void reserve(std::size_t rows);
  /// Append one row (dims() values) after the last, filling its group first.
  void append(std::span<const double> row);
  /// Append every row of `more`, in order.
  void append(const linalg::Matrix& more);

  /// Row r, copied out to `out` (dims() values).
  void copy_row(std::size_t r, std::span<double> out) const;
  /// Every row, row-major.
  [[nodiscard]] linalg::Matrix unpack() const;

 private:
  std::size_t dims_;
  std::size_t rows_ = 0;
  std::vector<double> data_;  ///< groups() * kLanes * dims_ values
};

class NearestK;

/// Tie-ids of a scanned range of rows: row r of the range has tie-id
/// ids[r], or first + r when ids is null.
struct TieIds {
  const std::size_t* ids = nullptr;
  std::size_t first = 0;

  [[nodiscard]] std::size_t of(std::size_t r) const noexcept {
    return ids != nullptr ? ids[r] : first + r;
  }
};

/// One instantiation of the lane kernel; both entries run the same distance
/// chains.
struct LaneKernel {
  const char* name;  ///< "vec16" (16-byte vectors) or "avx2" (32-byte)
  /// Writes the squared distance of every lane of `count` consecutive groups
  /// to out[0, count * kLanes), lane by lane; a padding lane's value is its
  /// 0.0 row's distance and means nothing.
  void (*score)(const double* groups, std::size_t count, std::span<const double> query,
                double* out);
  /// Scores the `rows` rows that start at `groups` against best.query() and
  /// offers best every row whose distance is at most best.bound() as the
  /// offers from earlier groups left it; row r has tie-id ids.of(r). Lanes
  /// past `rows` are never offered.
  void (*select)(const double* groups, std::size_t rows, TieIds ids, NearestK& best);
};

/// The variants this CPU can run: vec16 on every target, then avx2 on an
/// x86-64 CPU that has it.
[[nodiscard]] std::vector<LaneKernel> supported_lane_kernels();
/// The variant every NearestK runs: the last of supported_lane_kernels(),
/// picked once per process.
[[nodiscard]] const LaneKernel& lane_kernel();

/// Bounded selection of the k smallest (distance_sq, index) candidates for
/// one query. It fills k slots unordered and turns them into a max-heap,
/// whose root is the one to evict, once a candidate contests k held ones.
/// Up to k = kInPlace the slots sit in the object itself, so a selection
/// at the served k allocates nothing.
class NearestK {
 public:
  /// k = 0 selects nothing; k larger than the number of candidates offered
  /// keeps them all. Only candidates within `radius` are selected: the bound
  /// starts at the radius instead of +inf, and a distance equal to it still
  /// passes. `query` must outlive this object.
  NearestK(std::span<const double> query, std::size_t k,
           double radius = std::numeric_limits<double>::infinity());

  /// Offer every row of `rows`; row r has tie-id first_id + r.
  void scan(const LaneBlocks& rows, std::size_t first_id);
  /// Offer rows [begin, end) of `rows`, begin a multiple of kLanes; row
  /// begin + r has tie-id ids[r].
  void scan(const LaneBlocks& rows, std::size_t begin, std::size_t end,
            const std::size_t* ids);

  [[nodiscard]] std::span<const double> query() const noexcept { return query_; }
  /// Largest squared distance a new candidate can have and still enter:
  /// the radius until a candidate contests k held ones, then the worst held
  /// one's distance.
  [[nodiscard]] double bound() const noexcept { return bound_; }

  /// The selection, ascending by (distance_sq, index), valid while this
  /// object lives. Call after the last scan().
  [[nodiscard]] std::span<const Neighbor> sorted();

 private:
  friend struct LaneSelection;  ///< the kernel's side of the selection (nearest.cpp)

  /// The largest k whose slots sit in the object.
  static constexpr std::size_t kInPlace = LaneBlocks::kLanes;

  void scan_range(const LaneBlocks& rows, std::size_t begin, std::size_t end, TieIds ids);
  [[nodiscard]] Neighbor* slots() noexcept {
    return k_ <= kInPlace ? in_place_.data() : spilled_.get();
  }

  std::span<const double> query_;
  std::size_t k_;
  double bound_;
  decltype(LaneKernel::select) select_;
  std::size_t held_ = 0;  ///< slots filled
  bool heaped_ = false;
  std::array<Neighbor, kInPlace> in_place_;  ///< the slots, k <= kInPlace
  std::unique_ptr<Neighbor[]> spilled_;      ///< the slots, k > kInPlace
};

}  // namespace sap::ml

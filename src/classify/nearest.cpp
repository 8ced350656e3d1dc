#include "classify/nearest.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace sap::ml {
namespace {

constexpr std::size_t kLanes = LaneBlocks::kLanes;

/// The selection's total order: (distance_sq, index) ascending. A lambda,
/// not a function, so std::sort and std::make_heap inline it.
constexpr auto closer = [](const Neighbor& a, const Neighbor& b) {
  if (a.distance_sq != b.distance_sq) return a.distance_sq < b.distance_sq;
  return a.index < b.index;
};

typedef double Vec16 __attribute__((vector_size(16)));

/// The one kernel body, over vectors V of 2 or 4 doubles: per group, each
/// lane runs the scalar chain `diff = x[c] - q[c]; acc += diff * diff`
/// ascending from 0.0 as IEEE vector sub, mul and add. Nothing fuses the mul
/// into the add (-ffp-contract=off, and no variant enables FMA), so every
/// lane's distance is the scalar loop's double. Lanes load through element
/// initializers, which the compiler folds into one vector load each. The
/// group's kLanes / kWidth vectors go to done(g, acc) in registers, one
/// group late: done(g) runs after group g + 1's chains are issued, so a
/// branch on group g's distances that goes the unpredicted way discards
/// little work instead of the next group's chains (about 5% off a kd-tree
/// read or a brute scan at k = 5).
template <typename V, typename Done>
[[gnu::always_inline]] inline void lane_chains(const double* groups, std::size_t count,
                                              std::span<const double> query, Done&& done) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kVectors = kLanes / kWidth;
  static_assert(kWidth == 2 || kWidth == 4);
  const std::size_t d = query.size();
  V last[kVectors] = {};
  for (std::size_t g = 0; g < count; ++g, groups += kLanes * d) {
    V acc[kVectors] = {};
    for (std::size_t c = 0; c < d; ++c) {
      const double* x = groups + c * kLanes;
      const double q = query[c];
      for (std::size_t v = 0; v < kVectors; ++v, x += kWidth) {
        V diff;
        if constexpr (kWidth == 2) {
          diff = V{x[0], x[1]} - V{q, q};
        } else {
          diff = V{x[0], x[1], x[2], x[3]} - V{q, q, q, q};
        }
        acc[v] += diff * diff;
      }
    }
    if (g > 0) done(g - 1, last);
    for (std::size_t v = 0; v < kVectors; ++v) last[v] = acc[v];
  }
  if (count > 0) done(count - 1, last);
}

/// The smallest of a group's kLanes distances: a vector min across the
/// group's vectors, then across the lanes of one.
template <typename V>
[[gnu::always_inline]] inline double lane_min(const V* acc) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  V m = acc[0];
  for (std::size_t v = 1; v < kLanes / kWidth; ++v) m = acc[v] < m ? acc[v] : m;
  Vec16 pair;
  if constexpr (kWidth == 4) {
    const Vec16 lo{m[0], m[1]};
    const Vec16 hi{m[2], m[3]};
    pair = hi < lo ? hi : lo;
  } else {
    pair = m;
  }
  return pair[1] < pair[0] ? pair[1] : pair[0];
}

template <typename V>
[[gnu::always_inline]] inline void score_groups(const double* groups, std::size_t count,
                                                std::span<const double> query, double* out) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  lane_chains<V>(groups, count, query,
                 [out](std::size_t g, const V* acc) {
                   for (std::size_t l = 0; l < kLanes; ++l)
                     out[g * kLanes + l] = acc[l / kWidth][l % kWidth];
                 });
}

}  // namespace

/// The selection's side of the kernel body, a friend of NearestK. Each ISA
/// variant's select is built with all of it inlined ([[gnu::flatten]]), so
/// no offer leaves the variant's code. Called out of line from the avx2
/// variant, a scalar offer ran as legacy SSE code beside dirty upper vector
/// halves (GCC emits no vzeroupper before a call to a local function that
/// uses no 256-bit register), and the scan read about 3x the vec16
/// variant's time.
struct LaneSelection {
  /// A group whose smallest lane exceeds the live bound costs one compare.
  /// Otherwise the lanes of real rows that pass it become a bit mask, and
  /// each set lane is offered.
  template <typename V>
  [[gnu::always_inline]] static void select(const double* groups, std::size_t rows,
                                            TieIds ids, NearestK& best) {
    constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
    lane_chains<V>(
        groups, (rows + kLanes - 1) / kLanes, best.query_,
        [&](std::size_t g, const V* acc) {
          const double bound = best.bound_;
          if (lane_min(acc) > bound) return;
          unsigned pass = 0;
          for (std::size_t l = 0; l < kLanes; ++l)
            pass |= static_cast<unsigned>(acc[l / kWidth][l % kWidth] <= bound) << l;
          // Lanes past `rows` are padding or rows outside the range.
          pass &= (1u << std::min(kLanes, rows - g * kLanes)) - 1;
          for (; pass != 0; pass &= pass - 1) {
            const auto l = static_cast<std::size_t>(__builtin_ctz(pass));
            offer(best, {ids.of(g * kLanes + l), acc[l / kWidth][l % kWidth]});
          }
        });
  }

  /// The first k candidates fill the slots unordered. The first one past
  /// them turns the slots into a max-heap and sets the bound, so a
  /// selection that is never contested (k >= rows offered) is sorted
  /// straight from scan order, which std::sort does faster than heap order.
  /// After that a candidate closer than the root replaces it and sifts down
  /// in one pass (pop_heap followed by push_heap would walk the heap twice).
  [[gnu::always_inline]] static void offer(NearestK& best, Neighbor candidate) {
    Neighbor* heap = best.slots();
    const std::size_t n = best.k_;
    if (best.held_ < n) {
      heap[best.held_++] = candidate;
      return;
    }
    if (!best.heaped_) {
      std::make_heap(heap, heap + n, closer);
      best.heaped_ = true;
      best.bound_ = heap[0].distance_sq;
    }
    if (!closer(candidate, heap[0])) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < n) {
      if (child + 1 < n && closer(heap[child], heap[child + 1])) ++child;
      if (!closer(candidate, heap[child])) break;
      heap[hole] = heap[child];
      hole = child;
      child = 2 * hole + 1;
    }
    heap[hole] = candidate;
    best.bound_ = heap[0].distance_sq;
  }
};

namespace {

[[gnu::flatten]] void score_vec16(const double* groups, std::size_t count,
                                  std::span<const double> query, double* out) {
  score_groups<Vec16>(groups, count, query, out);
}

[[gnu::flatten]] void select_vec16(const double* groups, std::size_t rows, TieIds ids,
                                   NearestK& best) {
  LaneSelection::select<Vec16>(groups, rows, ids, best);
}

#if defined(__x86_64__)
typedef double Vec32 __attribute__((vector_size(32)));

__attribute__((target("avx2"), flatten)) void score_avx2(const double* groups,
                                                         std::size_t count,
                                                         std::span<const double> query,
                                                         double* out) {
  score_groups<Vec32>(groups, count, query, out);
}

__attribute__((target("avx2"), flatten)) void select_avx2(const double* groups,
                                                          std::size_t rows, TieIds ids,
                                                          NearestK& best) {
  LaneSelection::select<Vec32>(groups, rows, ids, best);
}
#endif

}  // namespace

LaneBlocks::LaneBlocks(const linalg::Matrix& rows) : dims_(rows.cols()) { append(rows); }

void LaneBlocks::reserve(std::size_t rows) {
  data_.reserve((rows + kLanes - 1) / kLanes * kLanes * dims_);
}

void LaneBlocks::append(std::span<const double> row) {
  SAP_REQUIRE(row.size() == dims_, "LaneBlocks::append: dimension mismatch");
  const std::size_t lane = rows_ % kLanes;
  if (lane == 0) data_.resize(data_.size() + kLanes * dims_, 0.0);
  double* values = data_.data() + (rows_ - lane) * dims_ + lane;
  for (std::size_t c = 0; c < dims_; ++c) values[c * kLanes] = row[c];
  ++rows_;
}

void LaneBlocks::append(const linalg::Matrix& more) {
  reserve(rows_ + more.rows());
  for (std::size_t r = 0; r < more.rows(); ++r) append(more.row(r));
}

void LaneBlocks::copy_row(std::size_t r, std::span<double> out) const {
  SAP_REQUIRE(r < rows_ && out.size() == dims_, "LaneBlocks::copy_row: out of range");
  const double* values = data_.data() + (r - r % kLanes) * dims_ + r % kLanes;
  for (std::size_t c = 0; c < dims_; ++c) out[c] = values[c * kLanes];
}

linalg::Matrix LaneBlocks::unpack() const {
  linalg::Matrix out(rows_, dims_);
  for (std::size_t r = 0; r < rows_; ++r) copy_row(r, out.row(r));
  return out;
}

std::vector<LaneKernel> supported_lane_kernels() {
  std::vector<LaneKernel> kernels{{"vec16", score_vec16, select_vec16}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) kernels.push_back({"avx2", score_avx2, select_avx2});
#endif
  return kernels;
}

const LaneKernel& lane_kernel() {
  static const LaneKernel picked = supported_lane_kernels().back();
  return picked;
}

NearestK::NearestK(std::span<const double> query, std::size_t k, double radius)
    : query_(query),
      k_(k),
      bound_(k == 0 ? -std::numeric_limits<double>::infinity() : radius),
      select_(lane_kernel().select),
      spilled_(k > kInPlace ? std::make_unique_for_overwrite<Neighbor[]>(k) : nullptr) {}

void NearestK::scan(const LaneBlocks& rows, std::size_t first_id) {
  scan_range(rows, 0, rows.rows(), {nullptr, first_id});
}

void NearestK::scan(const LaneBlocks& rows, std::size_t begin, std::size_t end,
                    const std::size_t* ids) {
  scan_range(rows, begin, end, {ids, 0});
}

void NearestK::scan_range(const LaneBlocks& rows, std::size_t begin, std::size_t end,
                          TieIds ids) {
  SAP_REQUIRE(begin % kLanes == 0 && begin <= end && end <= rows.rows() &&
                  (begin == end || rows.dims() == query_.size()),
              "NearestK::scan: rows do not match the query or the range");
  if (begin < end) select_(rows.group(begin / kLanes), end - begin, ids, *this);
}

std::span<const Neighbor> NearestK::sorted() {
  Neighbor* held = slots();
  std::sort(held, held + held_, closer);
  return {held, held_};
}

}  // namespace sap::ml

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

/// The one kernel body, over vectors V of 2 or 4 doubles: per group, each
/// lane runs the scalar chain `diff = x[c] - q[c]; acc += diff * diff`
/// ascending from 0.0 as IEEE vector sub, mul and add. Nothing fuses the mul
/// into the add (-ffp-contract=off, and no variant enables FMA), so every
/// lane's distance is the scalar loop's double. Lanes load through element
/// initializers, which the compiler folds into one vector load each.
template <typename V>
[[gnu::always_inline]] inline void score_groups(const double* groups, std::size_t count,
                                                std::span<const double> query, double* out) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kVectors = kLanes / kWidth;
  static_assert(kWidth == 2 || kWidth == 4);
  const std::size_t d = query.size();
  for (std::size_t g = 0; g < count; ++g, groups += kLanes * d, out += kLanes) {
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
    for (std::size_t v = 0; v < kVectors; ++v)
      for (std::size_t l = 0; l < kWidth; ++l) out[v * kWidth + l] = acc[v][l];
  }
}

typedef double Vec16 __attribute__((vector_size(16)));

void score_vec16(const double* groups, std::size_t count, std::span<const double> query,
                 double* out) {
  score_groups<Vec16>(groups, count, query, out);
}

#if defined(__x86_64__)
typedef double Vec32 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void score_avx2(const double* groups, std::size_t count,
                                                std::span<const double> query, double* out) {
  score_groups<Vec32>(groups, count, query, out);
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
  std::vector<LaneKernel> kernels{{"vec16", score_vec16}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) kernels.push_back({"avx2", score_avx2});
#endif
  return kernels;
}

const LaneKernel& lane_kernel() {
  static const LaneKernel picked = supported_lane_kernels().back();
  return picked;
}

NearestK::NearestK(std::span<const double> query, std::size_t k)
    : query_(query),
      k_(k),
      bound_(k == 0 ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::infinity()),
      score_(lane_kernel().score) {
  best_.reserve(k);
}

void NearestK::scan(const LaneBlocks& rows, std::size_t first_id) {
  scan_rows(rows, 0, rows.rows(), [first_id](std::size_t r) { return first_id + r; });
}

void NearestK::scan(const LaneBlocks& rows, std::size_t begin, std::size_t end,
                    const std::size_t* ids) {
  scan_rows(rows, begin, end, [ids](std::size_t r) { return ids[r]; });
}

template <typename IdOf>
void NearestK::scan_rows(const LaneBlocks& rows, std::size_t begin, std::size_t end,
                         IdOf id_of) {
  SAP_REQUIRE(begin % kLanes == 0 && begin <= end && end <= rows.rows() &&
                  (begin == end || rows.dims() == query_.size()),
              "NearestK::scan: rows do not match the query or the range");
  for (std::size_t at = begin; at < end; at += kChunk) {
    const std::size_t count = std::min(kChunk, end - at);
    const std::size_t groups = (count + kLanes - 1) / kLanes;
    score_(rows.group(at / kLanes), groups, query_, distances_.data());
    for (std::size_t g = 0; g < groups; ++g) {
      const double* dist = distances_.data() + g * kLanes;
      bool any = false;
      for (std::size_t l = 0; l < kLanes; ++l) any |= dist[l] <= bound_;
      if (!any) continue;
      // Lanes past `count` are padding or rows outside the range: never offered.
      const std::size_t lanes = std::min(kLanes, count - g * kLanes);
      for (std::size_t l = 0; l < lanes; ++l)
        if (dist[l] <= bound_) offer(dist[l], id_of(at - begin + g * kLanes + l));
    }
  }
}

void NearestK::offer(double distance_sq, std::size_t index) {
  const Neighbor candidate{index, distance_sq};
  if (best_.size() < k_) {
    best_.push_back(candidate);
    return;
  }
  // The heap and the bound are set up by the first candidate past k, so a
  // selection that is never contested (k >= rows offered) is sorted
  // straight from scan order, which std::sort does faster than heap order.
  if (!heap_) {
    std::make_heap(best_.begin(), best_.end(), closer);
    heap_ = true;
    bound_ = best_.front().distance_sq;
  }
  if (closer(candidate, best_.front())) replace_worst(candidate);
}

void NearestK::replace_worst(Neighbor candidate) {
  // Sift the candidate down from the root in one pass (pop_heap followed by
  // push_heap would walk the heap twice).
  const std::size_t n = best_.size();
  std::size_t hole = 0;
  std::size_t child = 1;
  while (child < n) {
    if (child + 1 < n && closer(best_[child], best_[child + 1])) ++child;
    if (!closer(candidate, best_[child])) break;
    best_[hole] = best_[child];
    hole = child;
    child = 2 * hole + 1;
  }
  best_[hole] = candidate;
  bound_ = best_.front().distance_sq;
}

std::vector<Neighbor> NearestK::take() {
  std::sort(best_.begin(), best_.end(), closer);
  return std::move(best_);
}

}  // namespace sap::ml

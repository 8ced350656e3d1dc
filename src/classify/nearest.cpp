#include "classify/nearest.hpp"

#include <algorithm>
#include <limits>

namespace sap::ml {
namespace {

/// The selection's total order: (distance_sq, index) ascending. A lambda,
/// not a function, so std::sort and std::make_heap inline it.
constexpr auto closer = [](const Neighbor& a, const Neighbor& b) {
  if (a.distance_sq != b.distance_sq) return a.distance_sq < b.distance_sq;
  return a.index < b.index;
};

}  // namespace

NearestK::NearestK(std::span<const double> query, std::size_t k)
    : query_(query),
      k_(k),
      bound_(k == 0 ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::infinity()) {
  best_.reserve(k);
}

void NearestK::scan(const double* rows, std::size_t count, const std::size_t* ids) {
  scan_rows(rows, count, [ids](std::size_t r) { return ids[r]; });
}

void NearestK::scan(const double* rows, std::size_t count, std::size_t first_id) {
  scan_rows(rows, count, [first_id](std::size_t r) { return first_id + r; });
}

template <typename IdOf>
void NearestK::scan_rows(const double* rows, std::size_t count, IdOf id_of) {
  const double* q = query_.data();
  const std::size_t d = query_.size();
  std::size_t r = 0;
  // Four rows per pass: four independent chains in flight, each the exact
  // ascending-dimension sequence of the one-row loop below.
  for (; r + 4 <= count; r += 4) {
    const double* p0 = rows + r * d;
    const double* p1 = p0 + d;
    const double* p2 = p1 + d;
    const double* p3 = p2 + d;
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff0 = p0[c] - q[c];
      const double diff1 = p1[c] - q[c];
      const double diff2 = p2[c] - q[c];
      const double diff3 = p3[c] - q[c];
      acc0 += diff0 * diff0;
      acc1 += diff1 * diff1;
      acc2 += diff2 * diff2;
      acc3 += diff3 * diff3;
    }
    if (acc0 <= bound_) offer(acc0, id_of(r));
    if (acc1 <= bound_) offer(acc1, id_of(r + 1));
    if (acc2 <= bound_) offer(acc2, id_of(r + 2));
    if (acc3 <= bound_) offer(acc3, id_of(r + 3));
  }
  for (; r < count; ++r) {
    const double* p = rows + r * d;
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = p[c] - q[c];
      acc += diff * diff;
    }
    if (acc <= bound_) offer(acc, id_of(r));
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

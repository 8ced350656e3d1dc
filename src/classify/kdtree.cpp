#include "classify/kdtree.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace sap::ml {

KdTree::KdTree(linalg::Matrix points) : points_(std::move(points)), ids_(points_.rows()) {
  SAP_REQUIRE(points_.rows() > 0 && points_.cols() > 0, "KdTree: empty point set");
  std::iota(ids_.begin(), ids_.end(), std::size_t{0});
  rebuild();
}

KdTree::KdTree(const KdTree& base, const linalg::Matrix& more)
    : ids_(base.ids_), nodes_(base.nodes_), root_(base.root_), indexed_(base.indexed_) {
  SAP_REQUIRE(more.rows() == 0 || more.cols() == base.dims(),
              "KdTree: dimension mismatch");
  points_ = linalg::Matrix::vcat(base.points_, more);
  for (std::size_t i = 0; i < more.rows(); ++i) ids_.push_back(base.size() + i);
  maybe_rebuild();
}

void KdTree::rebuild() {
  const std::size_t n = size();
  const std::size_t d = dims();
  std::vector<std::size_t> order(n);  // tree position -> current stored row
  std::iota(order.begin(), order.end(), std::size_t{0});
  nodes_.clear();
  nodes_.reserve(2 * n / kLeafSize + 4);
  root_ = build(order, 0, n, 0);

  // Store the rows in tree order (new row i = current row order[i]),
  // following each cycle of the permutation with one scratch row.
  double* data = points_.data().data();
  std::vector<double> scratch(d);
  for (std::size_t start = 0; start < n; ++start) {
    if (order[start] == start) continue;  // in place, or placed by an earlier cycle
    std::copy_n(data + start * d, d, scratch.begin());
    const std::size_t start_id = ids_[start];
    std::size_t hole = start;
    for (std::size_t src = order[hole]; src != start; src = order[hole]) {
      std::copy_n(data + src * d, d, data + hole * d);
      ids_[hole] = ids_[src];
      order[hole] = hole;
      hole = src;
    }
    std::copy_n(scratch.begin(), d, data + hole * d);
    ids_[hole] = start_id;
    order[hole] = hole;
  }
  indexed_ = n;
}

void KdTree::insert(const linalg::Matrix& more) {
  if (more.rows() == 0) return;
  SAP_REQUIRE(more.cols() == dims(), "KdTree::insert: dimension mismatch");
  const std::size_t first_new = size();
  points_ = linalg::Matrix::vcat(points_, more);
  for (std::size_t i = 0; i < more.rows(); ++i) ids_.push_back(first_new + i);
  maybe_rebuild();
}

void KdTree::maybe_rebuild() {
  // Amortization: once the brute tail outgrows an eighth of the indexed
  // prefix, pay one full rebuild and return queries to pure branch-and-bound.
  if (tail_size() * 8 > indexed_) rebuild();
}

int KdTree::build(std::vector<std::size_t>& order, std::size_t begin, std::size_t end,
                  std::size_t depth) {
  Node node;
  node.begin = begin;
  node.end = end;
  const std::size_t count = end - begin;
  if (count <= kLeafSize) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  // Split on the dimension with the largest spread in this range (more
  // robust than cycling dimensions on skewed data).
  const std::size_t d = dims();
  const double* data = points_.data().data();
  std::size_t best_dim = depth % d;
  double best_spread = -1.0;
  for (std::size_t dim = 0; dim < d; ++dim) {
    double lo = data[order[begin] * d + dim];
    double hi = lo;
    for (std::size_t i = begin + 1; i < end; ++i) {
      const double v = data[order[i] * d + dim];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = dim;
    }
  }
  if (best_spread <= 0.0) {  // all points identical in range: make a leaf
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  const std::size_t mid = begin + count / 2;
  std::nth_element(order.begin() + static_cast<std::ptrdiff_t>(begin),
                   order.begin() + static_cast<std::ptrdiff_t>(mid),
                   order.begin() + static_cast<std::ptrdiff_t>(end),
                   [&](std::size_t a, std::size_t b) {
                     return data[a * d + best_dim] < data[b * d + best_dim];
                   });
  node.split_dim = best_dim;
  node.split_value = data[order[mid] * d + best_dim];

  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);  // placeholder; children filled below
  const int left = build(order, begin, mid, depth + 1);
  const int right = build(order, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

void KdTree::search(int node_index, std::span<const double> query, std::span<double> gaps,
                    NearestK& best) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];

  if (node.left < 0) {  // leaf: one contiguous block of stored rows
    best.scan(points_.data().data() + node.begin * dims(), node.end - node.begin,
              ids_.data() + node.begin);
    return;
  }

  const double delta = query[node.split_dim] - node.split_value;
  const int near = (delta < 0.0) ? node.left : node.right;
  const int far = (delta < 0.0) ? node.right : node.left;
  search(near, query, gaps, best);  // the near cell keeps this cell's gaps
  // Prune the far cell only when its box is provably farther than the
  // current worst neighbor (bound() is +inf until k are held). `lower` is
  // the far cell's per-dimension gaps squared and summed in the kernel's
  // ascending chain from 0.0, so it never exceeds any of the cell's rows'
  // computed distances (DESIGN.md §8). An incremental update or a
  // reordered sum can overshoot them.
  const double saved = gaps[node.split_dim];
  gaps[node.split_dim] = delta;
  double lower = 0.0;
  for (const double gap : gaps) lower += gap * gap;
  if (lower <= best.bound()) search(far, query, gaps, best);
  gaps[node.split_dim] = saved;
}

std::vector<Neighbor> KdTree::nearest(std::span<const double> query, std::size_t k) const {
  SAP_REQUIRE(query.size() == dims(), "KdTree::nearest: dimension mismatch");
  SAP_REQUIRE(k >= 1, "KdTree::nearest: k must be >= 1");
  NearestK best(query, std::min(k, size()));
  std::vector<double> gaps(dims(), 0.0);  // query to the current cell's box, per dimension
  search(root_, query, gaps, best);
  best.scan(points_.data().data() + indexed_ * dims(), tail_size(), ids_.data() + indexed_);
  return best.take();
}

}  // namespace sap::ml

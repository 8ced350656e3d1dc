#include "classify/kdtree.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/error.hpp"

namespace sap::ml {

KdTree::KdTree(const linalg::Matrix& points) {
  SAP_REQUIRE(points.rows() > 0 && points.cols() > 0, "KdTree: empty point set");
  std::vector<std::size_t> ids(points.rows());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  index(points, ids);
}

KdTree::KdTree(const KdTree& base, const linalg::Matrix& more)
    : tree_(base.tree_), ids_(base.ids_), tail_(base.tail_), nodes_(base.nodes_),
      root_(base.root_) {
  SAP_REQUIRE(more.rows() == 0 || more.cols() == base.dims(),
              "KdTree: dimension mismatch");
  tail_.append(more);
  maybe_rebuild();
}

void KdTree::index(const linalg::Matrix& rows, const std::vector<std::size_t>& ids) {
  // Every row is in `rows` now: release the old blocks before packing anew.
  tree_ = LaneBlocks(rows.cols());
  tail_ = LaneBlocks(rows.cols());
  const std::size_t n = rows.rows();
  std::vector<std::size_t> order(n);  // tree position -> row of `rows`
  std::iota(order.begin(), order.end(), std::size_t{0});
  nodes_.clear();
  nodes_.reserve(2 * n / kLeafSize + 4);
  root_ = build(rows, order, 0, n, 0);

  tree_.reserve(n);
  ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tree_.append(rows.row(order[i]));
    ids_[i] = ids[order[i]];
  }
}

void KdTree::rebuild() {
  // Unpack the indexed rows and then the tail into one row-major matrix; the
  // tail's insertion indices continue the tree's.
  const std::size_t indexed = tree_.rows();
  linalg::Matrix rows(size(), dims());
  for (std::size_t r = 0; r < indexed; ++r) tree_.copy_row(r, rows.row(r));
  for (std::size_t r = 0; r < tail_.rows(); ++r) tail_.copy_row(r, rows.row(indexed + r));
  std::vector<std::size_t> ids(size());
  std::copy(ids_.begin(), ids_.end(), ids.begin());
  std::iota(ids.begin() + static_cast<std::ptrdiff_t>(indexed), ids.end(), indexed);
  index(rows, ids);
}

void KdTree::insert(const linalg::Matrix& more) {
  if (more.rows() == 0) return;
  SAP_REQUIRE(more.cols() == dims(), "KdTree::insert: dimension mismatch");
  tail_.append(more);
  maybe_rebuild();
}

void KdTree::maybe_rebuild() {
  // Amortization: once the brute tail outgrows an eighth of the indexed
  // prefix, pay one full rebuild and return queries to pure branch-and-bound.
  if (tail_.rows() * 8 > tree_.rows()) rebuild();
}

int KdTree::build(const linalg::Matrix& rows, std::vector<std::size_t>& order,
                  std::size_t begin, std::size_t end, std::size_t depth) {
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
  const std::size_t d = rows.cols();
  const double* data = rows.data().data();
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

  // The split nearest the median that keeps both children on lane-group
  // boundaries: a multiple of kLanes rows goes left, at least kLanes and
  // fewer than count.
  constexpr std::size_t kLanes = LaneBlocks::kLanes;
  const std::size_t mid = begin + (count / 2 + kLanes / 2) / kLanes * kLanes;
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
  const int left = build(rows, order, begin, mid, depth + 1);
  const int right = build(rows, order, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

void KdTree::descend(int node_index, std::span<const double> query, std::span<double> gaps,
                     NearestK& best) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];

  if (node.left < 0) {  // leaf: whole lane groups of tree_
    best.scan(tree_, node.begin, node.end, ids_.data() + node.begin);
    return;
  }

  const double delta = query[node.split_dim] - node.split_value;
  const int near = (delta < 0.0) ? node.left : node.right;
  const int far = (delta < 0.0) ? node.right : node.left;
  // Prune the far cell only when its box is provably farther than the
  // current worst neighbor (bound() is +inf until k are held). `lower` is
  // the far cell's per-dimension gaps squared and summed in the kernel's
  // ascending chain from 0.0, so it never exceeds any of the cell's rows'
  // computed distances (DESIGN.md §8). An incremental update or a
  // reordered sum can overshoot them. It is summed before the near cell's
  // search, which leaves the gaps as it found them, so the chain's latency
  // hides behind that search.
  const double saved = gaps[node.split_dim];
  gaps[node.split_dim] = delta;
  double lower = 0.0;
  for (const double gap : gaps) lower += gap * gap;
  gaps[node.split_dim] = saved;
  descend(near, query, gaps, best);  // the near cell keeps this cell's gaps
  if (lower > best.bound()) return;
  gaps[node.split_dim] = delta;
  descend(far, query, gaps, best);
  gaps[node.split_dim] = saved;
}

std::vector<std::pair<std::size_t, double>> KdTree::splits_above(std::size_t index) const {
  const auto at = static_cast<std::size_t>(std::find(ids_.begin(), ids_.end(), index) -
                                           ids_.begin());
  SAP_REQUIRE(at < ids_.size(), "KdTree::splits_above: the point is not indexed");
  std::vector<std::pair<std::size_t, double>> splits;
  for (int n = root_; nodes_[static_cast<std::size_t>(n)].left >= 0;) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    splits.emplace_back(node.split_dim, node.split_value);
    n = at < nodes_[static_cast<std::size_t>(node.left)].end ? node.left : node.right;
  }
  return splits;
}

std::vector<Neighbor> KdTree::nearest(std::span<const double> query, std::size_t k) const {
  SAP_REQUIRE(k >= 1, "KdTree::nearest: k must be >= 1");
  NearestK best(query, std::min(k, size()));
  search(best);
  const auto sorted = best.sorted();
  return {sorted.begin(), sorted.end()};
}

void KdTree::search(NearestK& best) const {
  const std::span<const double> query = best.query();
  SAP_REQUIRE(query.size() == dims(), "KdTree::search: dimension mismatch");
  // The query's offset from the current cell's box, per dimension.
  std::array<double, kStackGaps> stack_gaps{};
  std::vector<double> heap_gaps(dims() > kStackGaps ? dims() : 0, 0.0);
  const std::span<double> gaps =
      heap_gaps.empty() ? std::span(stack_gaps).first(dims()) : std::span(heap_gaps);
  descend(root_, query, gaps, best);
  best.scan(tail_, tree_.rows());
}

}  // namespace sap::ml

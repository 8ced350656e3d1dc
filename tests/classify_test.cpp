// Tests for sap::ml: KNN, SVM(RBF)/SMO, perceptron, evaluation utilities —
// including the rotation-invariance property that underpins the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include <numbers>

#include "classify/knn.hpp"
#include "classify/naive_bayes.hpp"
#include "classify/nearest.hpp"
#include "classify/perceptron.hpp"
#include "classify/svm.hpp"
#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "linalg/orthogonal.hpp"
#include "perturb/geometric.hpp"
#include "rng/rng.hpp"

namespace {

using sap::data::Dataset;
using sap::linalg::Matrix;
using sap::rng::Engine;

/// Two well-separated Gaussian blobs — a sanity problem every classifier
/// must ace.
Dataset blobs(std::size_t n_per_class, std::uint64_t seed) {
  Engine eng(seed);
  Matrix f(2 * n_per_class, 2);
  std::vector<int> labels(2 * n_per_class);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    f(i, 0) = eng.normal(-2.0, 0.5);
    f(i, 1) = eng.normal(-2.0, 0.5);
    labels[i] = 0;
    f(n_per_class + i, 0) = eng.normal(2.0, 0.5);
    f(n_per_class + i, 1) = eng.normal(2.0, 0.5);
    labels[n_per_class + i] = 1;
  }
  return {"blobs", std::move(f), std::move(labels)};
}

/// XOR pattern — linearly inseparable; separable by RBF-SVM and KNN.
Dataset xor_data(std::size_t n_per_corner, std::uint64_t seed) {
  Engine eng(seed);
  Matrix f(4 * n_per_corner, 2);
  std::vector<int> labels(4 * n_per_corner);
  const double centers[4][2] = {{-1, -1}, {1, 1}, {-1, 1}, {1, -1}};
  for (std::size_t corner = 0; corner < 4; ++corner) {
    for (std::size_t i = 0; i < n_per_corner; ++i) {
      const std::size_t row = corner * n_per_corner + i;
      f(row, 0) = eng.normal(centers[corner][0], 0.25);
      f(row, 1) = eng.normal(centers[corner][1], 0.25);
      labels[row] = corner < 2 ? 0 : 1;
    }
  }
  return {"xor", std::move(f), std::move(labels)};
}

// ------------------------------------------------------------ KNN

TEST(Knn, SeparatesBlobs) {
  const Dataset train = blobs(60, 1);
  const Dataset test = blobs(40, 2);
  sap::ml::Knn knn(5);
  knn.fit(train);
  EXPECT_GT(sap::ml::accuracy(knn, test), 0.97);
}

TEST(Knn, SolvesXor) {
  const Dataset train = xor_data(40, 3);
  const Dataset test = xor_data(25, 4);
  sap::ml::Knn knn(5);
  knn.fit(train);
  EXPECT_GT(sap::ml::accuracy(knn, test), 0.95);
}

TEST(Knn, OneNearestNeighborMemorizesTraining) {
  const Dataset train = blobs(30, 5);
  sap::ml::Knn knn(1);
  knn.fit(train);
  EXPECT_DOUBLE_EQ(sap::ml::accuracy(knn, train), 1.0);
}

TEST(Knn, KLargerThanTrainingSetStillWorks) {
  const Dataset train = blobs(5, 6);
  sap::ml::Knn knn(100);
  knn.fit(train);
  // Degenerates to majority class; must not crash or read out of range.
  const int pred = knn.predict(train.record(0));
  EXPECT_TRUE(pred == 0 || pred == 1);
}

TEST(Knn, InvalidUsagesThrow) {
  EXPECT_THROW(sap::ml::Knn(0), sap::Error);
  sap::ml::Knn knn(3);
  const std::vector<double> probe{0.0, 0.0};
  EXPECT_THROW((void)knn.predict(probe), sap::Error);  // before fit
  knn.fit(blobs(10, 7));
  const std::vector<double> wrong_dims{0.0, 0.0, 0.0};
  EXPECT_THROW((void)knn.predict(wrong_dims), sap::Error);
}

TEST(Knn, MulticlassOnSyntheticWine) {
  // Normalize first, as the paper's pipeline does — KNN is scale-sensitive.
  const Dataset raw = sap::data::make_uci("Wine", 8);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const Dataset ds(raw.name(), norm.transform(raw.features()), raw.labels());
  Engine eng(9);
  const auto split = sap::data::stratified_split(ds, 0.7, eng);
  sap::ml::Knn knn(5);
  knn.fit(split.train);
  EXPECT_GT(sap::ml::accuracy(knn, split.test), 0.8);
}

// ------------------------------------------------------------ kd-tree

TEST(KdTree, NearestSingleObviousPoint) {
  Matrix pts{{0, 0}, {10, 10}, {-5, 3}};
  sap::ml::KdTree tree(pts);
  const std::vector<double> q{9.0, 9.0};
  const auto nn = tree.nearest(q, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].index, 1u);
  EXPECT_NEAR(nn[0].distance_sq, 2.0, 1e-12);
}

TEST(KdTree, KClampedToSize) {
  Matrix pts{{0.0}, {1.0}};
  sap::ml::KdTree tree(pts);
  const std::vector<double> q{0.4};
  EXPECT_EQ(tree.nearest(q, 10).size(), 2u);
}

TEST(KdTree, DuplicatePointsHandled) {
  Matrix pts(40, 2, 0.5);  // all identical
  sap::ml::KdTree tree(pts);
  const std::vector<double> q{0.5, 0.5};
  const auto nn = tree.nearest(q, 5);
  ASSERT_EQ(nn.size(), 5u);
  // Tie-break by index: the five smallest indices.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(nn[i].index, i);
}

TEST(KdTree, InvalidUsagesThrow) {
  EXPECT_THROW(sap::ml::KdTree{Matrix{}}, sap::Error);
  Matrix pts{{0.0, 0.0}};
  sap::ml::KdTree tree(pts);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(tree.nearest(bad, 1), sap::Error);
  const std::vector<double> ok{1.0, 2.0};
  EXPECT_THROW(tree.nearest(ok, 0), sap::Error);
}

// ------------------------------------------------ the lane kernel

/// The plain one-row loop every kNN distance must reproduce bit for bit.
double scalar_distance(std::span<const double> row, std::span<const double> q) {
  double acc = 0.0;
  for (std::size_t c = 0; c < q.size(); ++c) {
    const double diff = row[c] - q[c];
    acc += diff * diff;
  }
  return acc;
}

/// A coordinate of one of four kinds: half-integers (exact ties), signed
/// zeros among small integers, values whose squares are subnormal (and
/// subnormals themselves), and mixed binary exponents (every sum rounds).
double lane_coordinate(int kind, Engine& eng) {
  switch (kind) {
    case 0: return std::round(eng.uniform(0.0, 6.0)) / 2.0;
    case 1: {
      constexpr std::array<double, 5> kValues{0.0, -0.0, 1.0, -1.0, 2.0};
      return kValues[eng.uniform_index(kValues.size())];
    }
    case 2:
      if (eng.uniform_index(4) == 0)
        return std::numeric_limits<double>::denorm_min() *
               static_cast<double>(eng.uniform_index(1000));
      return std::ldexp(eng.uniform(-1.0, 1.0), -520 - static_cast<int>(eng.uniform_index(12)));
    default:
      return std::ldexp(eng.uniform(-1.0, 1.0), static_cast<int>(eng.uniform_index(60)) - 30);
  }
}

TEST(LaneKernel, EveryVariantMatchesTheScalarLoopBitForBit) {
  // Each ISA variant this CPU runs (vec16 always; avx2 only where the CPU has
  // it) must give every row the scalar loop's distance, bit for bit, in that
  // row's lane: counts 1-17 cover every padding remainder, d 1-12 every
  // short and long chain.
  const auto kernels = sap::ml::supported_lane_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "vec16");
  EXPECT_STREQ(sap::ml::lane_kernel().name, kernels.back().name);
  constexpr std::size_t kLanes = sap::ml::LaneBlocks::kLanes;
  Engine eng(2501);
  for (const auto& kernel : kernels) {
    SCOPED_TRACE(kernel.name);
    for (int kind = 0; kind < 4; ++kind) {
      for (std::size_t d = 1; d <= 12; ++d) {
        for (std::size_t count = 1; count <= 17; ++count) {
          Matrix rows(count, d);
          for (auto& v : rows.data()) v = lane_coordinate(kind, eng);
          std::vector<double> q(d);
          for (auto& v : q) v = lane_coordinate(kind, eng);
          const sap::ml::LaneBlocks blocks(rows);
          std::vector<double> out(blocks.groups() * kLanes);
          kernel.score(blocks.group(0), blocks.groups(), q, out.data());
          for (std::size_t r = 0; r < count; ++r)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[r]),
                      std::bit_cast<std::uint64_t>(scalar_distance(rows.row(r), q)))
                << "kind " << kind << " d " << d << " count " << count << " row " << r;
        }
      }
    }
  }
}

/// Checks a selection against the scalar loop's k smallest (distance,
/// tie-id), distance bits included, for whole scans (tie-ids 40 + r) and for
/// a range starting at the second group (descending tie-ids), over every
/// data kind, d 1-12, counts 1-17 and k from 1 to past the count, so the
/// heap runs in its in-place slots (k <= 8) and in allocated ones, full and
/// not. Half the queries sit at the
/// origin, where every padding lane (a 0.0 row) is at distance 0, as close
/// as a row can be: a padding lane offered would show up as an extra or
/// out-of-range tie-id. `select(best, blocks, begin, end, ids)` offers rows
/// [begin, end) of `blocks` to `best`, row begin + r with tie-id ids.of(r).
template <typename Select>
void expect_scalar_selection(Select select) {
  constexpr std::size_t kLanes = sap::ml::LaneBlocks::kLanes;
  Engine eng(2502);
  for (int kind = 0; kind < 4; ++kind) {
    for (std::size_t d = 1; d <= 12; ++d) {
      for (std::size_t count = 1; count <= 17; ++count) {
        Matrix rows(count, d);
        for (auto& v : rows.data()) v = lane_coordinate(kind, eng);
        std::vector<double> q(d, 0.0);
        if (eng.uniform_index(2) == 0)
          for (auto& v : q) v = lane_coordinate(kind, eng);
        const sap::ml::LaneBlocks blocks(rows);
        const std::size_t first = count > kLanes ? kLanes : 0;
        std::vector<std::size_t> ids(count - first);
        for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 - i;
        for (const std::size_t k : {std::size_t{1}, count / 2 + 1, count, count + 3}) {
          std::vector<std::pair<double, std::size_t>> whole;
          std::vector<std::pair<double, std::size_t>> range;
          for (std::size_t r = 0; r < count; ++r) {
            whole.emplace_back(scalar_distance(rows.row(r), q), 40 + r);
            if (r >= first) range.emplace_back(whole.back().first, ids[r - first]);
          }
          std::sort(whole.begin(), whole.end());
          std::sort(range.begin(), range.end());
          const auto expect = [&](std::span<const sap::ml::Neighbor> got,
                                  const std::vector<std::pair<double, std::size_t>>& want) {
            ASSERT_EQ(got.size(), std::min(k, want.size()))
                << "kind " << kind << " d " << d << " count " << count << " k " << k;
            for (std::size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].index, want[i].second);
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].distance_sq),
                        std::bit_cast<std::uint64_t>(want[i].first));
            }
          };
          sap::ml::NearestK all(q, k);
          select(all, blocks, 0, count, sap::ml::TieIds{nullptr, 40});
          expect(all.sorted(), whole);
          sap::ml::NearestK part(q, k);
          select(part, blocks, first, count, sap::ml::TieIds{ids.data(), 0});
          expect(part.sorted(), range);
        }
      }
    }
  }
}

TEST(LaneKernel, SelectionMatchesTheScalarLoopAndNeverOffersPadding) {
  // Through NearestK::scan, which runs the variant lane_kernel() picked.
  expect_scalar_selection([](sap::ml::NearestK& best, const sap::ml::LaneBlocks& blocks,
                             std::size_t begin, std::size_t end, sap::ml::TieIds ids) {
    if (ids.ids == nullptr) {
      best.scan(blocks, ids.first);
    } else {
      best.scan(blocks, begin, end, ids.ids);
    }
  });
}

TEST(LaneKernel, EveryVariantSelectsLikeTheScalarLoop) {
  // Each variant this CPU runs, through its own select: the bound test and
  // the selection are compiled into every variant, not only the one
  // lane_kernel() picked.
  constexpr std::size_t kLanes = sap::ml::LaneBlocks::kLanes;
  for (const auto& kernel : sap::ml::supported_lane_kernels()) {
    SCOPED_TRACE(kernel.name);
    expect_scalar_selection([&kernel](sap::ml::NearestK& best, const sap::ml::LaneBlocks& blocks,
                                      std::size_t begin, std::size_t end, sap::ml::TieIds ids) {
      kernel.select(blocks.group(begin / kLanes), end - begin, ids, best);
    });
  }
}

TEST(LaneKernel, BlocksRoundTripRowsAndRejectMisfits) {
  Engine eng(2503);
  Matrix rows(11, 3);
  for (auto& v : rows.data()) v = eng.uniform();
  sap::ml::LaneBlocks blocks(rows.block(0, 0, 5, 3));
  blocks.append(rows.block(5, 0, 6, 3));  // fills the first group, then opens a second
  EXPECT_EQ(blocks.rows(), 11u);
  EXPECT_EQ(blocks.groups(), 2u);
  const Matrix unpacked = blocks.unpack();
  EXPECT_TRUE(std::equal(unpacked.data().begin(), unpacked.data().end(), rows.data().begin(),
                         rows.data().end()));
  EXPECT_EQ(blocks.group(1)[2 * sap::ml::LaneBlocks::kLanes + 7], 0.0);  // padding
  EXPECT_THROW(blocks.append(std::vector<double>{1.0}), sap::Error);
  const std::vector<double> q{0.5, 0.5, 0.5};
  sap::ml::NearestK best(q, 3);
  EXPECT_THROW(best.scan(blocks, 4, 11, nullptr), sap::Error);  // not a group boundary
  EXPECT_THROW(best.scan(blocks, 8, 12, nullptr), sap::Error);  // past the last row
  const std::vector<double> short_q{0.5};
  sap::ml::NearestK mismatched(short_q, 3);
  EXPECT_THROW(mismatched.scan(blocks, 0), sap::Error);
}

/// A coordinate on dimension c whose distances round: a 1e-4 spread on a
/// common 1e8 offset on odd dimensions, mixed binary exponents on even ones.
double rounding_coordinate(std::size_t c, Engine& eng) {
  if (c % 2 == 1) return 1e8 + eng.uniform(0.0, 1e-4);
  return std::ldexp(eng.uniform(-1.0, 1.0), static_cast<int>(eng.uniform_index(24)) - 12);
}

/// A query coordinate on dimension c: some stored row's value (a split
/// value, when that row was a median), or one ulp to either side of it.
double near_stored(const Matrix& pts, std::size_t c, Engine& eng) {
  const double v = pts(eng.uniform_index(pts.rows()), c);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (eng.uniform_index(3)) {
    case 0: return std::nextafter(v, -kInf);
    case 1: return std::nextafter(v, kInf);
    default: return v;
  }
}

class KdTreeEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KdTreeEquivalence, MatchesBruteForceExactly) {
  // The load-bearing property: kd-tree results (indices, distances, order)
  // must be bit-for-bit the brute-force answer, including ties — for every
  // k the job schema allows up to its maximum of 256 (k > n included), on a
  // fresh tree and on one whose last ninth sits in the brute tail. Two kinds
  // of data: half-integer coordinates force plenty of exact distance ties,
  // and unquantized ones make every distance and every cell bound round,
  // with queries landing on split values.
  const auto [n, d] = GetParam();
  const auto rows = static_cast<std::size_t>(n);
  const auto dims = static_cast<std::size_t>(d);
  Engine eng(1000 + n * 7 + d);
  for (const bool rounding : {false, true}) {
    SCOPED_TRACE(rounding ? "unquantized" : "half-integer");
    Matrix pts(rows, dims);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t c = 0; c < dims; ++c)
        pts(i, c) = rounding ? rounding_coordinate(c, eng)
                             : std::round(eng.uniform(0.0, 6.0)) / 2.0;
    const sap::ml::KdTree fresh(pts);
    const std::size_t head = rows - rows / 9;
    sap::ml::KdTree tailed(pts.block(0, 0, head, dims));
    tailed.insert(pts.block(head, 0, rows - head, dims));
    ASSERT_EQ(tailed.tail_size(), rows - head);
    const std::array<const sap::ml::KdTree*, 2> trees{&fresh, &tailed};

    for (int trial = 0; trial < 25; ++trial) {
      std::vector<double> q(dims);
      for (std::size_t c = 0; c < dims; ++c)
        q[c] = rounding ? near_stored(pts, c, eng) : std::round(eng.uniform(0.0, 6.0)) / 2.0;

      // Brute force with the same (distance, index) ordering.
      std::vector<std::pair<double, std::size_t>> brute;
      brute.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        double acc = 0.0;
        auto row = pts.row(i);
        for (std::size_t f = 0; f < dims; ++f) {
          const double diff = row[f] - q[f];
          acc += diff * diff;
        }
        brute.emplace_back(acc, i);
      }
      std::sort(brute.begin(), brute.end());

      for (const std::size_t k : {std::size_t{1} + eng.uniform_index(8), std::size_t{1},
                                  std::size_t{5}, std::size_t{64}, std::size_t{256}}) {
        const std::size_t expect_k = std::min(k, rows);
        for (const sap::ml::KdTree* tree : trees) {
          const auto got = tree->nearest(q, k);
          ASSERT_EQ(got.size(), expect_k);
          for (std::size_t i = 0; i < expect_k; ++i) {
            EXPECT_EQ(got[i].index, brute[i].second) << "k " << k << " rank " << i;
            EXPECT_EQ(got[i].distance_sq, brute[i].first) << "k " << k << " rank " << i;
          }
        }
      }
    }
  }
}

// (300, 70): more dimensions than a search keeps its cell gaps for on the
// stack.
INSTANTIATE_TEST_SUITE_P(SizesAndDims, KdTreeEquivalence,
                         ::testing::Values(std::pair{10, 2}, std::pair{50, 3},
                                           std::pair{200, 2}, std::pair{500, 5},
                                           std::pair{1000, 8}, std::pair{64, 1},
                                           std::pair{300, 9}, std::pair{300, 70}));

// Thousands of rows at low d: dozens of 64-row leaves, so the cell bound
// prunes at every depth and half-integer ties land on split values.
INSTANTIATE_TEST_SUITE_P(ManyLeaves, KdTreeEquivalence,
                         ::testing::Values(std::pair{2000, 2}, std::pair{3000, 3},
                                           std::pair{4000, 4}, std::pair{5000, 5}));

TEST(KdTreeBound, AscendingChainKeepsATieThatOtherSumsPrune) {
  // Data whose rounding separates the orders a far cell's gaps could be
  // summed in (DESIGN.md §8). The query is the origin. On its path the tree
  // splits dimension 0 at 1 and dimensions 1-3 at t = 2^-27, the query on
  // the low side each time, so the last far cell's gaps are 1 and three of
  // t: squared, 1 and three of 2^-54. Ascending from 0.0 they sum to
  // exactly 1; descending, to 1 + 2^-52. That cell holds f = (1, t, t, t),
  // at distance exactly 1, and the near half holds z = (-1, 0, 0, 0), also
  // at distance 1 but with a larger tie-id, so the one nearest is f, found
  // only if the cell is searched at a bound of exactly 1. With dimension 0
  // split last, an incremental (Arya-Mount) bound adds the 1 after the
  // three small terms and overshoots too. Every other row is farther; at
  // each split the dimension has the largest spread of its cell, f is the
  // median, and the rows below it go to the near side; f's 64 rows are one
  // leaf (kd-tree leaves hold up to 64). The test first checks that shape
  // through splits_above(), so a change to the build rules fails it instead
  // of leaving data that no longer separates the sums.
  const double t = std::ldexp(1.0, -27);
  for (const std::array<std::size_t, 4> split_dims :
       {std::array<std::size_t, 4>{0, 1, 2, 3}, std::array<std::size_t, 4>{1, 2, 3, 0}}) {
    SCOPED_TRACE(::testing::Message() << "dimension 0 split at depth "
                                      << (split_dims[0] == 0 ? 0 : 3));
    // Rows off the path take 1.5 on dimension 0 and 0.5 elsewhere: above
    // every split value.
    const std::array<double, 4> beside{1.5, 0.5, 0.5, 0.5};
    std::vector<std::array<double, 4>> rows{{1.0, t, t, t}};  // f, tie-id 0
    rows.insert(rows.end(), 63, beside);                      // the rest of f's leaf
    // Each split's near side, deepest first: far below the split value on
    // the split dimension, by less at each depth.
    const std::array<std::size_t, 4> near_rows{511, 256, 128, 64};
    const std::array<double, 4> near_value{-1000.0, -500.0, -200.0, -100.0};
    for (std::size_t depth = 4; depth-- > 0;) {
      auto row = beside;
      row[split_dims[depth]] = near_value[depth];
      rows.insert(rows.end(), near_rows[depth], row);
    }
    rows.push_back({-1.0, 0.0, 0.0, 0.0});  // z, the last tie-id, on the root's near side
    Matrix pts(rows.size(), 4);
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t c = 0; c < 4; ++c) pts(r, c) = rows[r][c];
    const sap::ml::KdTree tree(pts);
    std::vector<std::pair<std::size_t, double>> path;
    for (const std::size_t dim : split_dims) path.emplace_back(dim, dim == 0 ? 1.0 : t);
    ASSERT_EQ(tree.splits_above(0), path) << "f's cell is not the one the data is built for";
    const std::vector<double> q(4, 0.0);
    ASSERT_EQ(scalar_distance(pts.row(0), q), 1.0);
    ASSERT_EQ(scalar_distance(pts.row(rows.size() - 1), q), 1.0);
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      const auto got = tree.nearest(q, k);
      ASSERT_EQ(got.size(), k);
      EXPECT_EQ(got[0].index, 0u) << "k " << k << ": the tie at the bound was pruned";
      EXPECT_EQ(got[0].distance_sq, 1.0);
      if (k > 1) {
        EXPECT_EQ(got[1].index, rows.size() - 1) << "k " << k;
      }
    }
  }
}

TEST(Knn, BackendsAgreeOnRealDataset) {
  const Dataset ds = sap::data::make_uci("Diabetes", 40);
  Engine eng(41);
  const auto split = sap::data::stratified_split(ds, 0.7, eng);
  sap::ml::Knn brute(5, sap::ml::KnnBackend::kBruteForce);
  sap::ml::Knn tree(5, sap::ml::KnnBackend::kKdTree);
  brute.fit(split.train);
  tree.fit(split.train);
  EXPECT_FALSE(brute.using_kdtree());
  EXPECT_TRUE(tree.using_kdtree());
  for (std::size_t i = 0; i < split.test.size(); ++i)
    ASSERT_EQ(brute.predict(split.test.record(i)), tree.predict(split.test.record(i)))
        << "record " << i;
}

TEST(Knn, VoteBreaksTiesBySummedDistanceThenLabel) {
  // Most votes wins whatever the distances.
  sap::ml::KnnVote majority(3);
  majority.add(2, 0.0);
  majority.add(1, 5.0);
  majority.add(1, 5.0);
  EXPECT_EQ(majority.winner(), 1);
  // A tied count goes to the smaller summed distance...
  sap::ml::KnnVote closer(4);
  for (const auto& [label, d] : {std::pair{3, 1.0}, {1, 1.5}, {3, 2.0}, {1, 2.0}})
    closer.add(label, d);
  EXPECT_EQ(closer.winner(), 3);
  // ...and a tied count and sum to the smaller label, whatever the order.
  sap::ml::KnnVote level(2);
  level.add(7, 1.0);
  level.add(4, 1.0);
  EXPECT_EQ(level.winner(), 4);
  EXPECT_THROW((void)sap::ml::KnnVote(1).winner(), sap::Error);
  // Past eight votes the tallies leave the vote's in-place storage, and the
  // same rules hold: ten labels, one vote each, go to the smallest label...
  sap::ml::KnnVote many(10);
  for (int label = 10; label > 0; --label) many.add(label, 1.0);
  EXPECT_EQ(many.winner(), 1);
  // ...and a second vote wins among twelve.
  sap::ml::KnnVote twice(12);
  for (int label = 1; label <= 11; ++label) twice.add(label, 0.25);
  twice.add(9, 4.0);
  EXPECT_EQ(twice.winner(), 9);
}

TEST(Knn, AutoBackendSwitchesOnSize) {
  sap::ml::Knn small(3);
  small.fit(blobs(20, 42));  // 40 records < threshold
  EXPECT_FALSE(small.using_kdtree());
  sap::ml::Knn large(3);
  large.fit(blobs(200, 43));  // 400 records >= threshold
  EXPECT_TRUE(large.using_kdtree());
}

// ------------------------------------------------ incremental refit (partial_fit)

Dataset normalized(const Dataset& ds) {
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  return {ds.name(), norm.transform(ds.features()), ds.labels()};
}

TEST(KdTree, InsertMatchesFreshBuildExactly) {
  Engine eng(4242);
  Matrix all(520, 4);
  for (auto& v : all.data()) v = std::round(eng.uniform(0.0, 6.0)) / 2.0;  // force ties
  Matrix head(470, 4);
  Matrix tail(50, 4);
  for (std::size_t i = 0; i < 470; ++i) head.set_row(i, all.row(i));
  for (std::size_t i = 0; i < 50; ++i) tail.set_row(i, all.row(470 + i));

  sap::ml::KdTree grown(head);
  grown.insert(tail);
  ASSERT_EQ(grown.tail_size(), 50u);  // within an eighth of the prefix: kept
  const sap::ml::KdTree fresh(all);
  ASSERT_EQ(grown.size(), fresh.size());

  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = std::round(eng.uniform(0.0, 6.0)) / 2.0;
    const std::size_t k = 1 + eng.uniform_index(10);
    const auto a = grown.nearest(q, k);
    const auto b = fresh.nearest(q, k);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index) << "rank " << i;
      EXPECT_DOUBLE_EQ(a[i].distance_sq, b[i].distance_sq) << "rank " << i;
    }
  }
}

TEST(KdTree, InsertRebuildsOnceTheTailOutgrowsThePrefix) {
  Engine eng(4243);
  Matrix head(64, 3);
  for (auto& v : head.data()) v = eng.uniform();
  sap::ml::KdTree tree(head);
  EXPECT_EQ(tree.tail_size(), 0u);
  Matrix small(8, 3);
  for (auto& v : small.data()) v = eng.uniform();
  tree.insert(small);
  EXPECT_EQ(tree.tail_size(), 8u);  // tail == prefix/8: kept
  Matrix one(1, 3);
  for (auto& v : one.data()) v = eng.uniform();
  tree.insert(one);
  EXPECT_EQ(tree.tail_size(), 0u);  // tail > prefix/8 → rebuilt
  EXPECT_EQ(tree.size(), 73u);
  EXPECT_THROW(tree.insert(Matrix(1, 2, 0.0)), sap::Error);
}

TEST(Knn, PartialFitIsPredictionIdenticalToFullRefit) {
  // The incremental-refit contract (DESIGN.md §6): Knn's partial_fit result
  // must predict exactly like a full refit on the concatenated data — for
  // the kd-tree backend and the brute backend. Wine has 178 records, under
  // kAuto's 256-record tree threshold, so the kAuto row is a second brute
  // row; Knn.PartialFitCrossesTheAutoTreeThreshold covers the crossing.
  const Dataset ds = normalized(sap::data::make_uci("Wine", 50));
  const Dataset head = ds.slice(0, 160);
  const Dataset tail = ds.slice(160, ds.size());
  // The same insert on a bare tree: the kd-tree rows keep a brute tail.
  sap::ml::KdTree witness(head.features());
  witness.insert(tail.features());
  ASSERT_GT(witness.tail_size(), 0u);

  for (const auto backend : {sap::ml::KnnBackend::kAuto, sap::ml::KnnBackend::kBruteForce,
                             sap::ml::KnnBackend::kKdTree}) {
    sap::ml::Knn base(5, backend);
    base.fit(head);
    const auto extended = base.partial_fit(tail);
    sap::ml::Knn full(5, backend);
    full.fit(ds);
    for (std::size_t i = 0; i < ds.size(); ++i)
      ASSERT_EQ(extended->predict(ds.record(i)), full.predict(ds.record(i)))
          << "backend " << static_cast<int>(backend) << " record " << i;
    // And chained appends (adaptor for many small contributions).
    const auto twice = base.partial_fit(ds.slice(160, 170))->partial_fit(ds.slice(170, ds.size()));
    for (std::size_t i = 0; i < ds.size(); ++i)
      ASSERT_EQ(twice->predict(ds.record(i)), full.predict(ds.record(i)));
  }
}

TEST(Knn, TreePartialFitChainAcrossRebuildsPredictsLikeAFreshFit) {
  // A kd-tree model grown by 16-record partial_fit batches passes through
  // several tail rebuilds (each reorders the tree's storage in place) and,
  // with a brute tail still riding on it, must predict exactly like a model
  // fitted once on everything.
  Engine eng(4244);
  Matrix f(384, 3);
  for (auto& v : f.data()) v = std::round(eng.uniform(0.0, 6.0)) / 2.0;  // force ties
  std::vector<int> labels(384);
  for (auto& label : labels) label = static_cast<int>(eng.uniform_index(3));
  const Dataset ds("ties", f, labels);

  sap::ml::Knn base(5, sap::ml::KnnBackend::kKdTree);
  base.fit(ds.slice(0, 64));
  // The same inserts on a bare tree witness how many rebuilds the chain ran.
  sap::ml::KdTree witness(f.block(0, 0, 64, 3));
  std::size_t rebuilds = 0;
  std::unique_ptr<sap::ml::Classifier> grown;
  const sap::ml::Classifier* current = &base;
  for (std::size_t at = 64; at < ds.size(); at += 16) {
    grown = current->partial_fit(ds.slice(at, at + 16));
    current = grown.get();
    witness.insert(f.block(at, 0, 16, 3));
    rebuilds += witness.tail_size() == 0;
  }
  ASSERT_GE(rebuilds, 2u);
  ASSERT_GT(witness.tail_size(), 0u);

  sap::ml::Knn full(5, sap::ml::KnnBackend::kKdTree);
  full.fit(ds);
  const sap::ml::KdTree fresh(f);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(current->predict(ds.record(i)), full.predict(ds.record(i))) << "record " << i;
    const auto a = witness.nearest(ds.record(i), 5);
    const auto b = fresh.nearest(ds.record(i), 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a[r].index, b[r].index) << "record " << i << " rank " << r;
      ASSERT_EQ(a[r].distance_sq, b[r].distance_sq) << "record " << i << " rank " << r;
    }
  }
}

TEST(Knn, PartialFitCrossesTheAutoTreeThreshold) {
  const Dataset big = blobs(200, 77);  // 400 records
  const Dataset head = big.slice(0, 200);
  const Dataset tail = big.slice(200, 400);
  sap::ml::Knn base(3);  // kAuto: 200 records → brute force
  base.fit(head);
  EXPECT_FALSE(base.using_kdtree());
  const auto extended = base.partial_fit(tail);
  const auto* knn = dynamic_cast<const sap::ml::Knn*>(extended.get());
  ASSERT_NE(knn, nullptr);
  EXPECT_TRUE(knn->using_kdtree());  // 400 records → tree built once
  sap::ml::Knn full(3);
  full.fit(big);
  for (std::size_t i = 0; i < big.size(); ++i)
    ASSERT_EQ(knn->predict(big.record(i)), full.predict(big.record(i)));
}

TEST(NaiveBayes, PartialFitIsBitIdenticalToFullRefit) {
  // Stronger than the 1e-12 contract bar: the sufficient-statistics
  // accumulation performs the same per-class addition sequence either way,
  // so the incremental model is bit-identical to the full refit.
  const Dataset ds = normalized(sap::data::make_uci("Iris", 51));
  const Dataset head = ds.slice(0, 90);
  const Dataset tail = ds.slice(90, ds.size());

  sap::ml::GaussianNaiveBayes base(1e-9);
  base.fit(head);
  const auto extended = base.partial_fit(tail);
  sap::ml::GaussianNaiveBayes full(1e-9);
  full.fit(ds);
  for (std::size_t i = 0; i < ds.size(); ++i)
    ASSERT_EQ(extended->predict(ds.record(i)), full.predict(ds.record(i))) << i;
  EXPECT_EQ(sap::ml::accuracy(*extended, ds), sap::ml::accuracy(full, ds));
}

TEST(NaiveBayes, PartialFitAdmitsANewClass) {
  const Dataset ds = blobs(40, 52);  // classes {0, 1}
  Matrix extra(10, 2);
  std::vector<int> extra_labels(10, 2);  // a third class appears mid-stream
  Engine eng(53);
  for (std::size_t i = 0; i < 10; ++i) {
    extra(i, 0) = eng.normal(0.0, 0.3);
    extra(i, 1) = eng.normal(5.0, 0.3);
  }
  const Dataset late("late", extra, extra_labels);

  sap::ml::GaussianNaiveBayes base;
  base.fit(ds);
  const auto extended = base.partial_fit(late);
  sap::ml::GaussianNaiveBayes full;
  full.fit(sap::data::Dataset::concat(ds, late));
  for (std::size_t i = 0; i < late.size(); ++i) {
    EXPECT_EQ(extended->predict(late.record(i)), 2) << i;
    EXPECT_EQ(extended->predict(late.record(i)), full.predict(late.record(i)));
  }
}

TEST(Classifier, PartialFitUnsupportedModelsThrowAndReportIt) {
  const Dataset ds = blobs(30, 54);
  sap::ml::Svm svm;
  svm.fit(ds);
  EXPECT_FALSE(svm.supports_partial_fit());
  EXPECT_THROW((void)svm.partial_fit(ds), sap::Error);
  sap::ml::Perceptron perceptron;
  perceptron.fit(ds);
  EXPECT_FALSE(perceptron.supports_partial_fit());
  EXPECT_THROW((void)perceptron.partial_fit(ds), sap::Error);
  sap::ml::Knn knn;
  EXPECT_TRUE(knn.supports_partial_fit());
  EXPECT_THROW((void)knn.partial_fit(ds), sap::Error);  // before fit
  sap::ml::GaussianNaiveBayes nb;
  EXPECT_TRUE(nb.supports_partial_fit());
  EXPECT_THROW((void)nb.partial_fit(ds), sap::Error);  // before fit
}

// ------------------------------------------------------------ SVM

TEST(Svm, SeparatesBlobs) {
  const Dataset train = blobs(60, 10);
  const Dataset test = blobs(40, 11);
  sap::ml::Svm svm;
  svm.fit(train);
  EXPECT_GT(sap::ml::accuracy(svm, test), 0.97);
}

TEST(Svm, SolvesXorWithRbfKernel) {
  const Dataset train = xor_data(40, 12);
  const Dataset test = xor_data(25, 13);
  sap::ml::Svm svm;
  svm.fit(train);
  EXPECT_GT(sap::ml::accuracy(svm, test), 0.93);
}

TEST(Svm, MulticlassOneVsOne) {
  const Dataset ds = sap::data::make_uci("Iris", 14);
  Engine eng(15);
  const auto split = sap::data::stratified_split(ds, 0.7, eng);
  sap::ml::Svm svm;
  svm.fit(split.train);
  EXPECT_GT(sap::ml::accuracy(svm, split.test), 0.85);
}

TEST(BinarySvm, DecisionSignMatchesSide) {
  const Dataset train = blobs(50, 16);
  Matrix x = train.features();
  std::vector<int> y(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) y[i] = train.label(i) == 0 ? -1 : 1;
  sap::ml::BinarySvm svm;
  svm.fit(x, y);
  EXPECT_TRUE(svm.trained());
  EXPECT_GT(svm.support_vector_count(), 0u);
  const std::vector<double> neg{-2.0, -2.0};
  const std::vector<double> pos{2.0, 2.0};
  EXPECT_LT(svm.decision(neg), 0.0);
  EXPECT_GT(svm.decision(pos), 0.0);
}

TEST(BinarySvm, RejectsBadLabels) {
  Matrix x(4, 2);
  sap::ml::BinarySvm svm;
  std::vector<int> bad{0, 1, 0, 1};
  EXPECT_THROW(svm.fit(x, bad), sap::Error);
}

TEST(BinarySvm, GammaHeuristicIsPositive) {
  const Dataset train = blobs(30, 17);
  Matrix x = train.features();
  std::vector<int> y(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) y[i] = train.label(i) == 0 ? -1 : 1;
  sap::ml::BinarySvm svm;
  svm.fit(x, y);
  EXPECT_GT(svm.gamma(), 0.0);
}

// ------------------------------------------------------------ Perceptron

TEST(Perceptron, SeparatesBlobs) {
  const Dataset train = blobs(60, 18);
  const Dataset test = blobs(40, 19);
  sap::ml::Perceptron model;
  model.fit(train);
  EXPECT_GT(sap::ml::accuracy(model, test), 0.95);
}

TEST(Perceptron, MulticlassIris) {
  const Dataset ds = sap::data::make_uci("Iris", 20);
  Engine eng(21);
  const auto split = sap::data::stratified_split(ds, 0.7, eng);
  sap::ml::Perceptron model;
  model.fit(split.train);
  EXPECT_GT(sap::ml::accuracy(model, split.test), 0.75);
}

// ------------------------------------------------------------ Naive Bayes

TEST(NaiveBayes, SeparatesBlobs) {
  const Dataset train = blobs(60, 30);
  const Dataset test = blobs(40, 31);
  sap::ml::GaussianNaiveBayes nb;
  nb.fit(train);
  EXPECT_GT(sap::ml::accuracy(nb, test), 0.97);
}

TEST(NaiveBayes, MulticlassIris) {
  const Dataset ds = sap::data::make_uci("Iris", 32);
  Engine eng(33);
  const auto split = sap::data::stratified_split(ds, 0.7, eng);
  sap::ml::GaussianNaiveBayes nb;
  nb.fit(split.train);
  EXPECT_GT(sap::ml::accuracy(nb, split.test), 0.8);
}

TEST(NaiveBayes, HandlesConstantFeatureViaSmoothing) {
  Matrix f(20, 2);
  std::vector<int> labels(20);
  Engine eng(34);
  for (std::size_t i = 0; i < 20; ++i) {
    f(i, 0) = 1.0;  // constant feature: zero variance without smoothing
    f(i, 1) = (i < 10) ? eng.normal(-2.0, 0.3) : eng.normal(2.0, 0.3);
    labels[i] = i < 10 ? 0 : 1;
  }
  const Dataset ds("const", std::move(f), std::move(labels));
  sap::ml::GaussianNaiveBayes nb;
  nb.fit(ds);
  EXPECT_DOUBLE_EQ(sap::ml::accuracy(nb, ds), 1.0);
}

TEST(NaiveBayes, IsNotRotationInvariant) {
  // The boundary of the paper's invariance claim. Classes share a zero mean
  // and are separated only by axis-aligned VARIANCES (class 0 spreads along
  // y, class 1 along x). Axis-aligned NB nails this via its per-feature
  // variance estimates; a 45-degree rotation makes both marginal variances
  // identical across classes (R diag(a,b) R^T has equal diagonal), so NB
  // collapses toward chance. KNN, by contrast, is untouched.
  Engine eng(35);
  const std::size_t n = 300;
  Matrix f(2 * n, 2);
  std::vector<int> labels(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const bool pos = i >= n;
    f(i, 0) = eng.normal(0.0, pos ? 3.0 : 0.3);
    f(i, 1) = eng.normal(0.0, pos ? 0.3 : 3.0);
    labels[i] = pos;
  }
  const Dataset ds("aniso", std::move(f), std::move(labels));
  Engine split_eng(36);
  const auto split = sap::data::stratified_split(ds, 0.7, split_eng);

  sap::ml::GaussianNaiveBayes nb_orig;
  nb_orig.fit(split.train);
  const double acc_orig = sap::ml::accuracy(nb_orig, split.test);
  EXPECT_GT(acc_orig, 0.9);  // axis-aligned variances: easy for NB

  // Rotate by 45 degrees: per-class marginal variances become identical.
  const Matrix rot = sap::linalg::givens(2, 0, 1, std::numbers::pi / 4);
  const sap::perturb::GeometricPerturbation g(rot, sap::linalg::Vector{0.0, 0.0}, 0.0);
  const Dataset train_r("r", g.apply_noiseless(split.train.features_T()).transpose(),
                        split.train.labels());
  const Dataset test_r("r", g.apply_noiseless(split.test.features_T()).transpose(),
                       split.test.labels());
  sap::ml::GaussianNaiveBayes nb_rot;
  nb_rot.fit(train_r);
  const double acc_rot = sap::ml::accuracy(nb_rot, test_r);
  EXPECT_LT(acc_rot, acc_orig - 0.1);  // material degradation
}

TEST(NaiveBayes, InvalidUsagesThrow) {
  EXPECT_THROW(sap::ml::GaussianNaiveBayes(-1.0), sap::Error);
  sap::ml::GaussianNaiveBayes nb;
  const std::vector<double> probe{0.0, 0.0};
  EXPECT_THROW((void)nb.predict(probe), sap::Error);
}

// ------------------------------------------------------------ invariance

class RotationInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(RotationInvariance, AccuracyUnchangedByNoiselessPerturbation) {
  // The geometric-invariance property (paper §1): training and testing in a
  // rotated+translated space gives identical distance relationships, hence
  // identical KNN votes and (near-)identical SVM/RBF models.
  const Dataset ds = sap::data::make_uci(GetParam(), 22);
  Engine eng(23);
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  Dataset normalized(ds.name(), norm.transform(ds.features()), ds.labels());
  const auto split = sap::data::stratified_split(normalized, 0.7, eng);

  const auto g = sap::perturb::GeometricPerturbation::random(ds.dims(), 0.0, eng);
  const Dataset train_p(ds.name(), g.apply_noiseless(split.train.features_T()).transpose(),
                        split.train.labels());
  const Dataset test_p(ds.name(), g.apply_noiseless(split.test.features_T()).transpose(),
                       split.test.labels());

  sap::ml::Knn knn_orig(5), knn_pert(5);
  knn_orig.fit(split.train);
  knn_pert.fit(train_p);
  const double acc_orig = sap::ml::accuracy(knn_orig, split.test);
  const double acc_pert = sap::ml::accuracy(knn_pert, test_p);
  EXPECT_NEAR(acc_orig, acc_pert, 1e-9);  // KNN: exactly invariant

  sap::ml::Svm svm_orig, svm_pert;
  svm_orig.fit(split.train);
  svm_pert.fit(train_p);
  const double svm_acc_orig = sap::ml::accuracy(svm_orig, split.test);
  const double svm_acc_pert = sap::ml::accuracy(svm_pert, test_p);
  EXPECT_NEAR(svm_acc_orig, svm_acc_pert, 0.03);  // SMO randomness tolerance
}

INSTANTIATE_TEST_SUITE_P(Datasets, RotationInvariance,
                         ::testing::Values("Iris", "Wine", "Diabetes"));

// ------------------------------------------------------------ evaluation

TEST(Evaluation, AccuracyBounds) {
  const Dataset train = blobs(30, 24);
  sap::ml::Knn knn(1);
  knn.fit(train);
  const double acc = sap::ml::accuracy(knn, train);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Evaluation, ConfusionMatrixRowSumsMatchClassCounts) {
  const Dataset ds = sap::data::make_uci("Iris", 25);
  Engine eng(26);
  const auto split = sap::data::stratified_split(ds, 0.7, eng);
  sap::ml::Knn knn(5);
  knn.fit(split.train);
  const auto conf = sap::ml::confusion_matrix(knn, split.test);
  ASSERT_EQ(conf.classes.size(), 3u);
  const auto counts = split.test.class_counts();
  for (std::size_t i = 0; i < conf.classes.size(); ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < conf.classes.size(); ++j) row_sum += conf.counts(i, j);
    EXPECT_DOUBLE_EQ(row_sum, static_cast<double>(counts[i]));
  }
}

TEST(Evaluation, EmptyTestSetThrows) {
  sap::ml::Knn knn(1);
  knn.fit(blobs(5, 27));
  const Dataset empty("empty", Matrix(), {});
  EXPECT_THROW(sap::ml::accuracy(knn, empty), sap::Error);
}

}  // namespace

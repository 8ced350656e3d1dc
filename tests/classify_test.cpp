// Tests for sap::ml: KNN, SVM(RBF)/SMO, perceptron, evaluation utilities —
// including the rotation-invariance property that underpins the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include <numbers>

#include "classify/knn.hpp"
#include "classify/naive_bayes.hpp"
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

class KdTreeEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KdTreeEquivalence, MatchesBruteForceExactly) {
  // The load-bearing property: kd-tree results (indices, distances, order)
  // must be bit-for-bit the brute-force answer, including ties — for every
  // k the job schema allows up to its maximum of 256 (k > n included), on a
  // fresh tree and on one whose last quarter sits in the brute tail.
  const auto [n, d] = GetParam();
  Engine eng(1000 + n * 7 + d);
  // Quantized coordinates to force plenty of exact distance ties.
  Matrix pts(n, d);
  for (auto& v : pts.data()) v = std::round(eng.uniform(0.0, 6.0)) / 2.0;
  const sap::ml::KdTree fresh(pts);
  const std::size_t head = static_cast<std::size_t>(n - n / 4);
  sap::ml::KdTree tailed(pts.block(0, 0, head, static_cast<std::size_t>(d)));
  tailed.insert(pts.block(head, 0, static_cast<std::size_t>(n) - head,
                          static_cast<std::size_t>(d)));
  ASSERT_EQ(tailed.tail_size(), static_cast<std::size_t>(n) - head);
  const std::array<const sap::ml::KdTree*, 2> trees{&fresh, &tailed};

  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(d);
    for (auto& v : q) v = std::round(eng.uniform(0.0, 6.0)) / 2.0;

    // Brute force with the same (distance, index) ordering.
    std::vector<std::pair<double, std::size_t>> brute;
    brute.reserve(n);
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      auto row = pts.row(static_cast<std::size_t>(i));
      for (int f = 0; f < d; ++f) {
        const double diff = row[static_cast<std::size_t>(f)] - q[static_cast<std::size_t>(f)];
        acc += diff * diff;
      }
      brute.emplace_back(acc, static_cast<std::size_t>(i));
    }
    std::sort(brute.begin(), brute.end());

    for (const std::size_t k : {std::size_t{1} + eng.uniform_index(8), std::size_t{1},
                                std::size_t{5}, std::size_t{64}, std::size_t{256}}) {
      const std::size_t expect_k = std::min<std::size_t>(k, static_cast<std::size_t>(n));
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

INSTANTIATE_TEST_SUITE_P(SizesAndDims, KdTreeEquivalence,
                         ::testing::Values(std::pair{10, 2}, std::pair{50, 3},
                                           std::pair{200, 2}, std::pair{500, 5},
                                           std::pair{1000, 8}, std::pair{64, 1},
                                           std::pair{300, 9}));

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
  Matrix head(400, 4);
  Matrix tail(120, 4);
  for (std::size_t i = 0; i < 400; ++i) head.set_row(i, all.row(i));
  for (std::size_t i = 0; i < 120; ++i) tail.set_row(i, all.row(400 + i));

  sap::ml::KdTree grown(head);
  grown.insert(tail);
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
  EXPECT_EQ(tree.tail_size(), 8u);  // below the rebuild threshold
  Matrix big(64, 3);
  for (auto& v : big.data()) v = eng.uniform();
  tree.insert(big);
  EXPECT_EQ(tree.tail_size(), 0u);  // tail > prefix/2 → rebuilt
  EXPECT_EQ(tree.size(), 136u);
  EXPECT_THROW(tree.insert(Matrix(1, 2, 0.0)), sap::Error);
}

TEST(Knn, PartialFitIsPredictionIdenticalToFullRefit) {
  // The incremental-refit contract (DESIGN.md §6): Knn's partial_fit result
  // must predict exactly like a full refit on the concatenated data — for
  // the kd-tree backend, the brute backend, and an auto-threshold crossing.
  const Dataset ds = normalized(sap::data::make_uci("Wine", 50));
  const Dataset head = ds.slice(0, 130);
  const Dataset tail = ds.slice(130, ds.size());

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
    const auto twice = base.partial_fit(ds.slice(130, 140))->partial_fit(ds.slice(140, ds.size()));
    for (std::size_t i = 0; i < ds.size(); ++i)
      ASSERT_EQ(twice->predict(ds.record(i)), full.predict(ds.record(i)));
  }
}

TEST(Knn, TreePartialFitChainAcrossRebuildsPredictsLikeAFreshFit) {
  // A kd-tree model grown by 16-record partial_fit batches passes through
  // several tail rebuilds (each reorders the tree's storage in place) and
  // must still predict exactly like a model fitted once on everything.
  Engine eng(4244);
  Matrix f(400, 3);
  for (auto& v : f.data()) v = std::round(eng.uniform(0.0, 6.0)) / 2.0;  // force ties
  std::vector<int> labels(400);
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

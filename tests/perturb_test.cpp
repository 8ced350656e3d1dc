// Unit + property tests for sap::perturb: the geometric perturbation
// G(X) = RX + Psi + Delta and the space-adaptor algebra of paper §3.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"
#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"
#include "rng/rng.hpp"

namespace {

using sap::linalg::Matrix;
using sap::linalg::Vector;
using sap::perturb::GeometricPerturbation;
using sap::perturb::SpaceAdaptor;
using sap::rng::Engine;

Matrix random_data(std::size_t d, std::size_t n, Engine& eng) {
  return Matrix::generate(d, n, [&] { return eng.uniform(); });
}

TEST(Geometric, FusedApplyBitIdenticalToNoiselessPlusNoisePass) {
  // The fusion contract (geometric.hpp): apply_into == apply_noiseless then
  // one row-major noise sweep, bit for bit — the noise draw order is the
  // RNG stream contract, the translation rides the GEMM epilogue.
  Engine eng(40);
  const auto g = GeometricPerturbation::random(34, 0.2, eng);
  const Matrix x = random_data(34, 57, eng);

  Engine noise_a(7), noise_b(7);
  Matrix fused;
  g.apply_into(x, fused, noise_a);

  Matrix ref = g.apply_noiseless(x);
  for (auto& v : ref.data()) v += noise_b.normal(0.0, g.noise_sigma());

  EXPECT_TRUE(fused == ref);
  // And apply() is the same map (fresh engine at the same state).
  Engine noise_c(7);
  EXPECT_TRUE(g.apply(x, noise_c) == ref);
}

TEST(Geometric, FusedNoiselessApplyMatchesNaiveKernelPlusTranslation) {
  Engine eng(41);
  const auto g = GeometricPerturbation::random(9, 0.0, eng);
  const Matrix x = random_data(9, 23, eng);
  Matrix ref = sap::linalg::matmul_naive(g.rotation(), x);
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (auto& v : ref.row(i)) v += g.translation()[i];
  EXPECT_TRUE(g.apply_noiseless(x) == ref);
}

TEST(Geometric, ApplyIntoReshapesStaleBuffer) {
  Engine eng(42);
  const auto g = GeometricPerturbation::random(4, 0.0, eng);
  Matrix y(2, 3, 99.0);  // wrong shape AND stale contents
  Engine noise(1);
  g.apply_into(random_data(4, 6, eng), y, noise);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 6u);
  const Matrix x2 = random_data(4, 6, eng);
  Matrix y2 = y;  // reuse a right-shaped buffer: must fully overwrite
  g.apply_into(x2, y2, noise);
  EXPECT_TRUE(y2 == g.apply_noiseless(x2));
}

TEST(Geometric, RandomPerturbationHasValidParameters) {
  Engine eng(1);
  const auto g = GeometricPerturbation::random(5, 0.1, eng);
  EXPECT_EQ(g.dims(), 5u);
  EXPECT_LT(sap::linalg::orthogonality_defect(g.rotation()), 1e-9);
  for (double t : g.translation()) {
    EXPECT_GE(t, -1.0);
    EXPECT_LT(t, 1.0);
  }
  EXPECT_DOUBLE_EQ(g.noise_sigma(), 0.1);
}

TEST(Geometric, NonOrthogonalRotationRejected) {
  Matrix bad{{1.0, 0.5}, {0.0, 1.0}};
  EXPECT_THROW(GeometricPerturbation(bad, Vector{0.0, 0.0}, 0.0), sap::Error);
}

TEST(Geometric, NegativeSigmaRejected) {
  Engine eng(2);
  const Matrix r = sap::linalg::random_orthogonal(3, eng);
  EXPECT_THROW(GeometricPerturbation(r, Vector{0, 0, 0}, -0.5), sap::Error);
}

TEST(Geometric, NoiselessRoundTripIsExact) {
  Engine eng(3);
  const auto g = GeometricPerturbation::random(4, 0.0, eng);
  const Matrix x = random_data(4, 50, eng);
  const Matrix y = g.apply_noiseless(x);
  EXPECT_TRUE(g.invert(y).approx_equal(x, 1e-10));
}

TEST(Geometric, ApplyWithZeroSigmaEqualsNoiseless) {
  Engine eng(4);
  const auto g = GeometricPerturbation::random(4, 0.0, eng);
  const Matrix x = random_data(4, 20, eng);
  Engine noise(99);
  EXPECT_TRUE(g.apply(x, noise).approx_equal(g.apply_noiseless(x), 0.0));
}

TEST(Geometric, NoiseMagnitudeTracksSigma) {
  Engine eng(5);
  const double sigma = 0.25;
  const auto g = GeometricPerturbation::random(3, sigma, eng);
  const Matrix x = random_data(3, 4000, eng);
  Engine noise(7);
  const Matrix y = g.apply(x, noise);
  Matrix residual = y;
  residual -= g.apply_noiseless(x);
  // Residual is iid N(0, sigma^2): per-row stddev should be close to sigma.
  const Vector sd = sap::linalg::row_stddev(residual);
  for (double s : sd) EXPECT_NEAR(s, sigma, 0.02);
}

class DistancePreservation : public ::testing::TestWithParam<int> {};

TEST_P(DistancePreservation, RotationPlusTranslationPreservesDistances) {
  // The geometric-invariance property that keeps KNN/SVM accuracy intact:
  // pairwise distances are exactly preserved by the noiseless perturbation.
  const int d = GetParam();
  Engine eng(100 + d);
  const auto g = GeometricPerturbation::random(d, 0.0, eng);
  const Matrix x = random_data(d, 12, eng);
  const Matrix y = g.apply_noiseless(x);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      EXPECT_NEAR(sap::linalg::distance(x.col(i), x.col(j)),
                  sap::linalg::distance(y.col(i), y.col(j)), 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DistancePreservation, ::testing::Values(2, 3, 5, 8, 13, 21));

TEST(Geometric, TranslationMatrixIsRankOne) {
  const Vector t{1.0, -2.0, 0.5};
  const Matrix psi = sap::perturb::translation_matrix(t, 4);
  EXPECT_EQ(psi.rows(), 3u);
  EXPECT_EQ(psi.cols(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(psi(0, j), 1.0);
    EXPECT_DOUBLE_EQ(psi(1, j), -2.0);
    EXPECT_DOUBLE_EQ(psi(2, j), 0.5);
  }
}

TEST(Geometric, PrecomposeRotationKeepsOrthogonality) {
  Engine eng(6);
  auto g = GeometricPerturbation::random(4, 0.0, eng);
  const Matrix extra = sap::linalg::random_orthogonal(4, eng);
  g.precompose_rotation(extra);
  EXPECT_LT(sap::linalg::orthogonality_defect(g.rotation()), 1e-8);
}

// ------------------------------------------------------------ SpaceAdaptor

class AdaptorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdaptorProperty, PaperIdentityHolds) {
  // §3: Y_{i->t} = R_it Y_i + Psi_it must equal R_t X + Psi_t + R_it Delta_i
  // — i.e. the target-space image inheriting the source noise.
  const int d = GetParam();
  Engine eng(200 + d);
  const double sigma = 0.15;
  const auto g_i = GeometricPerturbation::random(d, sigma, eng);
  const auto g_t = GeometricPerturbation::random(d, 0.0, eng);
  const Matrix x = random_data(d, 40, eng);

  // Materialize Y_i with explicit noise so we can check the identity exactly.
  const Matrix y_clean = g_i.apply_noiseless(x);
  Engine noise(11);
  Matrix delta(d, 40);
  for (auto& v : delta.data()) v = noise.normal(0.0, sigma);
  Matrix y_i = y_clean;
  y_i += delta;

  const SpaceAdaptor a = SpaceAdaptor::between(g_i, g_t);
  const Matrix adapted = a.apply(y_i);

  Matrix expected = g_t.apply_noiseless(x);
  expected += a.rotation() * delta;  // complementary noise R_it Delta_i
  EXPECT_TRUE(adapted.approx_equal(expected, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Dims, AdaptorProperty, ::testing::Values(2, 3, 5, 9, 16));

TEST(Adaptor, NoiselessAdaptationIsExactTargetImage) {
  Engine eng(7);
  const auto g_i = GeometricPerturbation::random(5, 0.0, eng);
  const auto g_t = GeometricPerturbation::random(5, 0.0, eng);
  const Matrix x = random_data(5, 30, eng);
  const SpaceAdaptor a = SpaceAdaptor::between(g_i, g_t);
  EXPECT_TRUE(a.apply(g_i.apply_noiseless(x)).approx_equal(g_t.apply_noiseless(x), 1e-9));
}

TEST(Adaptor, SelfAdaptationIsIdentity) {
  Engine eng(8);
  const auto g = GeometricPerturbation::random(4, 0.0, eng);
  const SpaceAdaptor a = SpaceAdaptor::between(g, g);
  EXPECT_TRUE(a.rotation().approx_equal(Matrix::identity(4), 1e-9));
  for (double v : a.translation()) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Adaptor, RotationAdaptorIsOrthogonal) {
  Engine eng(9);
  const auto g_i = GeometricPerturbation::random(6, 0.1, eng);
  const auto g_t = GeometricPerturbation::random(6, 0.0, eng);
  const SpaceAdaptor a = SpaceAdaptor::between(g_i, g_t);
  EXPECT_LT(sap::linalg::orthogonality_defect(a.rotation()), 1e-9);
}

TEST(Adaptor, CompositionMatchesDirectAdaptor) {
  Engine eng(10);
  const auto g_a = GeometricPerturbation::random(4, 0.0, eng);
  const auto g_b = GeometricPerturbation::random(4, 0.0, eng);
  const auto g_c = GeometricPerturbation::random(4, 0.0, eng);
  const SpaceAdaptor ab = SpaceAdaptor::between(g_a, g_b);
  const SpaceAdaptor bc = SpaceAdaptor::between(g_b, g_c);
  const SpaceAdaptor ac = SpaceAdaptor::between(g_a, g_c);
  const SpaceAdaptor composed = bc.after(ab);
  EXPECT_TRUE(composed.rotation().approx_equal(ac.rotation(), 1e-9));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(composed.translation()[i], ac.translation()[i], 1e-9);
}

TEST(Adaptor, FiveHundredCompositionChainStaysOrthogonal) {
  // The Contribute path reuses adaptors across arbitrarily many batches, so
  // long after() chains must never drift past the constructor's 1e-7
  // orthogonality gate (every after() result passes through it — surviving
  // the chain IS the drift guarantee). d=34 matches the paper's widest
  // dataset (Ionosphere).
  Engine eng(77);
  constexpr std::size_t kDims = 34;
  auto prev = GeometricPerturbation::random(kDims, 0.0, eng);
  const auto first = prev;
  auto next = GeometricPerturbation::random(kDims, 0.0, eng);
  SpaceAdaptor chain = SpaceAdaptor::between(prev, next);
  prev = next;
  for (int step = 1; step < 500; ++step) {
    next = GeometricPerturbation::random(kDims, 0.0, eng);
    chain = SpaceAdaptor::between(prev, next).after(chain);
    prev = next;
  }
  EXPECT_LT(sap::linalg::orthogonality_defect(chain.rotation()), 1e-7);

  // The chain still agrees with the direct first->last adaptor (tolerance
  // covers 500 accumulated matrix products).
  const SpaceAdaptor direct = SpaceAdaptor::between(first, prev);
  const Matrix y = random_data(kDims, 16, eng);
  EXPECT_TRUE(chain.apply(y).approx_equal(direct.apply(y), 1e-6));
}

TEST(Adaptor, CompositionSnapsDriftBackBelowHalfTheGate) {
  // Inject a drift just UNDER the constructor gate (so the adaptor is
  // legal) but over the 0.5e-7 re-orthonormalization trigger: one after()
  // must snap the product back to numerically-exact orthogonality instead
  // of letting the next composition push it over the gate.
  Engine eng(78);
  const std::size_t d = 8;
  Matrix r = sap::linalg::random_orthogonal(d, eng);
  // Nudge one entry until the defect sits between the snap trigger (0.5e-7)
  // and the constructor gate (1e-7); the defect grows ~linearly in the
  // nudge, so the 1e-8 steps cannot overshoot the gate.
  while (sap::linalg::orthogonality_defect(r) < 0.6e-7) r(0, 1) += 1e-8;
  ASSERT_GT(sap::linalg::orthogonality_defect(r), 0.5e-7);
  ASSERT_LT(sap::linalg::orthogonality_defect(r), 1e-7);
  const SpaceAdaptor drifted(r, Vector(d, 0.0));
  const SpaceAdaptor identity(Matrix::identity(d), Vector(d, 0.0));
  const SpaceAdaptor snapped = drifted.after(identity);
  EXPECT_LT(sap::linalg::orthogonality_defect(snapped.rotation()), 1e-12);
  // The snap is a correction, not a replacement: the rotation barely moves.
  EXPECT_TRUE(snapped.rotation().approx_equal(drifted.rotation(), 1e-6));
}

TEST(Adaptor, ReOrthonormalizeRestoresOrthogonality) {
  Engine eng(79);
  const std::size_t d = 12;
  const Matrix q = sap::linalg::random_orthogonal(d, eng);
  Matrix drifted = q;
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j) drifted(i, j) += 1e-6 * eng.normal();
  const Matrix snapped = sap::linalg::re_orthonormalize(drifted);
  EXPECT_LT(sap::linalg::orthogonality_defect(snapped), 1e-12);
  EXPECT_TRUE(snapped.approx_equal(q, 1e-4));  // stays near the original
}

TEST(Adaptor, DimensionMismatchThrows) {
  Engine eng(11);
  const auto g3 = GeometricPerturbation::random(3, 0.0, eng);
  const auto g4 = GeometricPerturbation::random(4, 0.0, eng);
  EXPECT_THROW(SpaceAdaptor::between(g3, g4), sap::Error);
}

TEST(Adaptor, SerializationRoundTrip) {
  Engine eng(12);
  const auto g_i = GeometricPerturbation::random(5, 0.1, eng);
  const auto g_t = GeometricPerturbation::random(5, 0.0, eng);
  const SpaceAdaptor a = SpaceAdaptor::between(g_i, g_t);
  const auto wire = a.serialize();
  const SpaceAdaptor back = SpaceAdaptor::deserialize(wire);
  EXPECT_TRUE(back.rotation().approx_equal(a.rotation(), 0.0));
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(back.translation()[i], a.translation()[i]);
}

TEST(Adaptor, MalformedWireRejected) {
  std::vector<double> junk{3.0, 1.0, 2.0};  // says d=3 but far too short
  EXPECT_THROW(SpaceAdaptor::deserialize(junk), sap::Error);
  EXPECT_THROW(SpaceAdaptor::deserialize(std::vector<double>{}), sap::Error);
}

class SerializationSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializationSweep, PerturbationAndAdaptorRoundTripAcrossDims) {
  const auto d = static_cast<std::size_t>(GetParam());
  Engine eng(4000 + d);
  const auto g = GeometricPerturbation::random(d, 0.05 * static_cast<double>(d), eng);
  const auto g_t = GeometricPerturbation::random(d, 0.0, eng);
  const SpaceAdaptor a = SpaceAdaptor::between(g, g_t);
  const SpaceAdaptor a_back = SpaceAdaptor::deserialize(a.serialize());
  // Deserialized adaptor must act identically on data.
  const Matrix y = g.apply_noiseless(random_data(d, 7, eng));
  EXPECT_TRUE(a_back.apply(y).approx_equal(a.apply(y), 0.0));
}

INSTANTIATE_TEST_SUITE_P(Dims, SerializationSweep, ::testing::Values(1, 2, 4, 8, 16, 34));

TEST(Adaptor, AdaptationHidesSourceSpaceFromDistanceView) {
  // Distances in the adapted data equal distances in the source perturbed
  // data (both are rigid images of X up to the same noise), so the miner's
  // utility is unaffected by which source space the data came from.
  Engine eng(13);
  const auto g_i = GeometricPerturbation::random(4, 0.0, eng);
  const auto g_t = GeometricPerturbation::random(4, 0.0, eng);
  const Matrix x = random_data(4, 10, eng);
  const Matrix y = g_i.apply_noiseless(x);
  const Matrix z = SpaceAdaptor::between(g_i, g_t).apply(y);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = i + 1; j < 10; ++j)
      EXPECT_NEAR(sap::linalg::distance(y.col(i), y.col(j)),
                  sap::linalg::distance(z.col(i), z.col(j)), 1e-10);
}

}  // namespace

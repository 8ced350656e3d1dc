// Unit + property tests for sap::privacy: the VoD privacy metric, FastICA,
// the three attack models, and the attack-suite evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/owned_math.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "linalg/decompose.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"
#include "perturb/geometric.hpp"
#include "privacy/attacks.hpp"
#include "privacy/evaluator.hpp"
#include "privacy/fastica.hpp"
#include "privacy/fastica_step.hpp"
#include "privacy/metric.hpp"
#include "rng/rng.hpp"

namespace {

using sap::linalg::Matrix;
using sap::linalg::Vector;
using sap::perturb::GeometricPerturbation;
using sap::rng::Engine;

/// Non-Gaussian independent sources (uniform columns) — ICA's best case.
Matrix uniform_sources(std::size_t d, std::size_t n, Engine& eng) {
  return Matrix::generate(d, n, [&] { return eng.uniform(); });
}

// ------------------------------------------------------------ metric

TEST(Metric, PerfectReconstructionHasZeroPrivacy) {
  Engine eng(1);
  const Matrix x = uniform_sources(3, 100, eng);
  const Vector p = sap::privacy::column_privacy(x, x);
  for (double v : p) EXPECT_NEAR(v, 0.0, 1e-12);
  EXPECT_NEAR(sap::privacy::min_privacy_guarantee(x, x), 0.0, 1e-12);
}

TEST(Metric, ConstantOffsetIsStillZeroPrivacy) {
  // std(X - X_hat) ignores constant shifts: an estimate off by a constant
  // reveals the column shape exactly, which the metric treats as disclosure.
  Engine eng(2);
  const Matrix x = uniform_sources(2, 50, eng);
  Matrix shifted = x;
  for (auto& v : shifted.data()) v += 5.0;
  EXPECT_NEAR(sap::privacy::min_privacy_guarantee(x, shifted), 0.0, 1e-12);
}

TEST(Metric, IndependentGuessGivesSqrtTwoPrivacy) {
  // An uninformed guess with matched moments is ~sqrt(2) column stddevs off.
  Engine eng(3);
  const std::size_t n = 20000;
  Matrix x(1, n), guess(1, n);
  for (std::size_t i = 0; i < n; ++i) {
    x(0, i) = eng.normal();
    guess(0, i) = eng.normal();
  }
  EXPECT_NEAR(sap::privacy::min_privacy_guarantee(x, guess), std::sqrt(2.0), 0.05);
}

TEST(Metric, MinTakenAcrossColumns) {
  Engine eng(4);
  const Matrix x = uniform_sources(2, 200, eng);
  Matrix est = x;  // column 0 perfectly known, column 1 garbage
  for (std::size_t j = 0; j < 200; ++j) est(1, j) = eng.uniform();
  const double rho = sap::privacy::min_privacy_guarantee(x, est);
  EXPECT_NEAR(rho, 0.0, 1e-12);
}

TEST(Metric, ShapeMismatchThrows) {
  Matrix a(2, 10), b(3, 10);
  EXPECT_THROW(sap::privacy::column_privacy(a, b), sap::Error);
}

TEST(Metric, ConstantOriginalColumnExcludedFromGuarantee) {
  // A locally constant column carries no distributional information (its
  // value is pinned by the public normalization bounds), so it must not
  // drive rho to zero even when "reconstructed" exactly.
  Matrix x(2, 10, 1.0);
  for (std::size_t j = 0; j < 10; ++j) x(1, j) = static_cast<double>(j);
  Matrix est = x;  // exact match INCLUDING the constant column
  const Vector p = sap::privacy::column_privacy(x, est);
  EXPECT_TRUE(std::isinf(p[0]));  // excluded, not zero
  EXPECT_NEAR(p[1], 0.0, 1e-12);
  // The guarantee is driven by the varying column only.
  EXPECT_NEAR(sap::privacy::min_privacy_guarantee(x, est), 0.0, 1e-12);
}

TEST(Metric, AllConstantDataThrows) {
  Matrix x(2, 10, 1.0);
  EXPECT_THROW(sap::privacy::min_privacy_guarantee(x, x), sap::Error);
}

TEST(Metric, CandidatePoolExcludesConstantColumns) {
  sap::rng::Engine eng(77);
  Matrix x(2, 40, 0.0);
  for (std::size_t j = 0; j < 40; ++j) x(1, j) = eng.uniform();
  const Vector p = sap::privacy::candidate_pool_privacy(x, x);
  EXPECT_TRUE(std::isinf(p[0]));
  EXPECT_NEAR(p[1], 0.0, 1e-9);
}

// ------------------------------------------------------------ FastICA

TEST(FastIca, RecoversIndependentUniformSources) {
  Engine eng(5);
  const std::size_t d = 4, n = 3000;
  const Matrix s = uniform_sources(d, n, eng);
  const Matrix r = sap::linalg::random_orthogonal(d, eng);
  const Matrix y = r * s;

  const auto res = sap::privacy::fast_ica(y, {.max_iterations = 400, .tolerance = 1e-8}, eng);
  EXPECT_TRUE(res.converged);

  // Every true source should be highly correlated with some recovered
  // component (up to sign/permutation).
  for (std::size_t j = 0; j < d; ++j) {
    double best = 0.0;
    for (std::size_t c = 0; c < res.sources.rows(); ++c)
      best = std::max(best, std::abs(sap::linalg::pearson(s.row(j), res.sources.row(c))));
    EXPECT_GT(best, 0.95) << "source " << j << " not recovered";
  }
}

TEST(FastIca, SourcesComeBackWhitened) {
  Engine eng(6);
  const Matrix s = uniform_sources(3, 2000, eng);
  const Matrix r = sap::linalg::random_orthogonal(3, eng);
  const auto res = sap::privacy::fast_ica(r * s, {}, eng);
  const Matrix cov = sap::linalg::covariance_cols(res.sources);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(cov(i, i), 1.0, 0.05);
}

TEST(FastIca, GaussianSourcesAreUnidentifiable) {
  // With Gaussian sources the ICA model is unidentifiable; recovered
  // components should NOT align well with the originals.
  Engine eng(7);
  const std::size_t d = 3, n = 4000;
  Matrix s = Matrix::generate(d, n, [&] { return eng.normal(); });
  const Matrix r = sap::linalg::random_orthogonal(d, eng);
  const auto res = sap::privacy::fast_ica(r * s, {}, eng);
  double worst_best = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    double best = 0.0;
    for (std::size_t c = 0; c < res.sources.rows(); ++c)
      best = std::max(best, std::abs(sap::linalg::pearson(s.row(j), res.sources.row(c))));
    worst_best = std::max(worst_best, best);
  }
  // At least one direction should stay far from perfectly recovered.
  double min_best = 1.0;
  for (std::size_t j = 0; j < d; ++j) {
    double best = 0.0;
    for (std::size_t c = 0; c < res.sources.rows(); ++c)
      best = std::max(best, std::abs(sap::linalg::pearson(s.row(j), res.sources.row(c))));
    min_best = std::min(min_best, best);
  }
  EXPECT_LT(min_best, 0.9);
}

TEST(FastIca, TooFewObservationsThrows) {
  Engine eng(8);
  Matrix y(3, 4);
  EXPECT_THROW(sap::privacy::fast_ica(y, {}, eng), sap::Error);
}

// The textbook FastICA loop, kept as fast_ica's exactness reference the way
// matmul_naive is gemm's: E[g(WZ) Z^T] accumulated element by element, and
// the decorrelation as the explicit product V D^{-1/2} V^T W. Never timed.
Matrix textbook_decorrelate(const Matrix& w) {
  const Matrix gram = w * w.transpose();
  const auto eig = sap::linalg::sym_eigen(gram);
  Matrix d_inv_sqrt(gram.rows(), gram.rows());
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    SAP_REQUIRE(eig.values[i] > 1e-12, "fast_ica: degenerate decorrelation");
    d_inv_sqrt(i, i) = 1.0 / std::sqrt(eig.values[i]);
  }
  return eig.vectors * d_inv_sqrt * eig.vectors.transpose() * w;
}

sap::privacy::FastIcaResult textbook_fast_ica(const Matrix& observations,
                                              const sap::privacy::FastIcaOptions& opts,
                                              Engine& eng) {
  const std::size_t d = observations.rows();
  const std::size_t n = observations.cols();
  const std::size_t k = (opts.components == 0) ? d : std::min(opts.components, d);

  Matrix x = observations;
  const Vector mean = sap::linalg::row_means(x);
  for (std::size_t i = 0; i < d; ++i)
    for (auto& v : x.row(i)) v -= mean[i];

  const auto eig = sap::linalg::sym_eigen(sap::linalg::covariance_cols(x));
  Matrix whitener(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    const double scale = 1.0 / std::sqrt(eig.values[i]);
    for (std::size_t j = 0; j < d; ++j) whitener(i, j) = scale * eig.vectors(j, i);
  }
  const Matrix z = whitener * x;

  Matrix w = Matrix::generate(k, k, [&] { return eng.normal(); });
  w = textbook_decorrelate(w);

  sap::privacy::FastIcaResult result;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    const Matrix proj = w * z;
    Matrix gz(k, k);
    Vector gprime(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      auto prow = proj.row(i);
      for (std::size_t t = 0; t < n; ++t) {
        const double g = sap::math::tanh(prow[t]);
        gprime[i] += 1.0 - g * g;
        for (std::size_t j = 0; j < k; ++j) gz(i, j) += g * z(j, t);
      }
    }
    Matrix w_new(k, k);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        w_new(i, j) = gz(i, j) * inv_n - gprime[i] * inv_n * w(i, j);
    w_new = textbook_decorrelate(w_new);

    double delta = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double align = std::abs(sap::linalg::dot(w_new.row(i), w.row(i)));
      delta = std::max(delta, std::abs(1.0 - align));
    }
    w = std::move(w_new);
    result.iterations = iter + 1;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sources = w * z;
  result.unmixing = w * whitener;
  return result;
}

/// The serving shape: the optimizer scores every candidate on a perturbed
/// 160-record subsample of one party's Shuttle shard (d = 9). Returns the
/// subsample and its perturbed image.
std::pair<Matrix, Matrix> serving_shape(Engine& prep) {
  const auto workload = sap::data::make_stream_workload("Shuttle", 4, 16, 32, 1);
  const Matrix shard = workload.shards[0].features_T();
  Matrix x_eval =
      sap::linalg::gather_cols(shard, prep.sample_without_replacement(shard.cols(), 160));
  Matrix served = GeometricPerturbation::random(x_eval.rows(), 0.1, prep).apply(x_eval, prep);
  return {std::move(x_eval), std::move(served)};
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

TEST(FastIca, MatchesTextbookLoopBitForBit) {
  using sap::privacy::FastIcaOptions;
  struct Case {
    std::string name;
    Matrix y;
    FastIcaOptions opts;
    std::optional<bool> converges;  ///< pinned where the case is about it
  };
  std::vector<Case> cases;

  Engine prep(18);
  const Matrix served = serving_shape(prep).second;
  const FastIcaOptions serving{.max_iterations = 100, .tolerance = 1e-5};
  // Like most serving-shape calls, this one runs to the iteration cap.
  cases.push_back({"shuttle serving shape", served, serving, false});
  cases.push_back({"shuttle, 5 components", served,
                   {.max_iterations = 100, .tolerance = 1e-5, .components = 5}, {}});
  // Tile remainders of the 4 x 4 kernels at both ends of the paper's range.
  for (const std::size_t d : {std::size_t{2}, std::size_t{34}}) {
    const Matrix mixed = sap::linalg::random_orthogonal(d, prep) * uniform_sources(d, 160, prep);
    cases.push_back({"uniform d = " + std::to_string(d), mixed, serving, {}});
  }
  const Matrix mixed4 = sap::linalg::random_orthogonal(4, prep) * uniform_sources(4, 1000, prep);
  cases.push_back({"converging", mixed4, {.max_iterations = 400, .tolerance = 1e-8}, true});

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Engine eng_ref(404), eng(404);
    const auto ref = textbook_fast_ica(c.y, c.opts, eng_ref);
    const auto res = sap::privacy::fast_ica(c.y, c.opts, eng);
    EXPECT_TRUE(same_bits(res.sources, ref.sources));
    EXPECT_TRUE(same_bits(res.unmixing, ref.unmixing));
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.converged, ref.converged);
    if (c.converges) {
      EXPECT_EQ(ref.converged, *c.converges);
    }
    // The same draws were taken: both engines continue identically.
    EXPECT_EQ(eng.normal(), eng_ref.normal());
    EXPECT_EQ(eng(), eng_ref());
  }
}

// ------------------------------------------------------------ step kernel

/// The plain loops the step kernel's exactness is stated against: each
/// element of W Z and of g Z^T one ascending chain from +0.0, the owned
/// scalar tanh, and each g' sum one ascending chain from 0.0.
struct PlainStep {
  Matrix g, gz;
  Vector gprime;
};

PlainStep plain_step(const Matrix& w, const Matrix& z) {
  const std::size_t k = z.rows();
  const std::size_t n = z.cols();
  PlainStep out{Matrix(k, n), Matrix(k, k), Vector(k)};
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t t = 0; t < n; ++t) {
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) acc += w(i, l) * z(l, t);
      out.g(i, t) = sap::math::tanh(acc);
    }
  for (std::size_t i = 0; i < k; ++i) {
    double acc = 0.0;
    for (std::size_t t = 0; t < n; ++t) acc += 1.0 - out.g(i, t) * out.g(i, t);
    out.gprime[i] = acc;
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      double acc = 0.0;
      for (std::size_t t = 0; t < n; ++t) acc += out.g(i, t) * z(j, t);
      out.gz(i, j) = acc;
    }
  return out;
}

/// A step's inputs of one kind: 0, normal W and Z; 1, the same with W's
/// first row +0.0 and its second -0.0, Z's first row and first column
/// negative and its second column positive, so whole chains of W Z and of
/// g Z^T add only signed zeros and only the +0.0 start makes them +0.0;
/// 2, Z whitened from d = k + 3 dimensions onto k components, the records
/// fast_ica steps over when components < d, and a random rotation W.
std::pair<Matrix, Matrix> step_inputs(int kind, std::size_t k, std::size_t n, Engine& eng) {
  if (kind == 2) {
    const std::size_t d = k + 3;
    Matrix x = Matrix::generate(d, n, [&] { return eng.uniform(); });
    const Vector mean = sap::linalg::row_means(x);
    for (std::size_t i = 0; i < d; ++i)
      for (auto& v : x.row(i)) v -= mean[i];
    const auto eig = sap::linalg::sym_eigen(sap::linalg::covariance_cols(x));
    Matrix whitener(k, d);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < d; ++j)
        whitener(i, j) = eig.vectors(j, i) / std::sqrt(eig.values[i]);
    return {sap::linalg::random_orthogonal(k, eng), whitener * x};
  }
  Matrix w = Matrix::generate(k, k, [&] { return eng.normal(0.0, 1.5); });
  Matrix z = Matrix::generate(k, n, [&] { return eng.normal(); });
  if (kind == 1) {
    for (std::size_t l = 0; l < k; ++l) {
      w(0, l) = 0.0;
      w(1, l) = -0.0;
      z(l, 0) = -std::abs(z(l, 0)) - 0.5;
      z(l, 1) = std::abs(z(l, 1)) + 0.5;
    }
    for (auto& v : z.row(0)) v = -std::abs(v) - 0.5;
  }
  return {std::move(w), std::move(z)};
}

TEST(FastIcaStep, EveryVariantMatchesThePlainChainsBitForBit) {
  // Each variant this CPU runs (vec16 always; avx2 only where the CPU has
  // it) must give g, every g' sum and g Z^T the plain loops' bits: k 2-16
  // and 34 cover every row-tile and vector remainder, n values that are not
  // multiples of 8 every column tail. Each variant runs twice on the same
  // buffers, so a second step must overwrite all of the first one's output.
  const auto kernels = sap::privacy::supported_step_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "vec16");
  EXPECT_STREQ(sap::privacy::step_kernel().name, kernels.back().name);
  Engine eng(3301);
  std::vector<std::size_t> ks;
  for (std::size_t k = 2; k <= 16; ++k) ks.push_back(k);
  ks.push_back(34);
  for (const std::size_t k : ks) {
    for (const std::size_t n : {std::size_t{9}, std::size_t{13}, std::size_t{35},
                                std::size_t{161}}) {
      for (int kind = 0; kind < 3; ++kind) {
        const auto [w0, z] = step_inputs(kind, k, n, eng);
        const Matrix w1 = step_inputs(kind, k, n, eng).first;
        const PlainStep want = plain_step(w1, z);
        for (const auto& kernel : kernels) {
          SCOPED_TRACE(std::string(kernel.name) + ", k " + std::to_string(k) + ", n " +
                       std::to_string(n) + ", kind " + std::to_string(kind));
          sap::privacy::StepBuffers buf(z);
          kernel.step(w0, buf);
          kernel.step(w1, buf);
          ASSERT_TRUE(same_bits(buf.g, want.g));
          ASSERT_TRUE(same_bits(buf.gz, want.gz));
          ASSERT_EQ(std::memcmp(buf.gprime.data(), want.gprime.data(), k * sizeof(double)), 0);
        }
      }
    }
  }
}

// ------------------------------------------------------------ attacks

TEST(NaiveAttack, DefeatedByStrongRotationButNotByWeakOne) {
  Engine eng(9);
  const Matrix x = uniform_sources(4, 500, eng);

  // Weak rotation: near-identity (small Givens angle) — naive read-off
  // still correlates strongly with the original columns.
  const Matrix weak = sap::linalg::givens(4, 0, 1, 0.1);
  const Matrix y_weak = weak * x;
  const Vector p_weak = sap::privacy::candidate_pool_privacy(x, y_weak);

  // Strong mixing rotation.
  const Matrix strong = sap::linalg::random_orthogonal(4, eng);
  const Matrix y_strong = strong * x;
  const Vector p_strong = sap::privacy::candidate_pool_privacy(x, y_strong);

  const double min_weak = *std::min_element(p_weak.begin(), p_weak.end());
  const double min_strong = *std::min_element(p_strong.begin(), p_strong.end());
  EXPECT_LT(min_weak, 0.25);  // weak rotation leaks
  EXPECT_GT(min_strong, min_weak);
}

TEST(NaiveAttack, IdentityPerturbationHasZeroPrivacy) {
  Engine eng(10);
  const Matrix x = uniform_sources(3, 300, eng);
  const Vector p = sap::privacy::candidate_pool_privacy(x, x);
  for (double v : p) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(IcaAttack, BreaksPureRotationOnNonGaussianData) {
  Engine eng(11);
  const Matrix x = uniform_sources(4, 2500, eng);
  const Matrix r = sap::linalg::random_orthogonal(4, eng);
  const Matrix y = r * x;

  sap::privacy::IcaReconstructionAttack attack({.max_iterations = 400, .tolerance = 1e-8});
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  const auto rec = attack.reconstruct(ctx, eng);
  ASSERT_EQ(rec.kind, sap::privacy::Reconstruction::Kind::kCandidatePool);
  const Vector p = sap::privacy::candidate_pool_privacy(x, rec.estimate);
  const double rho = *std::min_element(p.begin(), p.end());
  // ICA should reconstruct at least one column almost exactly.
  EXPECT_LT(rho, 0.35);
}

TEST(IcaAttack, NoiseAdditionRestoresPrivacy) {
  Engine eng(12);
  const Matrix x = uniform_sources(4, 2500, eng);
  auto g = GeometricPerturbation::random(4, 0.35, eng);
  Engine noise(13);
  const Matrix y = g.apply(x, noise);

  sap::privacy::IcaReconstructionAttack attack({.max_iterations = 300, .tolerance = 1e-7});
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  const auto rec = attack.reconstruct(ctx, eng);
  const Vector p = sap::privacy::candidate_pool_privacy(x, rec.estimate);
  const double rho_noisy = *std::min_element(p.begin(), p.end());

  const Matrix y_clean = g.apply_noiseless(x);
  const auto rec_clean = attack.reconstruct(
      [&] {
        sap::privacy::AttackContext c2;
        c2.perturbed = &y_clean;
        return c2;
      }(),
      eng);
  const Vector p_clean = sap::privacy::candidate_pool_privacy(x, rec_clean.estimate);
  const double rho_clean = *std::min_element(p_clean.begin(), p_clean.end());
  EXPECT_GT(rho_noisy, rho_clean);
}

TEST(KnownInputAttack, ExactlyInvertsNoiselessPerturbation) {
  Engine eng(14);
  const Matrix x = uniform_sources(4, 200, eng);
  const auto g = GeometricPerturbation::random(4, 0.0, eng);
  const Matrix y = g.apply_noiseless(x);

  sap::privacy::KnownInputAttack attack;
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  ctx.known_indices = {0, 1, 2, 3, 4, 5};
  ctx.known_originals = Matrix(4, 6);
  for (std::size_t j = 0; j < 6; ++j) {
    const Vector col = x.col(j);
    ctx.known_originals.set_col(j, col);
  }
  const auto rec = attack.reconstruct(ctx, eng);
  ASSERT_EQ(rec.kind, sap::privacy::Reconstruction::Kind::kAligned);
  // Without noise the known-input attack is devastating: rho ~ 0.
  EXPECT_LT(sap::privacy::min_privacy_guarantee(x, rec.estimate), 0.05);
}

TEST(KnownInputAttack, NoiseLimitsReconstruction) {
  Engine eng(15);
  const Matrix x = uniform_sources(4, 400, eng);
  const double sigma = 0.3;
  const auto g = GeometricPerturbation::random(4, sigma, eng);
  Engine noise(16);
  const Matrix y = g.apply(x, noise);

  sap::privacy::KnownInputAttack attack;
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  ctx.known_indices = {0, 1, 2, 3, 4, 5, 6, 7};
  ctx.known_originals = Matrix(4, 8);
  for (std::size_t j = 0; j < 8; ++j) {
    const Vector col = x.col(j);
    ctx.known_originals.set_col(j, col);
  }
  const auto rec = attack.reconstruct(ctx, eng);
  const double rho = sap::privacy::min_privacy_guarantee(x, rec.estimate);
  // Residual privacy should be on the order of sigma / column-std
  // (column std of U[0,1] is ~0.29).
  EXPECT_GT(rho, 0.5);
}

TEST(SpectralAttack, BreaksBareRotationOnAnisotropicData) {
  // Second-order attack: needs only distinct covariance eigenvalues, not
  // non-Gaussianity. Gaussian data with anisotropic covariance is exactly
  // the case ICA cannot crack but PCA can.
  Engine eng(31);
  const std::size_t d = 4, n = 3000;
  Matrix x(d, n);
  const double scales[4] = {4.0, 2.0, 1.0, 0.5};  // distinct eigenvalues
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t i = 0; i < n; ++i) x(j, i) = eng.normal(0.0, scales[j]);
  const Matrix r = sap::linalg::random_orthogonal(d, eng);
  const Matrix y = r * x;

  sap::privacy::SpectralAttack attack;
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  const auto rec = attack.reconstruct(ctx, eng);
  ASSERT_EQ(rec.kind, sap::privacy::Reconstruction::Kind::kCandidatePool);
  const Vector p = sap::privacy::candidate_pool_privacy(x, rec.estimate);
  // The dominant axes are recovered almost exactly.
  const double rho = *std::min_element(p.begin(), p.end());
  EXPECT_LT(rho, 0.2);
}

TEST(SpectralAttack, BluntedByIsotropicData) {
  // With (near-)equal eigenvalues the eigenbasis is arbitrary: the spectral
  // attack learns nothing about the rotation.
  Engine eng(32);
  const std::size_t d = 4, n = 3000;
  Matrix x = Matrix::generate(d, n, [&] { return eng.normal(); });
  const Matrix r = sap::linalg::random_orthogonal(d, eng);
  const Matrix y = r * x;

  sap::privacy::SpectralAttack attack;
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  const auto rec = attack.reconstruct(ctx, eng);
  const Vector p = sap::privacy::candidate_pool_privacy(x, rec.estimate);
  const double rho = *std::min_element(p.begin(), p.end());
  EXPECT_GT(rho, 0.5);
}

TEST(SpectralAttack, NoiseReducesRecovery) {
  Engine eng(33);
  const std::size_t d = 4, n = 2000;
  Matrix x(d, n);
  const double scales[4] = {4.0, 2.0, 1.0, 0.5};
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t i = 0; i < n; ++i) x(j, i) = eng.normal(0.0, scales[j]);
  const Matrix r = sap::linalg::random_orthogonal(d, eng);

  auto rho_with_noise = [&](double sigma) {
    Matrix y = r * x;
    for (auto& v : y.data()) v += eng.normal(0.0, sigma);
    sap::privacy::SpectralAttack attack;
    sap::privacy::AttackContext ctx;
    ctx.perturbed = &y;
    const auto rec = attack.reconstruct(ctx, eng);
    const Vector p = sap::privacy::candidate_pool_privacy(x, rec.estimate);
    return *std::min_element(p.begin(), p.end());
  };
  EXPECT_GT(rho_with_noise(2.0), rho_with_noise(0.0));
}

TEST(SpectralAttack, IncludedInSuiteWhenEnabled) {
  Engine eng(34);
  const Matrix x = uniform_sources(3, 200, eng);
  const auto g = GeometricPerturbation::random(3, 0.1, eng);
  Engine noise(35);
  const Matrix y = g.apply(x, noise);
  sap::privacy::AttackSuite suite(
      {.naive = false, .ica = false, .spectral = true, .known_inputs = 0});
  const auto report = suite.evaluate(x, y, eng);
  ASSERT_EQ(report.attacks.size(), 1u);
  EXPECT_EQ(report.attacks.front().attack, "spectral");
  EXPECT_FALSE(report.attacks.front().failed);
}

TEST(KnownInputAttack, RequiresAtLeastTwoKnownRecords) {
  Engine eng(17);
  const Matrix x = uniform_sources(3, 50, eng);
  sap::privacy::KnownInputAttack attack;
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &x;
  ctx.known_indices = {0};
  ctx.known_originals = Matrix(3, 1);
  EXPECT_THROW(attack.reconstruct(ctx, eng), sap::Error);
}

TEST(Attacks, OnlyIcaDrawsFromTheEngine) {
  // AttackSuite::evaluate skips ICA below a floor and runs it after the
  // cheap attacks; both are exact only while ICA is the sole attack that
  // draws from the engine. An attack that starts drawing fails here.
  Engine prep(36);
  const Matrix x = uniform_sources(4, 200, prep);
  const auto g = GeometricPerturbation::random(4, 0.1, prep);
  const Matrix y = g.apply(x, prep);
  sap::privacy::AttackContext ctx;
  ctx.perturbed = &y;
  ctx.original_means = sap::linalg::row_means(x);
  ctx.original_stddevs = sap::linalg::row_stddev(x);
  ctx.known_indices = {3, 50, 97, 140};
  ctx.known_originals = sap::linalg::gather_cols(x, ctx.known_indices);

  const sap::privacy::NaiveEstimationAttack naive;
  const sap::privacy::KnownInputAttack known;
  const sap::privacy::SpectralAttack spectral;
  for (const sap::privacy::Attack* attack :
       std::initializer_list<const sap::privacy::Attack*>{&naive, &known, &spectral}) {
    SCOPED_TRACE(attack->name());
    Engine eng(37), untouched(37);
    (void)attack->reconstruct(ctx, eng);
    EXPECT_EQ(eng(), untouched());
  }
  Engine eng(37), untouched(37);
  (void)sap::privacy::IcaReconstructionAttack({.max_iterations = 5}).reconstruct(ctx, eng);
  EXPECT_NE(eng(), untouched());
}

// ------------------------------------------------------------ evaluator

TEST(AttackSuite, RhoIsMinAcrossAttacks) {
  Engine eng(18);
  const Matrix x = uniform_sources(4, 600, eng);
  const auto g = GeometricPerturbation::random(4, 0.1, eng);
  Engine noise(19);
  const Matrix y = g.apply(x, noise);

  sap::privacy::AttackSuite suite(
      {.naive = true, .ica = true, .known_inputs = 4});
  const auto report = suite.evaluate(x, y, eng);
  ASSERT_EQ(report.attacks.size(), 3u);
  double min_rho = 1e300;
  for (const auto& a : report.attacks) {
    if (a.failed) continue;
    min_rho = std::min(min_rho, a.rho);
  }
  EXPECT_DOUBLE_EQ(report.rho, min_rho);
}

TEST(AttackSuite, NoAttacksEnabledThrows) {
  EXPECT_THROW(sap::privacy::AttackSuite({.naive = false, .ica = false, .known_inputs = 0}),
               sap::Error);
}

TEST(AttackSuite, KnownInputDominatesWhenNoiseFree) {
  // With sigma = 0 the known-input attack reconstructs everything, so the
  // suite's rho collapses regardless of how good the rotation is.
  Engine eng(20);
  const Matrix x = uniform_sources(5, 300, eng);
  const auto g = GeometricPerturbation::random(5, 0.0, eng);
  const Matrix y = g.apply_noiseless(x);
  sap::privacy::AttackSuite suite({.naive = true, .ica = false, .known_inputs = 6});
  const auto report = suite.evaluate(x, y, eng);
  EXPECT_LT(report.rho, 0.05);
}

TEST(AttackSuite, OptimizableGapExistsBetweenRotations) {
  // The premise of the optimizer: different rotations at the same noise
  // level give materially different rho. Verify spread across 12 draws.
  Engine eng(21);
  const sap::data::Dataset ds = sap::data::make_uci("Iris", 7);
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  const Matrix x = norm.transform(ds.features()).transpose();

  sap::privacy::AttackSuite suite({.naive = true, .ica = false, .known_inputs = 0});
  double lo = 1e300, hi = 0.0;
  for (int trial = 0; trial < 12; ++trial) {
    const auto g = GeometricPerturbation::random(4, 0.05, eng);
    Engine noise(100 + trial);
    const auto report = suite.evaluate(x, g.apply(x, noise), eng);
    lo = std::min(lo, report.rho);
    hi = std::max(hi, report.rho);
  }
  EXPECT_GT(hi - lo, 0.05);
}

TEST(AttackSuite, ScratchReuseBitIdenticalToPerCallEvaluate) {
  // The hoisted-scratch overload must be a pure speedup: same RNG draws,
  // same numbers — across repeated reuse of one scratch.
  Engine eng(77);
  const sap::data::Dataset ds = sap::data::make_uci("Wine", 3);
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  const Matrix x = norm.transform(ds.features()).transpose();
  sap::privacy::AttackSuite suite({.naive = true, .ica = false, .known_inputs = 4});

  Engine eng_a(5), eng_b(5);
  auto scratch = suite.make_scratch(x);
  for (int trial = 0; trial < 4; ++trial) {
    const auto g = GeometricPerturbation::random(x.rows(), 0.1, eng);
    Engine noise(200 + trial);
    const Matrix y = g.apply(x, noise);
    const auto plain = suite.evaluate(x, y, eng_a);
    const auto reused = suite.evaluate(x, y, eng_b, scratch);
    ASSERT_EQ(plain.attacks.size(), reused.attacks.size());
    EXPECT_EQ(plain.rho, reused.rho);  // bit-identical
    for (std::size_t a = 0; a < plain.attacks.size(); ++a) {
      EXPECT_EQ(plain.attacks[a].rho, reused.attacks[a].rho);
      EXPECT_EQ(plain.attacks[a].per_column, reused.attacks[a].per_column);
    }
  }
}

TEST(AttackSuite, FastCandidatePoolBitIdenticalToPearsonReference) {
  // The evaluator's GEMM-factored candidate-pool path vs the public
  // pearson-loop reference, exercised through the naive attack's outcome.
  Engine eng(78);
  const sap::data::Dataset ds = sap::data::make_uci("Diabetes", 4);
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  const Matrix x = norm.transform(ds.features()).transpose();
  const auto g = GeometricPerturbation::random(x.rows(), 0.15, eng);
  Engine noise(9);
  const Matrix y = g.apply(x, noise);

  sap::privacy::AttackSuite suite({.naive = true, .ica = false, .known_inputs = 0});
  const auto report = suite.evaluate(x, y, eng);
  ASSERT_EQ(report.attacks.size(), 1u);
  const auto reference = sap::privacy::candidate_pool_privacy(x, y);
  EXPECT_EQ(report.attacks[0].per_column, reference);  // bit-identical
}

void expect_same_report(const sap::privacy::PrivacyReport& a,
                        const sap::privacy::PrivacyReport& b) {
  EXPECT_EQ(a.rho, b.rho);
  ASSERT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    SCOPED_TRACE(a.attacks[i].attack);
    EXPECT_EQ(a.attacks[i].attack, b.attacks[i].attack);
    EXPECT_EQ(a.attacks[i].per_column, b.attacks[i].per_column);
    EXPECT_EQ(a.attacks[i].rho, b.attacks[i].rho);
    EXPECT_EQ(a.attacks[i].failed, b.attacks[i].failed);
    EXPECT_EQ(a.attacks[i].skipped, b.attacks[i].skipped);
  }
}

TEST(AttackSuite, FloorSkipsOnlyIca) {
  // The serving suite on rotated uniform sources, where ICA binds: the
  // cheap attacks' minimum sits above the full rho.
  Engine prep(80);
  const Matrix x = uniform_sources(4, 300, prep);
  const auto g = GeometricPerturbation::random(4, 0.05, prep);
  const Matrix y = g.apply(x, prep);
  const sap::privacy::AttackSuite suite({.naive = true, .ica = true, .known_inputs = 4});
  auto scratch = suite.make_scratch(x);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  Engine eng_full(81);
  const auto full = suite.evaluate(x, y, eng_full, scratch);
  ASSERT_EQ(full.attacks.size(), 3u);
  ASSERT_EQ(full.attacks[1].attack, "ica");
  ASSERT_FALSE(full.attacks[1].failed);
  const double cheap_min = std::min(full.attacks[0].rho, full.attacks[2].rho);
  ASSERT_LT(full.rho, cheap_min);

  {
    SCOPED_TRACE("floor -inf: the 4-argument overload, bit for bit");
    Engine eng(81);
    expect_same_report(suite.evaluate(x, y, eng, scratch, -kInf), full);
    Engine next(eng_full);
    EXPECT_EQ(eng(), next());
  }
  for (const double floor : {cheap_min, cheap_min + 0.25}) {
    SCOPED_TRACE("floor at or above the cheap attacks' minimum: ICA skipped");
    Engine eng(81);
    const auto report = suite.evaluate(x, y, eng, scratch, floor);
    ASSERT_EQ(report.attacks.size(), 3u);
    for (const std::size_t a : {0u, 2u}) {
      EXPECT_FALSE(report.attacks[a].skipped);
      EXPECT_EQ(report.attacks[a].per_column, full.attacks[a].per_column);
    }
    EXPECT_EQ(report.attacks[1].attack, "ica");
    EXPECT_TRUE(report.attacks[1].skipped);
    EXPECT_FALSE(report.attacks[1].failed);
    EXPECT_TRUE(report.attacks[1].per_column.empty());
    EXPECT_EQ(report.rho, cheap_min);
    EXPECT_LE(report.rho, floor);
    EXPECT_GE(report.rho, full.rho);
  }
  {
    SCOPED_TRACE("floor just below the cheap attacks' minimum: ICA runs");
    Engine eng(81);
    expect_same_report(suite.evaluate(x, y, eng, scratch, std::nextafter(cheap_min, -kInf)),
                       full);
    Engine next(eng_full);
    EXPECT_EQ(eng(), next());
  }
  {
    SCOPED_TRACE("an ICA-off suite ignores the floor");
    const sap::privacy::AttackSuite cheap({.naive = true, .ica = false, .known_inputs = 4});
    auto cheap_scratch = cheap.make_scratch(x);
    Engine eng_a(82), eng_b(82);
    const auto plain = cheap.evaluate(x, y, eng_a, cheap_scratch);
    expect_same_report(cheap.evaluate(x, y, eng_b, cheap_scratch, kInf), plain);
    EXPECT_EQ(eng_a(), eng_b());
  }
}

TEST(AttackSuite, FailedIcaRunIsRetriedOnceFromASpawnedStream) {
  const sap::privacy::AttackSuite suite({.naive = true, .ica = true, .known_inputs = 4});
  Engine prep(18);
  const auto [x, y] = serving_shape(prep);
  {
    SCOPED_TRACE("engine 119: the first FastICA start degenerates, the retry scores");
    Engine eng(119);
    const auto report = suite.evaluate(x, y, eng);
    const sap::privacy::AttackOutcome* ica = suite.ica_outcome(report);
    ASSERT_NE(ica, nullptr);
    EXPECT_EQ(ica->attack, "ica");
    EXPECT_EQ(ica->failed_runs, 1u);
    EXPECT_FALSE(ica->failed);
    // The retry is the run from a stream spawned after the failed one.
    Engine manual(119);
    (void)manual.sample_without_replacement(x.cols(), 4);
    EXPECT_THROW((void)sap::privacy::fast_ica(y, suite.options().ica_options, manual),
                 sap::Error);
    Engine retry = manual.spawn();
    const auto rerun = sap::privacy::fast_ica(y, suite.options().ica_options, retry);
    EXPECT_EQ(ica->per_column, sap::privacy::candidate_pool_privacy(x, rerun.sources));
    EXPECT_EQ(ica->converged, rerun.converged);
    EXPECT_EQ(report.rho, std::min({report.attacks[0].rho, ica->rho, report.attacks[2].rho}));
    EXPECT_EQ(eng(), manual());
  }
  {
    SCOPED_TRACE("nine dimensions over eight records: both runs throw while whitening");
    const Matrix x8 = uniform_sources(9, 8, prep);
    const Matrix y8 = GeometricPerturbation::random(9, 0.1, prep).apply(x8, prep);
    Engine eng(5);
    const auto report = suite.evaluate(x8, y8, eng);
    const sap::privacy::AttackOutcome* ica = suite.ica_outcome(report);
    ASSERT_NE(ica, nullptr);
    EXPECT_EQ(ica->failed_runs, 2u);
    EXPECT_TRUE(ica->failed);
    EXPECT_TRUE(ica->per_column.empty());
    EXPECT_EQ(report.rho, std::min(report.attacks[0].rho, report.attacks[2].rho));
  }
  const sap::privacy::AttackSuite no_ica({.naive = true, .ica = false, .known_inputs = 4});
  Engine eng(119);
  EXPECT_EQ(no_ica.ica_outcome(no_ica.evaluate(x, y, eng)), nullptr);
}

TEST(AttackSuite, MismatchedScratchThrows) {
  Engine eng(79);
  const Matrix x = uniform_sources(4, 40, eng);
  const Matrix y = uniform_sources(4, 40, eng);
  sap::privacy::AttackSuite suite({.naive = true, .ica = false, .known_inputs = 0});
  const Matrix other = uniform_sources(5, 40, eng);
  auto scratch = suite.make_scratch(other);
  EXPECT_THROW((void)suite.evaluate(x, y, eng, scratch), sap::Error);
}

}  // namespace

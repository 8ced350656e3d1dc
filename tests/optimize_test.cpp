// Tests for sap::opt: randomized perturbation optimization and the
// optimality-rate estimator (paper §2, Figures 2-3 machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "golden.hpp"
#include "linalg/orthogonal.hpp"
#include "net/remote.hpp"
#include "optimize/optimizer.hpp"
#include "perturb/geometric.hpp"
#include "privacy/evaluator.hpp"
#include "rng/rng.hpp"

namespace {

using sap::linalg::Matrix;
using sap::rng::Engine;

Matrix normalized_paper_layout(const std::string& dataset, std::uint64_t seed) {
  const auto ds = sap::data::make_uci(dataset, seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  return norm.transform(ds.features()).transpose();  // d x N
}

sap::opt::OptimizerOptions cheap_options() {
  sap::opt::OptimizerOptions o;
  o.candidates = 6;
  o.refine_steps = 3;
  o.max_eval_records = 100;
  o.attacks.naive = true;
  o.attacks.ica = false;  // keep unit tests fast; ICA covered in privacy_test
  o.attacks.known_inputs = 4;
  return o;
}

// optimize_perturbation as it was before refinement probes took a floor:
// every probe fully scored. Kept as the skip's exactness reference, the way
// the textbook loop anchors fast_ica. Never timed.
sap::opt::OptimizationResult full_scoring_optimize(const Matrix& x,
                                                   const sap::opt::OptimizerOptions& opts,
                                                   Engine& eng) {
  using sap::perturb::GeometricPerturbation;
  using sap::privacy::AttackSuite;
  sap::ThreadPool pool(opts.threads);
  const AttackSuite suite(opts.attacks);
  const Matrix x_eval =
      x.cols() <= opts.max_eval_records
          ? x
          : sap::linalg::gather_cols(
                x, eng.sample_without_replacement(x.cols(), opts.max_eval_records));
  const std::size_t d = x.rows();
  const std::size_t nc = opts.candidates;
  const auto score = [&](const GeometricPerturbation& g, AttackSuite::Scratch& scratch,
                         Matrix& y_buf, Engine& e) {
    g.apply_into(x_eval, y_buf, e);
    return suite.evaluate(x_eval, y_buf, e, scratch).rho;
  };

  sap::opt::OptimizationResult result;
  std::vector<Engine> slot_eng;
  for (std::size_t c = 0; c < nc; ++c) slot_eng.push_back(eng.spawn());
  const AttackSuite::Scratch proto_scratch = suite.make_scratch(x_eval);
  std::vector<AttackSuite::Scratch> scratch(nc, proto_scratch);
  std::vector<Matrix> y_buf(nc);
  std::vector<GeometricPerturbation> cand(nc);
  result.candidate_rhos.assign(nc, 0.0);
  pool.run_indexed(nc, [&](std::size_t c) {
    cand[c] = GeometricPerturbation::random(d, opts.noise_sigma, slot_eng[c]);
    result.candidate_rhos[c] = score(cand[c], scratch[c], y_buf[c], slot_eng[c]);
  });
  result.evaluations += nc;
  std::size_t best = 0;
  for (std::size_t c = 1; c < nc; ++c)
    if (result.candidate_rhos[c] > result.candidate_rhos[best]) best = c;
  result.best = std::move(cand[best]);
  result.best_rho = result.candidate_rhos[best];

  double angle = opts.refine_angle;
  std::array<AttackSuite::Scratch, 2> probe_scratch{proto_scratch, proto_scratch};
  std::array<Matrix, 2> probe_y;
  std::array<GeometricPerturbation, 2> probe;
  std::array<Engine, 2> probe_eng{Engine{0}, Engine{0}};
  std::array<double, 2> probe_rho{};
  for (std::size_t step = 0; step < opts.refine_steps; ++step) {
    const std::size_t p = eng.uniform_index(d);
    std::size_t q = eng.uniform_index(d - 1);
    if (q >= p) ++q;
    probe_eng[0] = eng.spawn();
    probe_eng[1] = eng.spawn();
    pool.run_indexed(2, [&](std::size_t s) {
      const double theta = (s == 0 ? 1.0 : -1.0) * angle;
      probe[s] = result.best;
      probe[s].precompose_rotation(sap::linalg::givens(d, p, q, theta));
      probe_rho[s] = score(probe[s], probe_scratch[s], probe_y[s], probe_eng[s]);
    });
    result.evaluations += 2;
    const std::size_t win = (probe_rho[0] >= probe_rho[1]) ? 0 : 1;
    if (probe_rho[win] > result.best_rho) {
      result.best_rho = probe_rho[win];
      result.best = std::move(probe[win]);
    } else {
      angle *= 0.7;
    }
  }
  return result;
}

TEST(Optimizer, BestIsAtLeastEveryCandidate) {
  const Matrix x = normalized_paper_layout("Iris", 1);
  Engine eng(1);
  const auto res = sap::opt::optimize_perturbation(x, cheap_options(), eng);
  ASSERT_EQ(res.candidate_rhos.size(), 6u);
  for (double rho : res.candidate_rhos) EXPECT_GE(res.best_rho, rho - 1e-12);
  EXPECT_GE(res.evaluations, res.candidate_rhos.size());
}

TEST(Optimizer, RefinementNeverDegradesBest) {
  const Matrix x = normalized_paper_layout("Iris", 2);
  auto opts = cheap_options();
  Engine eng_a(7), eng_b(7);
  opts.refine_steps = 0;
  const auto base = sap::opt::optimize_perturbation(x, opts, eng_a);
  opts.refine_steps = 6;
  const auto refined = sap::opt::optimize_perturbation(x, opts, eng_b);
  // Same seed → same candidate phase; refinement can only add evaluations
  // and keep or improve the winner.
  EXPECT_GE(refined.best_rho, base.best_rho - 1e-12);
}

TEST(Optimizer, OptimizedBeatsAverageRandomPerturbation) {
  // The core Figure-2 claim: the optimized rho is (on average) above the
  // mean of random draws.
  const Matrix x = normalized_paper_layout("Diabetes", 3);
  Engine eng(11);
  const auto res = sap::opt::optimize_perturbation(x, cheap_options(), eng);
  double mean_random = 0.0;
  for (double rho : res.candidate_rhos) mean_random += rho;
  mean_random /= static_cast<double>(res.candidate_rhos.size());
  EXPECT_GT(res.best_rho, mean_random);
}

TEST(Optimizer, ReturnedPerturbationScoresNearReportedRho) {
  // Re-evaluating the winner must give a similar rho (fresh noise and
  // subsample make it stochastic, hence the loose tolerance).
  const Matrix x = normalized_paper_layout("Iris", 4);
  auto opts = cheap_options();
  Engine eng(13);
  const auto res = sap::opt::optimize_perturbation(x, opts, eng);
  const double re = sap::opt::evaluate_perturbation(x, res.best, opts.attacks,
                                                    opts.max_eval_records, eng);
  EXPECT_NEAR(re, res.best_rho, 0.45);
}

TEST(Optimizer, DeterministicGivenSeed) {
  const Matrix x = normalized_paper_layout("Wine", 5);
  Engine eng_a(99), eng_b(99);
  const auto a = sap::opt::optimize_perturbation(x, cheap_options(), eng_a);
  const auto b = sap::opt::optimize_perturbation(x, cheap_options(), eng_b);
  EXPECT_DOUBLE_EQ(a.best_rho, b.best_rho);
  EXPECT_TRUE(a.best.rotation().approx_equal(b.best.rotation(), 0.0));
}

TEST(Optimizer, MatchesPinnedGolden) {
  // The deterministic-baseline pins (tests/golden.hpp): a silent change to
  // the seed-derivation scheme re-keys every deployment and must fail here.
  const Matrix x = normalized_paper_layout("Wine", 5);
  Engine eng(99);
  const auto res = sap::opt::optimize_perturbation(x, cheap_options(), eng);
  EXPECT_NEAR(res.best_rho, sap::testing::kGoldenWineBestRho,
              sap::testing::kGoldenTolerance);

  const Matrix iris = normalized_paper_layout("Iris", 7);
  Engine eng2(17);
  const auto res2 = sap::opt::optimize_perturbation(iris, cheap_options(), eng2);
  EXPECT_NEAR(res2.best_rho, sap::testing::kGoldenIrisBestRho,
              sap::testing::kGoldenTolerance);
}

TEST(Optimizer, BitIdenticalAcrossThreadCounts) {
  // The determinism contract (optimizer.hpp): candidate engines are derived
  // serially before the parallel region and results land in index-addressed
  // slots, so 0, 2 and 8 worker threads must agree bit for bit. Three
  // inputs: the unit-test budget at d = 8; the same ICA-off suite at d = 34
  // with the default budget (12 candidates, 8 refinement steps, 160 eval
  // records); and the real serving optimizer, ICA on, at d = 9, pinned to a
  // golden because it is the only row that runs FastICA inside the search.
  auto wide = cheap_options();
  wide.candidates = 12;
  wide.refine_steps = 8;
  wide.max_eval_records = 160;
  struct Input {
    Matrix x;
    sap::opt::OptimizerOptions opts;
    const double* golden;
  };
  const Input inputs[] = {
      {normalized_paper_layout("Diabetes", 12), cheap_options(), nullptr},
      {normalized_paper_layout("Ionosphere", 7), wide, nullptr},
      {normalized_paper_layout("Shuttle", 1), sap::net::serving_session_options(0.1, 1).optimizer,
       &sap::testing::kGoldenServingShuttleBestRho}};
  for (auto [x, opts, golden] : inputs) {
    SCOPED_TRACE("d = " + std::to_string(x.rows()));
    sap::opt::OptimizationResult reference;
    for (const std::size_t threads : {0, 2, 8}) {
      opts.threads = threads;
      Engine eng(777);
      const auto res = sap::opt::optimize_perturbation(x, opts, eng);
      if (threads == 0) {
        if (golden != nullptr) {
          EXPECT_NEAR(res.best_rho, *golden, sap::testing::kGoldenTolerance);
        }
        reference = res;
        continue;
      }
      EXPECT_EQ(res.best_rho, reference.best_rho) << threads << " threads";
      EXPECT_TRUE(res.best.rotation() == reference.best.rotation()) << threads;
      EXPECT_TRUE(res.best.translation() == reference.best.translation()) << threads;
      ASSERT_EQ(res.candidate_rhos.size(), reference.candidate_rhos.size());
      for (std::size_t c = 0; c < res.candidate_rhos.size(); ++c)
        EXPECT_EQ(res.candidate_rhos[c], reference.candidate_rhos[c]) << "candidate " << c;
      EXPECT_EQ(res.evaluations, reference.evaluations);
    }
  }
}

TEST(Optimizer, RefineSkipMatchesTextbookLoopBitForBit) {
  // Refinement probes skip ICA when the cheap attacks already hold them at
  // or below best_rho; the search must still be the fully scored one, bit
  // for bit, at every thread count. Three inputs: the serving optimizer on
  // Shuttle (pinned skip count), the same with the spectral attack, and
  // Votes, where ICA binds on every probe and nothing is skipped.
  const auto serving = sap::net::serving_session_options(0.1, 1).optimizer;
  auto spectral = serving;
  spectral.attacks.spectral = true;
  struct Input {
    std::string name;
    Matrix x;
    sap::opt::OptimizerOptions opts;
    std::optional<std::size_t> ica_skipped;  ///< pinned where the input is about it
  };
  const Input inputs[] = {
      {"serving, Shuttle", normalized_paper_layout("Shuttle", 1), serving, 5},
      {"serving + spectral, Shuttle", normalized_paper_layout("Shuttle", 1), spectral, {}},
      {"serving, Votes", normalized_paper_layout("Votes", 1), serving, 0}};
  for (auto [name, x, opts, ica_skipped] : inputs) {
    SCOPED_TRACE(name);
    Engine ref_eng(777);
    const auto ref = full_scoring_optimize(x, opts, ref_eng);
    for (const std::size_t threads : {0, 2, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      opts.threads = threads;
      Engine eng(777);
      const auto res = sap::opt::optimize_perturbation(x, opts, eng);
      EXPECT_TRUE(res.best.rotation() == ref.best.rotation());
      EXPECT_TRUE(res.best.translation() == ref.best.translation());
      EXPECT_EQ(res.best_rho, ref.best_rho);
      EXPECT_EQ(res.candidate_rhos, ref.candidate_rhos);
      EXPECT_EQ(res.evaluations, ref.evaluations);
      Engine next(ref_eng);
      EXPECT_EQ(eng(), next());
      if (ica_skipped) {
        EXPECT_EQ(res.ica_skipped, *ica_skipped);
      }
    }
  }
}

TEST(Optimizer, CallerOwnedPoolMatchesPrivatePool) {
  const Matrix x = normalized_paper_layout("Iris", 13);
  auto opts = cheap_options();
  opts.threads = 3;
  Engine eng_a(31), eng_b(31);
  const auto a = sap::opt::optimize_perturbation(x, opts, eng_a);
  sap::ThreadPool pool(2);  // deliberately different size: results invariant
  const auto b = sap::opt::optimize_perturbation(x, opts, eng_b, pool);
  EXPECT_EQ(a.best_rho, b.best_rho);
  EXPECT_TRUE(a.best.rotation() == b.best.rotation());
}

TEST(Optimizer, RefinementProbesCountTwoPerStep) {
  const Matrix x = normalized_paper_layout("Iris", 14);
  auto opts = cheap_options();
  opts.candidates = 4;
  opts.refine_steps = 5;
  Engine eng(3);
  const auto res = sap::opt::optimize_perturbation(x, opts, eng);
  // Each refinement step scores the +theta and -theta probes.
  EXPECT_EQ(res.evaluations, 4u + 2u * 5u);
}

TEST(Optimizer, TinyDatasetRejected) {
  Matrix x(3, 4);
  Engine eng(1);
  EXPECT_THROW(sap::opt::optimize_perturbation(x, cheap_options(), eng), sap::Error);
}

TEST(Optimizer, ZeroCandidatesRejected) {
  const Matrix x = normalized_paper_layout("Iris", 6);
  auto opts = cheap_options();
  opts.candidates = 0;
  Engine eng(1);
  EXPECT_THROW(sap::opt::optimize_perturbation(x, opts, eng), sap::Error);
}

TEST(OptimalityRate, RateInUnitIntervalAndBoundIsMax) {
  const Matrix x = normalized_paper_layout("Iris", 7);
  Engine eng(17);
  const auto est = sap::opt::estimate_optimality_rate(x, cheap_options(), 8, eng);
  EXPECT_GT(est.rate, 0.0);
  EXPECT_LE(est.rate, 1.0 + 1e-12);
  EXPECT_EQ(est.run_rhos.size(), 8u);
  const double max_run = *std::max_element(est.run_rhos.begin(), est.run_rhos.end());
  EXPECT_DOUBLE_EQ(est.bound, max_run);
  EXPECT_LE(est.mean_rho, est.bound + 1e-12);
}

TEST(OptimalityRate, TypicalRateIsHighForOptimizedRuns) {
  // Figure 3 reports rates in the 0.8-1.0 band; with refinement the mean
  // optimized run should land close to the empirical bound.
  const Matrix x = normalized_paper_layout("Diabetes", 8);
  Engine eng(19);
  const auto est = sap::opt::estimate_optimality_rate(x, cheap_options(), 10, eng);
  EXPECT_GT(est.rate, 0.7);
}

TEST(OptimalityRate, NeedsTwoRuns) {
  const Matrix x = normalized_paper_layout("Iris", 9);
  Engine eng(1);
  EXPECT_THROW(sap::opt::estimate_optimality_rate(x, cheap_options(), 1, eng), sap::Error);
}

TEST(EvaluatePerturbation, DimensionMismatchThrows) {
  const Matrix x = normalized_paper_layout("Iris", 10);
  Engine eng(2);
  const auto g = sap::perturb::GeometricPerturbation::random(x.rows() + 1, 0.1, eng);
  EXPECT_THROW(sap::opt::evaluate_perturbation(x, g, cheap_options().attacks, 100, eng),
               sap::Error);
}

// Sweep every synthetic dataset of the paper's suite: the optimizer must
// produce a valid perturbation with positive, bounded rho on all of them
// (shapes range 150x4 to 2000x9, mixed Gaussian/binary columns).
class OptimizerSuiteSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerSuiteSweep, ProducesValidPerturbationEverywhere) {
  const Matrix x = normalized_paper_layout(GetParam(), 99);
  auto opts = cheap_options();
  opts.candidates = 4;
  opts.refine_steps = 2;
  Engine eng(2718);
  const auto res = sap::opt::optimize_perturbation(x, opts, eng);
  EXPECT_GT(res.best_rho, 0.0) << GetParam();
  EXPECT_LT(res.best_rho, 2.0) << GetParam();  // metric tops out near sqrt(2)+noise
  EXPECT_EQ(res.best.dims(), x.rows()) << GetParam();
  EXPECT_LT(sap::linalg::orthogonality_defect(res.best.rotation()), 1e-8) << GetParam();
  for (double t : res.best.translation()) {
    EXPECT_GE(t, -1.0) << GetParam();
    EXPECT_LT(t, 1.0) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwelveDatasets, OptimizerSuiteSweep,
                         ::testing::Values("Breast_w", "Credit_a", "Credit_g", "Diabetes",
                                           "Ecoli", "Hepatitis", "Heart", "Ionosphere",
                                           "Iris", "Shuttle", "Votes", "Wine"));

TEST(EvaluatePerturbation, MoreNoiseRaisesKnownInputPrivacy) {
  const Matrix x = normalized_paper_layout("Iris", 11);
  sap::privacy::AttackSuiteOptions attacks{.naive = false, .ica = false, .known_inputs = 6};
  Engine eng(23);
  const auto r = sap::linalg::random_orthogonal(x.rows(), eng);
  sap::linalg::Vector t(x.rows(), 0.1);

  const sap::perturb::GeometricPerturbation quiet(r, t, 0.02);
  const sap::perturb::GeometricPerturbation loud(r, t, 0.4);
  double rho_quiet = 0.0, rho_loud = 0.0;
  // Average over repeats: subsampling + fresh noise make single evals noisy.
  for (int rep = 0; rep < 5; ++rep) {
    rho_quiet += sap::opt::evaluate_perturbation(x, quiet, attacks, 120, eng);
    rho_loud += sap::opt::evaluate_perturbation(x, loud, attacks, 120, eng);
  }
  EXPECT_GT(rho_loud, rho_quiet);
}

}  // namespace

// Randomized perturbation optimization (companion paper [2], PODC'07 §2).
//
// A data provider wants the perturbation with the highest minimum privacy
// guarantee rho for *their* data. Since rho(R, t) is non-convex over the
// orthogonal group, [2] optimizes by randomized search: sample candidate
// perturbations, keep the best under the attack suite, and locally refine
// the winner with small Givens rotations (hill climbing on SO(d) planes).
//
// This module also estimates the paper's empirical quantities:
//   b-hat  = max rho over n optimization runs  (upper bound estimate),
//   rho-bar = mean optimized rho over runs,
//   optimality rate O = rho-bar / b-hat        (Figure 3's y-axis).
//
// Determinism contract (DESIGN.md §8): candidate search is embarrassingly
// parallel, and the implementation keeps it bit-reproducible by deriving one
// child engine per candidate SERIALLY from the caller's engine before any
// parallel work starts (the same master->spawn() discipline
// proto::logic::derive_session_seeds uses for parties). Workers write into
// index-addressed result slots and the winner is reduced serially, so the
// result is a pure function of (data, options, engine) — identical for 0, 2
// or 8 optimizer threads, and therefore identical across every transport
// backend that runs LocalOptimize.
//
// Refinement probes are scored against a floor, the step's incoming
// best_rho, fixed before the pair is scheduled: a probe whose cheap attacks
// already score at or below it skips FastICA (AttackSuite::evaluate). That
// probe could not have been accepted, nor displaced the probe that was, so
// the result stays the full search's bit for bit; which probes skip depends
// only on (data, options, engine), never on the thread count. Random
// candidates are scored in full: candidate_rhos is Figure 2's distribution.
#pragma once

#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"
#include "perturb/geometric.hpp"
#include "privacy/evaluator.hpp"
#include "rng/rng.hpp"

namespace sap::opt {

struct OptimizerOptions {
  /// Random candidate perturbations sampled per optimization run.
  std::size_t candidates = 12;
  /// Givens-plane hill-climbing steps applied to the winning candidate
  /// (0 disables refinement). Each step probes the +theta/-theta pair.
  std::size_t refine_steps = 8;
  /// Magnitude of refinement rotations (radians, cooled on failure).
  double refine_angle = 0.35;
  /// Noise level sigma of the sampled perturbations.
  double noise_sigma = 0.1;
  /// Privacy evaluation subsamples at most this many records (the metric
  /// converges with a few hundred; keeps 100-round experiments tractable).
  std::size_t max_eval_records = 160;
  /// Worker threads scoring candidates and refinement probes (0 = inline
  /// serial execution). Results are bit-identical for any value.
  std::size_t threads = 0;
  /// Adversaries used to score candidates.
  privacy::AttackSuiteOptions attacks{.naive = true, .ica = true, .known_inputs = 4};
};

struct OptimizationResult {
  perturb::GeometricPerturbation best;
  double best_rho = 0.0;
  /// rho of every *random* candidate (before refinement) — the "random
  /// perturbations" distribution of Figure 2.
  linalg::Vector candidate_rhos;
  /// Evaluations spent (candidates + 2 refinement probes per step).
  std::size_t evaluations = 0;
  /// Refinement probes whose ICA attack was skipped because the cheap
  /// attacks already held them at or below best_rho (counted in evaluations).
  std::size_t ica_skipped = 0;
};

/// One optimization run on a d x N dataset (paper layout, column = record).
/// Spins up a private ThreadPool sized by opts.threads.
OptimizationResult optimize_perturbation(const linalg::Matrix& x,
                                         const OptimizerOptions& opts, rng::Engine& eng);

/// Same, scoring on a caller-owned pool (reused across bound runs /
/// optimality-rate repeats; opts.threads is ignored in favor of the pool).
OptimizationResult optimize_perturbation(const linalg::Matrix& x,
                                         const OptimizerOptions& opts, rng::Engine& eng,
                                         ThreadPool& pool);

/// Score a specific perturbation on a dataset: applies it (fresh noise from
/// `eng`), evaluates the attack suite, returns rho. Exposed for benches and
/// for the protocol's satisfaction computation.
double evaluate_perturbation(const linalg::Matrix& x,
                             const perturb::GeometricPerturbation& g,
                             const privacy::AttackSuiteOptions& attacks,
                             std::size_t max_eval_records, rng::Engine& eng);

struct OptimalityEstimate {
  double mean_rho = 0.0;  ///< rho-bar over runs
  double bound = 0.0;     ///< b-hat = max over runs
  double rate = 0.0;      ///< rho-bar / b-hat
  linalg::Vector run_rhos;
};

/// Repeat `runs` independent optimization runs and estimate the optimality
/// rate (Figure 3; the paper uses 100 rounds).
OptimalityEstimate estimate_optimality_rate(const linalg::Matrix& x,
                                            const OptimizerOptions& opts,
                                            std::size_t runs, rng::Engine& eng);

}  // namespace sap::opt

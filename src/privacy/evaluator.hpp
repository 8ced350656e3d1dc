// Attack-suite privacy evaluator.
//
// Computes the paper's minimum privacy guarantee rho for a (original,
// perturbed) dataset pair: rho = min over enabled attacks of
// min over columns of the per-column privacy p_j.
//
// For candidate-pool attacks the per-column privacy has the closed form
//   p_j = sqrt(2 * (1 - |r_j|)),
// where r_j is the best Pearson correlation between original dimension j and
// any candidate component — the attacker rescales the best-matching
// component to the public column moments, and std((X_j - est)/std_j)
// collapses to that expression. This grants the adversary perfect alignment
// knowledge, making the reported guarantee conservative.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "privacy/attacks.hpp"

namespace sap::privacy {

/// Outcome of one attack within a suite evaluation.
struct AttackOutcome {
  std::string attack;
  linalg::Vector per_column;  ///< p_j for every original dimension
  double rho = 0.0;           ///< min_j p_j under this attack
  /// Every run of the attack threw (e.g. FastICA's decorrelation
  /// degenerated twice): the attack scored nothing, and `rho` is not a
  /// bound on what it would have found.
  bool failed = false;
  /// Runs that threw. ICA, the one attack that is retried, counts 0, 1 or 2
  /// (see AttackSuite::evaluate); the others 0 or 1.
  std::size_t failed_runs = 0;
  /// ICA only: the FastICA run whose sources were scored met its tolerance
  /// before the iteration cap.
  bool converged = false;
  /// Not run: the other attacks already scored at or below the evaluation's
  /// floor (see AttackSuite::evaluate). Only ICA is ever skipped.
  bool skipped = false;
};

/// Full evaluation result.
struct PrivacyReport {
  std::vector<AttackOutcome> attacks;
  /// Minimum privacy guarantee over all successful attacks (the paper's rho),
  /// or over the attacks that ran when ICA was skipped.
  double rho = 0.0;
};

/// Which adversaries to include in the evaluation.
struct AttackSuiteOptions {
  bool naive = true;
  bool ica = true;
  /// PCA-based spectral attack (second-order only; defeats bare rotations
  /// on anisotropic data without needing non-Gaussian structure).
  bool spectral = false;
  /// Number of known (original, perturbed) record pairs handed to the
  /// known-input attack; 0 disables it.
  std::size_t known_inputs = 0;
  FastIcaOptions ica_options{.max_iterations = 100, .tolerance = 1e-5};
};

class AttackSuite {
 public:
  explicit AttackSuite(AttackSuiteOptions opts = {});

  /// Reusable evaluation state for one fixed `original` matrix. The
  /// optimizer scores every candidate against the same evaluation
  /// subsample, so the original's row stats, its centered copy and the
  /// correlation buffers are computed/allocated once per run instead of
  /// once per score() call. Copyable: parallel candidate slots each hold
  /// their own copy (evaluate() mutates only the buffer members).
  struct Scratch {
    // Fixed per-original precomputation (read-only during evaluate).
    linalg::Vector means;     ///< row_means(original)
    linalg::Vector stddevs;   ///< row_stddev(original)
    linalg::Matrix centered;  ///< original minus row means
    linalg::Vector sumsq;     ///< per-row sum of squared deviations
    // Buffers overwritten by each evaluate() call.
    linalg::Matrix cand_centered;
    linalg::Matrix corr;
    linalg::Vector cand_sumsq;
  };
  [[nodiscard]] Scratch make_scratch(const linalg::Matrix& original) const;

  /// Evaluate rho for the pair (original, perturbed), both d x N.
  /// Known-input pairs are drawn uniformly from the records with `eng`.
  /// A FastICA run that throws is retried once, from a stream spawned from
  /// `eng` after the failed run; a degenerate start says nothing about the
  /// data. An attack whose every run threw is recorded (failed=true) and
  /// excluded from rho; if every attack fails, throws sap::Error.
  [[nodiscard]] PrivacyReport evaluate(const linalg::Matrix& original,
                                       const linalg::Matrix& perturbed,
                                       rng::Engine& eng) const;

  /// Hot-loop variant: `scratch` must come from make_scratch(original).
  /// Bit-identical to the scratch-free overload (the hoisted quantities are
  /// the same values the per-call path computes).
  ///
  /// `floor` lets a caller that only asks "is rho above this?" bound the
  /// expensive attack out. ICA runs last, after the cheap attacks; when
  /// their minimum is already <= `floor`, ICA is skipped (its outcome keeps
  /// its slot, marked `skipped`) and `rho` is that minimum: still <= floor,
  /// and >= the value the full evaluation would return. ICA is the only
  /// attack that draws from `eng`, so running it last leaves every draw,
  /// and `std::min` leaves rho, unchanged. The default floor skips nothing:
  /// the report is the full evaluation's, bit for bit.
  [[nodiscard]] PrivacyReport evaluate(
      const linalg::Matrix& original, const linalg::Matrix& perturbed, rng::Engine& eng,
      Scratch& scratch, double floor = -std::numeric_limits<double>::infinity()) const;

  /// The ICA attack's outcome in a report this suite produced, or null when
  /// the suite runs no ICA attack.
  [[nodiscard]] const AttackOutcome* ica_outcome(const PrivacyReport& report) const noexcept {
    return opts_.ica ? &report.attacks[ica_slot_] : nullptr;
  }

  [[nodiscard]] const AttackSuiteOptions& options() const noexcept { return opts_; }

 private:
  AttackSuiteOptions opts_;
  std::vector<std::unique_ptr<Attack>> attacks_;
  std::size_t ica_slot_ = 0;  ///< index of ICA in attacks_ (when opts_.ica)
};

/// Per-column privacy of a candidate pool against the original data:
/// p_j = sqrt(2 (1 - |best correlation|)). Exposed for tests and ablations.
linalg::Vector candidate_pool_privacy(const linalg::Matrix& original,
                                      const linalg::Matrix& candidates);

}  // namespace sap::privacy

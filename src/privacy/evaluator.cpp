#include "privacy/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "linalg/stats.hpp"
#include "privacy/metric.hpp"

namespace sap::privacy {

linalg::Vector candidate_pool_privacy(const linalg::Matrix& original,
                                      const linalg::Matrix& candidates) {
  SAP_REQUIRE(original.cols() == candidates.cols(),
              "candidate_pool_privacy: record count mismatch");
  SAP_REQUIRE(original.cols() >= 2, "candidate_pool_privacy: need at least two records");

  // Reference implementation (d*k independent pearson() calls). The
  // evaluator's hot loop runs the scratch-based path below, which factors
  // the per-pair correlation into one centered cross-product GEMM; tests
  // assert the two are bit-identical.
  const linalg::Vector sd_orig = linalg::row_stddev(original);
  linalg::Vector privacy(original.rows());
  for (std::size_t j = 0; j < original.rows(); ++j) {
    // Constant dimensions are excluded from the guarantee (see
    // privacy/metric.cpp for the rationale).
    if (sd_orig[j] <= 0.0) {
      privacy[j] = std::numeric_limits<double>::infinity();
      continue;
    }
    double best_abs_corr = 0.0;
    for (std::size_t c = 0; c < candidates.rows(); ++c) {
      const double r = std::abs(linalg::pearson(original.row(j), candidates.row(c)));
      best_abs_corr = std::max(best_abs_corr, r);
    }
    privacy[j] = std::sqrt(std::max(0.0, 2.0 * (1.0 - best_abs_corr)));
  }
  return privacy;
}

namespace {

/// Scratch-based candidate-pool privacy: pearson(orig_j, cand_c) factored as
/// sxy / sqrt(sxx * syy) with sxy from one cross-product GEMM over the
/// centered matrices and sxx/syy hoisted per row. Every accumulation chain
/// (row means, centered deviations, the per-pair ascending dot product)
/// reproduces pearson()'s exactly, so the result is bit-identical to the
/// reference loop above — ~6x faster through ILP and the d-fold reuse of
/// the original's stats.
linalg::Vector candidate_pool_privacy_fast(AttackSuite::Scratch& s,
                                           const linalg::Matrix& candidates) {
  const std::size_t d = s.centered.rows();
  const std::size_t n = s.centered.cols();
  const std::size_t k = candidates.rows();
  SAP_REQUIRE(candidates.cols() == n, "candidate_pool_privacy: record count mismatch");
  SAP_REQUIRE(n >= 2, "candidate_pool_privacy: need at least two records");

  if (s.cand_centered.rows() != k || s.cand_centered.cols() != n)
    s.cand_centered = linalg::Matrix(k, n);
  if (s.corr.rows() != d || s.corr.cols() != k) s.corr = linalg::Matrix(d, k);
  s.cand_sumsq.assign(k, 0.0);

  const auto nd = static_cast<double>(n);
  for (std::size_t c = 0; c < k; ++c) {
    const auto src = candidates.row(c);
    auto dst = s.cand_centered.row(c);
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += src[i];
    mean /= nd;
    double syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dy = src[i] - mean;
      dst[i] = dy;
      syy += dy * dy;
    }
    s.cand_sumsq[c] = syy;
  }
  linalg::matmul_abt_into(s.centered, s.cand_centered, s.corr);

  linalg::Vector privacy(d);
  for (std::size_t j = 0; j < d; ++j) {
    if (s.stddevs[j] <= 0.0) {
      privacy[j] = std::numeric_limits<double>::infinity();
      continue;
    }
    const auto corr_row = s.corr.row(j);
    double best_abs_corr = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double r = (s.sumsq[j] <= 0.0 || s.cand_sumsq[c] <= 0.0)
                           ? 0.0
                           : corr_row[c] / std::sqrt(s.sumsq[j] * s.cand_sumsq[c]);
      best_abs_corr = std::max(best_abs_corr, std::abs(r));
    }
    privacy[j] = std::sqrt(std::max(0.0, 2.0 * (1.0 - best_abs_corr)));
  }
  return privacy;
}

}  // namespace

AttackSuite::AttackSuite(AttackSuiteOptions opts) : opts_(opts) {
  if (opts_.naive) attacks_.push_back(std::make_unique<NaiveEstimationAttack>());
  if (opts_.ica) {
    ica_slot_ = attacks_.size();
    attacks_.push_back(std::make_unique<IcaReconstructionAttack>(opts_.ica_options));
  }
  if (opts_.spectral) attacks_.push_back(std::make_unique<SpectralAttack>());
  if (opts_.known_inputs > 0) attacks_.push_back(std::make_unique<KnownInputAttack>());
  SAP_REQUIRE(!attacks_.empty(), "AttackSuite: no attacks enabled");
}

AttackSuite::Scratch AttackSuite::make_scratch(const linalg::Matrix& original) const {
  SAP_REQUIRE(!original.empty(), "AttackSuite::make_scratch: empty original");
  Scratch s;
  s.means = linalg::row_means(original);
  s.stddevs = linalg::row_stddev(original);
  s.centered = linalg::Matrix(original.rows(), original.cols());
  s.sumsq.assign(original.rows(), 0.0);
  for (std::size_t r = 0; r < original.rows(); ++r) {
    const auto src = original.row(r);
    auto dst = s.centered.row(r);
    double acc = 0.0;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const double dx = src[i] - s.means[r];
      dst[i] = dx;
      acc += dx * dx;
    }
    s.sumsq[r] = acc;
  }
  return s;
}

PrivacyReport AttackSuite::evaluate(const linalg::Matrix& original,
                                    const linalg::Matrix& perturbed,
                                    rng::Engine& eng) const {
  Scratch scratch = make_scratch(original);
  return evaluate(original, perturbed, eng, scratch);
}

PrivacyReport AttackSuite::evaluate(const linalg::Matrix& original,
                                    const linalg::Matrix& perturbed, rng::Engine& eng,
                                    Scratch& scratch, double floor) const {
  SAP_REQUIRE(original.rows() == perturbed.rows() && original.cols() == perturbed.cols(),
              "AttackSuite::evaluate: shape mismatch");
  SAP_REQUIRE(scratch.centered.rows() == original.rows() &&
                  scratch.centered.cols() == original.cols(),
              "AttackSuite::evaluate: scratch does not match the original matrix");

  AttackContext ctx;
  ctx.perturbed = &perturbed;
  ctx.original_means = scratch.means;
  ctx.original_stddevs = scratch.stddevs;
  if (opts_.known_inputs > 0) {
    const std::size_t m = std::min<std::size_t>(opts_.known_inputs, original.cols());
    ctx.known_indices = eng.sample_without_replacement(original.cols(), m);
    ctx.known_originals = linalg::gather_cols(original, ctx.known_indices);
  }

  PrivacyReport report;
  report.attacks.resize(attacks_.size());
  report.rho = std::numeric_limits<double>::infinity();
  const auto run = [&](std::size_t a) {
    AttackOutcome& outcome = report.attacks[a];
    try {
      const Reconstruction rec = attacks_[a]->reconstruct(ctx, eng);
      outcome.per_column = (rec.kind == Reconstruction::Kind::kAligned)
                               ? column_privacy(original, rec.get(), scratch.stddevs)
                               : candidate_pool_privacy_fast(scratch, rec.get());
      outcome.rho = *std::min_element(outcome.per_column.begin(), outcome.per_column.end());
      report.rho = std::min(report.rho, outcome.rho);
    } catch (const Error& e) {
      outcome.failed = true;
      log::debug(std::string("attack '") + outcome.attack + "' failed: " + e.what());
    }
  };
  for (std::size_t a = 0; a < attacks_.size(); ++a) {
    report.attacks[a].attack = attacks_[a]->name();
    if (!opts_.ica || a != ica_slot_) run(a);
  }
  // ICA last (see the header): skipped once the cheap attacks have met the floor.
  if (opts_.ica) {
    if (std::isfinite(report.rho) && report.rho <= floor) {
      report.attacks[ica_slot_].skipped = true;
    } else {
      run(ica_slot_);
    }
  }
  SAP_REQUIRE(std::isfinite(report.rho),
              "AttackSuite::evaluate: every enabled attack failed");
  return report;
}

}  // namespace sap::privacy

#include "optimize/optimizer.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.hpp"
#include "linalg/orthogonal.hpp"

namespace sap::opt {
namespace {

/// Column subsample for evaluation (keeps rho estimation O(max_records)).
linalg::Matrix subsample_records(const linalg::Matrix& x, std::size_t max_records,
                                 rng::Engine& eng) {
  if (x.cols() <= max_records) return x;
  const auto idx = eng.sample_without_replacement(x.cols(), max_records);
  return linalg::gather_cols(x, idx);
}

/// One candidate evaluation. Everything mutable (`scratch`, `y_buf`, `eng`)
/// is slot-private in the parallel phases, so the score depends only on the
/// slot's own engine stream.
privacy::PrivacyReport score(const linalg::Matrix& x_eval,
                             const perturb::GeometricPerturbation& g,
                             const privacy::AttackSuite& suite,
                             privacy::AttackSuite::Scratch& scratch, linalg::Matrix& y_buf,
                             rng::Engine& eng,
                             double floor = -std::numeric_limits<double>::infinity()) {
  g.apply_into(x_eval, y_buf, eng);
  return suite.evaluate(x_eval, y_buf, eng, scratch, floor);
}

}  // namespace

double evaluate_perturbation(const linalg::Matrix& x,
                             const perturb::GeometricPerturbation& g,
                             const privacy::AttackSuiteOptions& attacks,
                             std::size_t max_eval_records, rng::Engine& eng) {
  SAP_REQUIRE(x.rows() == g.dims(), "evaluate_perturbation: dimension mismatch");
  const privacy::AttackSuite suite(attacks);
  const linalg::Matrix x_eval = subsample_records(x, max_eval_records, eng);
  auto scratch = suite.make_scratch(x_eval);
  linalg::Matrix y_buf;
  return score(x_eval, g, suite, scratch, y_buf, eng).rho;
}

OptimizationResult optimize_perturbation(const linalg::Matrix& x,
                                         const OptimizerOptions& opts, rng::Engine& eng) {
  ThreadPool pool(opts.threads);
  return optimize_perturbation(x, opts, eng, pool);
}

OptimizationResult optimize_perturbation(const linalg::Matrix& x,
                                         const OptimizerOptions& opts, rng::Engine& eng,
                                         ThreadPool& pool) {
  SAP_REQUIRE(opts.candidates >= 1, "optimize_perturbation: need at least one candidate");
  SAP_REQUIRE(x.rows() >= 2 && x.cols() >= 8,
              "optimize_perturbation: dataset too small (need d >= 2, N >= 8)");

  const privacy::AttackSuite suite(opts.attacks);
  const linalg::Matrix x_eval = subsample_records(x, opts.max_eval_records, eng);
  const std::size_t d = x.rows();
  const std::size_t nc = opts.candidates;

  OptimizationResult result;

  // --- random search phase. RNG material is derived serially BEFORE the
  // parallel region: one spawned child engine per candidate, in candidate
  // order. A worker then samples AND scores candidate c exclusively from
  // slot engine c, so neither the thread count nor the scheduling order can
  // reach the numbers (see the determinism contract in the header).
  std::vector<rng::Engine> slot_eng;
  slot_eng.reserve(nc);
  for (std::size_t c = 0; c < nc; ++c) slot_eng.push_back(eng.spawn());

  const privacy::AttackSuite::Scratch proto_scratch = suite.make_scratch(x_eval);
  std::vector<privacy::AttackSuite::Scratch> scratch(nc, proto_scratch);
  std::vector<linalg::Matrix> y_buf(nc);
  std::vector<perturb::GeometricPerturbation> cand(nc);
  result.candidate_rhos.assign(nc, 0.0);
  pool.run_indexed(nc, [&](std::size_t c) {
    cand[c] = perturb::GeometricPerturbation::random(d, opts.noise_sigma, slot_eng[c]);
    result.candidate_rhos[c] =
        score(x_eval, cand[c], suite, scratch[c], y_buf[c], slot_eng[c]).rho;
  });
  result.evaluations += nc;

  // Serial reduction; ties keep the earliest candidate.
  std::size_t best = 0;
  for (std::size_t c = 1; c < nc; ++c)
    if (result.candidate_rhos[c] > result.candidate_rhos[best]) best = c;
  result.best = std::move(cand[best]);
  result.best_rho = result.candidate_rhos[best];

  // --- Givens hill climbing on the winner: each step probes the +theta and
  // -theta rotations of one random plane as a parallel pair (engines again
  // spawned serially, + first). The better probe wins the step — on an exact
  // tie, +theta, keeping the accept decision scheduling-independent.
  //
  // Both probes score against the step's incoming best_rho as their floor:
  // a probe the cheap attacks already hold at or below it could not be
  // accepted, so it skips ICA without changing any decision (see the
  // header's determinism contract and DESIGN.md §8).
  double angle = opts.refine_angle;
  std::array<privacy::AttackSuite::Scratch, 2> probe_scratch{proto_scratch, proto_scratch};
  std::array<linalg::Matrix, 2> probe_y;
  std::array<perturb::GeometricPerturbation, 2> probe;
  std::array<rng::Engine, 2> probe_eng{rng::Engine{0}, rng::Engine{0}};
  std::array<double, 2> probe_rho{};
  std::array<bool, 2> probe_skipped{};
  for (std::size_t step = 0; step < opts.refine_steps; ++step) {
    if (d < 2) break;
    const std::size_t p = eng.uniform_index(d);
    std::size_t q = eng.uniform_index(d - 1);
    if (q >= p) ++q;
    probe_eng[0] = eng.spawn();
    probe_eng[1] = eng.spawn();

    const double floor = result.best_rho;
    pool.run_indexed(2, [&](std::size_t s) {
      const double theta = (s == 0 ? 1.0 : -1.0) * angle;
      probe[s] = result.best;
      probe[s].precompose_rotation(linalg::givens(d, p, q, theta));
      const privacy::PrivacyReport report =
          score(x_eval, probe[s], suite, probe_scratch[s], probe_y[s], probe_eng[s], floor);
      probe_rho[s] = report.rho;
      probe_skipped[s] = std::any_of(report.attacks.begin(), report.attacks.end(),
                                     [](const privacy::AttackOutcome& a) { return a.skipped; });
    });
    result.evaluations += 2;
    result.ica_skipped += static_cast<std::size_t>(probe_skipped[0]) +
                          static_cast<std::size_t>(probe_skipped[1]);

    const std::size_t win = (probe_rho[0] >= probe_rho[1]) ? 0 : 1;
    if (probe_rho[win] > result.best_rho) {
      result.best_rho = probe_rho[win];
      result.best = std::move(probe[win]);
    } else {
      angle *= 0.7;  // cool down when the step fails
    }
  }
  return result;
}

OptimalityEstimate estimate_optimality_rate(const linalg::Matrix& x,
                                            const OptimizerOptions& opts,
                                            std::size_t runs, rng::Engine& eng) {
  SAP_REQUIRE(runs >= 2, "estimate_optimality_rate: need at least two runs");
  OptimalityEstimate est;
  est.run_rhos.reserve(runs);
  double total = 0.0;
  ThreadPool pool(opts.threads);  // one pool across all runs
  for (std::size_t r = 0; r < runs; ++r) {
    const OptimizationResult res = optimize_perturbation(x, opts, eng, pool);
    est.run_rhos.push_back(res.best_rho);
    total += res.best_rho;
    est.bound = std::max(est.bound, res.best_rho);
  }
  est.mean_rho = total / static_cast<double>(runs);
  SAP_REQUIRE(est.bound > 0.0, "estimate_optimality_rate: all runs scored zero privacy");
  est.rate = est.mean_rho / est.bound;
  return est;
}

}  // namespace sap::opt

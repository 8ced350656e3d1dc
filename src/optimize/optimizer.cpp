#include "optimize/optimizer.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/mutex.hpp"
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

/// Apply `g` (fresh noise from `eng`) and score it. Everything mutable
/// (`scratch`, `y_buf`, `eng`) is slot-private in the parallel phases, so
/// the score depends only on the slot's own engine stream.
privacy::PrivacyReport score(const linalg::Matrix& x_eval,
                             const perturb::GeometricPerturbation& g,
                             const privacy::AttackSuite& suite,
                             privacy::AttackSuite::Scratch& scratch, linalg::Matrix& y_buf,
                             rng::Engine& eng,
                             double floor = -std::numeric_limits<double>::infinity()) {
  g.apply_into(x_eval, y_buf, eng);
  return suite.evaluate(x_eval, y_buf, eng, scratch, floor);
}

/// What one evaluation's ICA attack did, for the search's rules and counts.
struct IcaTally {
  bool skipped = false;   ///< the floor bounded it out (AttackSuite::evaluate)
  bool eligible = true;   ///< false when every FastICA run threw
  std::size_t failed = 0;  ///< FastICA runs that threw
  bool converged = false;
};

IcaTally ica_tally(const privacy::AttackSuite& suite, const privacy::PrivacyReport& report) {
  IcaTally t;
  if (const privacy::AttackOutcome* ica = suite.ica_outcome(report)) {
    t.skipped = ica->skipped;
    t.eligible = !ica->failed;
    t.failed = ica->failed_runs;
    t.converged = ica->converged;
  }
  return t;
}

/// Adds the FastICA runs of an evaluation the search kept.
void count_runs(OptimizationResult& result, const IcaTally& t) {
  result.ica_failed += t.failed;
  result.ica_converged += static_cast<std::size_t>(t.converged);
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

  // First pass: sample, apply, and score the cheap attacks only (a +inf
  // floor defers ICA). slot_eng[c] keeps its state from just after the
  // apply, so a deferred ICA run later starts from the draws it would have
  // taken in a full evaluation. rhos[c] is the cheap bound until then.
  const privacy::AttackSuite::Scratch proto_scratch = suite.make_scratch(x_eval);
  std::vector<privacy::AttackSuite::Scratch> scratch(nc, proto_scratch);
  std::vector<linalg::Matrix> y_buf(nc);
  std::vector<perturb::GeometricPerturbation> cand(nc);
  linalg::Vector& rhos = result.candidate_rhos;
  rhos.assign(nc, 0.0);
  std::vector<std::uint8_t> deferred(nc, 0);  // ICA not run yet: rhos[c] is a bound
  std::vector<IcaTally> tally(nc);
  pool.run_indexed(nc, [&](std::size_t c) {
    cand[c] = perturb::GeometricPerturbation::random(d, opts.noise_sigma, slot_eng[c]);
    cand[c].apply_into(x_eval, y_buf[c], slot_eng[c]);
    rng::Engine cheap_eng = slot_eng[c];
    const privacy::PrivacyReport report =
        suite.evaluate(x_eval, y_buf[c], cheap_eng, scratch[c],
                       std::numeric_limits<double>::infinity());
    rhos[c] = report.rho;
    tally[c] = ica_tally(suite, report);
    deferred[c] = static_cast<std::uint8_t>(tally[c].skipped);
  });
  result.evaluations += nc;

  // Second pass, in descending bound order (ties: lower index first),
  // against the leader: the best fully scored candidate so far under the
  // phase's order (higher rho, then lower index). A deferred candidate runs
  // FastICA only if its bound beats the leader; otherwise its rho, which is
  // at most its bound, cannot win either, and it keeps the bound. An
  // ineligible candidate keeps its score but never becomes the leader.
  //
  // Each pool worker runs a lane that folds finished runs in bound order
  // under that serial rule, then starts the next candidate the folded
  // leader does not exclude. That leader is never ahead of the serial
  // loop's, so every candidate the serial loop runs is started; a run the
  // serial loop would have skipped is dropped at its fold. Every result and
  // count is therefore the one a single lane gives (DESIGN.md §8); only the
  // dropped runs depend on the thread count and the timing.
  std::vector<std::size_t> order(nc);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rhos[a] > rhos[b]; });
  std::size_t leader = nc;  // none yet
  const auto beats_leader = [&](std::size_t c) {
    return leader == nc || rhos[c] > rhos[leader] || (rhos[c] == rhos[leader] && c < leader);
  };
  std::vector<std::uint8_t> running(nc, 0);
  std::vector<double> full_rho(nc, 0.0);
  std::size_t started = 0;  // positions in `order` a lane has taken
  std::size_t folded = 0;   // positions in `order` the rule has decided
  const auto fold = [&] {
    for (; folded < started && running[order[folded]] == 0; ++folded) {
      const std::size_t c = order[folded];
      if (deferred[c] != 0) {
        if (!beats_leader(c)) {  // never started, or a dropped run
          ++result.ica_skipped;
          continue;
        }
        rhos[c] = full_rho[c];
      }
      count_runs(result, tally[c]);
      if (tally[c].eligible && beats_leader(c)) leader = c;
    }
  };
  Mutex lanes;
  pool.run_indexed(std::max<std::size_t>(1, pool.thread_count()), [&](std::size_t) {
    MutexLock lk(lanes);
    for (fold(); started < nc; fold()) {
      const std::size_t c = order[started++];
      if (deferred[c] == 0 || !beats_leader(c)) continue;
      running[c] = 1;
      lk.unlock();
      const privacy::PrivacyReport report =
          suite.evaluate(x_eval, y_buf[c], slot_eng[c], scratch[c]);
      lk.lock();
      full_rho[c] = report.rho;
      tally[c] = ica_tally(suite, report);
      running[c] = 0;
    }
  });
  SAP_REQUIRE(leader != nc,
              "optimize_perturbation: the ICA attack failed on every candidate, retry included");
  result.best = std::move(cand[leader]);
  result.best_rho = rhos[leader];

  // --- Givens hill climbing on the winner: each step probes the +theta and
  // -theta rotations of one random plane as a parallel pair (engines again
  // spawned serially, + first). The better probe wins the step — on an exact
  // tie, +theta, keeping the accept decision scheduling-independent.
  //
  // Both probes score against the step's incoming best_rho as their floor:
  // a probe the cheap attacks already hold at or below it could not be
  // accepted, so it skips ICA without changing any decision (see the
  // header's determinism contract and DESIGN.md §8). An ineligible probe
  // competes as -inf, so it neither wins the step nor is accepted.
  double angle = opts.refine_angle;
  std::array<privacy::AttackSuite::Scratch, 2> probe_scratch{proto_scratch, proto_scratch};
  std::array<linalg::Matrix, 2> probe_y;
  std::array<perturb::GeometricPerturbation, 2> probe;
  std::array<rng::Engine, 2> probe_eng{rng::Engine{0}, rng::Engine{0}};
  std::array<double, 2> probe_rho{};
  std::array<IcaTally, 2> probe_ica{};
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
      probe_ica[s] = ica_tally(suite, report);
    });
    result.evaluations += 2;
    for (std::size_t s = 0; s < 2; ++s) {
      result.ica_skipped += static_cast<std::size_t>(probe_ica[s].skipped);
      count_runs(result, probe_ica[s]);
      if (!probe_ica[s].eligible) probe_rho[s] = -std::numeric_limits<double>::infinity();
    }

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

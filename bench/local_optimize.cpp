// LocalOptimize bench: fused kernels + deterministic parallel candidate
// search vs the pre-PR serial pipeline, plus the bit-identity invariants.
//
// Part 1 (timing, d=34 perturb shape): one provider's LocalOptimize run —
// optimize_perturbation with the serving attack profile (naive +
// known-input; the profile `serving_session_options` deploys) — measured
// three ways:
//
//   baseline   the pre-PR pipeline, frozen verbatim in namespace prepr:
//              naive ikj matmul + translation pass + noise pass, per-pair
//              pearson candidate-pool scoring, column-layout Jacobi SVD
//              Procrustes, single-stream serial candidate loop;
//   fused 0T   today's optimize_perturbation, serial (blocked GEMM with
//              epilogue-fused translation, scratch-hoisted attack suite,
//              rank-reduced Procrustes, per-candidate engines);
//   fused 2/8T the same with a 2- and 8-worker scoring pool.
//
// Acceptance bars (exit code 1 on failure):
//   * fused 8-thread  >= 3.0x over the pre-PR baseline,
//   * fused serial    >= 1.5x over the pre-PR baseline,
//   * optimize_perturbation bit-identical across {0, 2, 8} threads,
//   * a full SapSession bit-identical across kSimulated / kThreadedLocal
//     with DIFFERENT per-run optimizer thread counts (both axes at once).
//
// Also reported (not gated): fused vs unfused apply, scratch-reuse vs
// per-call evaluate, and the candidate/probe evaluation counts.
//
// Output: aligned table on stdout + BENCH_local_optimize.json.
// Usage: local_optimize [--quick]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "linalg/decompose.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"
#include "net/remote.hpp"
#include "optimize/optimizer.hpp"
#include "privacy/evaluator.hpp"
#include "privacy/metric.hpp"

namespace {

using sap::linalg::Matrix;
using sap::linalg::Vector;
using sap::perturb::GeometricPerturbation;
using sap::rng::Engine;

// ---- pre-PR pipeline, frozen for an honest wall-clock baseline -----------
//
// Everything below reproduces the code as it stood before this change:
// the kernels it calls (matmul_naive, pearson via candidate_pool_privacy,
// the column-layout Jacobi sweep) and the single-stream candidate loop.
namespace prepr {

struct Options {
  std::size_t candidates = 12;
  std::size_t refine_steps = 8;
  double refine_angle = 0.35;
  double noise_sigma = 0.1;
  std::size_t max_eval_records = 160;
  std::size_t known_inputs = 4;
};

Matrix subsample(const Matrix& x, std::size_t max_records, Engine& eng) {
  if (x.cols() <= max_records) return x;
  const auto idx = eng.sample_without_replacement(x.cols(), max_records);
  Matrix out(x.rows(), max_records);
  for (std::size_t j = 0; j < max_records; ++j) {
    const Vector col = x.col(idx[j]);
    out.set_col(j, col);
  }
  return out;
}

Matrix apply(const GeometricPerturbation& g, const Matrix& x, Engine& noise_eng) {
  Matrix y = sap::linalg::matmul_naive(g.rotation(), x);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    auto row = y.row(i);
    for (auto& v : row) v += g.translation()[i];
  }
  if (g.noise_sigma() > 0.0) {
    for (auto& v : y.data()) v += noise_eng.normal(0.0, g.noise_sigma());
  }
  return y;
}

/// The pre-PR one-sided Jacobi SVD: column-layout element access.
struct SvdRef {
  Matrix u;
  Vector s;
  Matrix v;
};

SvdRef svd_ref(const Matrix& a, double tol = 1e-12, int max_sweeps = 64) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    SvdRef t = svd_ref(a.transpose(), tol, max_sweeps);
    return {std::move(t.v), std::move(t.s), std::move(t.u)};
  }
  Matrix w = a;
  Matrix v = Matrix::identity(n);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += w(i, p) * w(i, p);
          beta += w(i, q) * w(i, q);
          gamma += w(i, p) * w(i, q);
        }
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta) || gamma == 0.0) continue;
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = w(i, p);
          const double wiq = w(i, q);
          w(i, p) = c * wip - s * wiq;
          w(i, q) = s * wip + c * wiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
    if (!rotated) break;
  }
  SvdRef out;
  out.s.resize(n);
  out.u = Matrix(m, n);
  out.v = std::move(v);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Vector norms(n);
  for (std::size_t j = 0; j < n; ++j) norms[j] = sap::linalg::norm2(w.col(j));
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });
  Matrix vsorted(n, n);
  std::vector<std::size_t> null_cols;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = norms[src];
    Vector ucol = w.col(src);
    if (norms[src] > 1e-300) {
      for (auto& x : ucol) x /= norms[src];
    } else {
      std::fill(ucol.begin(), ucol.end(), 0.0);
      null_cols.push_back(j);
    }
    out.u.set_col(j, ucol);
    const Vector vcol = out.v.col(src);
    vsorted.set_col(j, vcol);
  }
  out.v = std::move(vsorted);
  for (const std::size_t j : null_cols) {
    bool placed = false;
    for (std::size_t e = 0; e < m && !placed; ++e) {
      Vector vv(m, 0.0);
      vv[e] = 1.0;
      for (std::size_t c = 0; c < n; ++c) {
        if (c == j) continue;
        const Vector uc = out.u.col(c);
        const double proj = sap::linalg::dot(uc, vv);
        for (std::size_t i = 0; i < m; ++i) vv[i] -= proj * uc[i];
      }
      const double residual = sap::linalg::norm2(vv);
      if (residual > 1e-6) {
        for (auto& x : vv) x /= residual;
        out.u.set_col(j, vv);
        placed = true;
      }
    }
  }
  return out;
}

Matrix procrustes_ref(const Matrix& src, const Matrix& dst) {
  const Matrix cross = sap::linalg::matmul_naive(dst, src.transpose());
  const SvdRef f = svd_ref(cross);
  return sap::linalg::matmul_naive(f.u, f.v.transpose());
}

/// Pre-PR AttackSuite::evaluate for {naive, known-input}: per-call row
/// stats, per-column gathers, the d x N reconstruction copies, and the
/// d x d-SVD Procrustes.
double evaluate_ref(const Matrix& original, const Matrix& perturbed,
                    std::size_t known_inputs, Engine& eng) {
  const Vector means = sap::linalg::row_means(original);
  const Vector stddevs = sap::linalg::row_stddev(original);
  (void)means;
  (void)stddevs;
  const std::size_t d = original.rows();
  const std::size_t m = std::min<std::size_t>(known_inputs, original.cols());
  const auto idx = eng.sample_without_replacement(original.cols(), m);
  Matrix known(d, m);
  for (std::size_t j = 0; j < m; ++j) {
    const Vector col = original.col(idx[j]);
    known.set_col(j, col);
  }

  // Naive attack: the candidate pool IS the perturbed matrix (copied, as the
  // pre-PR Reconstruction did); candidate_pool_privacy is still the
  // unchanged pearson-loop reference.
  const Matrix pool_copy = perturbed;
  const Vector p_naive = sap::privacy::candidate_pool_privacy(original, pool_copy);
  double rho = *std::min_element(p_naive.begin(), p_naive.end());

  // Known-input attack (attacks.cpp, pre-PR kernels).
  Matrix y_known(d, m);
  for (std::size_t j = 0; j < m; ++j) {
    const Vector col = perturbed.col(idx[j]);
    y_known.set_col(j, col);
  }
  const Vector cx = sap::linalg::row_means(known);
  const Vector cy = sap::linalg::row_means(y_known);
  Matrix x0 = known;
  Matrix y0 = y_known;
  for (std::size_t i = 0; i < d; ++i) {
    auto xr = x0.row(i);
    for (auto& v : xr) v -= cx[i];
    auto yr = y0.row(i);
    for (auto& v : yr) v -= cy[i];
  }
  const Matrix r_hat = procrustes_ref(x0, y0);
  const Vector r_cx = r_hat.matvec(cx);
  Vector t_hat(d);
  for (std::size_t i = 0; i < d; ++i) t_hat[i] = cy[i] - r_cx[i];
  Matrix shifted = perturbed;
  for (std::size_t i = 0; i < d; ++i) {
    auto row = shifted.row(i);
    for (auto& v : row) v -= t_hat[i];
  }
  const Matrix x_hat = sap::linalg::matmul_naive(r_hat.transpose(), shifted);
  const Vector p_known = sap::privacy::column_privacy(original, x_hat);
  rho = std::min(rho, *std::min_element(p_known.begin(), p_known.end()));
  return rho;
}

double score(const Matrix& x_eval, const GeometricPerturbation& g,
             const Options& opts, Engine& eng) {
  const Matrix y = apply(g, x_eval, eng);
  return evaluate_ref(x_eval, y, opts.known_inputs, eng);
}

/// The pre-PR optimize_perturbation: one RNG stream, serial candidates,
/// single random-sign refinement probe per step.
double optimize(const Matrix& x, const Options& opts, Engine& eng) {
  const Matrix x_eval = subsample(x, opts.max_eval_records, eng);
  const std::size_t d = x.rows();
  GeometricPerturbation best;
  double best_rho = 0.0;
  for (std::size_t c = 0; c < opts.candidates; ++c) {
    auto g = GeometricPerturbation::random(d, opts.noise_sigma, eng);
    const double rho = score(x_eval, g, opts, eng);
    if (rho > best_rho || c == 0) {
      best_rho = rho;
      best = std::move(g);
    }
  }
  double angle = opts.refine_angle;
  for (std::size_t step = 0; step < opts.refine_steps; ++step) {
    const std::size_t p = eng.uniform_index(d);
    std::size_t q = eng.uniform_index(d - 1);
    if (q >= p) ++q;
    const double theta = (eng.bernoulli(0.5) ? 1.0 : -1.0) * angle;
    GeometricPerturbation trial = best;
    trial.precompose_rotation(sap::linalg::givens(d, p, q, theta));
    const double rho = score(x_eval, trial, opts, eng);
    if (rho > best_rho) {
      best_rho = rho;
      best = std::move(trial);
    } else {
      angle *= 0.7;
    }
  }
  return best_rho;
}

}  // namespace prepr

sap::opt::OptimizerOptions bench_optimizer(std::size_t threads) {
  sap::opt::OptimizerOptions o;
  o.candidates = 12;
  o.refine_steps = 8;
  o.max_eval_records = 160;
  o.threads = threads;
  o.attacks = {.naive = true, .ica = false, .known_inputs = 4};
  return o;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// The protocol scenario for the cross-transport identity check.
sap::proto::SapOptions session_opts(sap::proto::TransportKind kind,
                                    std::size_t optimize_threads) {
  auto opts = sap::proto::SapOptions::fast();
  opts.seed = 4242;
  opts.compute_satisfaction = true;
  opts.transport = kind;
  opts.optimizer.threads = optimize_threads;
  return opts;
}

struct SessionFingerprint {
  std::uint64_t pool_digest = 0;
  std::vector<sap::proto::PartyReport> parties;
};

SessionFingerprint run_session(sap::proto::TransportKind kind, std::size_t threads) {
  using namespace sap;
  const data::Dataset pool = bench::normalized_uci("Iris", 4242);
  rng::Engine eng(4242);
  data::PartitionOptions popts;
  auto shards = data::partition(pool, 3, popts, eng);

  proto::SapSession session(std::move(shards), session_opts(kind, threads));
  const auto result = session.run();
  return {net::dataset_digest(result.unified), result.parties};
}

bool same_fingerprint(const SessionFingerprint& a, const SessionFingerprint& b) {
  if (a.pool_digest != b.pool_digest || a.parties.size() != b.parties.size())
    return false;
  for (std::size_t i = 0; i < a.parties.size(); ++i) {
    if (a.parties[i].local_rho != b.parties[i].local_rho ||
        a.parties[i].bound != b.parties[i].bound ||
        a.parties[i].satisfaction != b.parties[i].satisfaction ||
        a.parties[i].risk_sap != b.parties[i].risk_sap)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: local_optimize [--quick]\n");
      return 2;
    }
  }
  using namespace sap;

  // d=34 workload (Ionosphere): the perturb shape the protocol actually runs.
  const data::Dataset ds = bench::normalized_uci("Ionosphere", 7);
  const linalg::Matrix x = ds.features_T();
  const std::size_t repeats = quick ? 3 : 7;
  const prepr::Options base_opts;

  std::vector<double> t_base, t_s0, t_s2, t_s8;
  std::size_t evals_base = base_opts.candidates + base_opts.refine_steps;
  std::size_t evals_new = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::uint64_t seed = 1000 + r;
    {
      Engine eng(seed);
      Stopwatch sw;
      (void)prepr::optimize(x, base_opts, eng);
      t_base.push_back(sw.millis());
    }
    for (auto [threads, sink] :
         {std::pair<std::size_t, std::vector<double>*>{0, &t_s0}, {2, &t_s2}, {8, &t_s8}}) {
      Engine eng(seed);
      Stopwatch sw;
      const auto res = opt::optimize_perturbation(x, bench_optimizer(threads), eng);
      sink->push_back(sw.millis());
      evals_new = res.evaluations;
    }
  }
  const double base_ms = median(t_base);
  const double s0_ms = median(t_s0);
  const double s2_ms = median(t_s2);
  const double s8_ms = median(t_s8);
  const double speedup0 = base_ms / s0_ms;
  const double speedup8 = base_ms / s8_ms;

  // Fused vs unfused apply (translation in the GEMM epilogue + reused output
  // buffer vs naive matmul + translation pass + fresh allocation).
  const std::size_t apply_iters = quick ? 200 : 1000;
  Engine aeng(5);
  const auto g = perturb::GeometricPerturbation::random(x.rows(), 0.1, aeng);
  double apply_unfused_ms = 0.0, apply_fused_ms = 0.0;
  {
    Engine noise(6);
    Stopwatch sw;
    for (std::size_t i = 0; i < apply_iters; ++i) (void)prepr::apply(g, x, noise);
    apply_unfused_ms = sw.millis();
  }
  {
    Engine noise(6);
    linalg::Matrix y;
    Stopwatch sw;
    for (std::size_t i = 0; i < apply_iters; ++i) g.apply_into(x, y, noise);
    apply_fused_ms = sw.millis();
  }

  // Scratch reuse vs per-call scratch in AttackSuite::evaluate.
  const std::size_t eval_iters = quick ? 100 : 400;
  const privacy::AttackSuite suite({.naive = true, .ica = false, .known_inputs = 4});
  Engine eeng(7);
  const linalg::Matrix y_eval = g.apply(x, eeng);
  double eval_percall_ms = 0.0, eval_scratch_ms = 0.0;
  {
    Engine eng(8);
    Stopwatch sw;
    for (std::size_t i = 0; i < eval_iters; ++i) (void)suite.evaluate(x, y_eval, eng);
    eval_percall_ms = sw.millis();
  }
  {
    Engine eng(8);
    auto scratch = suite.make_scratch(x);
    Stopwatch sw;
    for (std::size_t i = 0; i < eval_iters; ++i)
      (void)suite.evaluate(x, y_eval, eng, scratch);
    eval_scratch_ms = sw.millis();
  }

  // ---- bit-identity: thread counts ---------------------------------------
  bool threads_identical = true;
  {
    opt::OptimizationResult ref;
    for (std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
      Engine eng(99);
      auto res = opt::optimize_perturbation(x, bench_optimizer(threads), eng);
      if (threads == 0) {
        ref = std::move(res);
      } else if (res.best_rho != ref.best_rho ||
                 !(res.best.rotation() == ref.best.rotation()) ||
                 res.candidate_rhos != ref.candidate_rhos) {
        threads_identical = false;
      }
    }
  }

  // ---- bit-identity: transports (with different thread counts each) ------
  const auto fp_sim = run_session(proto::TransportKind::kSimulated, 8);
  const auto fp_threaded = run_session(proto::TransportKind::kThreadedLocal, 0);
  const bool transports_identical = same_fingerprint(fp_sim, fp_threaded);

  // ---- report -------------------------------------------------------------
  Table table({"measure", "config", "ms", "speedup", "bar", "status"});
  table.add_row({"local-optimize", "pre-PR serial (" + std::to_string(evals_base) +
                                       " evals)",
                 Table::num(base_ms, 2), "1.00", "-", "baseline"});
  table.add_row({"local-optimize", "fused serial (" + std::to_string(evals_new) +
                                       " evals)",
                 Table::num(s0_ms, 2), Table::num(speedup0, 2), ">=1.5",
                 speedup0 >= 1.5 ? "pass" : "FAIL"});
  table.add_row({"local-optimize", "fused 2 threads", Table::num(s2_ms, 2),
                 Table::num(base_ms / s2_ms, 2), "-", "info"});
  table.add_row({"local-optimize", "fused 8 threads", Table::num(s8_ms, 2),
                 Table::num(speedup8, 2), ">=3.0", speedup8 >= 3.0 ? "pass" : "FAIL"});
  table.add_row({"apply d=34xN", "unfused -> fused",
                 Table::num(apply_fused_ms / static_cast<double>(apply_iters), 4),
                 Table::num(apply_unfused_ms / apply_fused_ms, 2), "-", "info"});
  table.add_row({"attack-suite eval", "per-call -> reused scratch",
                 Table::num(eval_scratch_ms / static_cast<double>(eval_iters), 4),
                 Table::num(eval_percall_ms / eval_scratch_ms, 2), "-", "info"});
  table.add_row({"bit-identity", "threads {0,2,8}", "-", "-", "exact",
                 threads_identical ? "pass" : "FAIL"});
  table.add_row({"bit-identity", "sim/threaded x {8,0} threads", "-", "-",
                 "exact", transports_identical ? "pass" : "FAIL"});

  bench::BenchMeta meta;
  meta.transport = "in-process";
  bench::emit_table("local_optimize", table, meta);

  const bool ok =
      speedup0 >= 1.5 && speedup8 >= 3.0 && threads_identical && transports_identical;
  std::printf("%s: fused serial %.2fx, 8-thread %.2fx vs pre-PR serial; "
              "determinism %s\n",
              ok ? "PASS" : "FAIL", speedup0, speedup8,
              threads_identical && transports_identical ? "exact" : "VIOLATED");
  return ok ? 0 : 1;
}

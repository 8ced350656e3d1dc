// Micro-benchmarks for the perturbation / privacy / protocol hot paths
// (google-benchmark): perturbation application, adaptor application,
// FastICA, its fixed-point step and tanh pass per step-kernel variant, its
// Jacobi eigen-decomposition, full attack-suite evaluation, one
// LocalOptimize run, SMO training, and one complete SAP protocol round.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bench_util.hpp"
#include "classify/svm.hpp"
#include "linalg/decompose.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"
#include "net/remote.hpp"
#include "optimize/optimizer.hpp"
#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"
#include "privacy/evaluator.hpp"
#include "privacy/fastica.hpp"
#include "privacy/fastica_step.hpp"
#include "protocol/party_logic.hpp"

namespace {

using sap::linalg::Matrix;
using sap::rng::Engine;

void BM_PerturbApply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Engine eng(1);
  const Matrix x = Matrix::generate(16, n, [&] { return eng.uniform(); });
  const auto g = sap::perturb::GeometricPerturbation::random(16, 0.1, eng);
  for (auto _ : state) {
    Matrix y = g.apply(x, eng);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PerturbApply)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AdaptorApply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Engine eng(2);
  const Matrix y = Matrix::generate(16, n, [&] { return eng.uniform(); });
  const auto g_i = sap::perturb::GeometricPerturbation::random(16, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(16, 0.0, eng);
  const auto a = sap::perturb::SpaceAdaptor::between(g_i, g_t);
  for (auto _ : state) {
    Matrix z = a.apply(y);
    benchmark::DoNotOptimize(z.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdaptorApply)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FastIca(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Engine eng(3);
  const Matrix s = Matrix::generate(8, n, [&] { return eng.uniform(); });
  const Matrix r = sap::linalg::random_orthogonal(8, eng);
  const Matrix y = r * s;
  for (auto _ : state) {
    // One fixed call per iteration: a stream of fresh starting points
    // eventually draws one whose iteration degenerates and throws.
    Engine ica_eng(4);
    auto res = sap::privacy::fast_ica(y, {.max_iterations = 100}, ica_eng);
    benchmark::DoNotOptimize(res.sources.data().data());
  }
}
BENCHMARK(BM_FastIca)->Arg(160)->Arg(500)->Arg(2000);

// The shape LocalOptimize's ICA attack runs in the serving suite
// (net::serving_session_options): a perturbed 160-record subsample of a
// 9-dimensional Shuttle shard.
Matrix serving_shape_records() {
  Engine eng(8);
  const auto workload = sap::data::make_stream_workload("Shuttle", 4, 16, 32, 1);
  const Matrix shard = workload.shards[0].features_T();
  const Matrix x =
      sap::linalg::gather_cols(shard, eng.sample_without_replacement(shard.cols(), 160));
  return sap::perturb::GeometricPerturbation::random(9, 0.1, eng).apply(x, eng);
}

// FastICA at the serving shape, {100 iterations, 1e-5}. Most such calls run
// to the iteration cap (`iterations` reports this one's), so this is the
// cost that sets perfbench's setup_s. The label names the step-kernel
// variant the CPU dispatched to.
void BM_FastIcaServingShape(benchmark::State& state) {
  const Matrix y = serving_shape_records();
  std::size_t iterations = 0;
  for (auto _ : state) {
    Engine ica_eng(9);
    auto res = sap::privacy::fast_ica(y, {.max_iterations = 100, .tolerance = 1e-5}, ica_eng);
    iterations = res.iterations;
    benchmark::DoNotOptimize(res.sources.data().data());
  }
  state.counters["iterations"] = static_cast<double>(iterations);
  state.SetLabel(sap::privacy::step_kernel().name);
}
BENCHMARK(BM_FastIcaServingShape)->Unit(benchmark::kMillisecond);

// The serving records, row-standardized: the spread of the whitened records
// FastICA steps over, and, rotated, of its projections W Z.
Matrix standardized_serving_records() {
  Matrix z = serving_shape_records();
  const sap::linalg::Vector mean = sap::linalg::row_means(z);
  const sap::linalg::Vector sd = sap::linalg::row_stddev(z);
  for (std::size_t i = 0; i < z.rows(); ++i)
    for (double& v : z.row(i)) v = (v - mean[i]) / sd[i];
  return z;
}

// One fixed-point step at the serving shape (k = 9, n = 160) on one
// step-kernel variant: g = tanh(W Z), the g' sums and g Z^T, for a random
// rotation W. Every variant the CPU runs has a row, in one process.
void BM_FastIcaStep(benchmark::State& state, sap::privacy::StepKernel kernel) {
  sap::privacy::StepBuffers buf(standardized_serving_records());
  Engine eng(10);
  const Matrix w = sap::linalg::random_orthogonal(buf.z().rows(), eng);
  for (auto _ : state) {
    kernel.step(w, buf);
    benchmark::DoNotOptimize(buf.gz.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(buf.g.size()));
}

// The Jacobi eigen-decomposition one serving-shape decorrelation runs: of
// S S^T for the step matrix S = E[g Z^T] - E[g'] W of one fixed-point step.
void BM_SymEigenServingShape(benchmark::State& state) {
  sap::privacy::StepBuffers buf(standardized_serving_records());
  Engine eng(10);
  const Matrix w = sap::linalg::random_orthogonal(buf.z().rows(), eng);
  sap::privacy::step_kernel().step(w, buf);
  const double inv_n = 1.0 / static_cast<double>(buf.z().cols());
  Matrix step(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.rows(); ++i)
    for (std::size_t j = 0; j < w.cols(); ++j)
      step(i, j) = buf.gz(i, j) * inv_n - buf.gprime[i] * inv_n * w(i, j);
  const Matrix gram = sap::linalg::matmul_abt(step, step);
  for (auto _ : state) {
    auto eig = sap::linalg::sym_eigen(gram);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_SymEigenServingShape);

// One g(W Z) pass of a serving-shape FastICA iteration: tanh over a 9 x 160
// projection, by libm's std::tanh or by a step-kernel variant's tanh pass.
// W Z is a random rotation of the row-standardized serving records, the
// spread FastICA's projections have. Each call copies the projection back
// first, the same cost on every row.
void BM_TanhRow(benchmark::State& state, const sap::privacy::StepKernel* kernel) {
  const Matrix z = standardized_serving_records();
  Engine eng(10);
  const Matrix wz = sap::linalg::random_orthogonal(z.rows(), eng) * z;
  Matrix g = wz;
  for (auto _ : state) {
    std::copy(wz.data().begin(), wz.data().end(), g.data().begin());
    if (kernel != nullptr) {
      kernel->tanh_pass(g.data());
    } else {
      for (double& v : g.data()) v = std::tanh(v);
    }
    benchmark::DoNotOptimize(g.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(wz.size()));
}
BENCHMARK_CAPTURE(BM_TanhRow, libm, nullptr);

// BM_FastIcaStep/<variant> and BM_TanhRow/<variant> for every step-kernel
// variant this CPU runs, registered in one process: across processes the
// VM's drift hides a ratio between variants.
[[maybe_unused]] const bool kStepKernelRowsRegistered = [] {
  static const auto kernels = sap::privacy::supported_step_kernels();
  for (const auto& kernel : kernels) {
    const std::string name = kernel.name;
    benchmark::RegisterBenchmark(("BM_FastIcaStep/" + name).c_str(), BM_FastIcaStep, kernel);
    benchmark::RegisterBenchmark(("BM_TanhRow/" + name).c_str(), BM_TanhRow, &kernel);
  }
  return true;
}();

// One of LocalOptimize's two runs on the serving shape: party 0 of the
// Shuttle stream workload, net::serving_session_options' optimizer, party
// 0's session engine for seed 1. Random candidates whose cheap-attack bound
// cannot beat the best fully scored one, and refinement probes the cheap
// attacks hold at or below best_rho, skip FastICA: `ica_skipped` counts
// them, `ica_runs` the evaluations left that ran FastICA (of 12), and
// `ica_failed` the FastICA runs that threw (each is retried once).
void BM_OptimizeLocalServingShape(benchmark::State& state) {
  const auto workload = sap::data::make_stream_workload("Shuttle", 4, 16, 32, 1);
  const Matrix x = workload.shards[0].features_T();
  const auto session = sap::net::serving_session_options(0.1, 1);
  auto opts = session.optimizer;
  opts.noise_sigma = session.noise_sigma;
  const Engine party_eng =
      sap::proto::logic::derive_session_seeds(session.seed, 4).provider_eng[0];
  sap::opt::OptimizationResult res;
  for (auto _ : state) {
    Engine eng = party_eng;
    res = sap::opt::optimize_perturbation(x, opts, eng);
    benchmark::DoNotOptimize(res.best_rho);
  }
  state.counters["ica_skipped"] = static_cast<double>(res.ica_skipped);
  state.counters["ica_runs"] = static_cast<double>(res.evaluations - res.ica_skipped);
  state.counters["ica_failed"] = static_cast<double>(res.ica_failed);
}
BENCHMARK(BM_OptimizeLocalServingShape)->Unit(benchmark::kMillisecond);

void BM_AttackSuiteEvaluate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Engine eng(4);
  const Matrix x = Matrix::generate(8, n, [&] { return eng.uniform(); });
  const auto g = sap::perturb::GeometricPerturbation::random(8, 0.1, eng);
  const Matrix y = g.apply(x, eng);
  const sap::privacy::AttackSuite suite({.naive = true, .ica = true, .known_inputs = 4});
  for (auto _ : state) {
    auto report = suite.evaluate(x, y, eng);
    benchmark::DoNotOptimize(report.rho);
  }
}
BENCHMARK(BM_AttackSuiteEvaluate)->Arg(160)->Arg(500);

void BM_OptimizeRun(benchmark::State& state) {
  const auto pool = sap::bench::normalized_uci("Diabetes", 12);
  const Matrix x = pool.features_T();
  sap::opt::OptimizerOptions opts;
  opts.candidates = static_cast<std::size_t>(state.range(0));
  opts.refine_steps = 0;
  opts.max_eval_records = 120;
  opts.attacks = {.naive = true, .ica = false, .known_inputs = 4};
  Engine eng(5);
  for (auto _ : state) {
    auto res = sap::opt::optimize_perturbation(x, opts, eng);
    benchmark::DoNotOptimize(res.best_rho);
  }
}
BENCHMARK(BM_OptimizeRun)->Arg(4)->Arg(16);

void BM_SmoFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Engine eng(6);
  Matrix x(n, 8);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    for (std::size_t f = 0; f < 8; ++f) x(i, f) = eng.normal(pos ? 1.0 : -1.0, 0.7);
    y[i] = pos ? 1 : -1;
  }
  for (auto _ : state) {
    sap::ml::BinarySvm svm;
    svm.fit(x, y);
    benchmark::DoNotOptimize(svm.support_vector_count());
  }
}
BENCHMARK(BM_SmoFit)->Arg(100)->Arg(400)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SapSessionRound(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    const auto pool = sap::bench::normalized_uci("Iris", 13);
    Engine eng(7);
    sap::data::PartitionOptions popts;
    auto parts = sap::data::partition(pool, k, popts, eng);
    auto opts = sap::proto::SapOptions::fast();
    opts.compute_satisfaction = false;
    state.ResumeTiming();
    sap::proto::SapSession session(std::move(parts), opts);
    auto result = session.run();
    benchmark::DoNotOptimize(result.total_bytes);
  }
  state.SetLabel("providers=" + std::to_string(k));
}
BENCHMARK(BM_SapSessionRound)->Arg(3)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

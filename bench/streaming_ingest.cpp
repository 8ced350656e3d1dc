// Streaming-ingest bench: incremental refit vs full retrain per appended
// batch, plus the live-pool determinism invariant.
//
// Part 1 (timing): one large pool, a stream of appended batches. The
// `incremental` engine serves each post-append request by extending its
// cached model via Classifier::partial_fit; the full retrain is a fresh
// engine installed with the grown pool, whose first request fits from
// scratch. Reports per batch and per job (NaiveBayes + Knn — the two
// incremental-capable models) and asserts the acceptance bar:
//
//   median incremental refit >= 3x faster than full retrain (the
//   MiningResponse::fit_millis component — serving cost is identical on
//   both paths by construction), for BOTH jobs, and incremental reports
//   within the DESIGN.md §6 equivalence bar of the full-retrain reports
//   (bit-equal for Knn, <= 1e-12 for NaiveBayes).
//
// Part 2 (determinism): a full protocol scenario — exchange, then
// interleaved mining batches and Contribute-phase ingests — executed at
// {0, 2, 8} engine threads. Every configuration must produce bit-identical
// reports and a bit-identical final pool (pool mutations are epoch-ordered
// regardless of scheduling).
//
// Output: aligned table on stdout + BENCH_streaming_ingest.json.
// Exit code 1 when any bar fails.
//
// Usage: streaming_ingest [--quick] [--rows N] [--batches B]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "data/partition.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/session.hpp"

namespace {

using sap::Table;
using sap::data::Dataset;
namespace proto = sap::proto;

/// Large normalized pool for the timing comparison (synthetic, so the size
/// scales freely) split into an initial pool plus appended batches.
Dataset timing_pool(std::size_t rows) {
  sap::data::SyntheticSpec spec;
  spec.name = "StreamPool";
  spec.rows = rows;
  spec.dims = 16;
  spec.classes = 3;
  spec.class_sep = 1.2;
  spec.corr_rank = 3;
  const Dataset raw = sap::data::make_synthetic(spec, /*seed=*/5);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  return {raw.name(), norm.transform(raw.features()), raw.labels()};
}

struct TimingOutcome {
  bool ok = true;
  Table table{{"batch", "job", "retrain ms", "incremental ms", "speedup",
               "report delta"}};
  std::vector<double> nb_speedups, knn_speedups;
};

TimingOutcome run_timing(std::size_t rows, std::size_t batches,
                         std::size_t batch_records) {
  const Dataset all = timing_pool(rows + batches * batch_records);
  const Dataset base = all.slice(0, rows);

  const std::vector<proto::MiningRequest> jobs = {
      {"nb-train-accuracy", {{"eval-records", 64.0}}},
      {"knn-train-accuracy", {{"k", 5.0}, {"eval-records", 64.0}}},
  };

  proto::MiningEngine incremental{proto::MiningEngineOptions{}};
  incremental.set_pool(base);
  // Warm the incremental engine's cache: the first fit is necessarily full.
  for (const auto& job : jobs) (void)incremental.run(job);

  TimingOutcome out;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = rows + b * batch_records;
    const Dataset batch = all.slice(begin, begin + batch_records);
    incremental.append_records(batch);
    proto::MiningEngine retrain{proto::MiningEngineOptions{}};
    retrain.set_pool(all.slice(0, begin + batch_records));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto slow = retrain.run(jobs[j]);
      const auto fast = incremental.run(jobs[j]);
      if (!fast.model_incremental) {
        std::fprintf(stderr, "FAIL: batch %zu job %s did not refit incrementally\n", b,
                     jobs[j].job.c_str());
        out.ok = false;
      }
      // Equivalence bar (DESIGN.md §6): Knn exact, NaiveBayes within 1e-12.
      const double delta = std::abs(fast.values[0] - slow.values[0]);
      const double bar = (jobs[j].job == "knn-train-accuracy") ? 0.0 : 1e-12;
      if (delta > bar) {
        std::fprintf(stderr,
                     "FAIL: batch %zu job %s incremental report off by %.3e (bar %.0e)\n",
                     b, jobs[j].job.c_str(), delta, bar);
        out.ok = false;
      }
      const double speedup = slow.fit_millis / fast.fit_millis;
      (j == 0 ? out.nb_speedups : out.knn_speedups).push_back(speedup);
      out.table.add_row({std::to_string(b), jobs[j].job, Table::num(slow.fit_millis, 3),
                         Table::num(fast.fit_millis, 3), Table::num(speedup, 1),
                         Table::num(delta, 1)});
    }
  }
  return out;
}

// ---- determinism across engine thread counts -------------------------------

struct ScenarioResult {
  std::vector<std::vector<double>> reports;
  sap::linalg::Matrix pool_features;
  std::vector<int> pool_labels;
};

/// Exchange + interleaved serving/ingest, fully determined by the data and
/// options. Any two engine thread counts must agree bit for bit.
ScenarioResult run_scenario(std::size_t threads) {
  const Dataset pool = sap::bench::normalized_uci("Iris", /*seed=*/31);
  const Dataset initial = pool.slice(0, 100);
  const Dataset stream = pool.slice(100, 150);

  sap::rng::Engine eng(31 ^ 0xBEEF);
  sap::data::PartitionOptions popts;
  auto shards = sap::data::partition(initial, 4, popts, eng);

  auto opts = proto::SapOptions::fast();
  opts.seed = 31;
  opts.compute_satisfaction = false;
  opts.mining_threads = threads;
  proto::SapSession session(std::move(shards), opts);
  auto& engine = session.engine();

  const std::vector<proto::MiningRequest> load = {
      {"nb-train-accuracy", {{"eval-records", 32.0}}},
      {"knn-train-accuracy", {{"k", 3.0}, {"eval-records", 32.0}}},
      {"record-count", {}},
      {"class-histogram", {}},
      {"perceptron-train-accuracy", {{"epochs", 10.0}}},
      {"nb-train-accuracy", {}},
  };

  ScenarioResult result;
  const auto collect = [&](const std::vector<proto::MiningResponse>& responses) {
    for (const auto& r : responses) result.reports.push_back(r.values);
  };
  collect(engine.run_batch(load));
  (void)session.contribute(0, stream.slice(0, 25));
  collect(engine.run_batch(load));
  (void)session.contribute(1, stream.slice(25, 50));
  collect(engine.run_batch(load));

  const auto view = engine.pool_view();
  result.pool_features = view.data->features();
  result.pool_labels = view.data->labels();
  return result;
}

bool identical(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.reports != b.reports) return false;
  if (a.pool_labels != b.pool_labels) return false;
  return a.pool_features.approx_equal(b.pool_features, 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 16384, batches = 8;
  const std::size_t batch_records = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      rows = 4096;
      batches = 4;
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: streaming_ingest [--quick] [--rows N] [--batches B]\n");
      return 2;
    }
  }
  if (rows < 512 || batches == 0) {
    std::fprintf(stderr, "error: need --rows >= 512 and --batches >= 1\n");
    return 2;
  }

  std::printf("pool: %zu records (+%zu batches x %zu records)\n\n", rows, batches,
              batch_records);
  TimingOutcome timing = run_timing(rows, batches, batch_records);
  sap::bench::emit_table("streaming_ingest", timing.table,
                         {.transport = "in-process", .threads = 8});

  const double nb_speedup = sap::bench::exact_median(timing.nb_speedups);
  const double knn_speedup = sap::bench::exact_median(timing.knn_speedups);
  std::printf("\nmedian incremental speedup: nb %.1fx, knn %.1fx (bar: >= 3x)\n",
              nb_speedup, knn_speedup);
  bool ok = timing.ok && nb_speedup >= 3.0 && knn_speedup >= 3.0;
  if (nb_speedup < 3.0 || knn_speedup < 3.0)
    std::fprintf(stderr, "FAIL: incremental refit speedup below the 3x bar\n");

  // Determinism: reports and final pool bit-identical across engine thread
  // counts (the 0-thread run is the reference and also runs again, which
  // catches a schedule-dependent party pool).
  const auto reference = run_scenario(0);
  bool deterministic = true;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    if (!identical(reference, run_scenario(threads))) {
      std::fprintf(stderr, "FAIL: scenario (%zu engine threads) diverges from reference\n",
                   threads);
      deterministic = false;
    }
  }
  if (deterministic)
    std::printf("determinism: reports + pool bit-identical across {0,2,8} engine "
                "threads (ok)\n");
  ok = ok && deterministic;
  return ok ? 0 : 1;
}

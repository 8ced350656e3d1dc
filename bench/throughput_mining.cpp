// Mining-serving throughput: cached parameterized serving vs per-request
// retraining, across engine thread counts.
//
// The bench builds one unified pool (no protocol cost — the engine serves
// standalone, exactly as it does inside a session's Mine state), then pushes
// a fixed request load through the MiningEngine in three configurations:
//
//   retrain-8t    cache off, 8 threads  — PR 1's effective behavior: every
//                 request re-trains its model from scratch;
//   cached-8t     cache on,  8 threads  — the train-once/query-many split;
//   cached-serial cache on,  0 threads  — the serial reference execution.
//
// It reports requests/sec, process CPU ms per request and p50/p99
// per-request latency, verifies the determinism invariant (threaded reports
// bit-identical to serial), and asserts the acceptance bar: at 8 threads,
// retraining costs >= 5x the process CPU time per request of cached serving.
// The bar is on CPU time, not wall time: a short cached batch's wall time is
// the critical path of its one slowest fit (an SVM), not the work caching
// saves, so the wall-clock ratio is printed for information only.
// Output: aligned table on stdout + BENCH_throughput_mining.json.
//
// Usage: throughput_mining [--quick] [--requests N] [--dataset name]
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "protocol/mining_engine.hpp"

namespace {

using sap::Stopwatch;
using sap::Table;
namespace proto = sap::proto;

/// The serving load: parameterized trainable requests over a handful of
/// distinct hyperparameter sets (so the cache holds several live models),
/// mixed with cheap structural requests — a plausible query mix for one
/// exchange serving many analysts.
std::vector<proto::MiningRequest> make_load(std::size_t count) {
  const std::vector<proto::MiningRequest> variants = {
      {"svm-train-accuracy", {{"c", 1.0}, {"eval-records", 64.0}}},
      {"svm-train-accuracy", {{"c", 8.0}, {"eval-records", 64.0}}},
      {"perceptron-train-accuracy", {{"epochs", 40.0}, {"eval-records", 64.0}}},
      {"knn-train-accuracy", {{"k", 3.0}, {"eval-records", 64.0}}},
      {"knn-train-accuracy", {{"k", 7.0}, {"eval-records", 64.0}}},
      {"nb-train-accuracy", {{"eval-records", 64.0}}},
      {"record-count", {}},
      {"class-histogram", {}},
  };
  std::vector<proto::MiningRequest> load;
  load.reserve(count);
  for (std::size_t i = 0; i < count; ++i) load.push_back(variants[i % variants.size()]);
  return load;
}

/// Process CPU time in ms: the user + system time of every thread, so a
/// batch is charged for all the work its engine threads did.
double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

struct RunStats {
  double wall_ms = 0.0;
  double req_per_sec = 0.0;
  double cpu_ms_per_req = 0.0;
  sap::bench::LatencySummary latency;  ///< per-request ms (histogram-backed)
  std::size_t fits = 0;
  std::size_t hits = 0;
  std::vector<proto::MiningResponse> responses;
};

RunStats serve(const sap::data::Dataset& pool, const std::vector<proto::MiningRequest>& load,
               std::size_t threads, bool cache) {
  proto::MiningEngine engine({.threads = threads,
                              .cache_models = cache,
                              .shards = 1,
                              .layout = proto::ShardLayout::kHashMod,
                              .owned = {}});
  engine.set_pool(pool);
  Stopwatch sw;
  const double cpu0 = process_cpu_ms();
  RunStats stats;
  stats.responses = engine.run_batch(load);
  const double cpu_ms = process_cpu_ms() - cpu0;
  stats.wall_ms = sw.millis();
  stats.req_per_sec = 1000.0 * static_cast<double>(load.size()) / stats.wall_ms;
  stats.cpu_ms_per_req = cpu_ms / static_cast<double>(load.size());

  std::vector<double> lat;
  lat.reserve(stats.responses.size());
  for (const auto& r : stats.responses) lat.push_back(r.millis);
  stats.latency = sap::bench::summarize_latency(lat);
  const auto cache_stats = engine.cache_stats();
  stats.fits = cache_stats.fits;
  stats.hits = cache_stats.hits;
  return stats;
}

bool reports_identical(const std::vector<proto::MiningResponse>& a,
                       const std::vector<proto::MiningResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].values != b[i].values) return false;  // bit-exact comparison
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 512;
  std::string dataset = "Diabetes";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      requests = 96;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (requests == 0) {
        std::fprintf(stderr, "error: --requests needs a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--dataset") == 0 && i + 1 < argc) {
      dataset = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: throughput_mining [--quick] [--requests N] [--dataset name]\n");
      return 2;
    }
  }

  const auto pool = sap::bench::normalized_uci(dataset, /*seed=*/17);
  const auto load = make_load(requests);
  std::printf("pool: %s (%zu records x %zu dims), %zu requests\n\n", pool.name().c_str(),
              pool.size(), pool.dims(), load.size());

  const RunStats retrain = serve(pool, load, /*threads=*/8, /*cache=*/false);
  const RunStats cached = serve(pool, load, /*threads=*/8, /*cache=*/true);
  const RunStats serial = serve(pool, load, /*threads=*/0, /*cache=*/true);

  Table table({"mode", "threads", "requests", "wall ms", "req/s", "cpu ms/req", "p50 ms",
               "p95 ms", "p99 ms", "fits", "cache hits"});
  const auto add = [&](const char* mode, std::size_t threads, const RunStats& s) {
    table.add_row({mode, std::to_string(threads), std::to_string(requests),
                   Table::num(s.wall_ms, 1), Table::num(s.req_per_sec, 1),
                   Table::num(s.cpu_ms_per_req, 3),
                   Table::num(s.latency.p50, 3), Table::num(s.latency.p95, 3),
                   Table::num(s.latency.p99, 3), std::to_string(s.fits),
                   std::to_string(s.hits)});
  };
  add("retrain-8t", 8, retrain);
  add("cached-8t", 8, cached);
  add("cached-serial", 0, serial);
  sap::bench::emit_table("throughput_mining", table,
                         {.transport = "simulated", .threads = 8});

  const double speedup = retrain.cpu_ms_per_req / cached.cpu_ms_per_req;
  std::printf("\ncached/retrain speedup at 8 threads: %.1fx in CPU time per request "
              "(wall clock, info only: %.1fx)\n",
              speedup, cached.req_per_sec / retrain.req_per_sec);

  // Determinism invariant: the threaded batch's reports are bit-identical
  // to the serial reference.
  if (!reports_identical(cached.responses, serial.responses)) {
    std::fprintf(stderr, "FAIL: threaded reports differ from serial reference\n");
    return 1;
  }
  std::printf("determinism: threaded reports bit-identical to serial (ok)\n");

  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: cached serving CPU-time speedup %.1fx below the 5x bar\n",
                 speedup);
    return 1;
  }
  return 0;
}

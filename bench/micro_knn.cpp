// Micro-benchmarks for the three kNN serving paths (google-benchmark).
//
// Each case times one knn-train-accuracy read's search work — 128 queries
// drawn from the pool prefix, as the serving door's eval-records=128 reads
// do — at k = 5 (the served default) and k = 256 (the schema's maximum):
//
//   * KdTreeServe: the kd-tree backend over n points whose last quarter
//     arrived as 32-record partial_fit batches, so a brute tail rides every
//     query, as on a live pool between rebuilds;
//   * BruteServe:  the brute backend at 200 records (kAuto's brute range);
//   * ShardPartial: the exact-merge partial over one 372-row shard.
//
// The data is the Shuttle shape (9 dims), min-max normalized and rotated,
// like the unified space the miner serves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "classify/knn.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "linalg/orthogonal.hpp"
#include "protocol/jobs.hpp"
#include "rng/rng.hpp"

namespace {

using sap::data::Dataset;

constexpr std::size_t kQueries = 128;

/// n Shuttle-shape records in a rotated, normalized space.
Dataset pool(std::size_t n) {
  Dataset all = sap::data::make_uci("Shuttle", 1);
  for (std::uint64_t seed = 2; all.size() < n; ++seed)
    all = Dataset::concat(all, sap::data::make_uci("Shuttle", seed));
  sap::data::MinMaxNormalizer norm;
  norm.fit(all.features());
  sap::rng::Engine eng(3);
  const auto r = sap::linalg::random_orthogonal(all.dims(), eng);
  return Dataset(all.name(), norm.transform(all.features()) * r, all.labels()).slice(0, n);
}

void BM_KdTreeServe(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const Dataset data = pool(n);
  sap::ml::Knn base(k, sap::ml::KnnBackend::kKdTree);
  const std::size_t head = n - n / 4;
  base.fit(data.slice(0, head));
  std::unique_ptr<sap::ml::Classifier> model;
  const sap::ml::Classifier* current = &base;
  for (std::size_t at = head; at < n; at += 32) {
    model = current->partial_fit(data.slice(at, std::min(n, at + 32)));
    current = model.get();
  }
  for (auto _ : state) benchmark::DoNotOptimize(sap::ml::accuracy(*current, data, kQueries));
}
BENCHMARK(BM_KdTreeServe)
    ->Args({5, 1536})
    ->Args({256, 1536})
    ->Args({5, 11264})
    ->Args({256, 11264})
    ->Unit(benchmark::kMicrosecond);

void BM_BruteServe(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Dataset data = pool(200);
  sap::ml::Knn model(k, sap::ml::KnnBackend::kBruteForce);
  model.fit(data);
  for (auto _ : state) benchmark::DoNotOptimize(sap::ml::accuracy(model, data, kQueries));
}
BENCHMARK(BM_BruteServe)->Arg(5)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_ShardPartial(benchmark::State& state) {
  const Dataset rows = pool(372);
  // Arrival order differs from canonical key order, as on a live shard.
  std::vector<sap::proto::PoolKey> keys(rows.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = {static_cast<std::uint64_t>(1000 + i % 4), static_cast<std::uint32_t>(i / 4)};
  const Dataset queries = rows.slice(0, kQueries);
  const auto registry = sap::proto::JobRegistry::builtins();
  const auto& spec = registry.find("knn-train-accuracy");
  const auto params = spec.resolve_params({{"k", static_cast<double>(state.range(0))}});
  for (auto _ : state) {
    auto blob = spec.partial(rows, keys, queries, params);
    benchmark::DoNotOptimize(blob.data());
  }
}
BENCHMARK(BM_ShardPartial)->Arg(5)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace

// Micro-benchmarks for the three kNN serving paths (google-benchmark).
//
// Each case times one knn-train-accuracy read's search work — 128 queries
// drawn from the pool prefix, as the serving door's eval-records=128 reads
// do — at k = 5 (the served default) and k = 256 (the schema's maximum):
//
//   * KdTreeServe: the kd-tree backend over n points whose last quarter
//     arrived as 32-record partial_fit batches, as on a live pool. The tail
//     folds into the tree whenever it exceeds an eighth of the indexed rows,
//     so the chain folds twice and every query scans the brute tail it
//     leaves (32 of 1536 points, 512 of 11264);
//   * BruteServe:  the brute backend at 200 records (kAuto's brute range);
//   * ShardPartial: the exact-merge partial over one 372-row shard, on a
//     warm snapshot: its canonical view (the key order and the lane blocks)
//     is built before the loop, as a miner's first partial on a snapshot
//     builds it once for every later one;
//   * ShardKernel: the lane kernel alone over that shard's rows and queries,
//     with no selection, so ShardPartial / ShardKernel in one run is what
//     the selection and the blob cost beside the distance chains;
//   * ShardLeg: ShardPartial's request and answer as one routed leg, with
//     no socket: the router encodes, seals and frames the partial request;
//     the miner parses, opens and decodes it, runs the partial, and
//     encodes, seals and frames the response; the router parses, opens and
//     decodes that. ShardLeg - ShardPartial is the leg's byte work;
//   * ShardPartialBounded, ShardLegBounded: the same at k = 5 as a router
//     runs them on a read after the first, each query bounded by its k-th
//     distance from an unbounded merge over four shards of the same shape
//     (DESIGN.md §11, "Bounded kNN partials");
//   * ShardLegByHandle: ShardLegBounded with the eval prefix sent by handle,
//     as a router sends it once a member keeps the rows: the request
//     carries the handle and an empty row block, and the miner finds the
//     rows in its PrefixTable (DESIGN.md §11, "Eval prefix by handle").
//
// The shard partials report `candidates`, the candidates listed per query.
//
// The data is the Shuttle shape (9 dims), min-max normalized and rotated,
// like the unified space the miner serves. Every row's label names the lane
// kernel variant this CPU dispatched to (vec16 or avx2).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "classify/knn.hpp"
#include "classify/nearest.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "linalg/orthogonal.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "protocol/jobs.hpp"
#include "protocol/message.hpp"
#include "protocol/pool_shard.hpp"
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
  state.SetLabel(sap::ml::lane_kernel().name);
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
  state.SetLabel(sap::ml::lane_kernel().name);
}
BENCHMARK(BM_BruteServe)->Arg(5)->Arg(256)->Unit(benchmark::kMicrosecond);

constexpr std::size_t kShardRows = 372;

/// Shard j of four 372-row shard snapshots cut from one pool; each one's
/// arrival order differs from its canonical key order, as on a live shard.
std::unique_ptr<const sap::proto::ShardSnapshot> shard_snapshot(std::size_t j = 0) {
  Dataset rows = pool(4 * kShardRows).slice(j * kShardRows, (j + 1) * kShardRows);
  std::vector<sap::proto::PoolKey> keys(rows.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = {static_cast<std::uint64_t>(1000 + 4 * j + i % 4),
               static_cast<std::uint32_t>(i / 4)};
  auto shard = std::make_unique<const sap::proto::ShardSnapshot>(std::move(rows), std::move(keys));
  (void)shard->canonical_blocks();  // warm: the view is built once per snapshot
  return shard;
}

/// The radii a router sends on a read after the first: each query's k-th
/// distance from an unbounded merge over the four shards.
std::vector<double> router_radii(const sap::proto::JobSpec& spec, const Dataset& queries,
                                 const sap::proto::JobParams& params) {
  std::vector<std::vector<double>> partials;
  for (std::size_t j = 0; j < 4; ++j)
    partials.push_back(spec.partial(*shard_snapshot(j), queries, {}, params));
  return spec.merge_bounded(partials, queries, {}, params).radii;
}

/// Candidates listed per query in a kNN partial blob ([k, queries,
/// {cands, {dist, nonce, seq, label}*}*]).
double candidates_per_query(const std::vector<double>& blob) {
  const auto queries = static_cast<std::size_t>(blob[1]);
  return static_cast<double>(blob.size() - 2 - queries) / 4.0 / static_cast<double>(queries);
}

void shard_partial(benchmark::State& state, bool bounded) {
  const auto shard = shard_snapshot();
  const Dataset queries = shard->rows.slice(0, kQueries);
  const auto registry = sap::proto::JobRegistry::builtins();
  const auto& spec = registry.find("knn-train-accuracy");
  const auto params = spec.resolve_params({{"k", static_cast<double>(state.range(0))}});
  const auto radii = bounded ? router_radii(spec, queries, params) : std::vector<double>{};
  std::vector<double> blob;
  for (auto _ : state) {
    blob = spec.partial(*shard, queries, radii, params);
    benchmark::DoNotOptimize(blob.data());
  }
  state.counters["candidates"] = candidates_per_query(blob);
  state.SetLabel(sap::ml::lane_kernel().name);
}

void BM_ShardPartial(benchmark::State& state) { shard_partial(state, false); }
BENCHMARK(BM_ShardPartial)->Arg(5)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_ShardPartialBounded(benchmark::State& state) { shard_partial(state, true); }
BENCHMARK(BM_ShardPartialBounded)->Arg(5)->Unit(benchmark::kMicrosecond);

/// One routed kNN leg, byte for byte what the router and a miner door do
/// around the partial, with the frames handed over in memory. `by_handle`
/// sends the queries as the handle a PrefixTable kept them under.
void shard_leg(benchmark::State& state, bool bounded, bool by_handle = false) {
  namespace net = sap::net;
  namespace proto = sap::proto;
  const auto shard = shard_snapshot();
  const Dataset queries = shard->rows.slice(0, kQueries);
  const auto registry = proto::JobRegistry::builtins();
  const std::string job = "knn-train-accuracy";
  const auto& spec = registry.find(job);
  const proto::JobParams request{{"k", static_cast<double>(state.range(0))},
                                 {"eval-records", static_cast<double>(kQueries)}};
  const auto radii =
      bounded ? router_radii(spec, queries, spec.resolve_params(request)) : std::vector<double>{};
  constexpr std::uint64_t kUpKey = 0x5EED0001;    // router -> miner link
  constexpr std::uint64_t kDownKey = 0x5EED0002;  // miner -> router link
  const auto frame_of = [](proto::PayloadKind kind, std::vector<std::uint8_t> body) {
    net::Frame frame;
    frame.payload_kind = static_cast<std::uint8_t>(kind);
    frame.body = std::move(body);
    std::vector<std::uint8_t> bytes;
    net::encode_frame(frame, bytes);
    return bytes;
  };
  const auto open_frame = [](net::FrameReader& reader, const std::vector<std::uint8_t>& bytes,
                             std::uint64_t key) {
    reader.feed(bytes.data(), bytes.size());
    net::FrameView view;
    if (!reader.next_view(view)) throw sap::Error("BM_ShardLeg: incomplete frame");
    return net::open_body(view.body, key);
  };
  net::PrefixTable kept;
  const std::uint64_t prefix = by_handle ? kept.keep(queries) : proto::kPrefixInline;
  const Dataset sent = by_handle ? Dataset{} : queries;
  net::FrameReader miner_reader;
  net::FrameReader router_reader;
  std::size_t bytes_moved = 0;
  std::vector<double> blob;
  for (auto _ : state) {
    const auto up = frame_of(
        proto::PayloadKind::kPartialRequest,
        net::seal_body(proto::encode_partial_request(0, job, request, sent, radii, prefix),
                       kUpKey));
    const auto asked = proto::decode_partial_request(open_frame(miner_reader, up, kUpKey));
    const auto rows = by_handle ? kept.find(asked.prefix) : nullptr;
    blob = spec.partial(*shard, rows ? *rows : asked.queries, asked.radii,
                        spec.resolve_params(asked.params));
    const auto down = frame_of(proto::PayloadKind::kPartialResponse,
                               net::seal_body(proto::encode_partial_response(1, blob), kDownKey));
    const auto answer = proto::decode_partial_response(open_frame(router_reader, down, kDownKey));
    benchmark::DoNotOptimize(answer.blob.data());
    bytes_moved += up.size() + down.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes_moved));
  state.counters["candidates"] = candidates_per_query(blob);
  state.SetLabel(sap::ml::lane_kernel().name);
}

void BM_ShardLeg(benchmark::State& state) { shard_leg(state, false); }
BENCHMARK(BM_ShardLeg)->Arg(5)->Unit(benchmark::kMicrosecond);

void BM_ShardLegBounded(benchmark::State& state) { shard_leg(state, true); }
BENCHMARK(BM_ShardLegBounded)->Arg(5)->Unit(benchmark::kMicrosecond);

void BM_ShardLegByHandle(benchmark::State& state) { shard_leg(state, true, true); }
BENCHMARK(BM_ShardLegByHandle)->Arg(5)->Unit(benchmark::kMicrosecond);

void BM_ShardKernel(benchmark::State& state) {
  const auto shard = shard_snapshot();
  const sap::ml::LaneBlocks& blocks = shard->canonical_blocks();
  const Dataset queries = shard->rows.slice(0, kQueries);
  const auto& kernel = sap::ml::lane_kernel();
  std::vector<double> distances(blocks.groups() * sap::ml::LaneBlocks::kLanes);
  for (auto _ : state) {
    for (std::size_t q = 0; q < queries.size(); ++q)
      kernel.score(blocks.group(0), blocks.groups(), queries.record(q), distances.data());
    benchmark::DoNotOptimize(distances.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kernel.name);
}
BENCHMARK(BM_ShardKernel)->Unit(benchmark::kMicrosecond);

}  // namespace

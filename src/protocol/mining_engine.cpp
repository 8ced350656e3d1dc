#include "protocol/mining_engine.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace sap::proto {

MiningEngine::MiningEngine(MiningEngineOptions opts, JobRegistry registry)
    : opts_(opts), registry_(std::move(registry)), pool_threads_(opts.threads) {
  SAP_REQUIRE(opts_.shards >= 1, "MiningEngine: shards must be >= 1");
  if (opts_.owned.empty()) {
    owned_.resize(opts_.shards);
    std::iota(owned_.begin(), owned_.end(), std::size_t{0});
  } else {
    owned_ = opts_.owned;
    std::sort(owned_.begin(), owned_.end());
    owned_.erase(std::unique(owned_.begin(), owned_.end()), owned_.end());
    SAP_REQUIRE(owned_.back() < opts_.shards,
                "MiningEngine: owned shard id out of range");
  }
  slots_.reserve(owned_.size());
  for (std::size_t i = 0; i < owned_.size(); ++i)
    slots_.push_back(std::make_unique<PoolShard>());
}

PoolShard& MiningEngine::slot_for(std::size_t global_shard) const {
  const auto it = std::lower_bound(owned_.begin(), owned_.end(), global_shard);
  SAP_REQUIRE(it != owned_.end() && *it == global_shard,
              "MiningEngine: shard " + std::to_string(global_shard) +
                  " is not owned by this engine");
  return *slots_[static_cast<std::size_t>(it - owned_.begin())];
}

PoolShard& MiningEngine::sole_slot(const char* what) const {
  SAP_REQUIRE(opts_.shards == 1,
              std::string("MiningEngine::") + what +
                  ": sharded engines use the shard-aware surface");
  return *slots_.front();
}

void MiningEngine::set_pool(data::Dataset pool) {
  auto& slot = sole_slot("set_pool");
  // A flat dataset has no nonce structure: every row keys under the
  // synthetic nonce 0 in arrival order, so canonical order == arrival
  // order — the classic single-pool behavior.
  std::vector<PoolKey> keys;
  keys.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    keys.push_back({0, static_cast<std::uint32_t>(i)});
  slot.install(std::move(pool), std::move(keys));
}

void MiningEngine::set_pool_segments(std::vector<PoolSegment> segments) {
  for (std::size_t s = 0; s < owned_.size(); ++s) {
    const std::size_t global = owned_[s];
    data::Dataset rows;
    std::vector<PoolKey> keys;
    bool first = true;
    for (auto& segment : segments) {
      if (shard_of_nonce(segment.nonce, opts_.shards, opts_.layout) != global) continue;
      for (std::size_t i = 0; i < segment.rows.size(); ++i)
        keys.push_back({segment.nonce, static_cast<std::uint32_t>(i)});
      if (first) {
        rows = segment.rows;  // copy: a segment may be re-routed on re-install
        first = false;
      } else {
        rows.append(segment.rows);
      }
    }
    slots_[s]->install(std::move(rows), std::move(keys));
  }
}

std::uint64_t MiningEngine::append_records(const data::Dataset& batch) {
  return sole_slot("append_records").append(0, batch);
}

std::uint64_t MiningEngine::append_records(std::uint64_t nonce,
                                           const data::Dataset& batch) {
  const std::size_t global = shard_of_nonce(nonce, opts_.shards, opts_.layout);
  return slot_for(global).append(nonce, batch);
}

bool MiningEngine::has_pool() const {
  for (const auto& slot : slots_)
    if (slot->installed()) return true;
  return false;
}

const data::Dataset& MiningEngine::pool() const {
  auto view = sole_slot("pool").view();
  SAP_REQUIRE(view.snap != nullptr, "MiningEngine: no pool installed (set_pool first)");
  // The snapshot stays alive through the slot's own reference; per the
  // header contract the returned reference is only valid while no
  // concurrent mutation can replace it.
  return view.snap->rows;
}

MiningEngine::PoolView MiningEngine::pool_view() const {
  auto view = sole_slot("pool_view").view();
  if (view.snap == nullptr) return {nullptr, view.epoch};
  // Aliasing share: the Dataset pointer keeps the whole snapshot alive.
  return {std::shared_ptr<const data::Dataset>(view.snap, &view.snap->rows), view.epoch};
}

std::uint64_t MiningEngine::pool_epoch() const {
  std::uint64_t watermark = 0;
  bool first = true;
  for (const auto& slot : slots_) {
    const auto e = slot->epoch();
    watermark = first ? e : std::min(watermark, e);
    first = false;
  }
  return watermark;
}

bool MiningEngine::owns(std::size_t global_shard) const {
  const auto it = std::lower_bound(owned_.begin(), owned_.end(), global_shard);
  return it != owned_.end() && *it == global_shard;
}

PoolShard::View MiningEngine::shard_view(std::size_t global_shard) const {
  return slot_for(global_shard).view();
}

std::uint64_t MiningEngine::shard_epoch(std::size_t global_shard) const {
  return slot_for(global_shard).epoch();
}

void MiningEngine::install_shard(std::size_t global_shard, data::Dataset rows,
                                 std::vector<PoolKey> keys, std::uint64_t epoch) {
  slot_for(global_shard).install_at(std::move(rows), std::move(keys), epoch);
}

MiningResponse run_gathered(const JobSpec& spec, const data::Dataset& pool,
                           const JobParams& resolved) {
  MiningResponse response;
  if (spec.trainable()) {
    Stopwatch fit_sw;
    auto model = spec.make_model(resolved);
    model->fit(pool);
    response.fit_millis = fit_sw.millis();
    response.values = spec.serve(*model, pool, resolved);
  } else {
    response.values = spec.run(pool, resolved);
  }
  return response;
}

MiningResponse MiningEngine::run_sharded(const JobSpec& spec, const JobParams& resolved) {
  std::vector<PoolShard::View> views;
  std::vector<KeyedRows> parts;
  views.reserve(slots_.size());
  parts.reserve(slots_.size());
  std::uint64_t watermark = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    auto view = slots_[s]->view();
    SAP_REQUIRE(view.snap != nullptr,
                "MiningEngine: no pool installed (set_pool_segments first)");
    watermark = s == 0 ? view.epoch : std::min(watermark, view.epoch);
    parts.push_back({&view.snap->rows, view.snap->keys});
    views.push_back(std::move(view));
  }

  MiningResponse response;
  if (spec.mergeable()) {
    // Exact merge: per-shard partials over coordinator-grade canonical
    // queries, folded by the job's merge contract (DESIGN.md §11).
    data::Dataset queries;
    if (spec.trainable()) {
      std::size_t limit = 0;
      const auto it = resolved.find("eval-records");
      if (it != resolved.end()) limit = static_cast<std::size_t>(it->second);
      queries = merge_canonical(parts, limit);
      SAP_REQUIRE(queries.size() > 0, "MiningEngine: empty pool across shards");
    }
    const data::Dataset no_queries;
    const data::Dataset& partial_queries = spec.partial_reads_queries ? queries : no_queries;
    std::vector<std::vector<double>> partials;
    partials.reserve(views.size());
    for (const auto& view : views) {
      if (view.snap->rows.size() == 0) continue;  // empty shards contribute nothing
      partials.push_back(spec.partial(*view.snap, partial_queries, {}, resolved));
    }
    SAP_REQUIRE(!partials.empty(), "MiningEngine: empty pool across shards");
    response.values = spec.merge_partials(partials, queries, resolved);
  } else {
    // No exact merge declared: gather the canonical pool and execute flat.
    const auto pool = merge_canonical(parts, 0);
    SAP_REQUIRE(pool.size() > 0, "MiningEngine: empty pool across shards");
    response = run_gathered(spec, pool, resolved);
  }
  response.pool_epoch = watermark;
  return response;
}

MiningResponse MiningEngine::run(const MiningRequest& request) {
  Stopwatch sw;
  MiningResponse response;
  if (request.job.empty()) {  // the no-op request
    response.millis = sw.millis();
    return response;
  }
  const JobSpec& spec = registry_.find(request.job);
  const JobParams resolved = spec.resolve_params(request.params);

  if (opts_.shards == 1) {
    const auto view = slots_.front()->view();
    SAP_REQUIRE(view.snap != nullptr, "MiningEngine: no pool installed (set_pool first)");
    response.pool_epoch = view.epoch;
    if (spec.trainable()) {
      Stopwatch fit_sw;
      const auto model = slots_.front()->model_for(spec, resolved, view,
                                                   response.model_cached,
                                                   response.model_incremental);
      response.fit_millis = fit_sw.millis();
      response.values = spec.serve(*model, view.snap->rows, resolved);
    } else {
      response.values = spec.run(view.snap->rows, resolved);
    }
  } else {
    response = run_sharded(spec, resolved);
  }
  response.millis = sw.millis();
  return response;
}

std::vector<MiningResponse> MiningEngine::run_batch(
    const std::vector<MiningRequest>& requests) {
  // Validate every request up front (name AND params — resolve_params is
  // cheap and pure): a malformed batch must fail before any request
  // executes, and before any model is fitted.
  for (const auto& request : requests)
    if (!request.job.empty())
      (void)registry_.find(request.job).resolve_params(request.params);

  std::vector<MiningResponse> responses(requests.size());
  pool_threads_.run_indexed(requests.size(),
                            [&](std::size_t i) { responses[i] = run(requests[i]); });
  return responses;
}

MiningResponse MiningEngine::run_partial(std::size_t global_shard,
                                         const MiningRequest& request,
                                         const data::Dataset& queries,
                                         std::span<const double> radii) {
  Stopwatch sw;
  const JobSpec& spec = registry_.find(request.job);
  const JobParams resolved = spec.resolve_params(request.params);
  SAP_REQUIRE(spec.mergeable(),
              "MiningEngine::run_partial: job '" + spec.name +
                  "' declares no exact-merge contract");
  const auto view = slot_for(global_shard).view();
  SAP_REQUIRE(view.snap != nullptr,
              "MiningEngine::run_partial: shard not installed");
  MiningResponse response;
  response.pool_epoch = view.epoch;
  response.values = spec.partial(*view.snap, queries, radii, resolved);
  response.millis = sw.millis();
  return response;
}

ShardSlice MiningEngine::shard_slice(std::size_t global_shard,
                                     std::size_t max_records) const {
  const auto view = slot_for(global_shard).view();
  SAP_REQUIRE(view.snap != nullptr,
              "MiningEngine::shard_slice: shard not installed");
  auto order = view.snap->canonical_order();
  // A shard contributes at most max_records rows to any global
  // max_records-prefix, so per-shard truncation loses nothing.
  if (max_records != 0 && order.size() > max_records) order = order.first(max_records);
  ShardSlice slice;
  slice.epoch = view.epoch;
  slice.rows = view.snap->rows.subset(order);
  slice.keys.reserve(order.size());
  for (const auto i : order) slice.keys.push_back(view.snap->keys[i]);
  return slice;
}

MiningCacheStats MiningEngine::cache_stats() const {
  MiningCacheStats stats;
  for (const auto& slot : slots_) {
    const auto s = slot->stats();
    stats.fits += s.fits;
    stats.incremental += s.incremental;
    stats.hits += s.hits;
    stats.entries += s.entries;
  }
  return stats;
}

}  // namespace sap::proto

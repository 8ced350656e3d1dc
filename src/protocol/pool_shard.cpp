#include "protocol/pool_shard.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sap::proto {

data::Dataset merge_canonical(std::span<const KeyedRows> parts, std::size_t limit) {
  struct Row {
    PoolKey key;
    std::size_t part;
    std::size_t row;
  };
  std::vector<Row> rows;
  std::size_t dims = 0;
  std::string name;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const data::Dataset& part = *parts[p].rows;
    if (part.size() == 0) continue;
    SAP_REQUIRE(parts[p].keys.size() == part.size(),
                "merge_canonical: rows/keys size mismatch");
    if (dims == 0) {
      dims = part.dims();
      name = part.name();
    }
    SAP_REQUIRE(part.dims() == dims, "merge_canonical: shard dimensionality mismatch");
    for (std::size_t i = 0; i < part.size(); ++i) rows.push_back({parts[p].keys[i], p, i});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  const std::size_t n = limit == 0 ? rows.size() : std::min(limit, rows.size());
  linalg::Matrix features(n, dims, 0.0);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const data::Dataset& part = *parts[rows[i].part].rows;
    const auto rec = part.record(rows[i].row);
    std::copy(rec.begin(), rec.end(), features.row(i).begin());
    labels[i] = part.label(rows[i].row);
  }
  return data::Dataset(std::move(name), std::move(features), std::move(labels));
}

void PoolShard::install(data::Dataset rows, std::vector<PoolKey> keys) {
  SAP_REQUIRE(rows.size() == keys.size(),
              "PoolShard::install: rows/keys size mismatch");
  MutexLock ingest(ingest_mutex_);
  next_seq_.clear();
  for (const auto& key : keys) {
    auto& next = next_seq_[key.nonce];
    if (key.seq >= next) next = key.seq + 1;
  }
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->rows = std::move(rows);
  snapshot->keys = std::move(keys);
  {
    MutexLock lk(pool_mutex_);
    snap_ = std::move(snapshot);
    ++epoch_;
    // New generation: only the new epoch's size is known lineage, so a
    // model fitted on any replaced shard can never seed an incremental
    // refit.
    epoch_rows_.clear();
    epoch_rows_[epoch_] = snap_->rows.size();
  }
  // Dropping the cache releases dead models' memory; correctness never
  // depends on it (a stale entry fails the lineage check and is refitted).
  MutexLock lk(cache_mutex_);
  cache_.clear();
}

void PoolShard::install_at(data::Dataset rows, std::vector<PoolKey> keys,
                           std::uint64_t epoch) {
  SAP_REQUIRE(rows.size() == keys.size(),
              "PoolShard::install_at: rows/keys size mismatch");
  SAP_REQUIRE(epoch >= 1, "PoolShard::install_at: epoch must be >= 1");
  MutexLock ingest(ingest_mutex_);
  next_seq_.clear();
  for (const auto& key : keys) {
    auto& next = next_seq_[key.nonce];
    if (key.seq >= next) next = key.seq + 1;
  }
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->rows = std::move(rows);
  snapshot->keys = std::move(keys);
  {
    MutexLock lk(pool_mutex_);
    SAP_REQUIRE(epoch >= epoch_,
                "PoolShard::install_at: adopted epoch " + std::to_string(epoch) +
                    " would regress local epoch " + std::to_string(epoch_));
    snap_ = std::move(snapshot);
    epoch_ = epoch;
    epoch_rows_.clear();
    epoch_rows_[epoch_] = snap_->rows.size();
  }
  MutexLock lk(cache_mutex_);
  cache_.clear();
}

std::uint64_t PoolShard::append(std::uint64_t nonce, const data::Dataset& batch) {
  SAP_REQUIRE(batch.size() > 0, "PoolShard::append: empty batch");
  MutexLock ingest(ingest_mutex_);
  View current = view();
  SAP_REQUIRE(current.snap != nullptr,
              "PoolShard::append: shard not installed (install first)");
  SAP_REQUIRE(current.snap->rows.size() == 0 ||
                  batch.dims() == current.snap->rows.dims(),
              "PoolShard::append: dimension mismatch");
  // Build the grown snapshot outside pool_mutex_ (appends are serialized by
  // ingest_mutex_, so `current` cannot go stale) — serving only blocks for
  // the pointer swap, not for the O(N) copy.
  auto grown = std::make_shared<ShardSnapshot>();
  if (current.snap->rows.size() == 0) {
    grown->rows = batch;  // an empty shard adopts the batch's dimensionality
  } else {
    grown->rows = current.snap->rows;
    grown->rows.append(batch);
  }
  grown->keys = current.snap->keys;
  auto& next = next_seq_[nonce];
  for (std::size_t i = 0; i < batch.size(); ++i) grown->keys.push_back({nonce, next++});
  MutexLock lk(pool_mutex_);
  snap_ = std::move(grown);
  ++epoch_;
  epoch_rows_[epoch_] = snap_->rows.size();
  // Bound the lineage history on long-running streams: a cache entry more
  // than kEpochHistory appends behind just loses its incremental seed and
  // refits in full (rows_at_epoch fails), so pruning never affects
  // correctness.
  constexpr std::size_t kEpochHistory = 64;
  while (epoch_rows_.size() > kEpochHistory) epoch_rows_.erase(epoch_rows_.begin());
  return epoch_;
}

bool PoolShard::installed() const {
  MutexLock lk(pool_mutex_);
  return snap_ != nullptr;
}

PoolShard::View PoolShard::view() const {
  MutexLock lk(pool_mutex_);
  return {snap_, epoch_};
}

std::uint64_t PoolShard::epoch() const {
  MutexLock lk(pool_mutex_);
  return epoch_;
}

bool PoolShard::rows_at_epoch(std::uint64_t epoch, std::size_t& rows) const {
  MutexLock lk(pool_mutex_);
  const auto it = epoch_rows_.find(epoch);
  if (it == epoch_rows_.end()) return false;
  rows = it->second;
  return true;
}

std::shared_ptr<const ml::Classifier> PoolShard::model_for(const JobSpec& spec,
                                                           const JobParams& resolved,
                                                           const View& view,
                                                           bool& cached,
                                                           bool& incremental) {
  cached = false;
  incremental = false;
  const data::Dataset& rows = view.snap->rows;
  if (!cache_models_) {
    auto model = spec.make_model(resolved);
    model->fit(rows);
    fits_.fetch_add(1, std::memory_order_relaxed);
    return model;
  }

  std::string key = spec.name;
  key += '\0';
  key += spec.model_key_params(resolved);  // serve-only params share a model

  std::promise<std::shared_ptr<const ml::Classifier>> promise;
  ModelFuture future;
  ModelFuture base;
  std::uint64_t base_epoch = 0;
  bool fitter = false;
  bool have_base = false;
  {
    MutexLock lk(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.epoch == view.epoch) {
      // Current-epoch entry: a completed one is a genuine cache hit; an
      // in-flight one means a peer worker is fitting this exact key right
      // now and we share its result — counted as a hit too.
      future = it->second.future;
      cached = true;
    } else if (it != cache_.end() && it->second.epoch > view.epoch) {
      // The slot already answers a NEWER shard epoch (this request started
      // before an append landed). Bounded staleness: serve this request's
      // own epoch with a one-off fit, and never regress the cache.
      fitter = false;
    } else {
      if (it != cache_.end()) {
        base = it->second.future;  // older epoch's model: incremental seed
        base_epoch = it->second.epoch;
        have_base = true;
      }
      future = ModelFuture(promise.get_future());
      cache_[key] = {view.epoch, future};
      fitter = true;
    }
  }

  if (!cached && !fitter) {  // the stale-request one-off path
    auto model = spec.make_model(resolved);
    model->fit(rows);
    fits_.fetch_add(1, std::memory_order_relaxed);
    return model;
  }

  if (fitter) {
    try {
      std::shared_ptr<const ml::Classifier> model;
      std::size_t base_rows = 0;
      if (have_base && rows_at_epoch(base_epoch, base_rows)) {
        std::shared_ptr<const ml::Classifier> seed;
        try {
          seed = base.get();
        } catch (...) {
          seed = nullptr;  // the base fit failed; fall through to a full fit
        }
        if (seed && seed->supports_partial_fit() && base_rows < rows.size()) {
          model = seed->partial_fit(rows.slice(base_rows, rows.size()));
          incremental = true;
          incremental_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!model) {
        auto fresh = spec.make_model(resolved);
        fresh->fit(rows);
        fits_.fetch_add(1, std::memory_order_relaxed);
        model = std::move(fresh);
      }
      promise.set_value(std::move(model));
    } catch (...) {
      // Waiting peers see the exception; drop the poisoned entry (only if it
      // is still ours) so a later request retries instead of replaying a
      // stale error forever.
      promise.set_exception(std::current_exception());
      MutexLock lk(cache_mutex_);
      const auto it = cache_.find(key);
      if (it != cache_.end() && it->second.epoch == view.epoch) cache_.erase(it);
    }
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return future.get();  // rethrows a fit failure
}

PoolShard::Stats PoolShard::stats() const {
  Stats stats;
  stats.fits = fits_.load(std::memory_order_relaxed);
  stats.incremental = incremental_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  MutexLock lk(cache_mutex_);
  stats.entries = cache_.size();
  return stats;
}

}  // namespace sap::proto

// PoolShard — one shard's slice of the live unified pool, with its own
// epoch line and model cache.
//
// PR 8 splits the MiningEngine's monolithic pool into N shards partitioned
// by contribution-nonce hash (protocol/shard.hpp). Everything the engine
// used to keep once — the epoch-scoped snapshot, the append lineage that
// feeds incremental refits, the (job, params)-keyed model cache — now lives
// per shard, so shards ingest and fit independently: an append to shard 2
// never invalidates shard 0's cache or blocks its serving.
//
// A shard's rows stay in ARRIVAL order (the order contributions landed),
// exactly like the old single pool — per-shard fits and incremental
// partial_fit extensions are therefore bit-identical to what a 1-shard
// engine produces from the same arrival sequence. The parallel `keys`
// vector carries each row's canonical (nonce, seq) coordinate, which is
// what exact merges and canonical gathers order by (DESIGN.md §11).
//
// Thread-safety mirrors the old engine: view()/model_for() may run
// concurrently with install()/append() (requests serve the snapshot they
// captured); mutators are serialized per shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "data/dataset.hpp"
#include "protocol/jobs.hpp"

namespace sap::proto {

/// Immutable snapshot of one shard's pool: rows in arrival order plus each
/// row's canonical (nonce, seq) coordinate, versioned TOGETHER so a reader
/// never pairs rows from one epoch with keys from another.
struct ShardSnapshot {
  data::Dataset rows;
  std::vector<PoolKey> keys;  ///< parallel to rows
};

/// One nonce's slice of a unified pool, in that nonce's record order — the
/// unit set_pool_segments() routes to shards.
struct PoolSegment {
  std::uint64_t nonce = 0;
  data::Dataset rows;
};

/// One input of merge_canonical: a shard's rows, in any order, with their
/// parallel canonical (nonce, seq) keys. Borrowed, never copied.
struct KeyedRows {
  const data::Dataset* rows = nullptr;
  std::span<const PoolKey> keys;
};

/// The canonical pool over `parts`: every row in (nonce, seq) order,
/// truncated to `limit` rows (0 = all). Empty parts are skipped; the others
/// must agree on dimensionality. The one canonical merge — MiningEngine's
/// sharded serving and the cluster router's gather both build their pools
/// and query prefixes with it (DESIGN.md §11). A part needs at most `limit`
/// rows of its own canonical prefix to cover the global one.
[[nodiscard]] data::Dataset merge_canonical(std::span<const KeyedRows> parts,
                                            std::size_t limit);

class PoolShard {
 public:
  /// cache_models mirrors MiningEngineOptions::cache_models.
  explicit PoolShard(bool cache_models) : cache_models_(cache_models) {}

  PoolShard(const PoolShard&) = delete;
  PoolShard& operator=(const PoolShard&) = delete;

  /// Atomic (snapshot, epoch) pair — the view one request serves against.
  struct View {
    std::shared_ptr<const ShardSnapshot> snap;
    std::uint64_t epoch = 0;
  };

  /// Install (or replace) this shard's rows. `keys` must parallel `rows`.
  /// Starts a new epoch generation: bumps the epoch, drops every cached
  /// model, severs incremental lineage, and re-derives per-nonce sequence
  /// counters from `keys` so later appends continue the canonical order.
  void install(data::Dataset rows, std::vector<PoolKey> keys);

  /// install() that ADOPTS a donor's epoch instead of bumping the local
  /// line — the resync path (DESIGN.md §13). A rejoining miner installs the
  /// live owner's arrival-order snapshot with the owner's current epoch so
  /// the router's per-shard epoch floors keep holding across the restart.
  /// Everything else matches install(): new generation, caches dropped,
  /// lineage severed, seq counters re-derived. `epoch` must not regress the
  /// local epoch line.
  void install_at(data::Dataset rows, std::vector<PoolKey> keys, std::uint64_t epoch);

  /// Streaming ingest: append `batch` under `nonce`, assigning consecutive
  /// canonical seq numbers. Bumps the epoch WITHOUT dropping cached models
  /// (incremental refits pick up exactly the appended rows). Returns the
  /// new epoch.
  std::uint64_t append(std::uint64_t nonce, const data::Dataset& batch);

  /// False until the first install().
  [[nodiscard]] bool installed() const;

  [[nodiscard]] View view() const;
  [[nodiscard]] std::uint64_t epoch() const;

  /// Fitted model for (spec, resolved params) serving `view` — from this
  /// shard's cache when current, extended incrementally from an earlier
  /// epoch's model when possible, freshly trained otherwise. Identical
  /// logic to the pre-shard engine's model_for, scoped to one shard.
  std::shared_ptr<const ml::Classifier> model_for(const JobSpec& spec,
                                                  const JobParams& resolved,
                                                  const View& view, bool& cached,
                                                  bool& incremental);

  /// Cumulative cache accounting for this shard.
  struct Stats {
    std::size_t fits = 0;
    std::size_t incremental = 0;
    std::size_t hits = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  using ModelFuture = std::shared_future<std::shared_ptr<const ml::Classifier>>;

  /// One cached fitted model: the epoch it answers plus the (possibly still
  /// in-flight) fit. Keys are (job '\0' model-params).
  struct CacheEntry {
    std::uint64_t epoch = 0;
    ModelFuture future;
  };

  /// Row count this shard had at `epoch`, if `epoch` belongs to the current
  /// install generation (false otherwise — lineage severed).
  [[nodiscard]] bool rows_at_epoch(std::uint64_t epoch, std::size_t& rows) const;

  const bool cache_models_;

  mutable Mutex pool_mutex_;  ///< guards snap_, epoch_, epoch_rows_
  /// Serializes install/append; held around (never inside) pool_mutex_ so
  /// mutators can build the grown snapshot outside the lock serving
  /// contends on.
  Mutex ingest_mutex_ SAP_ACQUIRED_BEFORE(pool_mutex_);
  std::shared_ptr<const ShardSnapshot> snap_ SAP_GUARDED_BY(pool_mutex_);
  std::uint64_t epoch_ SAP_GUARDED_BY(pool_mutex_) = 0;
  /// Shard size per epoch of the current generation (cleared by install) —
  /// what lets an incremental refit slice out exactly the appended rows.
  std::map<std::uint64_t, std::size_t> epoch_rows_ SAP_GUARDED_BY(pool_mutex_);
  /// Next canonical seq per nonce (appends continue where install left off).
  std::map<std::uint64_t, std::uint32_t> next_seq_ SAP_GUARDED_BY(ingest_mutex_);

  mutable Mutex cache_mutex_;
  /// key: job '\0' model-params
  std::map<std::string, CacheEntry> cache_ SAP_GUARDED_BY(cache_mutex_);
  std::atomic<std::size_t> fits_{0};
  std::atomic<std::size_t> incremental_{0};
  std::atomic<std::size_t> hits_{0};
};

}  // namespace sap::proto

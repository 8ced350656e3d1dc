// MiningEngine — concurrent, cached, parameterized job serving over a LIVE
// unified pool, optionally split into nonce-hashed shards.
//
// PR 2 turned the Mine state into a service over a frozen snapshot; PR 4
// made the pool live (epoch-scoped appends, incremental refits); PR 8
// shards it. The engine is now a *ShardSet*: a view over N PoolShards
// (protocol/pool_shard.hpp), each holding one hash-partition of the pool
// with its own epoch line and model cache. With shards == 1 (the default)
// the engine delegates everything to its single slot and behaves — bit for
// bit, including epochs, cache hits, and incremental refits — like the
// pre-shard engine.
//
//   * requests — MiningRequest{job, params} — execute against immutable
//     shard *snapshots*, singly (run), as a batch fanned out over an
//     internal ThreadPool (run_batch), or concurrently from any number of
//     caller threads (run is thread-safe);
//   * contributions are routed by shard_of_nonce(nonce): an append to one
//     shard bumps only that shard's epoch and never invalidates another
//     shard's cache. pool_epoch() over a sharded engine is the cluster-
//     style WATERMARK — the minimum epoch across owned shards;
//   * a multi-shard run() executes a job's exact-merge contract when it
//     declares one (JobSpec::partial + merge_partials — report
//     bit-identical to the canonical concatenated pool, whatever the shard
//     count or layout), and otherwise gathers the canonical pool and
//     executes flat (run_gathered, the cluster router's path too);
//   * a partially-owned engine (a cluster miner serving a subset of the
//     shard space) additionally serves run_partial() — one shard's partial
//     blob for a coordinator-side merge — and shard_slice() — one shard's
//     canonically-ordered rows for coordinator-side gathers
//     (net/cluster.hpp).
//
// Determinism invariant (tested under TSAN like the session's party pool): a
// batch's reports (MiningResponse::values) are bit-identical to the same
// requests run serially, regardless of thread count — only the diagnostics
// (model_cached, model_incremental, millis) may reflect scheduling. This
// holds because (a) response slots are addressed by request index, (b) every
// job report is a pure function of (shard snapshots, resolved params) — and
// the incremental-refit contract (DESIGN.md §6) makes a partial_fit-extended
// model equivalent to the full refit it replaces — and (c) concurrent fits
// of the same key are collapsed onto one shared_future. Pool mutations are
// epoch-ordered per shard: shard content at epoch e is a pure function of
// the install/append call sequence for that shard, independent of thread
// count.
//
// Thread-safety: run()/run_batch() may be called concurrently with each
// other AND with append_records()/set_pool() (requests serve the snapshots
// they started with). Registry mutation must still not overlap serving.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
#include "protocol/jobs.hpp"
#include "protocol/pool_shard.hpp"

namespace sap::proto {

struct MiningEngineOptions {
  /// Worker threads for run_batch(); 0 = execute batches inline on the
  /// calling thread (the serial reference execution).
  std::size_t threads = 0;
  /// Cache fitted models per (job, params, shard) with epoch-aware
  /// incremental refit. Disabling forces per-request retraining (the
  /// throughput bench's comparison baseline).
  bool cache_models = true;
  /// Total shards the pool is partitioned into (shard_of_nonce space).
  /// 1 = the classic unsharded engine.
  std::size_t shards = 1;
  /// Hash-route layout; both layouts satisfy the exact-merge contract.
  ShardLayout layout = ShardLayout::kHashMod;
  /// Global shard ids this engine owns (a cluster miner owns a subset).
  /// Empty = own all `shards` (the in-process ShardSet view).
  std::vector<std::size_t> owned;
};

/// One serving request: a registered job name plus per-request parameters
/// (merged over the spec's declared defaults). An empty job name is the
/// no-op request: it resolves to an empty report without touching the pool.
struct MiningRequest {
  std::string job;
  JobParams params;
};

/// One serving response. Values are the job's report; `model_cached` is true
/// when a trainable job served from an already-fitted model,
/// `model_incremental` when this request's fit extended an earlier epoch's
/// model via partial_fit instead of retraining from scratch.
struct MiningResponse {
  std::vector<double> values;
  bool model_cached = false;
  bool model_incremental = false;
  std::uint64_t pool_epoch = 0;  ///< epoch (sharded: watermark) served against
  double millis = 0.0;           ///< wall-clock service time of this request
  double fit_millis = 0.0;       ///< of which: acquiring the fitted model
                                 ///< (≈0 on a cache hit; the full vs
                                 ///< incremental refit cost otherwise)
};

/// Cache accounting (cumulative across the engine's lifetime; sharded:
/// summed over owned shards).
struct MiningCacheStats {
  std::size_t fits = 0;         ///< models trained from scratch
  std::size_t incremental = 0;  ///< models extended via partial_fit
  std::size_t hits = 0;         ///< requests served from a cached model
  std::size_t entries = 0;      ///< live cache entries
};

/// One shard's canonically-ordered rows (coordinator-side gathers).
struct ShardSlice {
  data::Dataset rows;             ///< sorted by canonical (nonce, seq)
  std::vector<PoolKey> keys;      ///< parallel to rows
  std::uint64_t epoch = 0;        ///< shard epoch the slice was cut at
};

/// Serve `spec` once over a flat gathered `pool`, uncached: fit + serve for
/// a trainable job, run for a structural one. The gather path for jobs
/// without an exact merge — a sharded MiningEngine and the cluster router
/// (net/cluster.hpp) both execute it, so a gathered report is computed one
/// way. Fills values and fit_millis.
[[nodiscard]] MiningResponse run_gathered(const JobSpec& spec, const data::Dataset& pool,
                                          const JobParams& resolved);

class MiningEngine {
 public:
  explicit MiningEngine(MiningEngineOptions opts = {},
                        JobRegistry registry = JobRegistry::builtins());

  MiningEngine(const MiningEngine&) = delete;
  MiningEngine& operator=(const MiningEngine&) = delete;

  // ---- pool lifecycle --------------------------------------------------

  /// Install (or replace) the pooled dataset (single-shard engines only —
  /// a flat dataset carries no nonce structure to route by; sharded
  /// engines install via set_pool_segments). Starts a new epoch
  /// generation: bumps the pool epoch, drops every cached model, and
  /// severs incremental lineage. Safe to call concurrently with serving;
  /// in-flight requests finish against the snapshot they started on.
  void set_pool(data::Dataset pool);

  /// Install the unified pool from its per-nonce segments (callers pass
  /// canonical — ascending-nonce — order; party_logic's unify_pool already
  /// yields it). Every owned shard is (re)installed with exactly the
  /// segments that hash-route to it — possibly none — starting a new epoch
  /// generation on each; segments routed to unowned shards are skipped (a
  /// cluster miner installs only its slice).
  void set_pool_segments(std::vector<PoolSegment> segments);

  /// Streaming ingest, classic form (single-shard engines only): append
  /// `batch` to the pool under the synthetic nonce 0. Bumps the epoch
  /// WITHOUT dropping cached models — later requests extend them
  /// incrementally where supported. Returns the new epoch.
  std::uint64_t append_records(const data::Dataset& batch);

  /// Streaming ingest, routed form: append `batch` as a contribution under
  /// `nonce`, landing on shard_of_nonce(nonce) — which must be owned
  /// (callers check owns() first; cluster daemons answer kNotOwner).
  /// Returns the OWNING SHARD's new epoch (the contribution receipt).
  std::uint64_t append_records(std::uint64_t nonce, const data::Dataset& batch);

  [[nodiscard]] bool has_pool() const;
  /// Reference to the current pool (single-shard engines only). Valid only
  /// while no concurrent pool mutation can run; concurrent callers must use
  /// pool_view() instead.
  [[nodiscard]] const data::Dataset& pool() const;
  /// Atomic (snapshot, epoch) pair — the view one request serves against
  /// (single-shard engines only; sharded callers use shard_view()).
  struct PoolView {
    std::shared_ptr<const data::Dataset> data;
    std::uint64_t epoch = 0;
  };
  [[nodiscard]] PoolView pool_view() const;
  /// 0 until the first install; then increments with every set_pool/append.
  /// Sharded: the WATERMARK — the minimum epoch across owned shards (the
  /// epoch every shard is guaranteed to have reached).
  [[nodiscard]] std::uint64_t pool_epoch() const;

  // ---- shard topology --------------------------------------------------

  [[nodiscard]] std::size_t total_shards() const noexcept { return opts_.shards; }
  [[nodiscard]] ShardLayout layout() const noexcept { return opts_.layout; }
  /// Owned global shard ids, ascending.
  [[nodiscard]] const std::vector<std::size_t>& owned_shards() const noexcept {
    return owned_;
  }
  [[nodiscard]] bool owns(std::size_t global_shard) const;
  /// One owned shard's (snapshot, epoch) view / current epoch.
  [[nodiscard]] PoolShard::View shard_view(std::size_t global_shard) const;
  [[nodiscard]] std::uint64_t shard_epoch(std::size_t global_shard) const;

  /// Resync install (DESIGN.md §13): replace one owned shard with a donor's
  /// ARRIVAL-order snapshot and ADOPT the donor's epoch (no local bump).
  /// `rows`/`keys` must parallel; the epoch must not regress the shard's
  /// local line. Used by a rejoining miner after fetching the live owner's
  /// shard snapshot through the kShardSnapshotRequest door.
  void install_shard(std::size_t global_shard, data::Dataset rows,
                     std::vector<PoolKey> keys, std::uint64_t epoch);

  // ---- job registry ----------------------------------------------------

  /// Mutable registry access (register jobs before serving; registration
  /// must not race with in-flight requests).
  [[nodiscard]] JobRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const JobRegistry& registry() const noexcept { return registry_; }

  // ---- serving ---------------------------------------------------------

  /// Serve one request against the shard snapshots current at entry.
  /// Thread-safe against concurrent run()/append_records() calls. Sharded
  /// engines serve over their OWNED shards: exact-merge jobs run partial-
  /// per-shard + merge, others gather the owned shards' canonical pool and
  /// execute flat. Throws sap::Error for an unknown job name, invalid
  /// params, or a missing pool.
  MiningResponse run(const MiningRequest& request);

  /// Serve a batch across the worker pool (inline when threads == 0).
  /// Response i always answers request i. Every job name is validated
  /// before anything executes, so a malformed batch fails without side
  /// effects; a request that throws mid-batch poisons the batch after all
  /// in-flight requests drain (first error wins).
  std::vector<MiningResponse> run_batch(const std::vector<MiningRequest>& requests);

  /// One shard's partial blob for `request` (coordinator-side exact
  /// merges): executes spec.partial over the shard's snapshot with the
  /// coordinator-supplied canonical query prefix. values = the opaque
  /// blob; pool_epoch = the shard epoch served. Throws for non-mergeable
  /// jobs or unowned shards.
  MiningResponse run_partial(std::size_t global_shard, const MiningRequest& request,
                             const data::Dataset& queries);

  /// One shard's rows in canonical (nonce, seq) order, truncated to
  /// max_records (0 = all) — the coordinator-side gather primitive.
  [[nodiscard]] ShardSlice shard_slice(std::size_t global_shard,
                                       std::size_t max_records) const;

  // ---- observability ---------------------------------------------------

  [[nodiscard]] MiningCacheStats cache_stats() const;
  [[nodiscard]] std::size_t threads() const noexcept { return pool_threads_.thread_count(); }

 private:
  /// Owned slot for a global shard id; throws for unowned ids.
  [[nodiscard]] PoolShard& slot_for(std::size_t global_shard) const;
  /// The single slot of a 1-slot engine; throws when sharded surface must
  /// be used instead.
  [[nodiscard]] PoolShard& sole_slot(const char* what) const;

  /// Multi-shard serving: exact merge when the spec declares one, canonical
  /// gather + flat execution otherwise.
  MiningResponse run_sharded(const JobSpec& spec, const JobParams& resolved);

  MiningEngineOptions opts_;
  JobRegistry registry_;
  ThreadPool pool_threads_;

  std::vector<std::size_t> owned_;                    ///< sorted global ids
  std::vector<std::unique_ptr<PoolShard>> slots_;     ///< parallel to owned_
};

}  // namespace sap::proto

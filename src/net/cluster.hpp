// Sharded multi-miner cluster: the scatter-gather coordinator (DESIGN.md
// §11).
//
// A cluster is M miner daemons, each running the SAME logical exchange with
// the k parties (same seed => bit-identical unified segments) but installing
// only the shards it OWNS (MinerDaemonOptions::owned_shards). The
// ShardRouter sits in front of them and presents the single-miner serving
// surface:
//
//   * kContribution  -> hash-routed by shard_of_nonce() to every owner of
//     the nonce's shard (primary + replicas), so replicas stay current and
//     can serve reads when the primary dies;
//   * kMiningRequest -> for jobs with an exact-merge contract
//     (JobSpec::partial / merge_partials): scatter one kPartialRequest per
//     shard across live owners, merge router-side — the merged report is
//     bit-identical to a single miner holding the whole pool, whatever the
//     shard count or layout. Jobs without a contract gather: the canonical
//     pool is reassembled from one kPoolSliceRequest slice per shard
//     (proto::merge_canonical) and the job runs flat router-side
//     (proto::run_gathered) — the same two steps a sharded MiningEngine
//     takes.
//
// Every per-shard leg — a contribution, a partial, a slice — runs through
// ONE owner-failover loop (serve_owners): breaker admission, the round
// trip, success/failure accounting, the failover count, and a typed
// kUnavailable when no owner answers.
//
// The kNN/NB query rows (the canonical eval prefix) are gathered once and
// reused while every shard's floor stays at the epoch its slice was cut at
// and no owner changed; the partials, which run on every read, confirm the
// reuse (DESIGN.md §11, "Eval-prefix reuse"). The prefix crosses to the
// shards only for a partial that reads it (kNN's); NB's partials get an
// empty block, and its merge scores the prefix here. It crosses to each
// member once: the member keeps the rows and answers with a handle, which
// the router's later partials send instead (DESIGN.md §11, "Eval prefix by
// handle"); a member that no longer holds them is sent the rows again
// within the same leg. Beside the prefix the
// router keeps each query's k-th merged distance from the last kNN merge
// over it, and sends those radii with the next kNN read's partials at the
// same k, so each shard lists only rows within them; a round that leaves a
// query short of k is rerun without radii (DESIGN.md §11, "Bounded kNN
// partials").
//
// Consistency: the router tracks a per-shard EPOCH FLOOR — the highest
// shard epoch any owner acknowledged (contribution receipts, served
// partials and slices all advance it). A replica answering below the floor
// is stale (it missed an append the primary acked) and is skipped, so
// failover never serves a report the client could distinguish from the
// primary's. The cluster-wide watermark of a merged response is the
// minimum shard epoch that contributed — the same quantity
// MiningEngine::pool_epoch() reports for an in-process ShardSet.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "net/reactor.hpp"
#include "net/remote.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/jobs.hpp"
#include "protocol/message.hpp"

namespace sap::net {

/// The cluster's ownership rule, its one home: owner j < `replicas` of
/// shard g is member (g + j) mod `members`, primary first.
[[nodiscard]] std::vector<std::size_t> shard_owners(std::size_t shard, std::size_t members,
                                                    std::size_t replicas);

/// The shards member `member` installs in a cluster of `members` members
/// with one shard each: every g < members whose shard_owners name it,
/// ascending (MinerDaemonOptions::owned_shards).
[[nodiscard]] std::vector<std::size_t> owned_shards(std::size_t member, std::size_t members,
                                                    std::size_t replicas);

struct ShardRouterOptions {
  /// Miner doors, one per miner.
  std::vector<SocketAddr> miners;
  /// Total shards in the nonce-hash space; 0 = one per miner.
  std::size_t shards = 0;
  /// Owners per shard: primary + (replicas - 1) read/write replicas, by
  /// shard_owners over the miners. Must be <= miner count.
  std::size_t replicas = 1;
  proto::ShardLayout layout = proto::ShardLayout::kHashMod;
  std::uint64_t seed = 0x5A9;   ///< must match the miners' session seed
  std::size_t parties = 0;      ///< k (>= 3); must match the miners
  ServeClient::Options client{};
  /// How long an open breaker (ShardRouter::kBreakerThreshold) cools down
  /// before admitting one half-open probe through the stats door.
  int breaker_cooldown_ms = 250;
  /// After a failed connect, how long client_for() refuses to re-dial the
  /// same miner. Failovers inside the window skip the dead owner
  /// instantly instead of paying the full connect deadline per request.
  int negative_cache_ms = 100;
};

/// Scatter-gather coordinator over a set of sharded miner daemons. NOT
/// internally synchronized — callers (RouterDaemon, the bench driver)
/// serialize access. Connections are lazy and re-established after a
/// transport failure, which is what lets a killed-and-gone miner be routed
/// around instead of poisoning the router.
class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions opts);

  [[nodiscard]] std::size_t shards() const noexcept { return opts_.shards; }
  [[nodiscard]] std::size_t miners() const noexcept { return opts_.miners.size(); }

  /// Owner miner indices for a shard, primary first.
  [[nodiscard]] std::vector<std::size_t> owners(std::size_t shard) const;

  /// Route a pre-encoded kContribution payload to every owner of its
  /// nonce's shard. Returns the first live owner's receipt and raises the
  /// shard's epoch floor to the highest acked epoch. Throws ServeError
  /// {kUnavailable} when no owner is reachable; a definitive rejection
  /// (ContributionRejected, kBadRequest) rethrows immediately.
  proto::DecodedReceipt contribute_wire(const std::vector<double>& wire);

  /// Serve a named job across the cluster (see the file comment for the
  /// exact-merge / gather split). Throws ServeError{kBadRequest}
  /// for unknown jobs or bad params, ServeError{kUnavailable} when a shard
  /// has no live owner at or above its epoch floor.
  proto::WireMiningResponse mine_named(const std::string& job,
                                       const proto::JobParams& params = {});

  /// Per-shard epoch floors (index = global shard id).
  [[nodiscard]] const std::vector<std::uint64_t>& epoch_floors() const noexcept {
    return floors_;
  }
  /// Times a request was retried on another owner (dead/stale/unowned).
  [[nodiscard]] std::size_t failovers() const noexcept { return failovers_; }

  /// Per-miner circuit breaker (DESIGN.md §13): kClosed serves normally;
  /// kOpen skips the miner while its cooldown runs (replica-only serving);
  /// a cooled-down breaker goes kHalfOpen and one stats-door probe decides
  /// whether it closes or re-opens.
  enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
  /// Consecutive transport failures on one miner that open its breaker, so
  /// its shards serve from replicas only. Typed refusals (the daemon
  /// answered) never count.
  static constexpr std::size_t kBreakerThreshold = 3;
  [[nodiscard]] BreakerState breaker(std::size_t miner) const {
    return health_[miner].state;
  }
  /// Transport-level retries spent by this router's ServeClients (lifetime
  /// sum — survives the connection resets a failover performs).
  [[nodiscard]] std::size_t client_retries() const;

  /// The router's own metrics (router.shard<g>.requests counters, the
  /// router.fanout_ms leg-latency histogram — DESIGN.md §12).
  [[nodiscard]] obs::Registry& metrics() noexcept { return obs_; }

  /// Cluster-wide aggregate: this router's own snapshot merged with every
  /// reachable miner's stats-door snapshot. Counters and histograms merge
  /// EXACTLY (addition / bucket-wise — the aggregate histogram equals one
  /// daemon recording the union of the samples); gauges are point-in-time
  /// per-miner readings and are namespaced "m<i>." instead of pretending
  /// to merge. Unreachable miners are skipped and counted in the
  /// router.stats_unreachable gauge. Same serialization contract as every
  /// other router call.
  [[nodiscard]] obs::Snapshot cluster_stats();

  /// Trace id stamped on every downstream request frame until changed
  /// (0 = untraced). The RouterDaemon sets the door's id here so miners
  /// record the SAME id — the cross-hop propagation sap_cli stats shows.
  void set_trace(std::uint64_t id);

  /// Router-side merge time (merge_partials, or the gathered job's flat
  /// run) of the last mine_named call — the kMerge trace stage.
  [[nodiscard]] double last_merge_ms() const noexcept { return last_merge_ms_; }

 private:
  struct MinerHealth {
    BreakerState state = BreakerState::kClosed;
    std::size_t failures = 0;  ///< consecutive transport failures
    std::chrono::steady_clock::time_point open_until{};  ///< cooldown end
    std::chrono::steady_clock::time_point dead_until{};  ///< negative-cache expiry
    std::string last_connect_error;  ///< replayed while the cache holds
  };

  /// The lazily-connected client for miner m (connects on first use;
  /// failure paths call record_failure, which drops the slot). Throws
  /// without dialling while the miner's negative-connect cache holds.
  ServeClient& client_for(std::size_t miner);

  /// Breaker gate for one owner attempt: false (with `why`) while the
  /// breaker is open and cooling down. A cooled-down breaker admits one
  /// half-open probe through the stats door inline and closes (true) or
  /// re-opens (false) on the probe's outcome.
  bool admit(std::size_t miner, std::string& why);
  /// The miner answered (data or typed refusal): clear the failure streak
  /// and close its breaker.
  void record_success(std::size_t miner);
  /// Transport failure: drop the connection, bump the streak, trip the
  /// breaker at the threshold.
  void record_failure(std::size_t miner);
  /// Reset clients_[miner], folding its retry count into the lifetime sum,
  /// and forget the prefix handle the miner issued: the next connection
  /// may reach another process.
  void drop_client(std::size_t miner);

  /// The one owner-failover loop. Visits the owners of `shard` in order:
  /// breaker admission, then `leg` (one round trip over the owner's client,
  /// given the owner's miner index, returning the shard epoch its answer
  /// was cut at), then record_success
  /// or record_failure, counting a failover for every owner that did not
  /// serve. With `every_owner` (a contribution) all owners are visited and
  /// the floor rises to the highest ack; otherwise the first answer at or
  /// above the shard's epoch floor ends the loop and a stale one fails
  /// over. kBadRequest and ContributionRejected rethrow at once; when no
  /// owner answered, throws ServeError{kUnavailable, "no live owner for
  /// shard <g>: <last error>"}.
  template <class Leg>
  void serve_owners(std::size_t shard, bool every_owner, Leg&& leg);

  /// One shard's partial (serve_owners over mine_partial). With
  /// `over_prefix`, `queries` are prefix_'s rows: the owner is sent the
  /// handle it kept them under, or the rows to keep when it has none (a
  /// failover to a replica starts it with none), and a kUnknownPrefix
  /// answer is resent with the rows to the same owner.
  proto::DecodedPartialResponse scatter_partial(std::size_t shard,
                                                const std::string& job,
                                                const proto::JobParams& params,
                                                const data::Dataset& queries,
                                                std::span<const double> radii,
                                                bool over_prefix);

  /// One shard's canonical slice (serve_owners over pool_slice).
  proto::DecodedPoolSlice scatter_slice(std::size_t shard, std::size_t max_records);

  struct Gathered {
    data::Dataset pool;                 ///< canonical (nonce, seq) order
    std::vector<std::uint64_t> epochs;  ///< per shard: the epoch its slice was cut at
  };
  /// Canonical pool across all shards (one slice each, merged by
  /// proto::merge_canonical), truncated to `limit` rows (0 = all). A shard
  /// contributes at most `limit` rows to any global limit-prefix, so
  /// per-shard truncation loses nothing.
  Gathered gather(std::size_t limit);

  /// Failovers, transport retries and dropped connections: every event
  /// after which a shard's next leg may be answered by another owner or by
  /// a reconnected miner.
  [[nodiscard]] std::size_t route_changes() const {
    return failovers_ + client_retries() + drops_;
  }

  /// The kNN/NB query rows: the canonical eval prefix of `limit` rows.
  struct EvalPrefix {
    std::size_t limit = 0;
    std::size_t route_changes = 0;  ///< route_changes() when the gather began
    Gathered gathered;
    /// The last bounded merge over these rows: its job, its resolved params
    /// and each query's k-th merged squared distance (empty: none kept).
    std::string radii_job;
    proto::JobParams radii_params;
    std::vector<double> radii;
    /// Per miner: the handle it kept these rows under (0: none yet).
    std::vector<std::uint64_t> handles;
  };
  /// prefix_ holds the `limit` prefix, every shard's floor still equals the
  /// epoch its slice was cut at, and no route changed since the gather began.
  [[nodiscard]] bool prefix_current(std::size_t limit) const;
  /// Drop prefix_, gather the `limit` prefix afresh and keep it.
  void gather_prefix(std::size_t limit);

  ShardRouterOptions opts_;
  proto::JobRegistry registry_;   ///< merge contracts, router-side
  std::vector<std::unique_ptr<ServeClient>> clients_;  ///< parallel to miners
  std::vector<MinerHealth> health_;                    ///< parallel to miners
  std::vector<std::uint64_t> floors_;                  ///< per-shard epoch floor
  std::optional<EvalPrefix> prefix_;
  std::size_t failovers_ = 0;
  std::size_t retries_accum_ = 0;  ///< retries of since-dropped clients
  std::size_t drops_ = 0;          ///< live connections dropped
  obs::Registry obs_;
  obs::Histogram* hist_fanout_ = nullptr;      ///< router.fanout_ms (per leg)
  obs::Counter* ctr_contributions_ = nullptr;  ///< router.contributions
  obs::Counter* ctr_mine_ = nullptr;           ///< router.mine_requests
  obs::Counter* ctr_prefix_gathers_ = nullptr; ///< router.prefix_gathers
  obs::Counter* ctr_prefix_stale_ = nullptr;   ///< router.prefix_stale
  obs::Counter* ctr_bounded_ = nullptr;        ///< router.bounded_rounds
  obs::Counter* ctr_short_ = nullptr;          ///< router.short_rounds
  obs::Counter* ctr_partial_bytes_ = nullptr;  ///< router.partial_bytes
  obs::Counter* ctr_request_bytes_ = nullptr;  ///< router.partial_request_bytes
  obs::Counter* ctr_prefix_refs_ = nullptr;    ///< router.prefix_refs
  obs::Counter* ctr_prefix_resends_ = nullptr; ///< router.prefix_resends
  obs::Counter* ctr_breaker_opens_ = nullptr;  ///< router.breaker_opens
  std::vector<obs::Gauge*> breaker_gauges_;    ///< router.m<i>.breaker
  std::vector<obs::Counter*> shard_requests_;  ///< router.shard<g>.requests
  std::uint64_t trace_ = 0;                    ///< stamped on downstream frames
  double last_merge_ms_ = 0.0;
};

// ---- router daemon -------------------------------------------------------

struct RouterDaemonOptions {
  ShardRouterOptions router;
  ReactorOptions reactor;  ///< the router's own front door
};

/// The ShardRouter behind a reactor front door, speaking the miner wire
/// protocol — a ServeClient cannot tell a RouterDaemon from a MinerDaemon
/// (it claims the same logical miner id, answers the same payload kinds
/// and runs the same door_frame path; a rejected contribution gets the
/// miner's negative receipt). Requests are mutex-serialized onto the
/// router.
class RouterDaemon {
 public:
  explicit RouterDaemon(RouterDaemonOptions opts);

  [[nodiscard]] SocketAddr local_addr() const { return reactor_->local_addr(); }
  void stop() { reactor_->stop(); }

  /// The wrapped router (stats; callers must not race serving traffic —
  /// which is why this read is intentionally outside the lock analysis:
  /// it is only valid after stop()).
  [[nodiscard]] const ShardRouter& router() const noexcept
      SAP_NO_THREAD_SAFETY_ANALYSIS {
    return router_;
  }
  [[nodiscard]] std::size_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Recent request traces recorded at THIS hop (each fanned-to miner holds
  /// its own records under the same id).
  [[nodiscard]] const obs::TraceRing& traces() const noexcept { return traces_; }

 private:
  /// The router's payload dispatch behind door_frame.
  DoorReply dispatch(const DoorRequest& request);

  RouterDaemonOptions opts_;
  std::uint64_t secret_ = 0;
  proto::PartyId my_id_ = 0;
  Mutex mutex_;
  ShardRouter router_ SAP_GUARDED_BY(mutex_);
  std::atomic<std::size_t> served_{0};
  obs::TraceRing traces_;
  obs::TraceMinter minter_;
  obs::Counter* ctr_refused_ = nullptr;  ///< router.refused (kServeError answers)
  /// Last member: joined before the handler's targets go away.
  std::unique_ptr<Reactor> reactor_;
};

}  // namespace sap::net

#include "net/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "net/fault.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/party_logic.hpp"

namespace sap::net {

std::vector<std::size_t> shard_owners(std::size_t shard, std::size_t members,
                                      std::size_t replicas) {
  std::vector<std::size_t> out;
  out.reserve(replicas);
  for (std::size_t j = 0; j < replicas; ++j) out.push_back((shard + j) % members);
  return out;
}

std::vector<std::size_t> owned_shards(std::size_t member, std::size_t members,
                                      std::size_t replicas) {
  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < members; ++g) {
    const auto owners = shard_owners(g, members, replicas);
    if (std::find(owners.begin(), owners.end(), member) != owners.end()) out.push_back(g);
  }
  return out;
}

// ---- ShardRouter ---------------------------------------------------------

ShardRouter::ShardRouter(ShardRouterOptions opts)
    : opts_(std::move(opts)), registry_(proto::JobRegistry::builtins()) {
  SAP_REQUIRE(!opts_.miners.empty(), "ShardRouter: need at least one miner");
  SAP_REQUIRE(opts_.parties >= 3, "ShardRouter: need at least 3 parties");
  if (opts_.shards == 0) opts_.shards = opts_.miners.size();
  SAP_REQUIRE(opts_.replicas >= 1 && opts_.replicas <= opts_.miners.size(),
              "ShardRouter: replicas must be in [1, miner count]");
  clients_.resize(opts_.miners.size());
  health_.resize(opts_.miners.size());
  floors_.assign(opts_.shards, 0);
  hist_fanout_ = &obs_.histogram("router.fanout_ms");
  ctr_contributions_ = &obs_.counter("router.contributions");
  ctr_mine_ = &obs_.counter("router.mine_requests");
  ctr_prefix_gathers_ = &obs_.counter("router.prefix_gathers");
  ctr_prefix_stale_ = &obs_.counter("router.prefix_stale");
  ctr_bounded_ = &obs_.counter("router.bounded_rounds");
  ctr_short_ = &obs_.counter("router.short_rounds");
  ctr_partial_bytes_ = &obs_.counter("router.partial_bytes");
  ctr_request_bytes_ = &obs_.counter("router.partial_request_bytes");
  ctr_prefix_refs_ = &obs_.counter("router.prefix_refs");
  ctr_prefix_resends_ = &obs_.counter("router.prefix_resends");
  ctr_breaker_opens_ = &obs_.counter("router.breaker_opens");
  breaker_gauges_.reserve(opts_.miners.size());
  for (std::size_t m = 0; m < opts_.miners.size(); ++m)
    breaker_gauges_.push_back(
        &obs_.gauge("router.m" + std::to_string(m) + ".breaker"));
  shard_requests_.reserve(opts_.shards);
  for (std::size_t g = 0; g < opts_.shards; ++g)
    shard_requests_.push_back(
        &obs_.counter("router.shard" + std::to_string(g) + ".requests"));
}

void ShardRouter::set_trace(std::uint64_t id) {
  trace_ = id;
  for (auto& client : clients_)
    if (client) client->set_trace(id);
}

std::vector<std::size_t> ShardRouter::owners(std::size_t shard) const {
  SAP_REQUIRE(shard < opts_.shards, "ShardRouter: shard id out of range");
  return shard_owners(shard, opts_.miners.size(), opts_.replicas);
}

ServeClient& ShardRouter::client_for(std::size_t miner) {
  if (!clients_[miner]) {
    auto& h = health_[miner];
    if (std::chrono::steady_clock::now() < h.dead_until)
      SAP_FAIL("miner " + std::to_string(miner) +
               " skipped by negative-connect cache: " + h.last_connect_error);
    try {
      clients_[miner] = std::make_unique<ServeClient>(
          opts_.miners[miner], opts_.seed, opts_.parties, opts_.client);
    } catch (const Error& e) {
      // Remember the failure so every later owner loop inside the window
      // skips this miner instantly instead of paying the connect deadline
      // again — the dead-primary scatter no longer serializes timeouts.
      h.dead_until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(opts_.negative_cache_ms);
      h.last_connect_error = e.what();
      throw;
    }
    h.dead_until = {};
    clients_[miner]->set_trace(trace_);  // lazy connect mid-request keeps the id
  }
  return *clients_[miner];
}

void ShardRouter::drop_client(std::size_t miner) {
  if (clients_[miner]) {
    retries_accum_ += clients_[miner]->retries();
    clients_[miner].reset();
    ++drops_;
  }
  if (prefix_) prefix_->handles[miner] = 0;
}

std::size_t ShardRouter::client_retries() const {
  std::size_t total = retries_accum_;
  for (const auto& client : clients_)
    if (client) total += client->retries();
  return total;
}

void ShardRouter::record_success(std::size_t miner) {
  auto& h = health_[miner];
  h.failures = 0;
  if (h.state != BreakerState::kClosed) {
    h.state = BreakerState::kClosed;
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kClosed));
  }
}

void ShardRouter::record_failure(std::size_t miner) {
  drop_client(miner);  // dead connection — reconnect on next use
  auto& h = health_[miner];
  ++h.failures;
  if (h.state == BreakerState::kClosed && h.failures >= kBreakerThreshold) {
    h.state = BreakerState::kOpen;
    h.open_until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opts_.breaker_cooldown_ms);
    ctr_breaker_opens_->increment();
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kOpen));
  }
}

bool ShardRouter::admit(std::size_t miner, std::string& why) {
  auto& h = health_[miner];
  if (h.state == BreakerState::kClosed) return true;
  if (h.state == BreakerState::kOpen) {
    if (std::chrono::steady_clock::now() < h.open_until) {
      why = "breaker open for miner " + std::to_string(miner);
      return false;
    }
    h.state = BreakerState::kHalfOpen;
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kHalfOpen));
  }
  // Half-open: one probe through the stats door decides. Success closes
  // the breaker and admits the real request; failure restarts the cooldown.
  try {
    (void)client_for(miner).stats();
    record_success(miner);
    return true;
  } catch (const Error& e) {
    drop_client(miner);
    h.failures = 0;  // the next half-open probe decides alone
    h.state = BreakerState::kOpen;
    h.open_until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opts_.breaker_cooldown_ms);
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kOpen));
    why = "breaker probe failed for miner " + std::to_string(miner) + ": " +
          e.what();
    return false;
  }
}

template <class Leg>
void ShardRouter::serve_owners(std::size_t shard, bool every_owner, Leg&& leg) {
  shard_requests_[shard]->increment();
  bool answered = false;
  std::uint64_t top = floors_[shard];
  std::string last_error = "no owner attempted";
  for (const auto m : owners(shard)) {
    std::string why;
    if (!admit(m, why)) {
      ++failovers_;
      last_error = std::move(why);
      continue;
    }
    try {
      Stopwatch sw;
      const std::uint64_t epoch = leg(client_for(m), m);
      hist_fanout_->record(sw.millis());
      record_success(m);
      if (every_owner) {
        answered = true;
        top = std::max(top, epoch);
        continue;
      }
      if (epoch < floors_[shard]) {
        // Stale replica: it missed an append another owner acked.
        ++failovers_;
        last_error = "stale shard epoch " + std::to_string(epoch) + " < floor " +
                     std::to_string(floors_[shard]);
        continue;
      }
      floors_[shard] = epoch;
      return;
    } catch (const ContributionRejected&) {
      throw;  // the batch itself is bad: every owner would reject it alike
    } catch (const ServeError& e) {
      if (e.code() == proto::ServeErrorCode::kBadRequest) throw;  // definitive
      record_success(m);  // a typed refusal means the miner is alive
      ++failovers_;
      last_error = e.what();
    } catch (const Error& e) {
      record_failure(m);  // transport failure
      ++failovers_;
      last_error = e.what();
    }
  }
  if (!answered)
    throw ServeError(proto::ServeErrorCode::kUnavailable,
                     "no live owner for shard " + std::to_string(shard) + ": " +
                         last_error);
  floors_[shard] = top;
}

proto::DecodedReceipt ShardRouter::contribute_wire(const std::vector<double>& wire) {
  // A kContribution payload is a nonce tag around a dataset — checked like
  // decode_contribution checks it (wire payloads are adversarial input).
  const auto nonce = proto::logic::untag(wire).nonce;
  const auto shard = proto::shard_of_nonce(nonce, opts_.shards, opts_.layout);
  ctr_contributions_->increment();
  // Every owner ingests the batch (that is what makes a replica a valid
  // read target after the primary dies); the first live owner's receipt is
  // the client's (an accepted receipt never carries epoch 0), and the floor
  // rises to the HIGHEST acked epoch so a stale replica can never serve a
  // pre-append view later.
  proto::DecodedReceipt receipt;
  serve_owners(shard, /*every_owner=*/true, [&](ServeClient& client, std::size_t) {
    const auto ack = client.contribute_wire(wire);
    if (receipt.pool_epoch == 0) receipt = ack;
    return ack.pool_epoch;
  });
  return receipt;
}

proto::DecodedPartialResponse ShardRouter::scatter_partial(
    std::size_t shard, const std::string& job, const proto::JobParams& params,
    const data::Dataset& queries, std::span<const double> radii, bool over_prefix) {
  proto::DecodedPartialResponse resp;
  const auto send = [&](ServeClient& client, const data::Dataset& rows, std::uint64_t prefix) {
    const auto request = proto::encode_partial_request(shard, job, params, rows, radii, prefix);
    ctr_request_bytes_->add(sizeof(double) * request.size());
    resp = client.mine_partial_wire(request);
  };
  const std::size_t primary = owners(shard).front();
  serve_owners(shard, /*every_owner=*/false, [&](ServeClient& client, std::size_t m) {
    if (!over_prefix) {
      send(client, queries, proto::kPrefixInline);
      return resp.shard_epoch;
    }
    std::uint64_t& handle = prefix_->handles[m];
    if (m != primary) handle = 0;  // a failover starts the replica with no handle
    if (handle != 0) {
      ctr_prefix_refs_->increment();
      try {
        send(client, data::Dataset{}, handle);
        return resp.shard_epoch;
      } catch (const ServeError& e) {
        // The member no longer holds the rows (evicted, or restarted at
        // the same address): resend them here, no failover counted.
        if (e.code() != proto::ServeErrorCode::kUnknownPrefix) throw;
        ctr_prefix_resends_->increment();
        handle = 0;
      }
    }
    send(client, queries, proto::kPrefixKeep);
    handle = resp.kept;
    return resp.shard_epoch;
  });
  ctr_partial_bytes_->add(sizeof(double) * resp.blob.size());
  return resp;
}

proto::DecodedPoolSlice ShardRouter::scatter_slice(std::size_t shard,
                                                   std::size_t max_records) {
  proto::DecodedPoolSlice resp;
  serve_owners(shard, /*every_owner=*/false, [&](ServeClient& client, std::size_t) {
    resp = client.pool_slice(shard, max_records);
    return resp.shard_epoch;
  });
  return resp;
}

ShardRouter::Gathered ShardRouter::gather(std::size_t limit) {
  std::vector<proto::DecodedPoolSlice> slices;
  slices.reserve(opts_.shards);
  Gathered out;
  for (std::size_t g = 0; g < opts_.shards; ++g) {
    slices.push_back(scatter_slice(g, limit));
    out.epochs.push_back(slices.back().shard_epoch);
  }
  std::vector<proto::KeyedRows> parts;
  parts.reserve(slices.size());
  for (const auto& slice : slices) parts.push_back({&slice.rows, slice.keys});
  out.pool = proto::merge_canonical(parts, limit);
  return out;
}

bool ShardRouter::prefix_current(std::size_t limit) const {
  return prefix_ && prefix_->limit == limit && prefix_->gathered.epochs == floors_ &&
         prefix_->route_changes == route_changes();
}

void ShardRouter::gather_prefix(std::size_t limit) {
  prefix_.reset();
  ctr_prefix_gathers_->increment();
  EvalPrefix next;
  next.limit = limit;
  next.handles.assign(opts_.miners.size(), 0);
  // Counted before the legs: a gather that failed over may hold a slice
  // from a replica while the next partial reaches the recovered primary.
  next.route_changes = route_changes();
  next.gathered = gather(limit);
  SAP_REQUIRE(next.gathered.pool.size() > 0, "ShardRouter: empty pool across shards");
  prefix_ = std::move(next);
}

proto::WireMiningResponse ShardRouter::mine_named(const std::string& job,
                                                  const proto::JobParams& params) {
  ctr_mine_->increment();
  last_merge_ms_ = 0.0;
  if (!registry_.contains(job))
    throw ServeError(proto::ServeErrorCode::kBadRequest, "unknown job: " + job);
  const auto& spec = registry_.find(job);
  proto::JobParams resolved;
  try {
    resolved = spec.resolve_params(params);
  } catch (const Error& e) {
    throw ServeError(proto::ServeErrorCode::kBadRequest, e.what());
  }

  proto::WireMiningResponse response;
  if (spec.mergeable()) {
    // Exact merge: identical to MiningEngine::run_sharded, with the shard
    // views replaced by live miners — queries are the canonical eval
    // prefix, partials one blob per shard, the merge router-side.
    const auto scatter = [&](const data::Dataset& queries, std::span<const double> radii,
                             bool over_prefix) {
      std::vector<std::vector<double>> partials(opts_.shards);
      response.pool_epoch = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t g = 0; g < opts_.shards; ++g) {
        auto partial = scatter_partial(g, job, params, queries, radii, over_prefix);
        response.pool_epoch = std::min(response.pool_epoch, partial.shard_epoch);
        partials[g] = std::move(partial.blob);
      }
      return partials;
    };
    const data::Dataset no_queries;
    proto::MergedRound round;
    if (spec.trainable()) {
      std::size_t limit = 0;
      const auto it = resolved.find("eval-records");
      if (it != resolved.end()) limit = static_cast<std::size_t>(it->second);
      // One round over the prefix. A partial that reads no queries gets an
      // empty block: the prefix stays here for the merge. One that reads
      // them gets each member's handle for them, or the rows to keep.
      const auto serve_prefix = [&](std::span<const double> radii) {
        const data::Dataset& pool = prefix_->gathered.pool;
        auto served = proto::merge_round(
            spec, pool, resolved, radii, [&](std::span<const double> sent) {
              return spec.partial_reads_queries ? scatter(pool, sent, true)
                                                : scatter(no_queries, sent, false);
            });
        if (served.rerun) ctr_short_->increment();
        return served;
      };
      const bool reused = prefix_current(limit);
      if (!reused) gather_prefix(limit);
      // Radii kept from the last merge of this job and params over these
      // rows bound the partials; any radii are exact (DESIGN.md §11).
      const bool kept = prefix_->radii_job == job && prefix_->radii_params == resolved;
      round = serve_prefix(kept ? std::span<const double>(prefix_->radii)
                                : std::span<const double>{});
      // The partials confirm a reused prefix: every floor must still sit at
      // its slice's epoch and no route may have changed. If not (an append
      // that bypassed this router, or another owner answered), gather and
      // run the partials again, unbounded; that pair is accepted as any
      // fresh one is.
      if (reused && !prefix_current(limit)) {
        ctr_prefix_stale_->increment();
        gather_prefix(limit);
        round = serve_prefix({});
      }
      if (spec.bounded()) {
        prefix_->radii_job = job;
        prefix_->radii_params = resolved;
        prefix_->radii = std::move(round.radii);
      }
    } else {
      round = proto::merge_round(spec, no_queries, resolved, {},
                                 [&](std::span<const double> sent) {
                                   return scatter(no_queries, sent, false);
                                 });
    }
    if (round.bounded) ctr_bounded_->increment();
    last_merge_ms_ = round.merge_ms;  // the kMerge trace stage: router-side reassembly
    response.values = std::move(round.values);
    return response;
  }

  // No exact merge: reassemble the canonical pool and run the job flat, as a
  // sharded MiningEngine does (uncached — the rows just crossed the wire and
  // the next request may see a different epoch).
  const auto gathered = gather(0);
  SAP_REQUIRE(gathered.pool.size() > 0, "ShardRouter: empty pool across shards");
  Stopwatch merge_sw;  // kMerge: reassembled-pool execution, router-side
  response.values = proto::run_gathered(spec, gathered.pool, resolved).values;
  last_merge_ms_ = merge_sw.millis();
  response.pool_epoch = *std::min_element(gathered.epochs.begin(), gathered.epochs.end());
  return response;
}

obs::Snapshot ShardRouter::cluster_stats() {
  // The member fan-out runs first: its record_success/record_failure move
  // the breakers, so the router's own snapshot, taken after it, reports
  // the breaker states this poll left behind.
  std::vector<obs::Snapshot> members;
  std::size_t unreachable = 0;
  for (std::size_t m = 0; m < opts_.miners.size(); ++m) {
    try {
      auto decoded = client_for(m).stats();
      // An operator stats poll doubles as the half-open probe: a miner
      // that answers its stats door has its breaker closed again.
      record_success(m);
      std::string prefix = "m";
      prefix += std::to_string(m);
      prefix += '.';
      for (auto& g : decoded.snapshot.gauges) g.first = prefix + g.first;
      decoded.snapshot.normalize();
      members.push_back(std::move(decoded.snapshot));
    } catch (const Error&) {
      record_failure(m);
      ++unreachable;
    }
  }

  obs::Snapshot total = obs_.snapshot();
  total.set_counter("router.failovers", failovers_);
  total.set_counter("router.retries", client_retries());
  // This process's own fault injection (--fault / SAP_FAULT), same export
  // as MinerDaemon::stats_snapshot — counters merge by addition, so the
  // aggregate reads as cluster-wide injections.
  fault::export_stats(total);
  // Per-shard skew: hottest shard's request count over the mean (1.0 =
  // perfectly even). Derived at snapshot time from the per-shard counters.
  std::uint64_t peak = 0;
  std::uint64_t sum = 0;
  for (const auto* ctr : shard_requests_) {
    const auto v = ctr->value();
    peak = std::max(peak, v);
    sum += v;
  }
  if (sum > 0)
    total.set_gauge("router.shard_skew",
                    static_cast<double>(peak) * static_cast<double>(opts_.shards) /
                        static_cast<double>(sum));
  for (const auto& member : members) total.merge(member);
  total.set_gauge("router.stats_unreachable", static_cast<double>(unreachable));
  total.normalize();
  return total;
}

// ---- RouterDaemon --------------------------------------------------------

RouterDaemon::RouterDaemon(RouterDaemonOptions opts)
    : opts_(std::move(opts)),
      router_(opts_.router),
      // A different door salt than the miners' (they salt with the raw
      // seed), so router-minted and miner-minted ids stay distinguishable.
      minter_(opts_.router.seed ^ 0xD00Dull) {
  const auto seeds =
      proto::logic::derive_session_seeds(opts_.router.seed, opts_.router.parties);
  secret_ = seeds.session_secret;
  my_id_ = static_cast<proto::PartyId>(opts_.router.parties);
  {
    MutexLock lk(mutex_);
    ctr_refused_ = &router_.metrics().counter("router.refused");
    opts_.reactor.metrics = &router_.metrics();
  }
  // This door mints when a request rode untraced; the id propagates to
  // every fanned-to miner (ShardRouter::set_trace) and echoes back to the
  // client, so one id names the whole scatter-gather.
  reactor_ = std::make_unique<Reactor>(opts_.reactor, my_id_, [this](const Frame& frame) {
    return door_frame(frame, my_id_, secret_, minter_, traces_,
                      [this](const DoorRequest& request) { return dispatch(request); });
  });
}

DoorReply RouterDaemon::dispatch(const DoorRequest& request) {
  if (request.kind != proto::PayloadKind::kStatsRequest)
    served_.fetch_add(1, std::memory_order_relaxed);
  DoorReply reply;
  try {
    switch (request.kind) {
      case proto::PayloadKind::kContribution: {
        reply.kind = proto::PayloadKind::kContributionAck;
        MutexLock lk(mutex_);
        router_.set_trace(request.trace);
        try {
          const auto receipt = router_.contribute_wire(request.payload);
          reply.wire = proto::encode_receipt(receipt.pool_epoch, receipt.pool_records);
        } catch (const ContributionRejected&) {
          // The owner sent the negative receipt; this door answers with it
          // too, exactly as a miner door answers a batch it rejects.
          reply.wire = proto::encode_receipt(/*pool_epoch=*/0, /*pool_records=*/0);
        }
        break;
      }
      case proto::PayloadKind::kMiningRequest: {
        const auto mining = proto::decode_mining_request(request.payload);
        MutexLock lk(mutex_);
        router_.set_trace(request.trace);
        const auto response = router_.mine_named(mining.job, mining.params);
        reply.merge_ms = router_.last_merge_ms();
        reply.kind = proto::PayloadKind::kMiningResponse;
        reply.wire = proto::encode_mining_response(response);
        break;
      }
      case proto::PayloadKind::kStatsRequest: {
        // The cluster aggregate: router metrics + every miner's snapshot
        // (exact counter/histogram merge), with THIS hop's traces. Does
        // not count toward requests_served_ — measurement must not move
        // what it measures.
        proto::decode_stats_request(request.payload);
        MutexLock lk(mutex_);
        router_.set_trace(0);  // the stats fan-out itself rides untraced
        const auto snap = router_.cluster_stats();
        reply.kind = proto::PayloadKind::kStatsResponse;
        reply.wire = proto::encode_stats_response(snap, traces_.recent(32));
        break;
      }
      default:
        SAP_FAIL("RouterDaemon: the router serves only contributions, "
                 "mining requests, and stats");
    }
  } catch (const ServeError& e) {
    // Forward the typed code verbatim — the client's failover logic (if
    // it has one above the router) must see what the cluster saw.
    ctr_refused_->increment();
    reply.kind = proto::PayloadKind::kServeError;
    reply.wire = proto::encode_serve_error(e.code(), e.what());
  }
  return reply;
}

}  // namespace sap::net

#include "net/remote.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/wire.hpp"
#include "net/fault.hpp"
#include "rng/rng.hpp"

namespace sap::net {

std::uint64_t dataset_digest(const data::Dataset& ds) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001B3ULL;
  };
  mix(ds.size());
  mix(ds.dims());
  for (const double v : ds.features().data()) mix(std::bit_cast<std::uint64_t>(v));
  for (const int label : ds.labels()) mix(static_cast<std::uint64_t>(label));
  return h;
}

std::uint64_t dataset_multiset_digest(const data::Dataset& ds) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const double v : ds.record(i)) {
      h ^= std::bit_cast<std::uint64_t>(v);
      h *= 0x100000001B3ULL;
    }
    h ^= static_cast<std::uint64_t>(ds.label(i));
    h *= 0x100000001B3ULL;
    acc += h;  // commutative combine
  }
  return acc;
}

proto::SapOptions serving_session_options(double noise_sigma, std::uint64_t seed,
                                          std::size_t optimize_threads) {
  proto::SapOptions opts;
  opts.noise_sigma = noise_sigma;
  opts.seed = seed;
  opts.compute_satisfaction = false;
  opts.optimizer.candidates = 6;
  opts.optimizer.refine_steps = 3;
  opts.optimizer.threads = optimize_threads;
  opts.optimizer.attacks = {.naive = true, .ica = true, .known_inputs = 4};
  return opts;
}

// ---- the serving door's frame path ---------------------------------------

std::vector<Frame> door_frame(const Frame& frame, proto::PartyId self, std::uint64_t secret,
                              obs::TraceMinter& minter, obs::TraceRing& traces,
                              const DoorDispatch& dispatch,
                              const std::function<void(const std::string&)>& log) {
  // Trace bookkeeping is pure measurement: adopt the id the frame rode in
  // with (a router minted it at ITS door) or mint one here; every response
  // echoes it. Stage clocks are stamped at boundaries only (rule R6).
  const auto kind = static_cast<proto::PayloadKind>(frame.payload_kind);
  const std::uint64_t trace_id = frame.trace != 0 ? frame.trace : minter.mint();
  const bool traced =
      obs::enabled() && kind != proto::PayloadKind::kStatsRequest;  // no self-noise
  obs::TraceRecord rec;
  rec.id = trace_id;
  rec.op = proto::to_string(kind);
  const auto stage = [&rec](obs::Stage s) -> double& {
    return rec.stage_ms[static_cast<std::size_t>(s)];
  };
  const auto ms_since = [](std::uint64_t t0, std::uint64_t t1) {
    return static_cast<double>(t1 - t0) / 1e6;
  };
  const std::uint64_t t_entry = steady_now_ns();
  if (frame.recv_steady_ns != 0 && t_entry > frame.recv_steady_ns)
    stage(obs::Stage::kQueue) = ms_since(frame.recv_steady_ns, t_entry);
  Frame out;
  out.from = self;
  out.to = frame.from;
  out.trace = trace_id;
  try {
    const auto payload =
        open_body(frame.body, proto::detail::derive_link_key(secret, frame.from, self));
    const std::uint64_t t_decoded = steady_now_ns();
    stage(obs::Stage::kDecode) = ms_since(t_entry, t_decoded);
    const DoorReply reply = dispatch({kind, payload, trace_id});
    const std::uint64_t t_served = steady_now_ns();
    // A router's "serve" is its downstream fan-out; its reassembly reports
    // separately as kMerge (0 at a miner).
    stage(obs::Stage::kMerge) = reply.merge_ms;
    stage(obs::Stage::kServe) = std::max(0.0, ms_since(t_decoded, t_served) - reply.merge_ms);
    out.type = FrameType::kData;
    out.payload_kind = static_cast<std::uint8_t>(reply.kind);
    out.body = seal_body(reply.wire, proto::detail::derive_link_key(secret, self, frame.from));
    stage(obs::Stage::kWrite) = ms_since(t_served, steady_now_ns());
  } catch (const Error& e) {
    // Per-request containment — answer kError so the client fails fast
    // instead of timing out.
    if (log) log(with_throw_site(e));
    out.type = FrameType::kError;
    out.payload_kind = 0;
    out.body = text_body(e.what());
  }
  if (traced) traces.push(std::move(rec));
  std::vector<Frame> frames;
  frames.push_back(std::move(out));
  return frames;
}

// ---- PrefixTable ---------------------------------------------------------

namespace {

/// The next eval-prefix handle of this process: its instance nonce plus a
/// process-wide counter, folded into [kFirstPrefixHandle, 2^53) so it rides
/// the wire exactly. Every daemon in the process draws from one counter, so
/// no two of them issue the same handle either.
std::uint64_t next_prefix_handle() {
  static const std::uint64_t instance = rng::entropy_word();
  static std::atomic<std::uint64_t> issued{0};
  constexpr std::uint64_t span = wire::kDoubleExactLimit - proto::kFirstPrefixHandle;
  return proto::kFirstPrefixHandle +
         (instance % span + issued.fetch_add(1, std::memory_order_relaxed)) % span;
}

}  // namespace

std::uint64_t PrefixTable::keep(data::Dataset rows) {
  auto kept = std::make_shared<const data::Dataset>(std::move(rows));
  const std::uint64_t handle = next_prefix_handle();
  MutexLock lock(mutex_);
  kept_.emplace_back(handle, std::move(kept));
  if (kept_.size() > kCapacity) kept_.pop_front();
  return handle;
}

std::shared_ptr<const data::Dataset> PrefixTable::find(std::uint64_t handle) const {
  MutexLock lock(mutex_);
  for (const auto& [h, rows] : kept_)
    if (h == handle) return rows;
  return nullptr;
}

std::size_t PrefixTable::size() const {
  MutexLock lock(mutex_);
  return kept_.size();
}

// ---- MinerDaemon ---------------------------------------------------------

MinerDaemon::MinerDaemon(MinerDaemonOptions opts)
    : opts_(std::move(opts)),
      engine_({.shards = opts_.shards,
               .layout = opts_.shard_layout,
               .owned = opts_.owned_shards}),
      minter_(opts_.seed) {
  SAP_REQUIRE(opts_.parties >= 3, "MinerDaemon: need at least 3 parties");
  SAP_REQUIRE(opts_.reactor_loops >= 1, "MinerDaemon: the door needs >= 1 loop");
  const auto seeds = proto::logic::derive_session_seeds(opts_.seed, opts_.parties);
  secret_ = seeds.session_secret;
  miner_id_ = static_cast<proto::PartyId>(opts_.parties);
  // Register the hot-path metric slots once — serving threads only touch
  // the lock-free record path through these pointers (DESIGN.md §12).
  hist_serve_ms_ = &obs_.histogram("engine.serve_ms");
  hist_fit_ms_ = &obs_.histogram("engine.fit_ms");
  ctr_ingest_records_ = &obs_.counter("ingest.records");
  ctr_ingest_rejected_ = &obs_.counter("ingest.rejected");
  ctr_refused_bad_ = &obs_.counter("serve.refused.bad_request");
  ctr_refused_owner_ = &obs_.counter("serve.refused.not_owner");
  ctr_refused_unavail_ = &obs_.counter("serve.refused.unavailable");
  ctr_prefix_kept_ = &obs_.counter("serve.prefix.kept");
  ctr_prefix_hits_ = &obs_.counter("serve.prefix.hits");
  ctr_prefix_misses_ = &obs_.counter("serve.prefix.misses");
  g_ingest_epoch_ = &obs_.gauge("ingest.epoch");
  ReactorOptions ropts;
  ropts.listen = opts_.listen;
  ropts.loops = opts_.reactor_loops;
  ropts.compute_threads = opts_.reactor_compute_threads;
  ropts.idle_timeout_ms = opts_.reactor_idle_timeout_ms;
  ropts.metrics = &obs_;  // reactor.queue_wait_ms / handler_ms / writev_batch
  // The door binds (and accepts) immediately: parties claim their ids and
  // route the exchange through it at once, while serve_frame refuses every
  // serving request until the exchange installs the pool (serving_ flips
  // in run()).
  reactor_ = std::make_unique<Reactor>(
      ropts, miner_id_, [this](const Frame& frame) { return serve_frame(frame); });
}

void MinerDaemon::note(const std::string& line) const {
  if (!opts_.log) return;
  MutexLock lk(log_mutex_);
  opts_.log(line);
}

void MinerDaemon::serve_error(proto::ServeErrorCode code, const std::string& message,
                              proto::PayloadKind& out_kind,
                              std::vector<double>& out_wire) const {
  switch (code) {
    case proto::ServeErrorCode::kBadRequest: ctr_refused_bad_->increment(); break;
    case proto::ServeErrorCode::kNotOwner: ctr_refused_owner_->increment(); break;
    case proto::ServeErrorCode::kUnavailable: ctr_refused_unavail_->increment(); break;
    case proto::ServeErrorCode::kUnknownPrefix: ctr_prefix_misses_->increment(); break;
  }
  note("refused (" + proto::to_string(code) + "): " + message);
  out_kind = proto::PayloadKind::kServeError;
  out_wire = proto::encode_serve_error(code, message);
}

bool MinerDaemon::serve_payload(proto::PayloadKind kind, std::span<const double> payload,
                                proto::PayloadKind& out_kind,
                                std::vector<double>& out_wire) {
  switch (kind) {
    case proto::PayloadKind::kContribution: {
      out_kind = proto::PayloadKind::kContributionAck;
      try {
        const auto contribution = proto::decode_contribution(payload);
        // Cluster routing check FIRST: an unowned nonce is a typed refusal
        // (the router must retry the owner), never a negative receipt (which
        // means "this batch is bad" — definitively).
        const auto global = proto::shard_of_nonce(contribution.nonce,
                                                  engine_.total_shards(),
                                                  engine_.layout());
        if (!engine_.owns(global)) {
          serve_error(proto::ServeErrorCode::kNotOwner,
                      "shard " + std::to_string(global) + " is not owned here",
                      out_kind, out_wire);
          return true;
        }
        const auto it =
            std::find_if(adaptors_.begin(), adaptors_.end(), [&](const auto& a) {
              return a.first == contribution.nonce;
            });
        SAP_REQUIRE(it != adaptors_.end(),
                    "MinerDaemon: contribution from unknown party (no adaptor for "
                    "nonce)");
        const auto batch = proto::logic::adapt_contribution(contribution, it->second, dims_);
        const auto epoch = engine_.append_records(contribution.nonce, batch);
        // The receipt's record count is the OWNING shard's size — for the
        // classic single-shard daemon that is the whole pool, bit-identical
        // to the pre-cluster receipts.
        const auto records = engine_.shard_view(global).snap->rows.size();
        out_wire = proto::encode_receipt(epoch, records);
        contributions_.fetch_add(1, std::memory_order_relaxed);
        ctr_ingest_records_->add(batch.size());
        g_ingest_epoch_->set(static_cast<double>(epoch));
        note("contribution accepted: shard " + std::to_string(global) + " at " +
             std::to_string(records) + " records, epoch " + std::to_string(epoch));
      } catch (const Error& e) {
        // Negative receipt (epoch 0): the contributor learns of the
        // rejection immediately instead of stalling out its deadline.
        note("rejected contribution: " + with_throw_site(e));
        ctr_ingest_rejected_->increment();
        out_wire = proto::encode_receipt(/*pool_epoch=*/0, /*pool_records=*/0);
      }
      return true;
    }
    case proto::PayloadKind::kMiningRequest: {
      // Refusals count as served requests (they were dispatched and
      // answered) — the pre-cluster contract, now with typed errors.
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      const auto request = proto::decode_mining_request(payload);
      // A request naming an absent job (or malformed params) is DEFINITIVE:
      // kServeError{kBadRequest}, so a router never wastes a failover on it.
      // The pre-cluster daemon answered an empty kMiningResponse here, which
      // a client could not tell from a jobless report.
      if (!request.job.empty() && !engine_.registry().contains(request.job)) {
        serve_error(proto::ServeErrorCode::kBadRequest, "unknown job: " + request.job,
                    out_kind, out_wire);
        return true;
      }
      if (!request.job.empty()) {
        try {
          (void)engine_.registry().find(request.job).resolve_params(request.params);
        } catch (const Error& e) {
          serve_error(proto::ServeErrorCode::kBadRequest, e.what(), out_kind, out_wire);
          return true;
        }
      }
      try {
        const auto response = engine_.run({request.job, request.params});
        hist_serve_ms_->record(response.millis);
        hist_fit_ms_->record(response.fit_millis);
        proto::WireMiningResponse wire;
        wire.pool_epoch = response.pool_epoch;
        wire.model_cached = response.model_cached;
        wire.model_incremental = response.model_incremental;
        wire.values = response.values;
        out_kind = proto::PayloadKind::kMiningResponse;
        out_wire = proto::encode_mining_response(wire);
      } catch (const Error& e) {
        // Job and params validated above — what remains is engine state
        // (pool not installed yet, shard mid-install): transient.
        serve_error(proto::ServeErrorCode::kUnavailable, e.what(), out_kind, out_wire);
      }
      return true;
    }
    case proto::PayloadKind::kPartialRequest: {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      auto request = proto::decode_partial_request(payload);
      if (request.shard >= engine_.total_shards() || !engine_.owns(request.shard)) {
        serve_error(proto::ServeErrorCode::kNotOwner,
                    "shard " + std::to_string(request.shard) + " is not owned here",
                    out_kind, out_wire);
        return true;
      }
      if (!engine_.registry().contains(request.job) ||
          !engine_.registry().find(request.job).mergeable()) {
        serve_error(proto::ServeErrorCode::kBadRequest,
                    "no exact-merge contract for job: " + request.job, out_kind,
                    out_wire);
        return true;
      }
      // Every other owner would refuse the same request alike, so these
      // refusals are definitive too: a router spends no failover on them.
      const auto& spec = engine_.registry().find(request.job);
      try {
        (void)spec.resolve_params(request.params);
      } catch (const Error& e) {
        serve_error(proto::ServeErrorCode::kBadRequest, e.what(), out_kind, out_wire);
        return true;
      }
      // The prefix word (DESIGN.md §11, "Eval prefix by handle"): keeping
      // rows, or naming kept ones, only fits a partial that reads them, and
      // a handle replaces the row block rather than riding beside it. Kept
      // rows were checked when they were kept.
      const bool keep = request.prefix == proto::kPrefixKeep;
      const bool by_handle = request.prefix >= proto::kFirstPrefixHandle;
      if ((keep || by_handle) && !spec.partial_reads_queries) {
        serve_error(proto::ServeErrorCode::kBadRequest,
                    "job " + request.job + " reads no queries to keep or name by handle",
                    out_kind, out_wire);
        return true;
      }
      if (keep && request.queries.size() == 0) {
        serve_error(proto::ServeErrorCode::kBadRequest,
                    "nothing to keep: the query block is empty", out_kind, out_wire);
        return true;
      }
      if (by_handle && request.queries.size() > 0) {
        serve_error(proto::ServeErrorCode::kBadRequest,
                    "a prefix handle with a non-empty query block", out_kind, out_wire);
        return true;
      }
      std::shared_ptr<const data::Dataset> kept;
      if (by_handle) {
        kept = prefixes_.find(request.prefix);
        if (kept == nullptr) {
          serve_error(proto::ServeErrorCode::kUnknownPrefix,
                      "no kept prefix " + std::to_string(request.prefix), out_kind, out_wire);
          return true;
        }
        ctr_prefix_hits_->increment();
      } else if (request.queries.size() > 0 && request.queries.dims() != dims_) {
        serve_error(proto::ServeErrorCode::kBadRequest,
                    "query width " + std::to_string(request.queries.dims()) +
                        " does not match the pool's " + std::to_string(dims_),
                    out_kind, out_wire);
        return true;
      }
      const data::Dataset& queries = by_handle ? *kept : request.queries;
      const auto& radii = request.radii;
      if (!radii.empty() &&
          (!spec.bounded() || radii.size() != queries.size() ||
           !std::all_of(radii.begin(), radii.end(),
                        [](double r) { return std::isfinite(r) && r >= 0.0; }))) {
        serve_error(proto::ServeErrorCode::kBadRequest,
                    "radii must be one finite, non-negative radius per query of a "
                    "bounded job",
                    out_kind, out_wire);
        return true;
      }
      try {
        const auto partial =
            engine_.run_partial(request.shard, {request.job, request.params}, queries, radii);
        std::uint64_t handle = 0;
        if (keep) {
          handle = prefixes_.keep(std::move(request.queries));
          ctr_prefix_kept_->increment();
        }
        out_kind = proto::PayloadKind::kPartialResponse;
        out_wire = proto::encode_partial_response(partial.pool_epoch, partial.values, handle);
      } catch (const Error& e) {
        serve_error(proto::ServeErrorCode::kUnavailable, e.what(), out_kind, out_wire);
      }
      return true;
    }
    case proto::PayloadKind::kPoolSliceRequest: {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      const auto request = proto::decode_pool_slice_request(payload);
      if (request.shard >= engine_.total_shards() || !engine_.owns(request.shard)) {
        serve_error(proto::ServeErrorCode::kNotOwner,
                    "shard " + std::to_string(request.shard) + " is not owned here",
                    out_kind, out_wire);
        return true;
      }
      try {
        const auto slice = engine_.shard_slice(request.shard, request.max_records);
        out_kind = proto::PayloadKind::kPoolSliceResponse;
        out_wire = proto::encode_pool_slice(slice.epoch, slice.rows, slice.keys);
      } catch (const Error& e) {
        serve_error(proto::ServeErrorCode::kUnavailable, e.what(), out_kind, out_wire);
      }
      return true;
    }
    case proto::PayloadKind::kShardSnapshotRequest: {
      // The resync door (DESIGN.md §13): one owned shard's ARRIVAL-order
      // rows + keys at the shard's CURRENT epoch. Arrival order — not the
      // canonical order shard_slice serves — because the rejoiner installs
      // this verbatim and arrival order is what incremental partial_fit
      // lineage (and therefore bit-identical serving) derives from.
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      const auto shard = proto::decode_shard_snapshot_request(payload);
      if (shard >= engine_.total_shards() || !engine_.owns(shard)) {
        serve_error(proto::ServeErrorCode::kNotOwner,
                    "shard " + std::to_string(shard) + " is not owned here",
                    out_kind, out_wire);
        return true;
      }
      try {
        const auto view = engine_.shard_view(shard);
        SAP_REQUIRE(view.snap != nullptr, "shard not installed yet");
        out_kind = proto::PayloadKind::kShardSnapshotResponse;
        out_wire = proto::encode_pool_slice(view.epoch, view.snap->rows, view.snap->keys);
      } catch (const Error& e) {
        serve_error(proto::ServeErrorCode::kUnavailable, e.what(), out_kind, out_wire);
      }
      return true;
    }
    case proto::PayloadKind::kStatsRequest: {
      // The stats door rides the SAME dispatch as serving traffic. It does
      // not count toward requests_served_ (pure measurement must not move
      // the serving counters it reports).
      proto::decode_stats_request(payload);
      out_kind = proto::PayloadKind::kStatsResponse;
      out_wire = proto::encode_stats_response(stats_snapshot(), traces_.recent(32));
      return true;
    }
    default:
      return false;  // reports and stray exchange kinds: nothing to serve
  }
}

obs::Snapshot MinerDaemon::stats_snapshot() {
  obs::Snapshot snap = obs_.snapshot();
  snap.set_counter("serve.requests", requests_served_.load(std::memory_order_relaxed));
  snap.set_counter("ingest.batches", contributions_.load(std::memory_order_relaxed));
  snap.set_counter("trace.records", traces_.total());
  const auto cache = engine_.cache_stats();
  snap.set_counter("engine.cache.fits", cache.fits);
  snap.set_counter("engine.cache.incremental", cache.incremental);
  snap.set_counter("engine.cache.hits", cache.hits);
  snap.set_gauge("engine.cache.entries", static_cast<double>(cache.entries));
  snap.set_gauge("serve.prefix.held", static_cast<double>(prefixes_.size()));
  if (serving_.load(std::memory_order_acquire)) {
    // Pool shape: records + live snapshot refcounts over owned shards, the
    // epoch watermark, and how far the hottest shard runs ahead of it.
    std::size_t records = 0;
    long refs = 0;
    std::uint64_t max_epoch = 0;
    if (engine_.total_shards() == 1) {
      const auto view = engine_.pool_view();
      if (view.data) {
        records = view.data->size();
        refs = view.data.use_count();
        max_epoch = view.epoch;
      }
    } else {
      for (const auto g : engine_.owned_shards()) {
        const auto view = engine_.shard_view(g);
        records += view.snap->rows.size();
        refs += view.snap.use_count();
        max_epoch = std::max(max_epoch, view.epoch);
      }
    }
    const std::uint64_t watermark = engine_.pool_epoch();
    snap.set_gauge("pool.records", static_cast<double>(records));
    snap.set_gauge("pool.epoch", static_cast<double>(watermark));
    snap.set_gauge("pool.snapshot_refs", static_cast<double>(refs));
    snap.set_gauge("ingest.watermark_lag", static_cast<double>(max_epoch - watermark));
  }
  {
    const auto rs = reactor_->stats();
    snap.set_counter("reactor.accepted", rs.accepted);
    snap.set_counter("reactor.refused", rs.refused);
    snap.set_counter("reactor.evicted_idle", rs.evicted_idle);
    snap.set_counter("reactor.requests", rs.requests);
    snap.set_counter("reactor.responses", rs.responses);
    snap.set_counter("reactor.shed", rs.shed);
    snap.set_gauge("reactor.live", static_cast<double>(rs.live));
    snap.set_gauge("reactor.queue_depth", static_cast<double>(rs.queue_depth));
    for (std::size_t i = 0; i < rs.loop_conns.size(); ++i)
      snap.set_gauge("reactor.loop" + std::to_string(i) + ".conns",
                     static_cast<double>(rs.loop_conns[i]));
    snap.set_counter("reactor.compute.tasks", reactor_->compute_stats().tasks);
  }
  fault::export_stats(snap);
  snap.normalize();
  return snap;
}

std::vector<Frame> MinerDaemon::serve_frame(const Frame& frame) {
  const auto kind = static_cast<proto::PayloadKind>(frame.payload_kind);
  if (kind == proto::PayloadKind::kForwardedData ||
      kind == proto::PayloadKind::kAdaptorSequence) {
    {
      MutexLock lock(mail_mutex_);
      if (!mail_closed_) {
        mail_.push_back(frame);
        mail_cv_.notify_all();
        return {};
      }
    }
    note("ignored late " + proto::to_string(kind) + " at the door");
    return {};
  }
  return door_frame(
      frame, miner_id_, secret_, minter_, traces_,
      [this](const DoorRequest& request) {
        SAP_REQUIRE(serving_.load(std::memory_order_acquire),
                    "MinerDaemon: not serving yet (exchange in progress)");
        DoorReply reply;
        SAP_REQUIRE(serve_payload(request.kind, request.payload, reply.kind, reply.wire),
                    "MinerDaemon: the serving door serves only contributions, mining "
                    "requests, partials, pool slices, shard snapshots, and stats");
        return reply;
      },
      [this](const std::string& why) { note("serving door rejected request: " + why); });
}

Frame MinerDaemon::sealed(proto::PartyId to, proto::PayloadKind kind,
                          std::span<const double> payload) const {
  Frame frame;
  frame.type = FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(kind);
  frame.from = miner_id_;
  frame.to = to;
  frame.body = seal_body(payload, proto::detail::derive_link_key(secret_, miner_id_, to));
  return frame;
}

std::vector<proto::logic::Mail> MinerDaemon::take_mail(
    proto::logic::Step step, std::vector<proto::logic::Expect> expects,
    std::chrono::steady_clock::time_point deadline) {
  proto::logic::Mailbag bag(std::move(expects));
  while (!bag.complete()) {
    SAP_REQUIRE(std::chrono::steady_clock::now() < deadline,
                "MinerDaemon: exchange timed out at step " + proto::logic::to_string(step) +
                    " waiting for " + bag.missing() + " (missing party?)");
    Frame frame;
    {
      MutexLock lock(mail_mutex_);
      bool awake = true;
      while (awake && mail_.empty()) awake = mail_cv_.wait_until(lock, deadline);
      if (mail_.empty()) continue;  // the deadline check above ends the phase
      frame = std::move(mail_.front());
      mail_.pop_front();
    }
    // Per-message containment: a frame that does not open under its link
    // key, comes from a sender the step does not allow, or is surplus is
    // noted and skipped — only the deadline aborts the exchange.
    const auto kind = static_cast<proto::PayloadKind>(frame.payload_kind);
    const std::string what = proto::to_string(kind) + " from " + std::to_string(frame.from);
    try {
      proto::logic::Mail mail{
          frame.from, kind,
          open_body(frame.body, proto::detail::derive_link_key(secret_, frame.from, miner_id_))};
      if (bag.offer(mail) != proto::logic::Mailbag::Fit::kTaken)
        note("dropped " + what + ": not a sender or count step " +
             proto::logic::to_string(step) + " takes");
    } catch (const Error& e) {
      note("rejected " + what + " during the exchange: " + with_throw_site(e));
    }
  }
  return bag.take();
}

MinerDaemon::Summary MinerDaemon::run() {
  const std::size_t k = opts_.parties;
  Summary summary;

  // ---- exchange: the miner role's steps, fed from the exchange mailbox ---
  // ONE absolute deadline for the whole exchange phase: junk traffic must
  // not keep resetting the window, or a missing party would never surface
  // while any other client is chatty.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.exchange_timeout_ms);
  proto::logic::Miner miner(k);
  for (const auto step : proto::logic::kSteps)
    for (const auto& send : miner.run(step, take_mail(step, miner.expects(step), deadline)))
      reactor_->send(sealed(send.to, send.kind, send.payload));
  {
    // From here on, exchange kinds at the door are late: noted and dropped.
    MutexLock lock(mail_mutex_);
    mail_closed_ = true;
    mail_.clear();
  }
  auto unified = miner.take_pool();
  adaptors_ = std::move(unified.adaptors);
  dims_ = unified.pool.dims();
  summary.pool_records = unified.pool.size();
  // Install per-nonce segments, not the flat pool: the (nonce, seq) keys are
  // what make contributions route to stable shards and exact merges order
  // canonically. The segments are in pool order (ascending nonce), so for a
  // single-shard daemon the installed rows are bit-identical to set_pool.
  {
    std::vector<proto::PoolSegment> segments;
    segments.reserve(unified.segments.size());
    std::size_t at = 0;
    for (const auto& segment : unified.segments) {
      segments.push_back({segment.nonce, unified.pool.slice(at, at + segment.records)});
      at += segment.records;
    }
    SAP_REQUIRE(at == unified.pool.size(),
                "MinerDaemon: segment sizes do not cover the unified pool");
    engine_.set_pool_segments(std::move(segments));
  }
  if (engine_.total_shards() == 1) {
    note("pool installed: " + std::to_string(summary.pool_records) + " records, digest " +
         std::to_string(dataset_digest(*engine_.pool_view().data)));
  } else {
    std::string line = "pool installed: ";
    line += std::to_string(summary.pool_records);
    line += " records across owned shards{";
    for (const auto g : engine_.owned_shards()) {
      line += " ";
      line += std::to_string(g);
      line += ":";
      line += std::to_string(engine_.shard_view(g).snap->rows.size());
    }
    line += " }";
    note(line);
  }
  // Rejoin resync: a restarted miner's exchange re-derives the adaptors and
  // the INITIAL pool deterministically, but contributions streamed while it
  // was dead live only on surviving replicas — pull them before serving so
  // the router's epoch floors accept this miner again.
  if (!opts_.resync_peers.empty()) resync_owned_shards();
  // adaptors_/dims_/engine_ pool are frozen now — the door's compute lanes
  // may start dispatching the moment this store is visible.
  serving_.store(true, std::memory_order_release);
  // Tell every party that serving has started, over its party link. A
  // party that already left is dropped at the door.
  for (proto::PartyId i = 0; i < k; ++i)
    reactor_->send(sealed(i, proto::PayloadKind::kServingStarted, {}));

  // ---- serve until every party link has closed ---------------------------
  while (reactor_->parties() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // The parties are gone: close the door too (joins its threads), so the
  // counters below are final and destruction order never matters.
  reactor_->stop();

  if (engine_.total_shards() == 1) {
    const auto view = engine_.pool_view();
    summary.pool_records = view.data->size();
    summary.pool_epoch = view.epoch;
    summary.pool_digest = dataset_digest(*view.data);
  } else {
    // Sharded: records sum over owned shards; the epoch is the watermark;
    // the digest is the commutative multiset combine — per-record hashes
    // sum, so the value is independent of shard count and layout and equal
    // to dataset_multiset_digest of the union.
    std::size_t records = 0;
    std::uint64_t digest = 0;
    for (const auto g : engine_.owned_shards()) {
      const auto view = engine_.shard_view(g);
      records += view.snap->rows.size();
      digest += dataset_multiset_digest(view.snap->rows);
    }
    summary.pool_records = records;
    summary.pool_epoch = engine_.pool_epoch();
    summary.pool_digest = digest;
  }
  summary.contributions = contributions_.load(std::memory_order_relaxed);
  summary.requests_served = requests_served_.load(std::memory_order_relaxed);
  return summary;
}

/// Deadline per resync peer probe (connect + snapshot fetch).
constexpr int kResyncTimeoutMs = 5'000;

void MinerDaemon::resync_owned_shards() {
  for (const auto g : engine_.owned_shards()) {
    const std::uint64_t local_epoch = engine_.shard_epoch(g);
    bool adopted = false;
    for (const auto& peer : opts_.resync_peers) {
      try {
        ServeClient::Options copts;
        copts.timeout_ms = kResyncTimeoutMs;
        ServeClient client(peer, opts_.seed, opts_.parties, copts);
        auto snap = client.shard_snapshot(g);
        client.bye();
        if (snap.shard_epoch <= local_epoch) {
          note("resync: peer " + peer.to_string() + " shard " + std::to_string(g) +
               " epoch " + std::to_string(snap.shard_epoch) + " not ahead of local " +
               std::to_string(local_epoch) + "; keeping exchange state");
          continue;
        }
        const std::size_t records = snap.rows.size();
        engine_.install_shard(g, std::move(snap.rows), std::move(snap.keys),
                              snap.shard_epoch);
        note("resync: shard " + std::to_string(g) + " adopted from " +
             peer.to_string() + " at epoch " + std::to_string(snap.shard_epoch) +
             " (" + std::to_string(records) + " records)");
        adopted = true;
        break;
      } catch (const Error& e) {
        // Down peer, non-owner (typed kNotOwner), or mid-install: try the
        // next one. Resync is best effort — a cold start still serves.
        note("resync: peer " + peer.to_string() + " shard " + std::to_string(g) +
             " unavailable: " + with_throw_site(e));
      }
    }
    if (!adopted && opts_.log)
      note("resync: shard " + std::to_string(g) + " keeps local epoch " +
           std::to_string(local_epoch));
  }
}

// ---- ServeClient ---------------------------------------------------------

/// Seed of every ServeClient's backoff-jitter stream: the same request
/// sequence always gets the same backoff schedule.
constexpr std::uint64_t kRetrySeed = 0x5AFE;

ServeClient::ServeClient(const SocketAddr& addr, std::uint64_t seed, std::size_t parties,
                         Options opts, std::uint32_t claim)
    : sock_(TcpSocket::connect(addr, opts.timeout_ms)),
      chunk_(16u << 10),
      opts_(opts),
      addr_(addr),
      claim_(claim),
      retry_eng_(kRetrySeed) {
  SAP_REQUIRE(parties >= 3, "ServeClient: need at least 3 parties");
  secret_ = proto::logic::derive_session_seeds(seed, parties).session_secret;
  miner_ = static_cast<proto::PartyId>(parties);
  handshake();
}

void ServeClient::handshake() {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body = u32_body(claim_);
  write_frame(hello);

  FrameView welcome;
  SAP_REQUIRE(read_frame(welcome, deadline_after_ms(opts_.timeout_ms)),
              "ServeClient: timed out waiting for the Welcome");
  if (welcome.type == FrameType::kError)
    SAP_FAIL("ServeClient: endpoint refused the claim: " + body_text(welcome.body));
  SAP_REQUIRE(welcome.type == FrameType::kWelcome,
              "ServeClient: expected kWelcome during the handshake");
  id_ = body_u32(welcome.body);
  SAP_REQUIRE(claim_ == kClaimAnyParty || id_ == claim_,
              "ServeClient: the door granted an unexpected id");
  last_io_ = std::chrono::steady_clock::now();
}

void ServeClient::reconnect() {
  drop();
  sock_ = TcpSocket::connect(addr_, opts_.timeout_ms);
  said_bye_ = false;
  handshake();
}

void ServeClient::drop() noexcept {
  sock_.close();
  reader_.reset();
}

Frame ServeClient::data_frame(proto::PartyId to, proto::PayloadKind kind,
                              std::span<const double> payload) const {
  Frame frame;
  frame.type = FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(kind);
  frame.from = id_;
  frame.to = to;
  frame.body = seal_body(payload, proto::detail::derive_link_key(secret_, id_, to));
  SAP_REQUIRE(frame.body.size() <= kDefaultMaxBody,
              "ServeClient: payload exceeds the frame size cap");
  return frame;
}

void ServeClient::write_frame(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  sock_.write_all(bytes.data(), bytes.size(), opts_.timeout_ms);
}

bool ServeClient::read_frame(FrameView& frame, std::chrono::steady_clock::time_point deadline) {
  while (!reader_.next_view(frame)) {
    // Rounded up, so a wait never ends before its deadline.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    bool closed = false;
    const std::size_t got = sock_.read_some(
        chunk_.data(), chunk_.size(), static_cast<int>(std::max<decltype(left)>(left, 0)),
        closed);
    SAP_REQUIRE(!closed || got > 0, "ServeClient: endpoint closed the connection");
    if (got > 0)
      reader_.feed(chunk_.data(), got);
    else if (left <= 0)
      return false;
  }
  return true;
}

void ServeClient::send(proto::PartyId to, proto::PayloadKind kind,
                       std::span<const double> payload) {
  SAP_REQUIRE(to != id_, "ServeClient::send: self-send is not a protocol step");
  write_frame(data_frame(to, kind, payload));
}

bool ServeClient::receive(Delivery& out, int timeout_ms) {
  const auto deadline = deadline_after_ms(timeout_ms);
  FrameView frame;
  do {
    if (!read_frame(frame, deadline)) return false;
    if (frame.type == FrameType::kError)
      SAP_FAIL("ServeClient::receive: door error: " + body_text(frame.body));
  } while (frame.type != FrameType::kData);  // skip stray control traffic
  out = {frame.from, static_cast<proto::PayloadKind>(frame.payload_kind),
         open_body(frame.body, proto::detail::derive_link_key(secret_, frame.from, id_))};
  return true;
}

std::vector<double> ServeClient::transact(proto::PayloadKind kind,
                                          std::span<const double> payload,
                                          proto::PayloadKind expect_kind) {
  // Busy clients skip the idle probe; door idle timeouts are far longer.
  if (sock_.valid() &&
      std::chrono::steady_clock::now() - last_io_ > std::chrono::milliseconds(100)) {
    bool closed = false;
    std::uint8_t byte = 0;
    if (sock_.read_some(&byte, 1, /*timeout_ms=*/0, closed) > 0) reader_.feed(&byte, 1);
    if (closed) drop();
  }
  FrameView resp;
  std::vector<double> plain;
  try {
    if (!sock_.valid()) reconnect();
    Frame req = data_frame(miner_, kind, payload);
    req.trace = trace_;
    write_frame(req);
    const auto deadline = deadline_after_ms(opts_.timeout_ms);
    // Only a kError or a kData frame from the door's own id answers this
    // request: anything else is control traffic or a frame a peer routed
    // to this party link.
    do {
      SAP_REQUIRE(read_frame(resp, deadline), "ServeClient: timed out waiting for a reply");
    } while (resp.type != FrameType::kError &&
             (resp.type != FrameType::kData || resp.from != miner_));
    if (resp.type == FrameType::kData) {
      SAP_REQUIRE(resp.payload_kind == static_cast<std::uint8_t>(expect_kind) ||
                      resp.payload_kind ==
                          static_cast<std::uint8_t>(proto::PayloadKind::kServeError),
                  "ServeClient: unexpected reply payload kind");
      plain = open_body(resp.body, proto::detail::derive_link_key(secret_, miner_, id_));
    }
  } catch (const Error&) {
    // A reply may still be in flight, and it would answer the next
    // request; a failed re-claim leaves an unclaimed socket. Drop the
    // connection so the next request starts clean.
    drop();
    throw;
  }
  last_io_ = std::chrono::steady_clock::now();
  if (resp.type == FrameType::kError)
    SAP_FAIL("ServeClient: request refused: " + body_text(resp.body));
  last_trace_ = resp.trace;
  if (resp.payload_kind == static_cast<std::uint8_t>(proto::PayloadKind::kServeError)) {
    const auto err = proto::decode_serve_error(plain);
    throw ServeError(err.code, err.message);
  }
  return plain;
}

std::vector<double> ServeClient::transact_idempotent(proto::PayloadKind kind,
                                                     std::span<const double> payload,
                                                     proto::PayloadKind expect_kind) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.retry_deadline_ms);
  for (int attempt = 0;; ++attempt) {
    try {
      return transact(kind, payload, expect_kind);
    } catch (const ServeError&) {
      throw;  // the daemon answered — typed refusals are never transport noise
    } catch (const Error&) {
      // Transport failure (reset, timeout, corrupt frame, dropped write):
      // state on the wire is unknown but the request is idempotent, so a
      // fresh connection + resend is safe. Budget- AND deadline-bounded.
      if (attempt >= opts_.retry_attempts) throw;
      const int base =
          std::min(opts_.retry_backoff_ms << attempt, opts_.retry_backoff_cap_ms);
      const int jitter =
          base > 0 ? static_cast<int>(retry_eng_.uniform_index(
                         static_cast<std::uint64_t>(base))) : 0;
      const auto wake = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(base + jitter);
      if (wake >= deadline) throw;  // deadline-scoped: no attempt past it
      std::this_thread::sleep_for(std::chrono::milliseconds(base + jitter));
      ++retries_;
      // The old socket may be half-dead in any number of ways — drop it so
      // the next attempt rebuilds from scratch (reconnect failures route
      // through this same catch and back off further).
      drop();
    }
  }
}

proto::WireMiningResponse ServeClient::mine_named(const std::string& job,
                                                  const proto::JobParams& params) {
  const auto wire = transact_idempotent(proto::PayloadKind::kMiningRequest,
                                        proto::encode_mining_request(job, params),
                                        proto::PayloadKind::kMiningResponse);
  return proto::decode_mining_response(wire);
}

proto::DecodedPartialResponse ServeClient::mine_partial(std::size_t shard,
                                                        const std::string& job,
                                                        const proto::JobParams& params,
                                                        const data::Dataset& queries,
                                                        std::span<const double> radii,
                                                        std::uint64_t prefix) {
  return mine_partial_wire(proto::encode_partial_request(shard, job, params, queries, radii,
                                                         prefix));
}

proto::DecodedPartialResponse ServeClient::mine_partial_wire(std::span<const double> request) {
  const auto wire = transact_idempotent(proto::PayloadKind::kPartialRequest, request,
                                        proto::PayloadKind::kPartialResponse);
  return proto::decode_partial_response(wire);
}

proto::DecodedPoolSlice ServeClient::pool_slice(std::size_t shard,
                                                std::size_t max_records) {
  const auto wire = transact_idempotent(proto::PayloadKind::kPoolSliceRequest,
                                        proto::encode_pool_slice_request(shard, max_records),
                                        proto::PayloadKind::kPoolSliceResponse);
  return proto::decode_pool_slice(wire);
}

proto::DecodedPoolSlice ServeClient::shard_snapshot(std::size_t shard) {
  const auto wire = transact_idempotent(proto::PayloadKind::kShardSnapshotRequest,
                                        proto::encode_shard_snapshot_request(shard),
                                        proto::PayloadKind::kShardSnapshotResponse);
  return proto::decode_pool_slice(wire);
}

proto::DecodedStats ServeClient::stats() {
  const auto wire = transact_idempotent(proto::PayloadKind::kStatsRequest,
                                        proto::encode_stats_request(),
                                        proto::PayloadKind::kStatsResponse);
  return proto::decode_stats_response(wire);
}

proto::DecodedReceipt ServeClient::contribute_wire(const std::vector<double>& wire) {
  const auto ack = transact(proto::PayloadKind::kContribution, wire,
                            proto::PayloadKind::kContributionAck);
  const auto receipt = proto::decode_receipt(ack);
  if (receipt.pool_epoch == 0)
    throw ContributionRejected(
        "ServeClient::contribute_wire: the miner rejected this contribution");
  return receipt;
}

void ServeClient::bye() {
  if (said_bye_) return;
  said_bye_ = true;
  Frame frame;
  frame.type = FrameType::kBye;
  frame.from = id_;
  frame.to = miner_;
  try {
    write_frame(frame);
  } catch (const Error&) {
    // Peer already gone — goodbye is best-effort by definition.
  }
}

// ---- PartyClient ---------------------------------------------------------

PartyClient::PartyClient(data::Dataset shard, PartyClientOptions opts)
    : opts_(std::move(opts)),
      provider_(opts_.index, opts_.parties, shard, opts_.sap,
                proto::logic::derive_session_seeds(opts_.sap.seed, opts_.parties)) {
  ServeClient::Options link_opts;
  link_opts.timeout_ms = opts_.timeout_ms;
  link_.emplace(opts_.connect, opts_.sap.seed, opts_.parties, link_opts,
                static_cast<std::uint32_t>(opts_.index));
}

std::vector<proto::logic::Mail> PartyClient::take(const std::string& what,
                                                  std::vector<proto::logic::Expect> expects) {
  using Fit = proto::logic::Mailbag::Fit;
  proto::logic::Mailbag bag(std::move(expects));
  for (auto it = stash_.begin(); it != stash_.end();)
    it = bag.offer(*it) == Fit::kUnexpected ? std::next(it) : stash_.erase(it);
  while (!bag.complete()) {
    proto::logic::Mail mail;
    SAP_REQUIRE(link_->receive(mail, opts_.timeout_ms),
                "PartyClient: timed out at " + what + " waiting for " + bag.missing() +
                    " (deadline " + std::to_string(opts_.timeout_ms) +
                    " ms) — peer gone or message lost");
    // Taken, or a wrong sender's and dropped. A plain client (an id above
    // the miner's) sends for no step, so its mail is never stashed.
    if (bag.offer(mail) != Fit::kUnexpected || mail.from > opts_.parties) continue;
    stash_.push_back(std::move(mail));
    SAP_REQUIRE(stash_.size() <= 1024, "PartyClient: runaway message stash");
  }
  return bag.take();
}

proto::PartyReport PartyClient::run_exchange() {
  SAP_REQUIRE(exchange_ != Exchange::kFailed,
              "PartyClient: an exchange failed on this client and cannot be resumed — "
              "construct a new client");
  SAP_REQUIRE(exchange_ == Exchange::kNotRun, "PartyClient: exchange already ran");
  try {
    for (const auto step : proto::logic::kSteps) {
      auto mail = take("step " + proto::logic::to_string(step), provider_.expects(step));
      for (const auto& send : provider_.run(step, std::move(mail)))
        link_->send(send.to, send.kind, send.payload);
    }
  } catch (...) {
    exchange_ = Exchange::kFailed;
    throw;
  }
  exchange_ = Exchange::kDone;
  return provider_.report();
}

void PartyClient::await_serving() {
  if (serving_) return;
  (void)take("the serving-started notice", {provider_.serving_started()});
  serving_ = true;
}

proto::SapSession::ContributionReceipt PartyClient::contribute(const data::Dataset& batch) {
  SAP_REQUIRE(exchange_ == Exchange::kDone, "PartyClient::contribute: run the exchange first");
  SAP_REQUIRE(batch.size() >= 1, "PartyClient::contribute: empty batch");
  SAP_REQUIRE(batch.dims() == provider_.dims(), "PartyClient::contribute: dimension mismatch");
  const linalg::Matrix y = provider_.perturb_batch(batch);
  await_serving();
  const auto receipt =
      link_->contribute_wire(proto::encode_contribution(nonce(), y, batch.labels()));
  return {receipt.pool_epoch, receipt.pool_records};
}

proto::WireMiningResponse PartyClient::mine_named(const std::string& job,
                                                  const proto::JobParams& params) {
  SAP_REQUIRE(exchange_ == Exchange::kDone, "PartyClient::mine_named: run the exchange first");
  await_serving();
  return link_->mine_named(job, params);
}

void PartyClient::finish() { link_->bye(); }

}  // namespace sap::net

#include "net/remote.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "net/fault.hpp"

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
        body_envelope(frame.body)
            .open(proto::detail::derive_link_key(secret, frame.from, self));
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
    out.body = envelope_body(proto::EncryptedEnvelope(
        reply.wire, proto::detail::derive_link_key(secret, self, frame.from)));
    stage(obs::Stage::kWrite) = ms_since(t_served, steady_now_ns());
  } catch (const Error& e) {
    // Per-request containment — answer kError so the client fails fast
    // instead of timing out.
    if (log) log(e.what());
    out.type = FrameType::kError;
    out.payload_kind = 0;
    out.body = text_body(e.what());
  }
  if (traced) traces.push(std::move(rec));
  std::vector<Frame> frames;
  frames.push_back(std::move(out));
  return frames;
}

// ---- MinerDaemon ---------------------------------------------------------

MinerDaemon::MinerDaemon(MinerDaemonOptions opts)
    : opts_(std::move(opts)),
      engine_({.cache_models = opts_.cache_models,
               .shards = opts_.shards,
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
        note(std::string("rejected contribution: ") + e.what());
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
      const auto request = proto::decode_partial_request(payload);
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
      try {
        const auto partial = engine_.run_partial(
            request.shard, {request.job, request.params}, request.queries);
        out_kind = proto::PayloadKind::kPartialResponse;
        out_wire = proto::encode_partial_response(partial.pool_epoch, partial.values);
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
  if (fault::enabled()) {
    // Chaos visibility: when this process injects socket faults, the stats
    // door says so — an operator reading surprising retry counters can tell
    // deliberate chaos from a genuinely sick network.
    const auto fs = fault::stats();
    snap.set_counter("fault.decisions", fs.decisions);
    snap.set_counter("fault.injected", fs.total_injected());
    for (int k = 1; k < fault::kKindCount; ++k)
      snap.set_counter(std::string("fault.injected.") +
                           fault::kind_name(static_cast<fault::Kind>(k)),
                       fs.injected[static_cast<std::size_t>(k)]);
  }
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

MinerDaemon::Summary MinerDaemon::run() {
  const std::size_t k = opts_.parties;
  Summary summary;

  // ---- exchange: collect k forwarded shards + k aligned adaptors --------
  // Shards and adaptors are keyed by nonce, and the exchange completes
  // when k nonces have BOTH — a duplicate or an unmatched surplus entry
  // (a re-sent shard, a confused or hostile client) is rejected or simply
  // never pairs up, instead of corrupting the completion count.
  std::map<std::uint64_t, proto::logic::MinerShard> shards;
  std::map<std::uint64_t, perturb::SpaceAdaptor> adaptors;
  const auto matched = [&] {
    std::size_t n = 0;
    for (const auto& [nonce, shard] : shards) n += adaptors.count(nonce);
    return n;
  };
  // ONE absolute deadline for the whole exchange phase: junk traffic must
  // not keep resetting the window, or a missing party would never surface
  // while any other client is chatty.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.exchange_timeout_ms);
  while (matched() < k) {
    SAP_REQUIRE(std::chrono::steady_clock::now() < deadline,
                "MinerDaemon: exchange timed out waiting for shards/adaptors "
                "(missing party?)");
    Frame frame;
    {
      MutexLock lock(mail_mutex_);
      bool awake = true;
      while (awake && mail_.empty()) awake = mail_cv_.wait_until(lock, deadline);
      if (mail_.empty()) continue;  // the deadline check above ends the phase
      frame = std::move(mail_.front());
      mail_.pop_front();
    }
    // Per-message containment even here: a hostile or corrupt message
    // (wrong link key, malformed nonce) is logged and skipped — only the
    // phase deadline aborts the exchange, so one bad client cannot take the
    // daemon down for the k honest parties.
    try {
      const auto payload = body_envelope(frame.body)
                               .open(proto::detail::derive_link_key(secret_, frame.from,
                                                                    miner_id_));
      // Wire payloads are adversarial input (the daemon is the cross-process
      // trust boundary): the same nonce check decode_contribution runs.
      const auto [nonce, body] = proto::logic::untag(payload);
      if (frame.payload_kind == static_cast<std::uint8_t>(proto::PayloadKind::kForwardedData)) {
        SAP_REQUIRE(shards
                        .emplace(nonce, proto::logic::MinerShard{nonce, frame.from,
                                                                 proto::decode_dataset(body)})
                        .second,
                    "duplicate shard for a nonce");
      } else {
        SAP_REQUIRE(adaptors.emplace(nonce, perturb::SpaceAdaptor::deserialize(body)).second,
                    "duplicate adaptor for a nonce");
      }
    } catch (const Error& e) {
      note(std::string("rejected message during the exchange: ") + e.what());
    }
  }
  {
    // From here on, exchange kinds at the door are late: noted and dropped.
    MutexLock lock(mail_mutex_);
    mail_closed_ = true;
    mail_.clear();
  }
  // Unify exactly the k matched pairs; unmatched surplus (noise that never
  // paired up) is discarded with a note.
  std::vector<proto::logic::MinerShard> matched_shards;
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> matched_adaptors;
  // (nonce, record count) per matched shard, ascending nonce — how the
  // unified pool (concatenated in that same canonical order) is sliced back
  // into per-nonce segments for the sharded install below.
  std::vector<std::pair<std::uint64_t, std::size_t>> segment_sizes;
  for (auto& [nonce, shard] : shards) {
    const auto it = adaptors.find(nonce);
    if (it == adaptors.end()) continue;
    segment_sizes.emplace_back(nonce, shard.data.labels.size());
    matched_shards.push_back(std::move(shard));
    matched_adaptors.emplace_back(nonce, std::move(it->second));
  }
  if (matched_shards.size() < shards.size() || matched_adaptors.size() < adaptors.size())
    note("discarded " + std::to_string(shards.size() - matched_shards.size()) +
         " unmatched shard(s) and " +
         std::to_string(adaptors.size() - matched_adaptors.size()) +
         " unmatched adaptor(s)");
  auto unified =
      proto::logic::unify_pool(std::move(matched_shards), std::move(matched_adaptors), k);
  adaptors_ = std::move(unified.adaptors);
  dims_ = unified.pool.dims();
  summary.pool_records = unified.pool.size();
  // Install per-nonce segments, not the flat pool: the (nonce, seq) keys are
  // what make contributions route to stable shards and exact merges order
  // canonically. unify_pool concatenates in ascending-nonce order, so the
  // cumulative slices below are exactly the per-party segments. For a
  // single-shard daemon the segments land on shard 0 in the same order —
  // the installed rows are bit-identical to the pre-cluster set_pool path.
  {
    std::vector<proto::PoolSegment> segments;
    segments.reserve(segment_sizes.size());
    std::size_t at = 0;
    for (const auto& [nonce, count] : segment_sizes) {
      segments.push_back({nonce, unified.pool.slice(at, at + count)});
      at += count;
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
  // Tell every party that serving has started, over its exchange link. A
  // party that already left is dropped at the door.
  for (std::size_t i = 0; i < k; ++i) {
    Frame notice;
    notice.type = FrameType::kData;
    notice.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kServingStarted);
    notice.from = miner_id_;
    notice.to = static_cast<proto::PartyId>(i);
    notice.body = envelope_body(proto::EncryptedEnvelope(
        std::span<const double>{}, proto::detail::derive_link_key(secret_, miner_id_, notice.to)));
    reactor_->send(notice);
  }

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

void MinerDaemon::resync_owned_shards() {
  for (const auto g : engine_.owned_shards()) {
    const std::uint64_t local_epoch = engine_.shard_epoch(g);
    bool adopted = false;
    for (const auto& peer : opts_.resync_peers) {
      try {
        ServeClient::Options copts;
        copts.timeout_ms = opts_.resync_timeout_ms;
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
             " unavailable: " + e.what());
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
                         Options opts)
    : sock_(TcpSocket::connect(addr, opts.timeout_ms)),
      opts_(opts),
      addr_(addr),
      parties_(parties),
      retry_eng_(kRetrySeed) {
  SAP_REQUIRE(parties >= 3, "ServeClient: need at least 3 parties");
  secret_ = proto::logic::derive_session_seeds(seed, parties).session_secret;
  miner_ = static_cast<proto::PartyId>(parties);
  handshake();
}

void ServeClient::handshake() {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body = u32_body(kClaimAnyParty);
  std::vector<std::uint8_t> bytes;
  encode_frame(hello, bytes);
  sock_.write_all(bytes.data(), bytes.size(), opts_.timeout_ms);

  const Frame welcome = read_frame();
  if (welcome.type == FrameType::kError)
    SAP_FAIL("ServeClient: endpoint refused the claim: " + body_text(welcome.body));
  SAP_REQUIRE(welcome.type == FrameType::kWelcome,
              "ServeClient: expected kWelcome during the handshake");
  id_ = body_u32(welcome.body);
  last_io_ = std::chrono::steady_clock::now();
}

void ServeClient::reconnect() {
  sock_ = TcpSocket::connect(addr_, opts_.timeout_ms);
  reader_.reset();
  said_bye_ = false;
  handshake();
}

Frame ServeClient::read_frame() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.timeout_ms);
  Frame frame;
  std::vector<std::uint8_t> chunk(16u << 10);
  while (!reader_.next(frame)) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    SAP_REQUIRE(remaining.count() > 0, "ServeClient: timed out waiting for a reply");
    bool closed = false;
    const std::size_t got =
        sock_.read_some(chunk.data(), chunk.size(), static_cast<int>(remaining.count()),
                        closed);
    SAP_REQUIRE(!closed || got > 0, "ServeClient: endpoint closed the connection");
    if (got > 0) reader_.feed(chunk.data(), got);
  }
  return frame;
}

std::vector<double> ServeClient::transact(proto::PayloadKind kind,
                                          std::span<const double> payload,
                                          proto::PayloadKind expect_kind) {
  // Busy clients skip the probe; door idle timeouts are far longer.
  if (sock_.valid() &&
      std::chrono::steady_clock::now() - last_io_ > std::chrono::milliseconds(100)) {
    bool closed = false;
    std::uint8_t byte = 0;
    if (sock_.read_some(&byte, 1, /*timeout_ms=*/0, closed) > 0) reader_.feed(&byte, 1);
    if (closed) reconnect();
  }
  Frame req;
  req.type = FrameType::kData;
  req.payload_kind = static_cast<std::uint8_t>(kind);
  req.from = id_;
  req.to = miner_;
  req.trace = trace_;
  req.body = envelope_body(proto::EncryptedEnvelope(
      payload, proto::detail::derive_link_key(secret_, id_, miner_)));
  std::vector<std::uint8_t> bytes;
  encode_frame(req, bytes);
  sock_.write_all(bytes.data(), bytes.size(), opts_.timeout_ms);

  for (;;) {
    const Frame resp = read_frame();
    if (resp.type == FrameType::kError)
      SAP_FAIL("ServeClient: request refused: " + body_text(resp.body));
    if (resp.type != FrameType::kData) continue;  // stray control traffic
    last_trace_ = resp.trace;
    const bool typed_error =
        resp.payload_kind == static_cast<std::uint8_t>(proto::PayloadKind::kServeError);
    SAP_REQUIRE(typed_error || resp.payload_kind == static_cast<std::uint8_t>(expect_kind),
                "ServeClient: unexpected reply payload kind");
    auto plain = body_envelope(resp.body)
                     .open(proto::detail::derive_link_key(secret_, miner_, id_));
    last_io_ = std::chrono::steady_clock::now();
    if (typed_error) {
      const auto err = proto::decode_serve_error(plain);
      throw ServeError(err.code, err.message);
    }
    return plain;
  }
}

std::vector<double> ServeClient::transact_idempotent(proto::PayloadKind kind,
                                                     std::span<const double> payload,
                                                     proto::PayloadKind expect_kind) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.retry_deadline_ms);
  for (int attempt = 0;; ++attempt) {
    try {
      if (attempt > 0 && !sock_.valid()) reconnect();
      return transact(kind, payload, expect_kind);
    } catch (const ServeError&) {
      throw;  // the daemon answered — typed refusals are never transport noise
    } catch (const Error& e) {
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
      sock_.close();
      (void)e;
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
                                                        const data::Dataset& queries) {
  const auto wire = transact_idempotent(
      proto::PayloadKind::kPartialRequest,
      proto::encode_partial_request(shard, job, params, queries),
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
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  try {
    sock_.write_all(bytes.data(), bytes.size(), opts_.timeout_ms);
  } catch (const Error&) {
    // Peer already gone — goodbye is best-effort by definition.
  }
}

// ---- PartyClient ---------------------------------------------------------

PartyClient::PartyClient(data::Dataset shard, PartyClientOptions opts)
    : opts_(std::move(opts)), shard_(std::move(shard)) {
  k_ = opts_.parties;
  SAP_REQUIRE(k_ >= 3, "PartyClient: need at least 3 parties");
  SAP_REQUIRE(opts_.index < k_, "PartyClient: party index out of range");
  SAP_REQUIRE(shard_.size() >= 8, "PartyClient: shard too small (need >= 8 records)");
  dims_ = shard_.dims();
  x_ = shard_.features_T();
  coordinator_ = static_cast<proto::PartyId>(k_ - 1);
  miner_ = static_cast<proto::PartyId>(k_);

  auto seeds = proto::logic::derive_session_seeds(opts_.sap.seed, k_);
  eng_ = seeds.provider_eng[opts_.index];
  coord_eng_ = seeds.coordinator_eng;
  transport_ = TcpTransport::connect(opts_.connect, seeds.session_secret, opts_.tcp);
  id_ = transport_->claim_party(static_cast<std::uint32_t>(opts_.index));
  SAP_REQUIRE(id_ == opts_.index, "PartyClient: the door assigned an unexpected party id");
}

TcpTransport::Delivery PartyClient::expect(
    std::initializer_list<proto::PayloadKind> kinds) {
  const auto wanted = [&](proto::PayloadKind kind) {
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
  };
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (wanted(it->kind)) {
      auto msg = std::move(*it);
      stash_.erase(it);
      return msg;
    }
  }
  for (;;) {
    auto msg = transport_->receive(id_);
    if (wanted(msg.kind)) return msg;
    // Out-of-phase but legitimate traffic (no cross-process barriers): park
    // it for the phase that wants it.
    stash_.push_back(std::move(msg));
    SAP_REQUIRE(stash_.size() <= 1024, "PartyClient: runaway message stash");
  }
}

proto::PartyReport PartyClient::run_exchange() {
  SAP_REQUIRE(!exchange_done_, "PartyClient: exchange already ran");

  // ---- LocalOptimize ----------------------------------------------------
  local_ = proto::logic::optimize_local(x_, dims_, opts_.sap, eng_);

  // ---- TargetDistribution + PermutationExchange -------------------------
  proto::PartyId send_to = 0;
  std::uint32_t inbound = 0;
  if (id_ == coordinator_) {
    target_ = proto::logic::make_target_space(dims_, coord_eng_);
    const auto target_wire =
        proto::encode_target_space(target_.rotation(), target_.translation());
    for (std::size_t j = 0; j + 1 < k_; ++j)
      transport_->send(id_, static_cast<proto::PartyId>(j), proto::PayloadKind::kTargetSpace,
                       target_wire);
    const auto plan = proto::logic::make_exchange_plan(k_, coord_eng_);
    for (std::size_t j = 0; j + 1 < k_; ++j)
      transport_->send(id_, static_cast<proto::PartyId>(j),
                       proto::PayloadKind::kRoutingNotice,
                       proto::encode_routing(
                           static_cast<proto::PartyId>(plan.receiver_of_source[j]),
                           plan.inbound[j]));
    send_to = static_cast<proto::PartyId>(plan.receiver_of_source[k_ - 1]);
    inbound = plan.inbound[k_ - 1];  // 0 by construction (coordinator redirect)
  } else {
    bool got_target = false;
    bool got_routing = false;
    while (!(got_target && got_routing)) {
      const auto msg = expect({proto::PayloadKind::kTargetSpace,
                               proto::PayloadKind::kRoutingNotice});
      if (msg.kind == proto::PayloadKind::kTargetSpace) {
        const auto ts = proto::decode_target_space(msg.payload);
        target_ = perturb::GeometricPerturbation(ts.r, ts.t, 0.0);
        got_target = true;
      } else {
        const auto notice = proto::decode_routing(msg.payload);
        proto::logic::check_routing_notice(notice, k_);
        send_to = notice.receiver;
        inbound = notice.inbound;
        got_routing = true;
      }
    }
  }

  // ---- PerturbAndForward ------------------------------------------------
  const linalg::Matrix y = local_.g.apply(x_, eng_);
  const auto data_wire =
      proto::logic::tagged_wire(local_.nonce, proto::encode_dataset(y, shard_.labels()));
  const bool self_held = send_to == id_;
  if (!self_held)
    transport_->send(id_, send_to, proto::PayloadKind::kPerturbedData, data_wire);
  if (self_held)
    transport_->send(id_, miner_, proto::PayloadKind::kForwardedData, data_wire);
  for (std::uint32_t n = 0; n < inbound; ++n) {
    const auto msg = expect({proto::PayloadKind::kPerturbedData});
    transport_->send(id_, miner_, proto::PayloadKind::kForwardedData, msg.payload);
  }

  // ---- AdaptorAlignment -------------------------------------------------
  adaptor_ = perturb::SpaceAdaptor::between(local_.g, target_);
  if (id_ != coordinator_) {
    transport_->send(id_, coordinator_, proto::PayloadKind::kSpaceAdaptor,
                     proto::logic::tagged_wire(local_.nonce, adaptor_.serialize()));
  } else {
    std::vector<std::vector<double>> entries;
    for (std::size_t j = 0; j + 1 < k_; ++j)
      entries.push_back(expect({proto::PayloadKind::kSpaceAdaptor}).payload);
    entries.push_back(proto::logic::tagged_wire(local_.nonce, adaptor_.serialize()));
    proto::logic::shuffle_entries(entries, coord_eng_);
    for (const auto& e : entries)
      transport_->send(id_, miner_, proto::PayloadKind::kAdaptorSequence, e);
  }

  // ---- accounting (party-side knowledge only) ---------------------------
  const auto report = proto::logic::account_party(x_, y, adaptor_, id_, local_.rho,
                                                  local_.bound, k_, opts_.sap, eng_);
  exchange_done_ = true;
  return report;
}

ServeClient& PartyClient::door() {
  if (!door_) {
    (void)expect({proto::PayloadKind::kServingStarted});
    ServeClient::Options copts;
    copts.timeout_ms = opts_.tcp.receive_timeout_ms;
    door_ = std::make_unique<ServeClient>(opts_.connect, opts_.sap.seed, k_, copts);
  }
  return *door_;
}

proto::SapSession::ContributionReceipt PartyClient::contribute(const data::Dataset& batch) {
  SAP_REQUIRE(exchange_done_, "PartyClient::contribute: run the exchange first");
  SAP_REQUIRE(batch.size() >= 1, "PartyClient::contribute: empty batch");
  SAP_REQUIRE(batch.dims() == dims_, "PartyClient::contribute: dimension mismatch");
  const linalg::Matrix y = local_.g.apply(batch.features_T(), eng_);
  const auto receipt =
      door().contribute_wire(proto::encode_contribution(local_.nonce, y, batch.labels()));
  return {receipt.pool_epoch, receipt.pool_records};
}

proto::WireMiningResponse PartyClient::mine_named(const std::string& job,
                                                  const proto::JobParams& params) {
  SAP_REQUIRE(exchange_done_, "PartyClient::mine_named: run the exchange first");
  return door().mine_named(job, params);
}

void PartyClient::finish() {
  if (door_) door_->bye();
  if (transport_) transport_->send_bye();
}

}  // namespace sap::net

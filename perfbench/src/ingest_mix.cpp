// Workload `ingest-mix`: writes beside reads on one miner, no router.
//
// One connection contributes 32-record batches of Shuttle-shape records,
// each perturbed with a party's negotiated G_i, open loop at a fixed rate
// (latency timed from each batch's due time). Three closed-loop connections
// read 40% knn / 40% nb / 20% perceptron train accuracy (eval-records 128).
// Every append bumps the epoch, so reads exercise incremental refit (knn,
// nb) and the full-refit fallback (perceptron).
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "net/remote.hpp"
#include "perturb/space_adaptor.hpp"

namespace perfbench {

namespace net = sap::net;

namespace {

constexpr std::size_t kReaders = 3;
constexpr std::size_t kStreamBatches = 16;
constexpr std::size_t kBatchRecords = 32;
constexpr std::size_t kSetups = 3;
constexpr double kWriteRate = 20.0;       ///< batches per second, open loop
constexpr std::size_t kCheckEpochs = 24;   ///< epochs whose reads are replayed
constexpr std::size_t kSampleEvery = 4;
constexpr const char* kRoot = "mine.request";
constexpr const char* kBatchRoot = "ingest.batch";

/// The perceptron runs 3 epochs instead of its default 30: every epoch move
/// still forces a full refit (the fallback path under test), but a refit no
/// longer costs ten reads, which made the closed-loop read rate swing with
/// the machine's speed by more than 20% between runs.
std::vector<JobMix> ingest_mix() {
  return {{"knn-train-accuracy", {{"eval-records", 128.0}}, 0.4},
          {"nb-train-accuracy", {{"eval-records", 128.0}}, 0.4},
          {"perceptron-train-accuracy", {{"epochs", 3.0}, {"eval-records", 128.0}}, 0.2}};
}

struct Miner {
  Child proc;
  net::SocketAddr door;
  double setup_s = 0.0;
};

Miner launch(std::uint64_t seed, std::size_t pool_records) {
  Miner m;
  const std::int64_t t0 = now_ns();
  m.proc = Child({"--child", "miner", "--seed", std::to_string(seed), "--shards", "1", "--index",
                  "0", "--loops", "1", "--lanes", "2"});
  m.door = {"127.0.0.1", static_cast<std::uint16_t>(std::stoi(m.proc.expect("DOOR", 30'000)))};
  (void)m.proc.expect("READY", 120'000);
  net::ServeClient probe(m.door, seed, kParties);
  const auto resp = probe.mine_named("record-count");
  probe.bye();
  if (resp.values.empty() || resp.values[0] != static_cast<double>(pool_records))
    throw sap::Error("ingest-mix: first record-count does not match the pool");
  m.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return m;
}

struct Read {
  std::size_t job = 0;
  std::uint64_t epoch = 0;
  std::vector<double> values;
  std::uint64_t root = 0;  ///< traced sample (0 = untraced)
};

struct Pass {
  std::vector<Sample> mine, contribute;
  std::vector<double> late_ms;
  std::vector<double> fit_ms;  ///< replayed reads whose epoch moved
  std::size_t written = 0;
  CpuTrace cpu;
  std::int64_t start = 0, window_end = 0, end = 0;
  [[nodiscard]] std::vector<double> mine_ms() const {
    std::vector<double> out;
    for (const auto& s : mine) out.push_back(s.ms);
    return out;
  }
  double rss_mb = 0.0;
  std::vector<sap::obs::Snapshot> before, after;
};

/// One window on a fresh miner; returns its samples and verifies every
/// sampled read and the final pool against the replayed flat engine.
Pass run_pass(const RunContext& ctx, std::uint64_t xseed, const Prep& prep, Miner& miner,
              const std::vector<std::vector<double>>& wires, const data::Dataset& unified,
              const std::map<std::uint64_t, sap::perturb::SpaceAdaptor>& adaptors,
              Tracer& tr, Result& result) {
  const auto mix = ingest_mix();
  Pass pass;

  // Warm-up: every connection open, every model fitted at the install epoch.
  std::vector<std::unique_ptr<net::ServeClient>> readers;
  std::uint64_t epoch0 = 0;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.push_back(std::make_unique<net::ServeClient>(miner.door, xseed, kParties));
    for (const auto& m : mix) epoch0 = readers.back()->mine_named(m.job, m.params).pool_epoch;
  }
  net::ServeClient writer(miner.door, xseed, kParties);
  {
    net::ServeClient stats(miner.door, xseed, kParties);
    pass.before.push_back(stats.stats().snapshot);
  }

  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::vector<Sample>> lat(kReaders);
  std::vector<std::string> errors(kReaders + 1);
  std::vector<std::uint64_t> receipts;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(ctx.seconds) * 1'000'000'000;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      for (std::size_t i = 0; i < wires.size(); ++i) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kWriteRate);
        if (due >= end) break;
        const std::int64_t wait = due - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        const std::int64_t sent = now_ns();
        const auto receipt = writer.contribute_wire(wires[i]);
        const std::int64_t acked = now_ns();
        pass.contribute.push_back({acked, ms_between(due, acked)});
        pass.late_ms.push_back(ms_between(due, sent));
        receipts.push_back(receipt.pool_epoch);
      }
    } catch (const std::exception& e) {
      errors[kReaders] = e.what();
    }
  });
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      sap::rng::Engine eng(ctx.seed * 0xD1B54A32D192ED03ULL + t + 1);
      try {
        for (std::size_t k = 0; now_ns() < end; ++k) {
          const std::size_t j = pick(mix, eng);
          const std::int64_t t0 = now_ns();
          auto resp = readers[t]->mine_named(mix[j].job, mix[j].params);
          const std::int64_t t1 = now_ns();
          lat[t].push_back({t1, ms_between(t0, t1)});
          Read r{j, resp.pool_epoch, std::move(resp.values), 0};
          if (tr.on() && k % kSampleEvery == 0) {
            r.root = tr.root(kRoot, t0, t1);
            tr.span(r.root, "mine.rtt", t0, t1);
            std::vector<double> req, rsp;
            {
              ScopedSpan s(tr, r.root, "protocol.codec_us");
              req = proto::encode_mining_request(mix[j].job, mix[j].params);
              (void)proto::decode_mining_request(req);
              proto::WireMiningResponse w;
              w.pool_epoch = r.epoch;
              w.values = r.values;
              rsp = proto::encode_mining_response(w);
              (void)proto::decode_mining_response(rsp);
            }
            tr.count(r.root, "protocol.wire_bytes", 8.0 * static_cast<double>(req.size() + rsp.size()));
            replay_frame(tr, r.root, req, proto::PayloadKind::kMiningRequest);
            replay_frame(tr, r.root, rsp, proto::PayloadKind::kMiningResponse);
          }
          reads[t].push_back(std::move(r));
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  std::string sample_error;
  try {
    pass.cpu = sample_cpu({&miner.proc}, start, end);
  } catch (const std::exception& e) {
    sample_error = e.what();
  }
  for (auto& th : threads) th.join();
  if (!sample_error.empty()) throw sap::Error("ingest-mix: " + sample_error);
  pass.start = start;
  pass.window_end = end;
  pass.end = now_ns();
  pass.written = receipts.size();
  {
    net::ServeClient stats(miner.door, xseed, kParties);
    pass.after.push_back(stats.stats().snapshot);
  }
  for (const auto& e : errors)
    if (!e.empty()) result.wrong("ingest-mix connection failed: " + e);
  for (std::size_t i = 0; i < receipts.size(); ++i)
    if (receipts[i] != epoch0 + i + 1) result.wrong("ingest-mix receipt epoch out of sequence");
  result.attempted += receipts.size();

  // Open-loop hygiene: a generator that fell behind means the backlog grew.
  const std::size_t tenth = std::max<std::size_t>(1, pass.late_ms.size() / 10);
  const std::vector<double> head(pass.late_ms.begin(), pass.late_ms.begin() + tenth);
  const std::vector<double> tail(pass.late_ms.end() - tenth, pass.late_ms.end());
  if (mean(tail) > mean(head) + 50.0)
    result.wrong(fmt("ingest-mix run invalid: contribution backlog grew (late %.3f -> %.3f ms)",
                     mean(head), mean(tail)));

  // Replay the flat engine through the same appends; check reads at a
  // deterministic spread of epochs, then the final pool.
  std::map<std::uint64_t, std::vector<const Read*>> by_epoch;
  for (std::size_t t = 0; t < kReaders; ++t) {
    result.attempted += reads[t].size();
    pass.mine.insert(pass.mine.end(), lat[t].begin(), lat[t].end());
    for (const auto& r : reads[t]) {
      if (r.epoch < epoch0 || r.epoch > epoch0 + pass.written) {
        result.wrong("ingest-mix read reports an epoch outside the window");
        continue;
      }
      by_epoch[r.epoch].push_back(&r);
    }
  }
  std::set<std::uint64_t> check;
  {
    std::vector<std::uint64_t> epochs;
    for (const auto& [e, v] : by_epoch) epochs.push_back(e);
    for (std::size_t k = 0; k < kCheckEpochs && !epochs.empty(); ++k)
      check.insert(epochs[k * (epochs.size() - 1) / std::max<std::size_t>(1, kCheckEpochs - 1)]);
    for (const auto& [e, v] : by_epoch)
      for (const Read* r : v)
        if (r->root != 0) check.insert(e);
  }

  proto::MiningEngine flat;
  flat.set_pool(unified);
  const std::uint64_t offset = epoch0 - flat.pool_epoch();
  std::size_t verified = 0;
  const auto verify_epoch = [&](std::uint64_t e) {
    if (!check.count(e) || !by_epoch.count(e)) return;
    std::map<std::size_t, proto::MiningResponse> served;
    for (const Read* r : by_epoch[e]) {
      auto it = served.find(r->job);
      if (it == served.end()) {
        auto resp = flat.run({mix[r->job].job, mix[r->job].params});
        if (!resp.model_cached) pass.fit_ms.push_back(resp.fit_millis);
        it = served.emplace(r->job, std::move(resp)).first;
      }
      if (r->root != 0) {
        // The serving path alone: the model for this epoch is cached now.
        ScopedSpan span(tr, r->root, "engine.serve_ms");
        (void)flat.run({mix[r->job].job, mix[r->job].params});
      }
      if (it->second.values != r->values || it->second.pool_epoch + offset != e)
        result.wrong(fmt("ingest-mix read at epoch %llu differs from the replayed flat engine",
                         static_cast<unsigned long long>(e)));
      ++verified;
    }
  };
  verify_epoch(epoch0);
  for (std::size_t i = 0; i < pass.written; ++i) {
    const std::int64_t t0 = now_ns();
    const auto decoded = proto::decode_contribution(wires[i]);
    const std::int64_t t1 = now_ns();
    const auto adapted =
        proto::logic::adapt_contribution(decoded, adaptors.at(decoded.nonce), prep.shards[0].dims());
    const std::int64_t t2 = now_ns();
    (void)flat.append_records(decoded.nonce, adapted);
    const std::int64_t t3 = now_ns();
    if (tr.on()) {
      const std::uint64_t root = tr.root(kBatchRoot, t0, t3);
      tr.span(root, "protocol.codec_us", t0, t1);
      tr.span(root, "perturb.adapt_us", t1, t2);
      tr.span(root, "engine.append_us", t2, t3);
      replay_frame(tr, root, wires[i], proto::PayloadKind::kContribution);
      tr.extend(root, now_ns());
    }
    verify_epoch(epoch0 + i + 1);
  }
  emit_line(fmt("ingest-mix verified %zu reads at %zu epochs against the replayed flat engine",
                verified, check.size()));

  net::ServeClient final_view(miner.door, xseed, kParties);
  const auto slice = final_view.pool_slice(0, 0);
  final_view.bye();
  std::uint64_t expect = net::dataset_multiset_digest(flat.pool());
  if (ctx.corrupt_reference) expect ^= 1;
  if (net::dataset_multiset_digest(slice.rows) != expect)
    result.wrong("ingest-mix final pool digest differs from the replayed flat engine");
  for (auto& r : readers) r->bye();
  writer.bye();
  pass.rss_mb = miner.proc.peak_rss_mb();
  return pass;
}

}  // namespace

Result run_ingest_mix(const RunContext& ctx) {
  Result result;
  const std::uint64_t xseed = (ctx.seed * 0x9FB21C651E98DF25ULL) >> 20;
  const Prep prep = make_prep("Shuttle", kStreamBatches, kBatchRecords, xseed);
  const Reference ref = reference_session(prep);
  double rho_min = 1e300;
  for (const auto& p : ref.result.parties) rho_min = std::min(rho_min, p.local_rho);

  // Contribution wires (as each party perturbs its batches) and the miner's
  // adaptors, both replayed from the seed.
  const auto locals = replay_locals(prep);
  const auto seeds = proto::logic::derive_session_seeds(xseed, kParties);
  sap::rng::Engine coord = seeds.coordinator_eng;
  const auto target = proto::logic::make_target_space(prep.shards[0].dims(), coord);
  std::map<std::uint64_t, sap::perturb::SpaceAdaptor> adaptors;
  for (const auto& l : locals) adaptors[l.nonce] = sap::perturb::SpaceAdaptor::between(l.g, target);
  sap::rng::Engine noise(ctx.seed ^ 0x1A6E57);
  std::vector<std::vector<double>> wires;
  const auto n = static_cast<std::size_t>(kWriteRate * ctx.seconds) + 1;
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t p = b % kParties, s = b % kStreamBatches;
    const auto batch = prep.stream.slice(s * kBatchRecords, (s + 1) * kBatchRecords);
    wires.push_back(proto::encode_contribution(
        locals[p].nonce, locals[p].g.apply(batch.features_T(), noise), batch.labels()));
  }

  Tracer off(false), on(true);
  if (!ctx.trace) {
    std::vector<double> setup;
    Miner miner;
    for (std::size_t k = 0; k < kSetups; ++k) {
      miner = Miner{};
      miner = launch(xseed, prep.pool_records);
      setup.push_back(miner.setup_s);
    }
    const Pass pass = run_pass(ctx, xseed, prep, miner, wires, ref.result.unified, adaptors, off, result);
    result.add_e2e("setup_s", quantile(setup, 0.5), "s", setup.size());
    result.add_e2e("rho_min", rho_min, "ratio", kParties);
    result.add_e2e("rss_mb", pass.rss_mb, "MiB", 1);
    // The miner's CPU includes the fixed-rate writes' decode, adapt and
    // append: a few percent of it, charged to the reads.
    const Cost cost = cost_per_request(pass.cpu, pass.mine, pass.start, pass.window_end);
    result.add_e2e("mine_cpu_ms", cost.cpu_ms, "ms", pass.mine.size());
    emit_line(fmt("info mine_cost = %.6f ref (n=%zu)", cost.ref_units, pass.mine.size()));
    emit_wall_info("mine", pass.mine, pass.start, pass.end);
    emit_wall_info("contribute", pass.contribute, pass.start, pass.end);
    emit_line(fmt("ingest.late_ms mean %.6f ms over %zu batches", mean(pass.late_ms),
                  pass.late_ms.size()));
    return result;
  }

  // Traced run: the exchange every miner pays at start-up, then an untraced
  // and a traced window, each on a fresh miner.
  trace_exchange(prep, ref.result, on, result);
  Pass plain, traced;
  double rtt_us = 0.0;
  {
    Miner miner = launch(xseed, prep.pool_records);
    plain = run_pass(ctx, xseed, prep, miner, wires, ref.result.unified, adaptors, off, result);
  }
  {
    Miner miner = launch(xseed, prep.pool_records);
    rtt_us = measure_rtt_us(miner.door, xseed, 200);
    traced = run_pass(ctx, xseed, prep, miner, wires, ref.result.unified, adaptors, on, result);
  }
  const std::size_t roots = on.roots(kRoot), batches = on.roots(kBatchRoot);
  const auto sum = [&](const char* root, const char* name) {
    return on.per_root_ms(root, name, Tracer::Agg::kSum);
  };
  const double serve = on.mean_self_ms("engine.serve_ms");
  const double codec = sum(kRoot, "protocol.codec_us"), frame = sum(kRoot, "net.frame_us");
  result.add_layer("engine.serve_ms", serve, "ms", on.names()["engine.serve_ms"]);
  result.add_layer("engine.fit_ms", mean(traced.fit_ms), "ms", traced.fit_ms.size());
  const double hits = counter_of(traced.after, "engine.cache.hits") -
                      counter_of(traced.before, "engine.cache.hits");
  const double fits = counter_of(traced.after, "engine.cache.fits") -
                      counter_of(traced.before, "engine.cache.fits");
  const double inc = counter_of(traced.after, "engine.cache.incremental") -
                     counter_of(traced.before, "engine.cache.incremental");
  result.add_layer("engine.cache_hit_ratio", hits + fits + inc > 0 ? hits / (hits + fits + inc) : 0.0,
                   "ratio", static_cast<std::size_t>(hits + fits + inc));
  result.add_layer("engine.incremental_ratio", inc + fits > 0 ? inc / (inc + fits) : 0.0, "ratio",
                   static_cast<std::size_t>(inc + fits));
  result.add_layer("engine.append_us", sum(kBatchRoot, "engine.append_us") * 1e3, "us", batches);
  result.add_layer("perturb.adapt_us", sum(kBatchRoot, "perturb.adapt_us") * 1e3, "us", batches);
  result.add_layer("protocol.codec_us", codec * 1e3, "us", roots);
  result.add_layer("protocol.wire_bytes", on.per_root_count(kRoot, "protocol.wire_bytes"), "bytes",
                   roots);
  result.add_layer("net.frame_us", frame * 1e3, "us", roots);
  result.add_layer("net.rtt_us", rtt_us, "us", 200);
  const auto qw = hist_delta_mean(traced.before, traced.after, "reactor.queue_wait_ms");
  const auto hd = hist_delta_mean(traced.before, traced.after, "reactor.handler_ms");
  result.add_layer("reactor.queue_wait_ms", qw.first, "ms", static_cast<std::size_t>(qw.second));
  result.add_layer("reactor.handler_ms", hd.first, "ms", static_cast<std::size_t>(hd.second));
  result.add_layer("ingest.late_ms", mean(traced.late_ms), "ms", traced.late_ms.size());
  const auto door_serve = hist_delta_mean(traced.before, traced.after, "engine.serve_ms");
  emit_line(fmt("cross-check engine.serve_ms stats-door mean %.6f ms over %.0f requests",
                door_serve.first, door_serve.second));

  const double p50 = quantile(traced.mine_ms(), 0.5);
  result.add_layer("trace.overhead", p50 / quantile(plain.mine_ms(), 0.5) - 1.0, "ratio",
                   traced.mine.size());
  result.add_layer("trace.unaccounted_ratio", (p50 - (serve + codec + frame + qw.first)) / p50,
                   "ratio", roots);
  finish_trace(on, ctx.trace_path);
  return result;
}

}  // namespace perfbench

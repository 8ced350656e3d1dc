// Workload `serve-cluster`: a read-only closed loop through the router.
//
// Four ServeClient connections drive a RouterDaemon over four miner
// processes (one hash-mod shard each, one replica, one reactor loop and one
// compute lane per miner). The pool comes from a k = 4 exchange on the
// Shuttle shape; the request mix is four exact-merge jobs with fixed
// params, so after warm-up every model is cached and the router's
// sequential fan-out does most of the work.
#include <algorithm>
#include <memory>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"

namespace perfbench {

namespace net = sap::net;

namespace {

constexpr std::size_t kMiners = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kStreamBatches = 16;
constexpr std::size_t kBatchRecords = 32;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kSampleEvery = 4;
constexpr std::size_t kLayoutAttempts = 200;
constexpr const char* kRoot = "mine.request";

std::vector<JobMix> cluster_mix() {
  return {{"knn-train-accuracy", {{"k", 5.0}, {"eval-records", 128.0}}, 0.4},
          {"nb-train-accuracy", {{"eval-records", 128.0}}, 0.3},
          {"class-histogram", {}, 0.2},
          {"record-count", {}, 0.1}};
}

struct Cluster {
  std::vector<Child> miners;
  std::vector<net::SocketAddr> doors;
  Child router;
  net::SocketAddr front;
  double setup_s = 0.0;
};

Cluster launch(std::uint64_t seed, std::size_t pool_records) {
  Cluster c;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kMiners; ++i) {
    c.miners.emplace_back(std::vector<std::string>{
        "--child", "miner", "--seed", std::to_string(seed), "--shards", std::to_string(kMiners),
        "--index", std::to_string(i), "--loops", "1", "--lanes", "1"});
    c.doors.push_back({"127.0.0.1",
                       static_cast<std::uint16_t>(std::stoi(c.miners.back().expect("DOOR", 30'000)))});
  }
  std::string ports;
  for (auto& m : c.miners) (void)m.expect("READY", 120'000);
  for (const auto& d : c.doors) ports += (ports.empty() ? "" : ",") + std::to_string(d.port);
  c.router = Child({"--child", "router", "--seed", std::to_string(seed), "--miners", ports});
  c.front = {"127.0.0.1", static_cast<std::uint16_t>(std::stoi(c.router.expect("DOOR", 30'000)))};
  bool served = false;
  for (int attempt = 0; attempt < 2000 && !served; ++attempt) {
    try {
      net::ServeClient probe(c.front, seed, kParties);
      const auto resp = probe.mine_named("record-count");
      served = !resp.values.empty() && resp.values[0] == static_cast<double>(pool_records);
      probe.bye();
    } catch (const sap::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (!served) throw sap::Error("serve-cluster: the router never served the pool");
  c.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return c;
}

std::vector<sap::obs::Snapshot> miner_stats(const Cluster& c, std::uint64_t seed) {
  std::vector<sap::obs::Snapshot> out;
  for (const auto& d : c.doors) {
    net::ServeClient client(d, seed, kParties);
    out.push_back(client.stats().snapshot);
    client.bye();
  }
  return out;
}

/// Per-thread tracing resources: direct links to every miner and an
/// in-process router over the same miners.
struct Rebuilder {
  std::vector<std::unique_ptr<net::ServeClient>> direct;
  std::unique_ptr<net::ShardRouter> inproc;
};

/// Rebuild one routed request from the public primitives (pool_slice,
/// mine_partial, merge_partials) against the same miners, time every leg,
/// and check the rebuilt report equals the router's answer.
bool rebuild(Tracer& tr, std::uint64_t root, const JobMix& m, const proto::JobRegistry& registry,
             const proto::WireMiningResponse& answer, Rebuilder& rb,
             proto::MiningEngine& reference) {
  const auto& spec = registry.find(m.job);
  const auto resolved = spec.resolve_params(m.params);

  std::vector<double> req_wire, resp_wire;
  {
    ScopedSpan s(tr, root, "protocol.codec_us");
    req_wire = proto::encode_mining_request(m.job, m.params);
    (void)proto::decode_mining_request(req_wire);
    resp_wire = proto::encode_mining_response(answer);
    (void)proto::decode_mining_response(resp_wire);
  }
  tr.count(root, "protocol.wire_bytes", 8.0 * static_cast<double>(req_wire.size() + resp_wire.size()));
  replay_frame(tr, root, req_wire, proto::PayloadKind::kMiningRequest);
  replay_frame(tr, root, resp_wire, proto::PayloadKind::kMiningResponse);

  data::Dataset queries;
  if (spec.trainable()) {
    const auto limit = static_cast<std::size_t>(resolved.at("eval-records"));
    struct Row {
      proto::PoolKey key;
      std::size_t slice, row;
    };
    std::vector<proto::DecodedPoolSlice> slices;
    std::vector<Row> rows;
    for (std::size_t g = 0; g < kMiners; ++g) {
      const std::int64_t t = now_ns();
      slices.push_back(rb.direct[g]->pool_slice(g, limit));
      tr.span(root, "cluster.gather_ms", t, now_ns());
      const auto& sl = slices.back();
      std::vector<double> a, b;
      {
        ScopedSpan s(tr, root, "protocol.codec_us");
        a = proto::encode_pool_slice_request(g, limit);
        (void)proto::decode_pool_slice_request(a);
        b = proto::encode_pool_slice(sl.shard_epoch, sl.rows, sl.keys);
        (void)proto::decode_pool_slice(b);
      }
      tr.count(root, "cluster.leg_bytes", 8.0 * static_cast<double>(a.size() + b.size()));
      for (std::size_t i = 0; i < sl.rows.size(); ++i) rows.push_back({sl.keys[i], g, i});
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.key < b.key; });
    const std::size_t n = std::min(limit, rows.size());
    const std::size_t dims = slices[rows.front().slice].rows.dims();
    sap::linalg::Matrix features(n, dims, 0.0);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto rec = slices[rows[i].slice].rows.record(rows[i].row);
      std::copy(rec.begin(), rec.end(), features.row(i).begin());
      labels[i] = slices[rows[i].slice].rows.label(rows[i].row);
    }
    queries = data::Dataset("gathered", std::move(features), std::move(labels));
  }

  std::vector<std::vector<double>> partials;
  for (std::size_t g = 0; g < kMiners; ++g) {
    const std::int64_t t = now_ns();
    auto p = rb.direct[g]->mine_partial(g, m.job, m.params, queries);
    tr.span(root, "cluster.partial_ms", t, now_ns());
    std::vector<double> a, b;
    {
      ScopedSpan s(tr, root, "protocol.codec_us");
      a = proto::encode_partial_request(g, m.job, m.params, queries);
      (void)proto::decode_partial_request(a);
      b = proto::encode_partial_response(p.shard_epoch, p.blob);
      (void)proto::decode_partial_response(b);
    }
    tr.count(root, "cluster.leg_bytes", 8.0 * static_cast<double>(a.size() + b.size()));
    partials.push_back(std::move(p.blob));
  }
  std::vector<double> merged;
  {
    ScopedSpan s(tr, root, "cluster.merge_ms");
    merged = spec.merge_partials(partials, queries, resolved);
  }
  {
    const std::int64_t t = now_ns();
    (void)rb.inproc->mine_named(m.job, m.params);
    tr.span(root, "cluster.inproc_ms", t, now_ns());
    tr.count(root, "cluster.last_merge_ms", rb.inproc->last_merge_ms());
  }
  {
    ScopedSpan s(tr, root, "engine.serve_ms");
    (void)reference.run({m.job, m.params});
  }
  return merged == answer.values;
}

struct Pass {
  std::vector<Sample> lat;
  CpuTrace cpu;
  std::int64_t start = 0, window_end = 0, end = 0;
  std::vector<double> ms() const {
    std::vector<double> out;
    for (const auto& s : lat) out.push_back(s.ms);
    return out;
  }
};

/// One closed-loop window of `seconds` over the router.
Pass window(const RunContext& ctx, std::uint64_t xseed, const Cluster& c,
            const std::vector<JobMix>& mix, const std::vector<std::vector<double>>& expected,
            proto::MiningEngine& reference, Tracer& tr, Result& result) {
  const proto::JobRegistry registry = proto::JobRegistry::builtins();
  std::vector<std::vector<Sample>> lat(kClients);
  std::vector<std::size_t> attempted(kClients, 0), wrong(kClients, 0), rebuilt_wrong(kClients, 0);
  std::vector<std::string> errors(kClients);

  // Connections are opened and every model fitted before the clock starts.
  std::vector<std::unique_ptr<net::ServeClient>> clients;
  std::vector<Rebuilder> rebuilders(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<net::ServeClient>(c.front, xseed, kParties));
    for (std::size_t j = 0; j < mix.size(); ++j)
      for (int rep = 0; rep < 2; ++rep)
        if (clients[t]->mine_named(mix[j].job, mix[j].params).values != expected[j])
          result.wrong("serve-cluster warm-up answer differs from the flat engine: " + mix[j].job);
    if (tr.on()) {
      for (std::size_t g = 0; g < kMiners; ++g)
        rebuilders[t].direct.push_back(std::make_unique<net::ServeClient>(c.doors[g], xseed, kParties));
      net::ShardRouterOptions ropts;
      ropts.miners = c.doors;
      ropts.replicas = 1;
      ropts.layout = proto::ShardLayout::kHashMod;
      ropts.seed = xseed;
      ropts.parties = kParties;
      rebuilders[t].inproc = std::make_unique<net::ShardRouter>(ropts);
      for (const auto& m : mix) (void)rebuilders[t].inproc->mine_named(m.job, m.params);
    }
  }

  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(ctx.seconds) * 1'000'000'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      sap::rng::Engine eng(ctx.seed * 0x9E3779B97F4A7C15ULL + t + 1);
      try {
        for (std::size_t k = 0; now_ns() < end; ++k) {
          const std::size_t j = pick(mix, eng);
          const std::int64_t t0 = now_ns();
          ++attempted[t];
          const auto resp = clients[t]->mine_named(mix[j].job, mix[j].params);
          const std::int64_t t1 = now_ns();
          lat[t].push_back({t1, ms_between(t0, t1)});
          if (resp.values != expected[j]) ++wrong[t];
          if (tr.on() && k % kSampleEvery == 0) {
            const std::uint64_t root = tr.root(kRoot, t0, t1);
            tr.span(root, "cluster.router_rtt", t0, t1);
            if (!rebuild(tr, root, mix[j], registry, resp, rebuilders[t], reference))
              ++rebuilt_wrong[t];
            tr.extend(root, now_ns());
          }
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  Pass pass;
  std::string sample_error;
  try {
    std::vector<const Child*> serving{&c.router};
    for (const auto& m : c.miners) serving.push_back(&m);
    pass.cpu = sample_cpu(serving, start, end);
  } catch (const std::exception& e) {
    sample_error = e.what();
  }
  for (auto& th : threads) th.join();
  if (!sample_error.empty()) throw sap::Error("serve-cluster: " + sample_error);
  pass.start = start;
  pass.window_end = end;
  pass.end = now_ns();
  for (std::size_t t = 0; t < kClients; ++t) {
    result.attempted += attempted[t];
    if (!errors[t].empty()) result.wrong("serve-cluster client failed: " + errors[t]);
    for (std::size_t w = 0; w < wrong[t]; ++w)
      result.wrong("serve-cluster answer differs from the flat single-shard engine");
    for (std::size_t w = 0; w < rebuilt_wrong[t]; ++w)
      result.wrong("serve-cluster rebuilt request differs from the router's answer");
    pass.lat.insert(pass.lat.end(), lat[t].begin(), lat[t].end());
    clients[t]->bye();
  }
  return pass;
}

}  // namespace

Result run_serve_cluster(const RunContext& ctx) {
  Result result;
  // The exchange seed is the first one derived from the workload seed whose
  // four party nonces hash onto the four shards one each, so every seed
  // measures the same cluster layout (and no miner serves an empty shard).
  std::uint64_t xseed = 0;
  Prep prep;
  std::vector<proto::logic::LocalPerturbation> locals;
  {
    sap::rng::Engine seeder(ctx.seed ^ 0x5EED5C1u);
    const std::int64_t t0 = now_ns();
    std::size_t attempt = 0;
    for (; attempt < kLayoutAttempts; ++attempt) {
      xseed = seeder() >> 20;
      prep = make_prep("Shuttle", kStreamBatches, kBatchRecords, xseed);
      locals = replay_locals(prep);
      std::vector<std::size_t> per_shard(kMiners, 0);
      for (const auto& l : locals)
        ++per_shard[proto::shard_of_nonce(l.nonce, kMiners, proto::ShardLayout::kHashMod)];
      if (std::count(per_shard.begin(), per_shard.end(), 1) == static_cast<long>(kMiners)) break;
    }
    if (attempt == kLayoutAttempts)
      throw sap::Error("serve-cluster: no balanced shard layout among the derived seeds");
    emit_line(fmt("serve-cluster exchange seed %llu (balanced layout after %zu attempts, %.1f s)",
                  static_cast<unsigned long long>(xseed), attempt + 1,
                  static_cast<double>(now_ns() - t0) / 1e9));
  }
  const auto mix = cluster_mix();

  // The flat single-shard reference over the union pool.
  const Reference ref = reference_session(prep);
  proto::MiningEngine reference;
  reference.set_pool(ref.result.unified);
  std::vector<std::vector<double>> expected;
  for (const auto& m : mix) expected.push_back(reference.run({m.job, m.params}).values);
  if (ctx.corrupt_reference) expected[0].back() += 1.0;
  double rho_min = 1e300;
  for (const auto& p : ref.result.parties) rho_min = std::min(rho_min, p.local_rho);

  // Set-up, several times; the last cluster stays up for the window.
  std::vector<double> setup;
  Cluster cluster;
  for (std::size_t k = 0; k < (ctx.trace ? 1 : kSetups); ++k) {
    cluster = Cluster{};  // tear the previous cluster down first
    cluster = launch(xseed, prep.pool_records);
    setup.push_back(cluster.setup_s);
  }

  Tracer off(false), on(true);
  if (!ctx.trace) {
    const Pass pass = window(ctx, xseed, cluster, mix, expected, reference, off, result);

    double rss = cluster.router.peak_rss_mb();
    for (const auto& m : cluster.miners) rss += m.peak_rss_mb();
    result.add_e2e("setup_s", quantile(setup, 0.5), "s", setup.size());
    result.add_e2e("rho_min", rho_min, "ratio", kParties);
    result.add_e2e("rss_mb", rss, "MiB", kMiners + 1);
    const Cost cost = cost_per_request(pass.cpu, pass.lat, pass.start, pass.window_end);
    result.add_e2e("mine_cpu_ms", cost.cpu_ms, "ms", pass.lat.size());
    emit_line(fmt("info mine_cost = %.6f ref (n=%zu)", cost.ref_units, pass.lat.size()));
    emit_wall_info("mine", pass.lat, pass.start, pass.end);
    return result;
  }

  // Traced run: the same window untraced, then traced, on the same cluster.
  const double rtt_us = measure_rtt_us(cluster.doors[0], xseed, 200);
  const Pass plain = window(ctx, xseed, cluster, mix, expected, reference, off, result);
  const auto before = miner_stats(cluster, xseed);
  const Pass traced = window(ctx, xseed, cluster, mix, expected, reference, on, result);
  const auto after = miner_stats(cluster, xseed);

  const auto sum = [&](const char* name) { return on.per_root_ms(kRoot, name, Tracer::Agg::kSum); };
  const std::size_t roots = on.roots(kRoot);
  const double gather = sum("cluster.gather_ms"), partial = sum("cluster.partial_ms");
  const double merge = sum("cluster.merge_ms"), codec = sum("protocol.codec_us");
  const double frame = sum("net.frame_us");
  result.add_layer("cluster.front_wait_ms", sum("cluster.router_rtt") - sum("cluster.inproc_ms"),
                   "ms", roots);
  result.add_layer("cluster.gather_ms", gather, "ms", roots);
  result.add_layer("cluster.partial_ms", partial, "ms", roots);
  result.add_layer("cluster.partial_max_ms",
                   on.per_root_ms(kRoot, "cluster.partial_ms", Tracer::Agg::kMax), "ms", roots);
  result.add_layer("cluster.merge_ms", merge, "ms", roots);
  result.add_layer("cluster.legs",
                   on.per_root_spans(kRoot, "cluster.gather_ms") +
                       on.per_root_spans(kRoot, "cluster.partial_ms"),
                   "count", roots);
  result.add_layer("cluster.leg_bytes", on.per_root_count(kRoot, "cluster.leg_bytes"), "bytes",
                   roots);
  result.add_layer("engine.serve_ms", sum("engine.serve_ms"), "ms", roots);
  result.add_layer("protocol.codec_us", codec * 1e3, "us", roots);
  result.add_layer("protocol.wire_bytes", on.per_root_count(kRoot, "protocol.wire_bytes"),
                   "bytes", roots);
  result.add_layer("net.frame_us", frame * 1e3, "us", roots);
  result.add_layer("net.rtt_us", rtt_us, "us", 200);
  const double hits = counter_of(after, "engine.cache.hits") - counter_of(before, "engine.cache.hits");
  const double fits = counter_of(after, "engine.cache.fits") - counter_of(before, "engine.cache.fits");
  const double inc = counter_of(after, "engine.cache.incremental") -
                     counter_of(before, "engine.cache.incremental");
  result.add_layer("engine.cache_hit_ratio", hits + fits + inc > 0 ? hits / (hits + fits + inc) : 0.0,
                   "ratio", static_cast<std::size_t>(hits + fits + inc));
  result.add_layer("engine.incremental_ratio", inc + fits > 0 ? inc / (inc + fits) : 0.0, "ratio",
                   static_cast<std::size_t>(inc + fits));
  const auto qw = hist_delta_mean(before, after, "reactor.queue_wait_ms");
  const auto hd = hist_delta_mean(before, after, "reactor.handler_ms");
  result.add_layer("reactor.queue_wait_ms", qw.first, "ms", static_cast<std::size_t>(qw.second));
  result.add_layer("reactor.handler_ms", hd.first, "ms", static_cast<std::size_t>(hd.second));
  const auto door_serve = hist_delta_mean(before, after, "engine.serve_ms");
  emit_line(fmt("cross-check engine.serve_ms stats-door mean %.6f ms over %.0f miner requests; "
                "cluster.merge_ms last_merge_ms mean %.6f ms",
                door_serve.first, door_serve.second,
                on.per_root_count(kRoot, "cluster.last_merge_ms")));

  const double p50 = quantile(traced.ms(), 0.5);
  result.add_layer("trace.overhead", p50 / quantile(plain.ms(), 0.5) - 1.0, "ratio",
                   traced.lat.size());
  result.add_layer("trace.unaccounted_ratio",
                   (p50 - (gather + partial + merge + (codec + frame))) / p50, "ratio", roots);
  finish_trace(on, ctx.trace_path);
  return result;
}

}  // namespace perfbench

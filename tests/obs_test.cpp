// sap::obs tests — the observability layer's own contracts (DESIGN.md §12):
//
//   * concurrency: sharded counters, histograms, and registry registration
//     hammered from many threads count exactly (and are TSAN-clean);
//   * exact merge: a merged histogram snapshot equals the histogram of the
//     union of the samples BUCKET FOR BUCKET — the property the router's
//     cluster aggregation rests on;
//   * codec: kStatsResponse round-trips a full snapshot + trace records and
//     rejects malformed wires;
//   * purity: metrics on vs off cannot move a single bit of the optimizer
//     baseline (pinned against tests/golden.hpp) or of a live member's
//     served reports;
//   * live doors: a real miner answers the stats door with non-zero
//     counters, a stats request never counts itself as served traffic, and
//     a client-minted trace id propagates through a RouterDaemon to every
//     sharded miner that handled the fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster_fixture.hpp"
#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "golden.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "optimize/optimizer.hpp"
#include "protocol/message.hpp"
#include "rng/rng.hpp"

namespace {

using sap::rng::Engine;
using sap::testing::Cluster;
using sap::testing::Member;
namespace net = sap::net;
namespace obs = sap::obs;
namespace proto = sap::proto;

/// RAII guard: force the metrics switch for a scope, restore on exit (the
/// switch is process-global and tests share one binary).
struct EnabledGuard {
  bool saved;
  explicit EnabledGuard(bool on) : saved(obs::enabled()) { obs::set_enabled(on); }
  ~EnabledGuard() { obs::set_enabled(saved); }
};

std::uint64_t counter_value(const obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0;
}

bool has_gauge(const obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges)
    if (n == name) return true;
  return false;
}

const obs::HistogramSnapshot* find_hist(const obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms)
    if (n == name) return &h;
  return nullptr;
}

// ---- concurrency ---------------------------------------------------------

TEST(ObsRegistry, ConcurrentRegistrationAndRecordingCountsExactly) {
  obs::Registry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 20'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread re-looks-up the shared names (registration races) and
      // also owns a private counter (map growth races against lookups).
      obs::Counter& shared = registry.counter("hammer.shared");
      obs::Histogram& hist = registry.histogram("hammer.ms");
      obs::Counter& mine = registry.counter("hammer.t" + std::to_string(t));
      for (std::size_t i = 0; i < kIters; ++i) {
        shared.increment();
        mine.add(2);
        hist.record(static_cast<double>(i % 97));
        if (i % 1024 == 0) registry.set_gauge("hammer.gauge", static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "hammer.shared"), kThreads * kIters);
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(counter_value(snap, "hammer.t" + std::to_string(t)), 2 * kIters);
  const auto* hist = find_hist(snap, "hammer.ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kIters);
  EXPECT_TRUE(has_gauge(snap, "hammer.gauge"));
}

TEST(ObsCounter, DisabledSwitchFreezesValues) {
  obs::Counter c;
  c.add(5);
  {
    EnabledGuard off(false);
    c.add(100);
    c.increment();
  }
  EXPECT_EQ(c.value(), 5u);
  c.increment();
  EXPECT_EQ(c.value(), 6u);
}

// ---- exact merge ---------------------------------------------------------

TEST(ObsHistogram, MergeEqualsUnionBucketForBucket) {
  // Two disjoint-ish sample sets spanning sub-ms to minutes, including
  // exact bucket boundaries and the underflow/overflow edges.
  std::vector<double> a, b;
  Engine eng(20260808);
  for (std::size_t i = 0; i < 4000; ++i) a.push_back(eng.uniform(0.0001, 40.0));
  for (std::size_t i = 0; i < 3000; ++i) b.push_back(eng.uniform(5.0, 90'000.0));
  a.push_back(0.0);            // underflow bucket
  b.push_back(6.0e6);          // overflow bucket
  a.push_back(1.0);            // octave boundary
  b.push_back(1024.0);

  obs::Histogram ha, hb, hu;
  for (const double v : a) {
    ha.record(v);
    hu.record(v);
  }
  for (const double v : b) {
    hb.record(v);
    hu.record(v);
  }

  obs::HistogramSnapshot merged = ha.snapshot();
  merged.merge(hb.snapshot());
  const obs::HistogramSnapshot whole = hu.snapshot();

  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(merged.max, whole.max);  // max of maxes is exact
  ASSERT_EQ(merged.buckets.size(), whole.buckets.size());
  for (std::size_t i = 0; i < whole.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i].first, whole.buckets[i].first) << "bucket index " << i;
    EXPECT_EQ(merged.buckets[i].second, whole.buckets[i].second)
        << "bucket count at index " << merged.buckets[i].first;
  }
  // Sums accumulate in different orders; equality is up to rounding only.
  EXPECT_NEAR(merged.sum, whole.sum, 1e-6 * std::abs(whole.sum));
  // Identical buckets => identical quantiles, bit for bit.
  for (const double q : {0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(merged.quantile(q), whole.quantile(q));
}

TEST(ObsHistogram, QuantilesWithinBucketResolution) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  // Log-linear buckets bound relative error by ~1/kSubBuckets.
  EXPECT_NEAR(snap.quantile(0.50), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(snap.quantile(0.95), 950.0, 950.0 * 0.13);
  EXPECT_NEAR(snap.quantile(0.99), 990.0, 990.0 * 0.13);
  EXPECT_EQ(snap.quantile(1.0), 1000.0);  // exact max
  EXPECT_NEAR(snap.mean(), 500.5, 1e-9);
}

TEST(ObsSnapshot, MergeAddsCountersAndExpositionIsVersioned) {
  obs::Snapshot a, b;
  a.set_counter("serve.requests", 3);
  a.set_gauge("pool.records", 100.0);
  b.set_counter("serve.requests", 4);
  b.set_gauge("pool.records", 50.0);
  a.normalize();
  b.normalize();
  a.merge(b);
  a.normalize();
  EXPECT_EQ(counter_value(a, "serve.requests"), 7u);

  const std::string text = a.to_text();
  EXPECT_EQ(text.rfind("sap-stats v1", 0), 0u) << text;
  EXPECT_NE(text.find("serve.requests"), std::string::npos);
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"version\""), std::string::npos);
  EXPECT_NE(json.find("serve.requests"), std::string::npos);
}

// ---- codec ---------------------------------------------------------------

TEST(ObsCodec, StatsResponseRoundTripsExactly) {
  obs::Registry registry;
  registry.counter("serve.requests").add(41);
  registry.set_gauge("reactor.live", 7.5);
  obs::Histogram& h = registry.histogram("engine.serve_ms");
  for (int i = 0; i < 500; ++i) h.record(0.05 * static_cast<double>(i));
  obs::Snapshot snap = registry.snapshot();
  snap.normalize();

  std::vector<obs::TraceRecord> traces(2);
  traces[0].id = 0xD00D000000000001ull;
  traces[0].op = "kMiningRequest";
  traces[0].stage_ms = {0.1, 0.2, 3.5, 0.0, 0.05};
  traces[1].id = 0x5A90000000000007ull;
  traces[1].op = "nb-train-accuracy";
  traces[1].stage_ms = {0.0, 0.0, 1.25, 0.75, 0.01};

  const std::vector<double> wire = proto::encode_stats_response(snap, traces);
  const proto::DecodedStats decoded = proto::decode_stats_response(wire);

  ASSERT_EQ(decoded.snapshot.counters.size(), snap.counters.size());
  EXPECT_EQ(counter_value(decoded.snapshot, "serve.requests"), 41u);
  ASSERT_EQ(decoded.snapshot.gauges.size(), 1u);
  EXPECT_EQ(decoded.snapshot.gauges[0].first, "reactor.live");
  EXPECT_EQ(decoded.snapshot.gauges[0].second, 7.5);

  const auto* got = find_hist(decoded.snapshot, "engine.serve_ms");
  const auto* want = find_hist(snap, "engine.serve_ms");
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->count, want->count);
  EXPECT_EQ(got->sum, want->sum);  // doubles ride the wire verbatim
  EXPECT_EQ(got->max, want->max);
  EXPECT_EQ(got->buckets, want->buckets);

  ASSERT_EQ(decoded.traces.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded.traces[i].id, traces[i].id);
    EXPECT_EQ(decoded.traces[i].op, traces[i].op);
    EXPECT_EQ(decoded.traces[i].stage_ms, traces[i].stage_ms);
  }
}

TEST(ObsCodec, RejectsMalformedStatsWires) {
  obs::Snapshot snap;
  snap.set_counter("a", 1);
  snap.normalize();
  const std::vector<double> wire = proto::encode_stats_response(snap, {});

  EXPECT_THROW(proto::decode_stats_response({}), sap::Error);

  std::vector<double> bad_version = wire;
  bad_version[0] = 2.0;
  EXPECT_THROW(proto::decode_stats_response(bad_version), sap::Error);

  std::vector<double> truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(proto::decode_stats_response(truncated), sap::Error);

  std::vector<double> trailing = wire;
  trailing.push_back(0.0);
  EXPECT_THROW(proto::decode_stats_response(trailing), sap::Error);

  EXPECT_THROW(proto::decode_stats_request(std::vector<double>{2.0}), sap::Error);
}

// ---- trace primitives ----------------------------------------------------

TEST(ObsTrace, RingBoundsMemoryAndKeepsNewestOldestFirst) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    obs::TraceRecord rec;
    rec.id = i;
    ring.push(std::move(rec));
  }
  EXPECT_EQ(ring.total(), 6u);
  const auto recent = ring.recent();
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(recent[i].id, i + 3);  // 3,4,5,6
  const auto newest = ring.recent(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].id, 5u);
  EXPECT_EQ(newest[1].id, 6u);

  {
    EnabledGuard off(false);
    obs::TraceRecord rec;
    rec.id = 99;
    ring.push(std::move(rec));
  }
  EXPECT_EQ(ring.total(), 6u) << "disabled pushes must be dropped";
}

TEST(ObsTrace, MinterIsSaltedAndMonotone) {
  obs::TraceMinter a(0x5A9), b(0x5A9 ^ 0xD00D);
  const std::uint64_t a1 = a.mint(), a2 = a.mint(), b1 = b.mint();
  EXPECT_NE(a1, 0u);
  EXPECT_EQ(a2, a1 + 1);
  EXPECT_EQ(a1 >> 48, 0x5A9u);
  EXPECT_EQ(b1 >> 48, (0x5A9u ^ 0xD00Du));
  EXPECT_NE(a1, b1);
}

// ---- purity: metrics on/off is bit-identical -----------------------------

TEST(ObsPurity, OptimizerBaselineUnmovedByMetricsSwitch) {
  const auto ds = sap::data::make_uci("Wine", 5);
  sap::data::MinMaxNormalizer norm;
  norm.fit(ds.features());
  const auto x = norm.transform(ds.features()).transpose();  // d x N

  sap::opt::OptimizerOptions opts;
  opts.candidates = 6;
  opts.refine_steps = 3;
  opts.max_eval_records = 100;
  opts.attacks.naive = true;
  opts.attacks.ica = false;
  opts.attacks.known_inputs = 4;

  double rho_on = 0.0, rho_off = 0.0;
  {
    EnabledGuard on(true);
    Engine eng(99);
    rho_on = sap::opt::optimize_perturbation(x, opts, eng).best_rho;
  }
  {
    EnabledGuard off(false);
    Engine eng(99);
    rho_off = sap::opt::optimize_perturbation(x, opts, eng).best_rho;
  }
  // Bit-identical across the switch, and still on the pinned baseline.
  EXPECT_DOUBLE_EQ(rho_on, rho_off);
  EXPECT_NEAR(rho_on, sap::testing::kGoldenWineBestRho, sap::testing::kGoldenTolerance);
}

TEST(ObsPurity, ServedReportsUnmovedByMetricsSwitch) {
  Cluster cluster(7203);
  Member m;
  net::MinerDaemonOptions dopts;
  m.start(cluster.shards, cluster.sap_opts, cluster.seed, dopts);

  const char* const jobs[] = {"record-count", "nb-train-accuracy", "knn-train-accuracy"};
  std::vector<std::vector<double>> served[2];  // [0] metrics on, [1] off
  for (const bool on : {true, false}) {
    EnabledGuard guard(on);
    net::ServeClient client(m.daemon->reactor_addr(), cluster.seed, cluster.k);
    for (const char* job : jobs) served[on ? 0 : 1].push_back(client.mine_named(job).values);
    client.bye();
  }
  for (std::size_t j = 0; j < std::size(jobs); ++j) {
    EXPECT_EQ(served[0][j], served[1][j]) << jobs[j];
    EXPECT_EQ(served[0][j], m.daemon->engine().run({jobs[j], {}}).values) << jobs[j];
  }
  m.stop();
}

// ---- live doors ----------------------------------------------------------

TEST(StatsDoor, MinerAnswersWithLiveCountersAndNeverCountsItself) {
  Cluster cluster(7201);
  Member m;
  net::MinerDaemonOptions dopts;
  m.start(cluster.shards, cluster.sap_opts, cluster.seed, dopts);

  net::ServeClient client(m.daemon->reactor_addr(), cluster.seed, cluster.k);
  (void)client.mine_named("record-count");
  (void)client.mine_named("nb-train-accuracy", {{"eval-records", 48.0}});
  const proto::DecodedStats first = client.stats();
  const std::uint64_t served = counter_value(first.snapshot, "serve.requests");
  EXPECT_GE(served, 2u);
  const auto* serve_ms = find_hist(first.snapshot, "engine.serve_ms");
  ASSERT_NE(serve_ms, nullptr);
  EXPECT_GE(serve_ms->count, 2u);
  EXPECT_GE(counter_value(first.snapshot, "reactor.requests"), 2u);
  EXPECT_TRUE(has_gauge(first.snapshot, "pool.records"));
  EXPECT_TRUE(has_gauge(first.snapshot, "pool.epoch"));
  ASSERT_FALSE(first.traces.empty());

  // A stats request is pure measurement: it must not move the serving
  // counters it reports, and it records no trace of itself.
  const proto::DecodedStats second = client.stats();
  EXPECT_EQ(counter_value(second.snapshot, "serve.requests"), served);
  EXPECT_EQ(second.traces.size(), first.traces.size());

  client.bye();
  m.stop();
}

TEST(StatsDoor, TraceIdPropagatesThroughRouterToEveryShard) {
  Cluster cluster(7202);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);

  net::RouterDaemonOptions ropts;
  ropts.router.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.router.replicas = 1;
  ropts.router.seed = cluster.seed;
  ropts.router.parties = cluster.k;
  ropts.reactor.listen = {"127.0.0.1", 0};
  auto router = std::make_unique<net::RouterDaemon>(ropts);

  constexpr std::uint64_t kTraceId = 0xABCD12345678ull;
  net::ServeClient client(router->local_addr(), cluster.seed, cluster.k);
  client.set_trace(kTraceId);
  const auto resp = client.mine_named("record-count");
  EXPECT_FALSE(resp.values.empty());

  // The response frame echoes the id end to end...
  EXPECT_EQ(client.last_trace(), kTraceId);

  // ...the router recorded the hop under the SAME id (with its merge stage
  // stamped)...
  bool router_saw = false;
  for (const auto& rec : router->traces().recent()) {
    if (rec.id == kTraceId) {
      router_saw = true;
      EXPECT_GT(rec.total_ms(), 0.0);
    }
  }
  EXPECT_TRUE(router_saw);

  // ...and so did EVERY sharded miner the scatter touched (record-count has
  // an exact-merge contract: one partial per shard).
  for (Member* member : {&a, &b}) {
    bool miner_saw = false;
    for (const auto& rec : member->daemon->traces().recent())
      if (rec.id == kTraceId) miner_saw = true;
    EXPECT_TRUE(miner_saw) << "miner did not record the propagated trace id";
  }

  // The router's stats door serves the cluster-wide aggregate: merged
  // counters from both miners plus its own, per-miner gauges namespaced.
  net::ServeClient stats_client(router->local_addr(), cluster.seed, cluster.k);
  const proto::DecodedStats agg = stats_client.stats();
  EXPECT_GE(counter_value(agg.snapshot, "serve.requests"), 2u);
  EXPECT_GE(counter_value(agg.snapshot, "router.mine_requests"), 1u);
  bool namespaced = false;
  for (const auto& [name, value] : agg.snapshot.gauges)
    if (name.rfind("m0.", 0) == 0 || name.rfind("m1.", 0) == 0) namespaced = true;
  EXPECT_TRUE(namespaced) << "per-miner gauges must arrive namespaced m<i>.*";

  stats_client.bye();
  client.bye();
  router->stop();
  router.reset();
  a.stop();
  b.stop();
}

}  // namespace

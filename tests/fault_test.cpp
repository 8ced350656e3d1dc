// Fault-injection and self-healing tests (net/fault.hpp + the retry,
// breaker, and resync machinery of DESIGN.md §13):
//
//   * plan layer: FaultPlan specs parse, round-trip through to_string,
//     split `rate` evenly, and reject malformed input loudly;
//   * schedule layer: decision_word is a pure function of (seed, index) —
//     the same seed replays the IDENTICAL fault schedule (kinds, trace,
//     stats), and a different seed diverges;
//   * chaos layer: with faults injected at the socket boundary, every
//     retried response is BIT-IDENTICAL to the fault-free reference — a
//     fault never silently corrupts a report, it either heals or fails
//     typed;
//   * retry taxonomy: typed refusals are never retried, idempotent ops are
//     budget- AND deadline-bounded, contributions never retry at the
//     transport level;
//   * circuit breaker: consecutive transport failures trip it, an open
//     breaker fails fast, a cooled-down breaker probes half-open through
//     the stats door and re-opens (probe fails) or closes (probe lands);
//   * negative-connect cache: a dead miner's connect cost is paid once per
//     window, failovers inside it skip without dialing;
//   * rejoin: a freshly-started miner resyncs its owned shards from a live
//     peer through the shard-snapshot door and serves bit-identical to the
//     donor at the donor's epoch.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster_fixture.hpp"
#include "common/error.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "protocol/mining_engine.hpp"

namespace {

using sap::testing::Cluster;
using sap::testing::Member;
namespace net = sap::net;
namespace proto = sap::proto;
namespace fault = sap::net::fault;

/// Uninstalls on scope exit so a failing assertion can't leak an active
/// fault plan into the rest of the suite (or into gtest's own plumbing).
struct FaultGuard {
  FaultGuard() = default;
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
  ~FaultGuard() { fault::uninstall(); }
};

// ---- plan layer ----------------------------------------------------------

TEST(FaultPlan, ParsesEveryFieldAndRoundTripsThroughToString) {
  const auto plan = fault::FaultPlan::parse(
      "seed=77,drop=0.02,delay=0.1,partial=0.05,truncate=0.04,corrupt=0.03,"
      "reset=0.01,accept=0.06,delay_ms=7");
  EXPECT_EQ(plan.seed, 77u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.02);
  EXPECT_DOUBLE_EQ(plan.delay, 0.1);
  EXPECT_DOUBLE_EQ(plan.partial, 0.05);
  EXPECT_DOUBLE_EQ(plan.truncate, 0.04);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.03);
  EXPECT_DOUBLE_EQ(plan.reset, 0.01);
  EXPECT_DOUBLE_EQ(plan.refuse_accept, 0.06);
  EXPECT_EQ(plan.delay_ms, 7);
  // to_string re-parses to the same plan (the operator's round trip).
  const auto again = fault::FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_DOUBLE_EQ(again.refuse_accept, plan.refuse_accept);
  EXPECT_EQ(again.delay_ms, plan.delay_ms);
}

TEST(FaultPlan, RateSplitsEvenlyAcrossDropCorruptReset) {
  const auto plan = fault::FaultPlan::parse("seed=9,rate=0.06");
  EXPECT_DOUBLE_EQ(plan.drop, 0.02);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.02);
  EXPECT_DOUBLE_EQ(plan.reset, 0.02);
  EXPECT_DOUBLE_EQ(plan.delay, 0.0);
}

TEST(FaultPlan, RejectsMalformedSpecsLoudly) {
  EXPECT_THROW((void)fault::FaultPlan::parse("drop"), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("drop="), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("drop=1.5"), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("drop=-0.1"), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("drop=abc"), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("seed=1x"), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("delay_ms=0"), sap::Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("chaos=1"), sap::Error);
}

// ---- schedule layer ------------------------------------------------------

TEST(FaultSchedule, DecisionWordIsAPureFunctionOfSeedAndIndex) {
  const std::uint64_t w = fault::decision_word(7, 0);
  EXPECT_EQ(fault::decision_word(7, 0), w);
  EXPECT_NE(fault::decision_word(8, 0), w);
  EXPECT_NE(fault::decision_word(7, 1), w);
  // Installing a plan (which owns the process-global decision counter)
  // must not perturb the pure function.
  FaultGuard guard;
  fault::install(fault::FaultPlan::parse("seed=123,rate=0.5"));
  (void)fault::next_write_fault(64);
  EXPECT_EQ(fault::decision_word(7, 0), w);
}

TEST(FaultSchedule, SameSeedReplaysTheIdenticalSchedule) {
  FaultGuard guard;
  const auto draw_schedule = [](const fault::FaultPlan& plan) {
    fault::install(plan);
    std::vector<fault::Kind> kinds;
    for (int i = 0; i < 256; ++i) kinds.push_back(fault::next_write_fault(64).kind);
    for (int i = 0; i < 128; ++i) kinds.push_back(fault::next_read_fault(64).kind);
    for (int i = 0; i < 64; ++i)
      kinds.push_back(fault::next_connect_fault() ? fault::Kind::kReset
                                                  : fault::Kind::kNone);
    for (int i = 0; i < 64; ++i)
      kinds.push_back(fault::next_accept_fault() ? fault::Kind::kRefuseAccept
                                                 : fault::Kind::kNone);
    auto trace = fault::trace();
    auto stats = fault::stats();
    fault::uninstall();
    return std::tuple(std::move(kinds), std::move(trace), stats);
  };

  const auto plan = fault::FaultPlan::parse(
      "seed=4242,drop=0.1,delay=0.1,partial=0.1,truncate=0.1,corrupt=0.1,"
      "reset=0.1,accept=0.4,delay_ms=1");
  const auto [kinds_a, trace_a, stats_a] = draw_schedule(plan);
  const auto [kinds_b, trace_b, stats_b] = draw_schedule(plan);
  EXPECT_EQ(kinds_a, kinds_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(stats_a.decisions, 512u);
  EXPECT_EQ(stats_b.decisions, 512u);
  EXPECT_EQ(stats_a.injected, stats_b.injected);
  EXPECT_GT(stats_a.total_injected(), 0u);
  EXPECT_EQ(trace_a.size(), stats_a.total_injected());

  // A different seed is a different schedule.
  auto reseeded = plan;
  reseeded.seed = 4243;
  const auto [kinds_c, trace_c, stats_c] = draw_schedule(reseeded);
  EXPECT_NE(kinds_a, kinds_c);
}

// ---- live-cluster harness (cluster_test idiom) ---------------------------

/// The chaos jobs: one counter, one exact-merge histogram, one model
/// trainer — enough job diversity to cover the partial/merge, gather, and
/// route serving paths without making the faulted rounds slow.
const char* const kChaosJobs[] = {"record-count", "class-histogram",
                                  "nb-train-accuracy"};

proto::JobParams job_params(const std::string& job) {
  proto::JobParams params;
  if (job.find("train-accuracy") != std::string::npos) params["eval-records"] = 48.0;
  return params;
}

// ---- chaos layer ---------------------------------------------------------

TEST(FaultChaos, RetriedResponsesAreBitIdenticalToTheFaultFreeReference) {
  Cluster cluster(9101);
  Member a;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);

  // Fault-free reference responses, one per chaos job.
  std::map<std::string, std::vector<double>> want;
  {
    net::ServeClient c(a.daemon->reactor_addr(), cluster.seed, cluster.k);
    for (const char* job : kChaosJobs) want[job] = c.mine_named(job, job_params(job)).values;
    c.bye();
  }

  FaultGuard guard;
  fault::install(fault::FaultPlan::parse(
      "seed=42,drop=0.02,delay=0.08,partial=0.04,truncate=0.01,corrupt=0.015,"
      "reset=0.015,delay_ms=2"));

  net::ServeClient::Options copts;
  copts.timeout_ms = 400;  // a dropped frame costs one short timeout, not 10 s
  copts.retry_attempts = 12;
  copts.retry_backoff_ms = 1;
  copts.retry_backoff_cap_ms = 8;
  copts.retry_deadline_ms = 60'000;

  // The dial itself can draw an injected connect reset — budget-bounded.
  std::unique_ptr<net::ServeClient> client;
  for (int attempt = 0; attempt < 32 && !client; ++attempt) {
    try {
      client = std::make_unique<net::ServeClient>(a.daemon->reactor_addr(),
                                                  cluster.seed, cluster.k, copts);
    } catch (const sap::Error&) {
    }
  }
  ASSERT_TRUE(client) << "could not dial through the fault plan";

  // Under ~10% injected faults the robustness contract is: every response
  // is BIT-IDENTICAL to the fault-free reference or a TYPED error (a retry
  // budget can legitimately exhaust) — never a silently different report.
  std::size_t served = 0;
  std::size_t typed = 0;
  for (int round = 0; round < 3; ++round) {
    for (const char* job : kChaosJobs) {
      try {
        const auto got = client->mine_named(job, job_params(job));
        EXPECT_EQ(got.values, want[job])
            << job << " diverged under faults in round " << round;
        ++served;
      } catch (const sap::Error&) {
        ++typed;  // budget exhausted: typed, never wrong
      }
    }
  }
  EXPECT_GE(served, 7u) << "availability collapsed: " << typed << " typed failures";
  EXPECT_GT(fault::stats().decisions, 0u);
  EXPECT_GT(fault::stats().total_injected(), 0u);

  // The stats door discloses the chaos: this process says it injects.
  bool disclosed = false;
  for (int attempt = 0; attempt < 5 && !disclosed; ++attempt) {
    try {
      const auto decoded = client->stats();
      for (const auto& [name, value] : decoded.snapshot.counters)
        if (name == "fault.decisions" && value > 0) disclosed = true;
      break;
    } catch (const sap::Error&) {
    }
  }
  EXPECT_TRUE(disclosed) << "stats door must surface fault.decisions under chaos";

  fault::uninstall();
  try {
    client->bye();
  } catch (const sap::Error&) {
    // The last injected fault may have torn the socket; goodbye is polite,
    // not load-bearing.
  }
  a.stop();
}

TEST(FaultRetry, TypedRefusalsBudgetsAndDeadlinesBoundEveryRetry) {
  Cluster cluster(9102);
  Member a;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);

  // A typed refusal is definitive: the daemon ANSWERED. No retry burned.
  // (Generous timeout: this check is about taxonomy, not latency.)
  {
    net::ServeClient::Options gopts;
    gopts.retry_attempts = 2;
    net::ServeClient refusal(a.daemon->reactor_addr(), cluster.seed, cluster.k, gopts);
    try {
      (void)refusal.mine_named("no-such-job");
      ADD_FAILURE() << "expected net::ServeError for an unknown job";
    } catch (const net::ServeError& e) {
      EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest);
    }
    EXPECT_EQ(refusal.retries(), 0u);
    refusal.bye();
  }

  // The budget client dials (and handshakes) BEFORE the black hole opens;
  // its short timeout keeps each doomed attempt cheap.
  net::ServeClient::Options copts;
  copts.timeout_ms = 150;
  copts.retry_attempts = 2;
  copts.retry_backoff_ms = 1;
  copts.retry_backoff_cap_ms = 2;
  copts.retry_deadline_ms = 10'000;
  net::ServeClient client(a.daemon->reactor_addr(), cluster.seed, cluster.k, copts);

  FaultGuard guard;
  fault::install(fault::FaultPlan::parse("seed=1,drop=1"));

  // Idempotent op against a black hole: the budget is spent, then a typed
  // transport error — retries() counts exactly the budget.
  try {
    (void)client.mine_named("record-count");
    ADD_FAILURE() << "expected sap::Error after the retry budget";
  } catch (const sap::Error&) {
  }
  EXPECT_EQ(client.retries(), 2u);

  // Contributions are NOT idempotent: one attempt, zero transport retries.
  const auto wires = cluster.wires(1);
  try {
    (void)client.contribute_wire(wires[0]);
    ADD_FAILURE() << "expected sap::Error for a dropped contribution";
  } catch (const sap::Error&) {
  }
  EXPECT_EQ(client.retries(), 2u) << "a contribution must never retry at transport level";
  fault::uninstall();

  // Deadline-scoped: a 1 ms deadline refuses the first backoff sleep.
  net::ServeClient::Options dopts = copts;
  dopts.retry_attempts = 100;
  dopts.retry_deadline_ms = 1;
  net::ServeClient deadline_client(a.daemon->reactor_addr(), cluster.seed,
                                   cluster.k, dopts);
  fault::install(fault::FaultPlan::parse("seed=2,drop=1"));
  try {
    (void)deadline_client.mine_named("record-count");
    ADD_FAILURE() << "expected sap::Error once the deadline lapsed";
  } catch (const sap::Error&) {
  }
  EXPECT_EQ(deadline_client.retries(), 0u)
      << "no retry may start past the caller's deadline";
  fault::uninstall();
  a.stop();
}

// ---- circuit breaker -----------------------------------------------------

TEST(CircuitBreaker, TripsFailsFastProbesHalfOpenAndCloses) {
  Cluster cluster(9103);
  Member a;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr()};
  ropts.shards = 1;
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  ropts.breaker_cooldown_ms = 150;
  net::ShardRouter router(ropts);

  const auto want = router.mine_named("record-count");
  EXPECT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kClosed);

  FaultGuard guard;
  fault::install(fault::FaultPlan::parse("seed=5,reset=1"));

  // Three consecutive transport failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    try {
      (void)router.mine_named("record-count");
      ADD_FAILURE() << "expected ServeError{kUnavailable} under reset=1";
    } catch (const net::ServeError& e) {
      EXPECT_EQ(e.code(), proto::ServeErrorCode::kUnavailable);
    }
  }
  EXPECT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kOpen);

  // Open = fail fast: the cooldown window refuses without dialing.
  try {
    (void)router.mine_named("record-count");
    ADD_FAILURE() << "expected a fast refusal while the breaker is open";
  } catch (const net::ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("breaker open"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kOpen);

  // Cooled down + faults still on: the half-open probe fails, re-opens.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  try {
    (void)router.mine_named("record-count");
    ADD_FAILURE() << "expected the half-open probe to fail under reset=1";
  } catch (const net::ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("breaker probe failed"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kOpen);

  // Faults lifted: the next cooled-down probe lands through the stats door,
  // the breaker closes, and serving resumes bit-identical.
  fault::uninstall();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto healed = router.mine_named("record-count");
  EXPECT_EQ(healed.values, want.values);
  EXPECT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kClosed);
  a.stop();
}

TEST(CircuitBreaker, StatsPollReportsTheBreakersItsFanOutClosed) {
  // A stats poll closes the breaker of every member that answers it, so
  // the router's own gauges in that same snapshot must read closed, beside
  // stats_unreachable 0.
  Cluster cluster(9104);
  Member a;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr()};
  ropts.shards = 1;
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  ropts.breaker_cooldown_ms = 60'000;  // only the stats poll can close it
  ropts.negative_cache_ms = 0;
  net::ShardRouter router(ropts);
  (void)router.mine_named("record-count");

  FaultGuard guard;
  fault::install(fault::FaultPlan::parse("seed=5,reset=1"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)router.mine_named("record-count"), net::ServeError);
  }
  ASSERT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kOpen);
  fault::uninstall();

  const sap::obs::Snapshot stats = router.cluster_stats();
  const auto gauge = [&](const std::string& name) -> std::optional<double> {
    for (const auto& [n, v] : stats.gauges)
      if (n == name) return v;
    return std::nullopt;
  };
  EXPECT_EQ(gauge("router.m0.breaker"),
            static_cast<double>(net::ShardRouter::BreakerState::kClosed));
  EXPECT_EQ(gauge("router.stats_unreachable"), 0.0);
  EXPECT_EQ(router.breaker(0), net::ShardRouter::BreakerState::kClosed);
  a.stop();
}

TEST(NegativeConnectCache, SkipsRedialingADeadMinerWithinTheWindow) {
  // A loopback port with nothing behind it: bind, record, release.
  net::SocketAddr dead;
  {
    auto parked = net::TcpListener::listen({"127.0.0.1", 0});
    dead = parked.local_addr();
  }

  net::ShardRouterOptions ropts;
  ropts.miners = {dead};
  ropts.shards = 1;
  ropts.replicas = 1;
  ropts.seed = 0x5A9;
  ropts.parties = 3;
  ropts.client.timeout_ms = 500;
  ropts.negative_cache_ms = 60'000;  // the window outlives this test
  net::ShardRouter router(ropts);

  // First request pays the real connect refusal...
  try {
    (void)router.mine_named("record-count");
    ADD_FAILURE() << "expected ServeError{kUnavailable} for a dead cluster";
  } catch (const net::ServeError& e) {
    EXPECT_EQ(e.code(), proto::ServeErrorCode::kUnavailable);
    EXPECT_EQ(std::string(e.what()).find("negative-connect cache"), std::string::npos)
        << "the first failure must be the real dial: " << e.what();
  }
  // ...and every failover inside the window skips without dialing.
  try {
    (void)router.mine_named("record-count");
    ADD_FAILURE() << "expected the cached refusal";
  } catch (const net::ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("negative-connect cache"), std::string::npos)
        << e.what();
  }
  EXPECT_GE(router.failovers(), 2u);
}

// ---- rejoin / resync -----------------------------------------------------

TEST(SelfHealing, RestartedMinerResyncsFromALivePeerAndServesIdentically) {
  Cluster cluster(9104);
  Member a;
  net::MinerDaemonOptions da;
  da.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);

  // Advance the donor past the exchange install: two contributions.
  const auto wires = cluster.wires(2);
  {
    net::ServeClient direct(a.daemon->reactor_addr(), cluster.seed, cluster.k);
    (void)direct.contribute_wire(wires[0]);
    (void)direct.contribute_wire(wires[1]);
    direct.bye();
  }

  // The snapshot door: ARRIVAL-order rows + keys at the donor's epoch.
  {
    net::ServeClient probe(a.daemon->reactor_addr(), cluster.seed, cluster.k);
    const auto snap = probe.shard_snapshot(0);
    EXPECT_EQ(snap.shard_epoch, 3u);
    EXPECT_EQ(snap.keys.size(), snap.rows.size());
    EXPECT_GT(snap.rows.size(), 100u);  // exchange pool + both batches
    probe.bye();
  }

  // A "restarted" miner: same exchange (epoch 1 state), resync_peers names
  // the live donor — run() adopts the donor's shard before serving starts.
  Member b;
  net::MinerDaemonOptions db;
  db.shards = 1;
  db.resync_peers = {a.daemon->reactor_addr()};
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  for (int i = 0; i < 1000 && !b.daemon->serving(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(b.daemon->serving()) << "rejoined miner never started serving";

  net::ServeClient ca(a.daemon->reactor_addr(), cluster.seed, cluster.k);
  net::ServeClient cb(b.daemon->reactor_addr(), cluster.seed, cluster.k);
  for (const char* job : kChaosJobs) {
    const auto donor = ca.mine_named(job, job_params(job));
    const auto rejoined = cb.mine_named(job, job_params(job));
    EXPECT_EQ(rejoined.values, donor.values) << job << " diverged after resync";
    EXPECT_EQ(rejoined.pool_epoch, donor.pool_epoch);
    EXPECT_EQ(rejoined.pool_epoch, 3u);
  }
  ca.bye();
  cb.bye();
  a.stop();
  b.stop();
}

}  // namespace

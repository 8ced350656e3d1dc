// Chaos soak — the PR 10 acceptance gate (DESIGN.md §13).
//
// Spawns a 4-miner x 2-replica cluster (this binary re-execs itself with
// --miner, cluster_scaling style), installs a seeded FaultPlan at the
// DRIVER's socket boundary, and enforces the robustness contract by EXIT
// CODE so CI can gate on this binary:
//
//   * bit-identical-or-typed (always enforced): under ~5-10% injected
//     socket faults, every successful response is BIT-IDENTICAL to the
//     fault-free reference and every failure is a TYPED error — zero
//     silently-wrong reports, ever;
//   * availability (always enforced): with replicas = 2 and a mid-soak
//     SIGKILL of one miner, >= 99% of soaked requests are served;
//   * schedule determinism (always enforced): the same fault seed replays
//     the IDENTICAL injection schedule (index, kind) trace;
//   * self-healing rejoin (always enforced): the SIGKILL'd miner restarts,
//     resyncs its owned shards from live peers through the shard-snapshot
//     door (--resync), and holds and serves them BIT-IDENTICAL to its
//     pre-kill self (each shard's snapshot and exact-merge partials) — and
//     a fresh router over the healed fleet matches the reference.
//
//   chaos_soak [--quick]                 driver (the default)
//   chaos_soak --miner S I R [P1,P2..]   internal: miner process
//                                        (cluster_harness.hpp)
//
// Faults are injected in the DRIVER process only: miners stay healthy, so
// every divergence the soak could observe is the transport layer's fault —
// exactly the layer the retry, breaker and resync machinery hardens. The
// harness's kSeed spreads the 8 nonces 2/2/2/2 over the 4 hash-mod shards,
// and make_contribution_wires checks it.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster_harness.hpp"
#include "net/fault.hpp"

namespace {

namespace net = sap::net;
namespace fault = sap::net::fault;
using namespace sap::bench::cluster;

constexpr std::size_t kMiners = 4;
constexpr std::size_t kReplicas = 2;
const char* const kFaultSpec =
    "seed=606,drop=0.02,delay=0.05,partial=0.03,truncate=0.01,corrupt=0.015,"
    "reset=0.015,delay_ms=3";

/// The soak's router: the harness options plus a healing budget — short
/// per-attempt timeouts so a dropped frame costs half a second, a retry
/// budget deep enough that exhaustion is a tail event, and a deterministic
/// jitter seed.
net::ShardRouterOptions soak_router_options(const std::vector<Miner>& fleet) {
  net::ShardRouterOptions ropts = router_options(fleet, kReplicas);
  ropts.client.timeout_ms = 500;
  ropts.client.retry_attempts = 8;
  ropts.client.retry_backoff_ms = 1;
  ropts.client.retry_backoff_cap_ms = 16;
  ropts.client.retry_deadline_ms = 30'000;
  ropts.breaker_cooldown_ms = 100;  // a tripped breaker must not eat the soak
  return ropts;
}

/// Rows every partial fingerprint scores (kNN partials need queries); any
/// rows of the pool's width fixed before the kill will do.
constexpr std::size_t kQueryRows = 64;

/// Miner 0's state for each shard it owns, read through the miner-only
/// doors: the shard snapshot (epoch, arrival-order keys and rows) and each
/// exact-merge job's partial blob over `queries`. Its resynced replacement
/// must reproduce it bit for bit. A mining request at a member owning part
/// of the pool is no whole-pool read (ROADMAP item 10), so the check does
/// not go through one.
std::vector<std::vector<double>> shard_fingerprint(const net::SocketAddr& door,
                                                   const sap::data::Dataset& queries) {
  net::ServeClient::Options copts;
  copts.retry_attempts = 4;
  net::ServeClient client(door, kSeed, kParties, copts);
  std::vector<std::vector<double>> out;
  for (std::size_t j = 0; j < kReplicas; ++j) {
    const std::size_t shard = (kMiners - j) % kMiners;  // miner 0's owned shards
    const auto snap = client.shard_snapshot(shard);
    out.push_back(sap::proto::encode_pool_slice(snap.shard_epoch, snap.rows, snap.keys));
    for (const char* job : kMergeJobs) {
      auto partial = client.mine_partial(shard, job, job_params(job), queries);
      partial.blob.push_back(static_cast<double>(partial.shard_epoch));  // epoch rides along
      out.push_back(std::move(partial.blob));
    }
  }
  client.bye();
  return out;
}

// ---- driver: phases ------------------------------------------------------

/// Phase S — same seed, same schedule: draw a fixed single-threaded
/// decision sequence twice and require the identical (index, kind) trace.
bool schedule_deterministic() {
  const auto plan = fault::FaultPlan::parse(kFaultSpec);
  const auto draw = [&plan] {
    fault::install(plan);
    for (int i = 0; i < 1500; ++i) (void)fault::next_write_fault(256);
    for (int i = 0; i < 400; ++i) (void)fault::next_read_fault(256);
    for (int i = 0; i < 100; ++i) (void)fault::next_connect_fault();
    auto trace = fault::trace();
    fault::uninstall();
    return trace;
  };
  const auto trace_a = draw();
  const auto trace_b = draw();
  if (trace_a.empty() || trace_a != trace_b) {
    std::fprintf(stderr, "FAIL: same fault seed did not replay the same schedule "
                         "(%zu vs %zu injections)\n",
                 trace_a.size(), trace_b.size());
    return false;
  }
  std::printf("-- schedule: seed %llu replays %zu injections identically\n",
              static_cast<unsigned long long>(plan.seed), trace_a.size());
  return true;
}

struct SoakResult {
  std::size_t served = 0;
  std::size_t typed = 0;
  std::size_t wrong = 0;
  std::size_t failovers = 0;
  std::size_t retries = 0;
  std::uint64_t injected = 0;
};

/// Phase B — the chaos soak: `requests` merge jobs through the faulted
/// driver transport, one SIGKILL a third of the way in. Successful
/// responses must match `reference` bit for bit; failures must be typed.
SoakResult run_soak(net::ShardRouter& router, std::vector<Miner>& fleet,
                    const std::vector<std::vector<double>>& reference,
                    std::size_t requests) {
  SoakResult r;
  fault::install(fault::FaultPlan::parse(kFaultSpec));
  for (std::size_t i = 0; i < requests; ++i) {
    if (i == requests / 3) kill_miner(fleet[0]);  // mid-soak SIGKILL, faults live
    const std::size_t j = i % std::size(kMergeJobs);
    try {
      const auto resp = router.mine_named(kMergeJobs[j], job_params(kMergeJobs[j]));
      if (resp.values == reference[j]) {
        ++r.served;
      } else {
        ++r.wrong;
        std::fprintf(stderr, "FAIL: request %zu (%s) served a DIVERGENT report "
                             "under faults\n",
                     i, kMergeJobs[j]);
      }
    } catch (const net::ServeError&) {
      ++r.typed;  // typed refusal: the contract's allowed failure mode
    } catch (const sap::Error&) {
      ++r.typed;  // typed transport error after an exhausted budget
    }
  }
  r.injected = fault::stats().total_injected();
  fault::uninstall();
  r.failovers = router.failovers();
  r.retries = router.client_retries();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--miner") == 0) return miner_main(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: chaos_soak [--quick]\n");
      return 2;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t soak_requests = quick ? 100 : 300;
  const std::size_t batches_per_party = quick ? 2 : 4;

  bool ok = schedule_deterministic();

  // ---- phase A: fleet up, ingest, fault-free reference -------------------
  std::printf("-- fleet: %zu miners x %zu replicas\n", kMiners, kReplicas);
  const Session session = make_session();
  const auto wires = make_contribution_wires(session);
  std::vector<Miner> fleet;
  for (std::size_t i = 0; i < kMiners; ++i)
    fleet.push_back(spawn_miner(argv[0], kMiners, i, kReplicas));
  for (auto& m : fleet) await_ready(m);

  net::ShardRouter router(soak_router_options(fleet));
  for (std::size_t b = 0; b < batches_per_party; ++b)
    for (std::size_t i = 0; i < kParties; ++i)
      (void)router.contribute_wire(wires[i]);
  const auto reference = merged_reports(router);
  const auto queries = session.pool.slice(0, kQueryRows);
  const auto fingerprint = shard_fingerprint(fleet[0].door, queries);  // pre-kill miner 0
  std::printf("-- reference: %zu jobs, pool %zu records\n", std::size(kMergeJobs),
              static_cast<std::size_t>(reference[0][0]));

  // ---- phase B: chaos soak with a mid-stream SIGKILL ---------------------
  std::printf("-- soak: %zu requests under %s\n", soak_requests, kFaultSpec);
  const SoakResult soak = run_soak(router, fleet, reference, soak_requests);
  const double availability =
      static_cast<double>(soak.served) / static_cast<double>(soak_requests);
  std::printf("-- soak: served %zu, typed %zu, wrong %zu, availability %.2f%%, "
              "failovers %zu, retries %zu, injected %llu\n",
              soak.served, soak.typed, soak.wrong, availability * 100.0,
              soak.failovers, soak.retries,
              static_cast<unsigned long long>(soak.injected));

  // ---- phase C: the killed miner rejoins via --resync --------------------
  std::string peers;
  for (std::size_t i = 1; i < kMiners; ++i) {
    if (!peers.empty()) peers += ',';
    peers += std::to_string(static_cast<unsigned>(fleet[i].door.port));
  }
  std::printf("-- rejoin: restarting miner 0 with --resync %s\n", peers.c_str());
  fleet[0] = spawn_miner(argv[0], kMiners, 0, kReplicas, peers);
  await_ready(fleet[0]);
  const auto healed_fingerprint = shard_fingerprint(fleet[0].door, queries);
  bool rejoined = healed_fingerprint == fingerprint;
  if (!rejoined)
    std::fprintf(stderr, "FAIL: the rejoined miner's shard snapshots or partials diverge "
                         "from its pre-kill self\n");
  net::ShardRouter healed_router(soak_router_options(fleet));
  const auto healed_reports = merged_reports(healed_router);
  if (healed_reports != reference) {
    std::fprintf(stderr, "FAIL: the healed fleet's merged reports diverge from "
                         "the reference\n");
    rejoined = false;
  }
  if (rejoined) std::printf("-- rejoin: miner 0 resynced and serves bit-identical\n");

  sap::Table table({"phase", "requests", "served", "typed", "wrong",
                    "availability_pct", "failovers", "retries", "injected"});
  table.add_row({"soak", sap::Table::num(static_cast<double>(soak_requests), 0),
                 sap::Table::num(static_cast<double>(soak.served), 0),
                 sap::Table::num(static_cast<double>(soak.typed), 0),
                 sap::Table::num(static_cast<double>(soak.wrong), 0),
                 sap::Table::num(availability * 100.0, 2),
                 sap::Table::num(static_cast<double>(soak.failovers), 0),
                 sap::Table::num(static_cast<double>(soak.retries), 0),
                 sap::Table::num(static_cast<double>(soak.injected), 0)});
  table.add_row({"rejoin", sap::Table::num(static_cast<double>(std::size(kMergeJobs)), 0),
                 sap::Table::num(static_cast<double>(std::size(kMergeJobs)), 0),
                 sap::Table::num(0, 0), sap::Table::num(rejoined ? 0 : 1, 0), "-",
                 "-", "-", "-"});
  sap::bench::BenchMeta meta;
  meta.transport = "cluster-tcp-chaos";
  meta.shards = kMiners;
  meta.replicas = kReplicas;
  sap::bench::emit_table("chaos_soak", table, meta);

  for (auto& m : fleet) kill_miner(m);

  // ---- enforced floors ---------------------------------------------------
  if (soak.wrong != 0) {
    std::fprintf(stderr, "FAIL: %zu responses were silently wrong under faults\n",
                 soak.wrong);
    ok = false;
  }
  if (availability < 0.99) {
    std::fprintf(stderr, "FAIL: availability %.2f%% < 99%% with replicas = %zu\n",
                 availability * 100.0, kReplicas);
    ok = false;
  }
  if (soak.failovers == 0) {
    std::fprintf(stderr, "FAIL: the SIGKILL never exercised a failover\n");
    ok = false;
  }
  if (soak.injected == 0) {
    std::fprintf(stderr, "FAIL: the fault plan injected nothing — the soak "
                         "tested a healthy network\n");
    ok = false;
  }
  if (!rejoined) ok = false;
  if (ok) std::printf("chaos_soak: all enforced floors passed\n");
  return ok ? 0 : 1;
}

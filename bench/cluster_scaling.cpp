// Cluster scaling bench — the PR 8 acceptance gate (DESIGN.md §11).
//
// Spawns 1 -> 4 miner daemon PROCESSES (this binary re-execs itself with
// --miner, socket_throughput style) and drives them through a ShardRouter:
//
//   * exact-merge identity (always enforced): the merged reports at M = 2
//     and M = 4 miners are BIT-IDENTICAL to the single-miner reference —
//     before and after a routed ingest burst (record-count, class-histogram,
//     nb and knn train accuracy);
//   * bounded kNN partials (always enforced): after each identity check the
//     same router reads knn-train-accuracy again, a round whose partials
//     are bounded by the first read's k-th distances (DESIGN.md §11). It
//     must equal the single-miner reference too, and a series whose router
//     counted no bounded round fails;
//   * eval prefix by handle (always enforced): that second kNN read names
//     the eval prefix by the handles the members kept it under instead of
//     sending its rows; a series whose second read sent no partial by
//     handle fails. Each series prints the partial-request bytes of its
//     report reads and of the second kNN read;
//   * near-linear scaling (enforced on >= 8 hardware threads): routed
//     ingest and request throughput at 4 miners >= 2.5x the single miner;
//   * failover (always enforced): with 4 miners x 2 replicas, SIGKILL one
//     miner mid-request-stream — every client request still succeeds (the
//     router retries the surviving replica under the epoch floor), zero
//     failures, and at least one failover actually happened.
//
// All floors are enforced by EXIT CODE so CI can gate on this binary.
//
//   cluster_scaling [--quick]        driver (the default)
//   cluster_scaling --miner S I R    internal: miner process (cluster_harness.hpp)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster_harness.hpp"
#include "common/stopwatch.hpp"

namespace {

namespace net = sap::net;
using namespace sap::bench::cluster;

void require_identical(const std::vector<std::vector<double>>& reference,
                       const std::vector<std::vector<double>>& got,
                       std::size_t miners, const char* when) {
  for (std::size_t j = 0; j < std::size(kMergeJobs); ++j) {
    if (got[j] != reference[j]) {
      std::fprintf(stderr,
                   "FAIL: %s report for %s at %zu miners is not bit-identical "
                   "to the single-miner reference\n",
                   when, kMergeJobs[j], miners);
      std::exit(1);
    }
  }
}

/// kMergeJobs' kNN entry: the job whose partials a router bounds after its
/// first read.
constexpr std::size_t kKnn = 3;
static_assert(std::string_view(kMergeJobs[kKnn]) == "knn-train-accuracy");

/// The router's second kNN read after an identity check must equal the
/// single-miner reference as the first did.
void require_identical_again(const std::vector<std::vector<double>>& reference,
                             const std::vector<double>& again, std::size_t miners,
                             const char* when) {
  if (again != reference[kKnn]) {
    std::fprintf(stderr,
                 "FAIL: %s second %s read at %zu miners (bounded partials) is not "
                 "bit-identical to the single-miner reference\n",
                 when, kMergeJobs[kKnn], miners);
    std::exit(1);
  }
}

struct SeriesResult {
  double ingest_per_s = 0.0;
  double requests_per_s = 0.0;
  std::vector<std::vector<double>> pre_reports;
  std::vector<std::vector<double>> post_reports;
  std::vector<double> pre_again;   ///< the second kNN read after pre_reports
  std::vector<double> post_again;  ///< the second kNN read after post_reports
  std::uint64_t bounded_rounds = 0;  ///< the reporting router's router.bounded_rounds
  /// Partials the second kNN reads sent by handle (router.prefix_refs),
  /// each read's at least one or the series fails.
  std::uint64_t pre_again_refs = 0;
  std::uint64_t post_again_refs = 0;
  /// router.partial_request_bytes over the pre-ingest report reads, and
  /// over the second kNN read after them.
  std::uint64_t report_request_bytes = 0;
  std::uint64_t again_request_bytes = 0;
};

/// One scaling series: M miners, replicas = 1. Reports, timed requests,
/// timed routed ingest, reports again.
SeriesResult run_series(const char* self, const Session& s,
                        const std::vector<std::vector<double>>& wires,
                        std::size_t miners, std::size_t requests_per_thread,
                        std::size_t batches_per_party) {
  std::vector<Miner> fleet;
  for (std::size_t i = 0; i < miners; ++i)
    fleet.push_back(spawn_miner(self, miners, i, 1));
  for (auto& m : fleet) await_ready(m);
  const auto ropts = router_options(fleet, 1);

  SeriesResult result;
  net::ShardRouter router(ropts);
  const auto counter = [&router](const char* name) {
    return router.metrics().counter(name).value();
  };
  result.pre_reports = merged_reports(router);
  result.report_request_bytes = counter("router.partial_request_bytes");
  std::uint64_t refs = counter("router.prefix_refs");
  result.pre_again = router.mine_named(kMergeJobs[kKnn], job_params(kMergeJobs[kKnn])).values;
  result.pre_again_refs = counter("router.prefix_refs") - refs;
  result.again_request_bytes =
      counter("router.partial_request_bytes") - result.report_request_bytes;

  // Request throughput: 4 driver threads, each with its OWN router (the
  // router is not internally synchronized), all issuing knn partials.
  constexpr std::size_t kThreads = 4;
  {
    std::vector<std::thread> threads;
    sap::Stopwatch timer;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        net::ShardRouter mine(ropts);
        const auto params = job_params("knn-train-accuracy");
        for (std::size_t i = 0; i < requests_per_thread; ++i)
          (void)mine.mine_named("knn-train-accuracy", params);
      });
    }
    for (auto& t : threads) t.join();
    result.requests_per_s =
        static_cast<double>(kThreads * requests_per_thread) / timer.seconds();
  }

  // Ingest throughput: one thread per party nonce (so per-nonce append
  // order — and with it the canonical pool — is deterministic whatever the
  // thread interleaving), each routing the same wire `batches_per_party`
  // times.
  {
    std::vector<std::thread> threads;
    sap::Stopwatch timer;
    for (std::size_t i = 0; i < kParties; ++i) {
      threads.emplace_back([&, i] {
        net::ShardRouter ingest(ropts);
        for (std::size_t b = 0; b < batches_per_party; ++b)
          (void)ingest.contribute_wire(wires[i]);
      });
    }
    for (auto& t : threads) t.join();
    result.ingest_per_s =
        static_cast<double>(kParties * batches_per_party) / timer.seconds();
  }

  result.post_reports = merged_reports(router);
  refs = counter("router.prefix_refs");
  result.post_again = router.mine_named(kMergeJobs[kKnn], job_params(kMergeJobs[kKnn])).values;
  result.post_again_refs = counter("router.prefix_refs") - refs;
  result.bounded_rounds = counter("router.bounded_rounds");
  const std::size_t expected =
      s.pool.size() + kParties * batches_per_party * kBatchRows;
  if (result.post_reports[0].empty() ||
      result.post_reports[0][0] != static_cast<double>(expected)) {
    std::fprintf(stderr, "FAIL: %zu-miner pool lost contributions (%f != %zu)\n",
                 miners, result.post_reports[0].empty() ? -1.0 : result.post_reports[0][0],
                 expected);
    std::exit(1);
  }

  for (auto& m : fleet) kill_miner(m);
  return result;
}

/// Failover series: 4 miners x 2 replicas; SIGKILL miner 0 halfway through
/// a request stream. Returns {failed requests, router failovers}.
std::pair<std::size_t, std::size_t> run_failover(const char* self, std::size_t requests) {
  constexpr std::size_t kMiners = 4;
  std::vector<Miner> fleet;
  for (std::size_t i = 0; i < kMiners; ++i)
    fleet.push_back(spawn_miner(self, kMiners, i, 2));
  for (auto& m : fleet) await_ready(m);

  net::ShardRouter router(router_options(fleet, 2));
  std::size_t failed = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (i == requests / 2) kill_miner(fleet[0]);  // mid-bench SIGKILL
    try {
      const auto resp =
          router.mine_named("knn-train-accuracy", job_params("knn-train-accuracy"));
      if (resp.values.empty()) ++failed;
    } catch (const sap::Error& e) {
      std::fprintf(stderr, "failover request %zu failed: %s\n", i, e.what());
      ++failed;
    }
  }
  const std::size_t failovers = router.failovers();
  for (auto& m : fleet) kill_miner(m);
  return {failed, failovers};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--miner") == 0) return miner_main(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: cluster_scaling [--quick]\n");
      return 2;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t requests_per_thread = quick ? 8 : 40;
  const std::size_t batches_per_party = quick ? 12 : 60;
  const std::size_t failover_requests = quick ? 16 : 48;

  const Session session = make_session();
  const auto wires = make_contribution_wires(session);

  sap::Table table({"miners", "shards", "replicas", "ingest_batches_s",
                    "requests_s", "req_speedup", "identical", "bounded_rounds",
                    "report_request_bytes", "again_request_bytes", "failed", "failovers"});
  const std::size_t fleet_sizes[] = {1, 2, 4};
  std::vector<SeriesResult> results;
  for (const std::size_t m : fleet_sizes) {
    std::printf("-- scaling series: %zu miner%s\n", m, m == 1 ? "" : "s");
    results.push_back(run_series(argv[0], session, wires, m, requests_per_thread,
                                 batches_per_party));
    // Exact-merge identity: reports at M miners == the M = 1 reference,
    // bit for bit, before and after the ingest burst.
    require_identical(results[0].pre_reports, results.back().pre_reports, m, "pre-ingest");
    require_identical(results[0].post_reports, results.back().post_reports, m,
                      "post-ingest");
    require_identical_again(results[0].pre_reports, results.back().pre_again, m, "pre-ingest");
    require_identical_again(results[0].post_reports, results.back().post_again, m,
                            "post-ingest");
    if (results.back().bounded_rounds == 0) {
      std::fprintf(stderr, "FAIL: no %s read at %zu miners ran bounded partials\n",
                   kMergeJobs[kKnn], m);
      return 1;
    }
    std::printf("-- %zu miner%s: partial-request bytes %llu over the %zu report reads, "
                "%llu on the second %s read\n",
                m, m == 1 ? "" : "s",
                static_cast<unsigned long long>(results.back().report_request_bytes),
                std::size(kMergeJobs),
                static_cast<unsigned long long>(results.back().again_request_bytes),
                kMergeJobs[kKnn]);
    if (results.back().pre_again_refs == 0 || results.back().post_again_refs == 0) {
      std::fprintf(stderr, "FAIL: a second %s read at %zu miners sent no partial by handle\n",
                   kMergeJobs[kKnn], m);
      return 1;
    }
    table.add_row({sap::Table::num(static_cast<double>(m), 0),
                   sap::Table::num(static_cast<double>(m), 0), sap::Table::num(1, 0),
                   sap::Table::num(results.back().ingest_per_s, 1),
                   sap::Table::num(results.back().requests_per_s, 1),
                   sap::Table::num(results.back().requests_per_s /
                                         results[0].requests_per_s, 2),
                   "yes",
                   sap::Table::num(static_cast<double>(results.back().bounded_rounds), 0),
                   sap::Table::num(static_cast<double>(results.back().report_request_bytes), 0),
                   sap::Table::num(static_cast<double>(results.back().again_request_bytes), 0),
                   sap::Table::num(0, 0), sap::Table::num(0, 0)});
  }

  std::printf("-- failover series: 4 miners x 2 replicas, SIGKILL mid-stream\n");
  const auto [failed, failovers] = run_failover(argv[0], failover_requests);
  table.add_row({sap::Table::num(4, 0), sap::Table::num(4, 0), sap::Table::num(2, 0),
                 "-", "-", "-", "-", "-", "-", "-",
                 sap::Table::num(static_cast<double>(failed), 0),
                 sap::Table::num(static_cast<double>(failovers), 0)});

  sap::bench::BenchMeta meta;
  meta.transport = "cluster-tcp";
  meta.shards = 4;
  meta.replicas = 2;
  sap::bench::emit_table("cluster_scaling", table, meta);

  // ---- enforced floors ---------------------------------------------------
  bool ok = true;
  if (failed != 0) {
    std::fprintf(stderr, "FAIL: %zu requests failed during replica failover\n", failed);
    ok = false;
  }
  if (failovers == 0) {
    std::fprintf(stderr, "FAIL: the failover series never hit a replica\n");
    ok = false;
  }
  const double req_speedup = results[2].requests_per_s / results[0].requests_per_s;
  const double ingest_speedup = results[2].ingest_per_s / results[0].ingest_per_s;
  std::printf("4-miner speedup: requests %.2fx, ingest %.2fx\n", req_speedup,
              ingest_speedup);
  // The scaling floor needs hardware to scale ON: 4 miner processes x
  // (2 loops + 2 compute lanes). On smaller machines (this includes most
  // CI runners) the identity + failover floors above still gate.
  const std::size_t cores = std::thread::hardware_concurrency();
  if (cores >= 8) {
    if (req_speedup < 2.5) {
      std::fprintf(stderr, "FAIL: request speedup %.2fx < 2.5x at 4 miners\n",
                   req_speedup);
      ok = false;
    }
    if (ingest_speedup < 2.5) {
      std::fprintf(stderr, "FAIL: ingest speedup %.2fx < 2.5x at 4 miners\n",
                   ingest_speedup);
      ok = false;
    }
  } else {
    std::printf("note: scaling floor skipped (%zu hardware threads < 8)\n", cores);
  }
  if (ok) std::printf("cluster_scaling: all enforced floors passed\n");
  return ok ? 0 : 1;
}

// Sharded-cluster tests (net/cluster.hpp + the sharded MiningEngine):
//
//   * engine layer: every job's report is BIT-IDENTICAL across shard counts
//     {1, 2, 4} and both hash layouts — from a segment install and again
//     after interleaved per-nonce appends (the exact-merge contract and the
//     gather fallback both preserve the canonical (nonce, seq) order);
//   * router layer: a two-miner cluster's scatter-gather responses equal a
//     flat engine over the union of the shard snapshots, contributions
//     hash-route to the owning miner (kNotOwner never reaches the client);
//   * failover: a dead primary is routed around (zero failed requests), a
//     replica BELOW the router's epoch floor is refused as stale rather
//     than served, and recovery through the surviving replica resumes at
//     the floor;
//   * typed refusals: kBadRequest is definitive — no replica failover is
//     burned probing other owners.
//   * the kNN/NB eval prefix is gathered once per shard epoch: reads reuse
//     it until a routed append moves a floor, and an append that bypassed
//     the router is caught by the partials and re-gathered;
//   * empty shards (more shards than nonces) keep every job bit-identical
//     to the flat engine, before and after routed contributions.
//   * the router door answers like a miner door: the owner's receipt, the
//     negative receipt for a rejected batch, kBadRequest for an unknown
//     job — and a kError refusal for a kind only miners serve.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster_fixture.hpp"
#include "common/error.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"
#include "obs/metrics.hpp"
#include "protocol/mining_engine.hpp"

namespace {

using sap::data::Dataset;
using sap::rng::Engine;
using sap::testing::Cluster;
using sap::testing::Member;
using sap::testing::normalized_pool;
namespace net = sap::net;
namespace proto = sap::proto;

// ---- engine layer --------------------------------------------------------

/// A normalized pool cut into per-nonce segments (distinct nonces, canonical
/// ascending order — what unify_pool hands the daemon).
std::vector<proto::PoolSegment> make_segments(const Dataset& pool,
                                              const std::vector<std::uint64_t>& nonces) {
  std::vector<proto::PoolSegment> segments;
  const std::size_t per = pool.size() / nonces.size();
  for (std::size_t i = 0; i < nonces.size(); ++i) {
    const std::size_t hi = (i + 1 == nonces.size()) ? pool.size() : (i + 1) * per;
    segments.push_back({nonces[i], pool.slice(i * per, hi)});
  }
  return segments;
}

proto::MiningEngine make_engine(std::size_t shards, proto::ShardLayout layout) {
  return proto::MiningEngine({.threads = 0,
                              .cache_models = true,
                              .shards = shards,
                              .layout = layout,
                              .owned = {}});
}

const char* const kAllJobs[] = {"record-count",      "class-histogram",
                                "nb-train-accuracy", "knn-train-accuracy",
                                "svm-train-accuracy", "perceptron-train-accuracy"};

proto::JobParams job_params(const std::string& job) {
  proto::JobParams params;
  // Cap the eval prefix so the O(n^2) scorers stay cheap; the cap must be
  // identical flat vs sharded for the reports to be comparable at all.
  if (job.find("train-accuracy") != std::string::npos) params["eval-records"] = 48.0;
  return params;
}

TEST(ShardedEngine, ReportsBitIdenticalAcrossShardCountsAndLayouts) {
  const Dataset pool = normalized_pool("Iris", 7001);
  // Nonces chosen ascending with no structure the hash could favor.
  const std::vector<std::uint64_t> nonces = {11, 5021, 90210, 777001, 900000017};
  const auto segments = make_segments(pool, nonces);

  auto reference = make_engine(1, proto::ShardLayout::kHashMod);
  reference.set_pool_segments(segments);
  ASSERT_EQ(reference.pool_epoch(), 1u);

  for (const std::size_t shards : {2u, 4u}) {
    for (const auto layout : {proto::ShardLayout::kHashMod}) {
      auto engine = make_engine(shards, layout);
      engine.set_pool_segments(segments);
      EXPECT_EQ(engine.pool_epoch(), 1u);
      for (const char* job : kAllJobs) {
        const auto want = reference.run({job, job_params(job)});
        const auto got = engine.run({job, job_params(job)});
        EXPECT_EQ(got.values, want.values)
            << job << " diverged at " << shards << " shards, layout "
            << static_cast<int>(layout);
      }
    }
  }
}

/// Rows of `a` followed by rows of `b` (labels too).
Dataset concat(const Dataset& a, const Dataset& b) {
  sap::linalg::Matrix features(a.size() + b.size(), a.dims(), 0.0);
  std::vector<int> labels;
  labels.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto rec = a.record(i);
    std::copy(rec.begin(), rec.end(), features.row(i).begin());
    labels.push_back(a.label(i));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto rec = b.record(i);
    std::copy(rec.begin(), rec.end(), features.row(a.size() + i).begin());
    labels.push_back(b.label(i));
  }
  return {a.name(), std::move(features), std::move(labels)};
}

TEST(ShardedEngine, ReportsBitIdenticalAfterInterleavedAppends) {
  const Dataset pool = normalized_pool("Iris", 7002);
  const std::vector<std::uint64_t> nonces = {401, 63029, 5500001};
  const auto segments = make_segments(pool.slice(0, 120), nonces);
  const Dataset tail = pool.slice(120, pool.size());

  // The contract: sharded serving is bit-identical to CONCATENATED-POOL
  // training in canonical (nonce, seq) order — so the reference is a flat
  // engine over the final per-nonce segments, while the sharded engines
  // receive the same batches as interleaved appends (two different global
  // arrival orders).
  std::vector<std::pair<std::uint64_t, Dataset>> appends;
  for (std::size_t b = 0; b < 6; ++b) {
    const std::size_t at = b * 5;
    appends.emplace_back(nonces[b % nonces.size()], tail.slice(at, at + 5));
  }
  auto final_segments = segments;
  for (auto& segment : final_segments)
    for (const auto& [nonce, batch] : appends)
      if (nonce == segment.nonce) segment.rows = concat(segment.rows, batch);
  auto reference = make_engine(1, proto::ShardLayout::kHashMod);
  reference.set_pool_segments(final_segments);

  for (const std::size_t shards : {2u, 4u}) {
    auto sharded = make_engine(shards, proto::ShardLayout::kHashMod);
    sharded.set_pool_segments(segments);
    if (shards == 2) {  // forward interleaving
      for (const auto& [nonce, batch] : appends) (void)sharded.append_records(nonce, batch);
    } else {  // reversed across nonces, per-nonce order preserved
      for (std::size_t i = nonces.size(); i-- > 0;)
        for (const auto& [nonce, batch] : appends)
          if (nonce == nonces[i]) (void)sharded.append_records(nonce, batch);
    }
    for (const char* job : kAllJobs) {
      const auto want = reference.run({job, job_params(job)});
      const auto got = sharded.run({job, job_params(job)});
      EXPECT_EQ(got.values, want.values)
          << job << " diverged after appends at " << shards << " shards";
    }
  }
}

// ---- router layer --------------------------------------------------------

/// Flat canonical pool from the union of every member's owned shard views —
/// the ground truth a cluster response must match bit for bit.
Dataset union_pool(const std::vector<Member*>& members) {
  struct Row {
    proto::PoolKey key;
    const proto::ShardSnapshot* snap;
    std::size_t row;
  };
  std::vector<proto::PoolShard::View> views;
  std::vector<Row> rows;
  for (const Member* m : members) {
    for (const std::size_t g : m->daemon->engine().owned_shards()) {
      views.push_back(m->daemon->engine().shard_view(g));
      const auto& snap = *views.back().snap;
      for (std::size_t i = 0; i < snap.keys.size(); ++i)
        rows.push_back({snap.keys[i], &snap, i});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  const std::size_t dims = rows.empty() ? 0 : rows.front().snap->rows.dims();
  sap::linalg::Matrix features(rows.size(), dims, 0.0);
  std::vector<int> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto rec = rows[i].snap->rows.record(rows[i].row);
    std::copy(rec.begin(), rec.end(), features.row(i).begin());
    labels[i] = rows[i].snap->rows.label(rows[i].row);
  }
  return {"union", std::move(features), std::move(labels)};
}

TEST(ShardRouter, TwoMinerClusterMatchesFlatEngineOverUnionPool) {
  Cluster cluster(5151);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  Member* members[] = {&a, &b};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);

  // Contributions hash-route to whichever miner owns the nonce's shard;
  // the client never sees a kNotOwner bounce.
  const auto wires = cluster.wires(2);
  for (const auto& wire : wires) {
    const auto receipt = router.contribute_wire(wire);
    EXPECT_GE(receipt.pool_epoch, 2u);
  }
  EXPECT_EQ(router.failovers(), 0u);

  // Exact-merge jobs, gather-fallback jobs, and the no-params counters all
  // equal a flat engine over the union of the two miners' shard snapshots.
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({members[0], members[1]}));
  for (const char* job : kAllJobs) {
    const auto want = flat.run({job, job_params(job)});
    const auto got = router.mine_named(job, job_params(job));
    EXPECT_EQ(got.values, want.values) << job << " diverged through the router";
  }

  // kBadRequest is definitive: one contact, no replica failover burned.
  const std::size_t failovers_before = router.failovers();
  try {
    (void)router.mine_named("no-such-job");
    ADD_FAILURE() << "expected net::ServeError for an unknown job";
  } catch (const net::ServeError& e) {
    EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest);
  }
  EXPECT_EQ(router.failovers(), failovers_before);

  a.stop();
  b.stop();
}

std::uint64_t counter_value(const sap::obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0;
}

/// The same batch with every label l moved to (l + 1) % 3, so rows a
/// replica never saw cannot pass for the ones it did.
std::vector<double> relabeled(const std::vector<double>& wire) {
  auto batch = proto::decode_contribution(wire);
  for (int& label : batch.data.labels) label = (label + 1) % 3;
  return proto::encode_contribution(batch.nonce, batch.data.features, batch.data.labels);
}

TEST(ShardRouter, EvalPrefixGatheredOncePerShardEpoch) {
  Cluster cluster(5454);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  const std::vector<Member*> members = {&a, &b};  // miner i owns shard i

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);

  // A leg is one round trip a miner served: a partial or a slice.
  const auto legs = [&] {
    std::uint64_t total = 0;
    for (const Member* m : members)
      total += counter_value(m->daemon->stats_snapshot(), "serve.requests");
    return total;
  };
  // Runs `jobs` through the router, each equal to the flat engine over the
  // union pool, and returns the legs they cost.
  const auto reads = [&](std::initializer_list<const char*> jobs, const char* when) {
    auto flat = make_engine(1, proto::ShardLayout::kHashMod);
    flat.set_pool(union_pool(members));
    const auto before = legs();
    for (const char* job : jobs)
      EXPECT_EQ(router.mine_named(job, job_params(job)).values,
                flat.run({job, job_params(job)}).values)
          << job << " diverged " << when;
    return legs() - before;
  };

  // Gather + partials once, then partials only: 2 legs per read.
  EXPECT_EQ(reads({"knn-train-accuracy"}, "on the warm read"), 4u);
  EXPECT_EQ(reads({"knn-train-accuracy", "nb-train-accuracy", "knn-train-accuracy",
                   "nb-train-accuracy", "knn-train-accuracy", "nb-train-accuracy"},
                  "on a warm prefix"),
            12u);

  // A routed append raises its shard's floor: the next read re-gathers.
  const auto wires = cluster.wires(2);
  EXPECT_GE(router.contribute_wire(wires[0]).pool_epoch, 2u);
  EXPECT_EQ(reads({"nb-train-accuracy"}, "after a routed append"), 4u);

  // An append straight to the owner leaves the floors alone; the partials
  // come back at a newer epoch, so the read re-gathers and runs them again.
  {
    const auto g = proto::shard_of_nonce(static_cast<std::uint64_t>(wires[1][0]), 2,
                                         proto::ShardLayout::kHashMod);
    net::ServeClient direct(members[g]->daemon->reactor_addr(), cluster.seed, cluster.k);
    (void)direct.contribute_wire(wires[1]);
    direct.bye();
  }
  EXPECT_EQ(reads({"knn-train-accuracy"}, "after an append that bypassed the router"), 6u);

  const auto stats = router.cluster_stats();
  EXPECT_EQ(counter_value(stats, "router.prefix_gathers"), 3u);
  EXPECT_EQ(counter_value(stats, "router.prefix_stale"), 1u);
  EXPECT_EQ(router.failovers(), 0u);

  a.stop();
  b.stop();
}

TEST(ShardRouter, FailoverServesReplicaAndEpochFloorRefusesStaleReads) {
  Cluster cluster(6262);
  // One shard, two owners: miner A primary, miner B replica — both install
  // the identical exchange pool and both accept routed contributions.
  Member a, b;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.shards = 1;
  ropts.replicas = 2;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);

  const auto wires = cluster.wires(3);
  // Routed contribution lands on BOTH owners (that is what keeps the
  // replica promotable); floor = the acked epoch 2.
  (void)router.contribute_wire(wires[0]);
  EXPECT_EQ(router.epoch_floors()[0], 2u);
  const auto served = router.mine_named("nb-train-accuracy");
  EXPECT_EQ(served.pool_epoch, 2u);

  // A contribution that bypasses the router (straight to the primary)
  // leaves the replica one epoch behind; serving from the primary raises
  // the router's floor past the replica. Relabeled, so the primary's rows
  // at epoch 3 score differently from the replica's below.
  {
    net::ServeClient direct(a.daemon->reactor_addr(), cluster.seed, cluster.k);
    (void)direct.contribute_wire(relabeled(wires[1]));
    direct.bye();
  }
  EXPECT_EQ(router.mine_named("nb-train-accuracy").pool_epoch, 3u);
  EXPECT_EQ(router.epoch_floors()[0], 3u);

  // Kill the primary: the replica is BELOW the floor, so failover must
  // refuse (stale read) rather than silently serve the older pool.
  a.stop();
  try {
    (void)router.mine_named("nb-train-accuracy");
    ADD_FAILURE() << "expected ServeError{kUnavailable} for a stale replica";
  } catch (const net::ServeError& e) {
    EXPECT_EQ(e.code(), proto::ServeErrorCode::kUnavailable);
  }
  EXPECT_GE(router.failovers(), 1u);

  // Recovery: a routed contribution reaches the surviving replica, lifting
  // it to the floor — reads resume with ZERO failed requests.
  const auto receipt = router.contribute_wire(wires[2]);
  EXPECT_EQ(receipt.pool_epoch, 3u);
  const auto after = router.mine_named("nb-train-accuracy");
  EXPECT_EQ(after.pool_epoch, 3u);
  EXPECT_FALSE(after.values.empty());

  // Both owners now stand at epoch 3 with different rows. The failovers
  // since the last gather keep the router from scoring the primary's eval
  // prefix against the replica's statistics: the read is the replica's own.
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({&b}));
  EXPECT_EQ(after.values, flat.run({"nb-train-accuracy", {}}).values);

  b.stop();
}

TEST(ShardRouter, EmptyShardsStayBitIdenticalToTheFlatEngine) {
  Cluster cluster(5151);
  // Four shards over two miners: owner j of shard g is miner (g + j) mod 2,
  // so miner A owns {0, 2} and miner B owns {1, 3}. Three nonces cannot
  // fill four shards.
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 4;
  da.owned_shards = {0, 2};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1, 3};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  const std::vector<Member*> members = {&a, &b};

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.shards = 4;
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);

  const auto empty_shards = [&] {
    std::size_t empty = 0;
    for (const Member* m : members)
      for (const std::size_t g : m->daemon->engine().owned_shards())
        if (m->daemon->engine().shard_view(g).snap->rows.size() == 0) ++empty;
    return empty;
  };
  const auto expect_flat = [&](const char* when) {
    auto flat = make_engine(1, proto::ShardLayout::kHashMod);
    flat.set_pool(union_pool(members));
    for (const char* job : kAllJobs) {
      const auto want = flat.run({job, job_params(job)});
      EXPECT_EQ(router.mine_named(job, job_params(job)).values, want.values)
          << job << " diverged " << when;
    }
  };

  ASSERT_GE(empty_shards(), 1u) << "no owned shard is empty: the case under test is gone";
  expect_flat("before contributions");
  for (const auto& wire : cluster.wires(2))
    EXPECT_GE(router.contribute_wire(wire).pool_epoch, 2u);
  EXPECT_GE(empty_shards(), 1u);
  expect_flat("after two routed contributions");

  a.stop();
  b.stop();
}

// ---- router door ---------------------------------------------------------

TEST(RouterDoor, AnswersLikeAMinerDoor) {
  Cluster cluster(5353);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  Member* members[] = {&a, &b};  // miner i owns shard i

  net::RouterDaemonOptions ropts;
  ropts.router.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.router.replicas = 1;
  ropts.router.seed = cluster.seed;
  ropts.router.parties = cluster.k;
  ropts.reactor.listen = {"127.0.0.1", 0};
  auto router = std::make_unique<net::RouterDaemon>(ropts);

  const auto owner_of = [&](const std::vector<double>& wire) {
    return members[proto::shard_of_nonce(static_cast<std::uint64_t>(wire[0]), 2,
                                         proto::ShardLayout::kHashMod)];
  };
  const auto wires = cluster.wires(2);
  // Well-formed rows under a nonce no party negotiated.
  Engine eng(7);
  const auto y = sap::linalg::Matrix::generate(cluster.pool.dims(), 4,
                                               [&] { return eng.normal(); });
  const auto rogue = proto::encode_contribution(0xDEADBEEF, y, std::vector<int>{0, 1, 0, 1});

  net::ServeClient via_router(router->local_addr(), cluster.seed, cluster.k);
  net::ServeClient at_owner(owner_of(wires[0])->daemon->reactor_addr(), cluster.seed,
                            cluster.k);
  net::ServeClient at_rogue_owner(owner_of(rogue)->daemon->reactor_addr(), cluster.seed,
                                  cluster.k);

  // 1. A contribution: the receipt carries the owning shard's new epoch and
  //    size, whether the router routed it or the owner's door took it.
  const auto expect_owner_receipt = [&](net::ServeClient& door,
                                        const std::vector<double>& wire, const char* where) {
    const auto receipt = door.contribute_wire(wire);
    const auto& owner = owner_of(wire)->daemon->engine();
    const std::size_t g = proto::shard_of_nonce(static_cast<std::uint64_t>(wire[0]), 2,
                                                proto::ShardLayout::kHashMod);
    EXPECT_EQ(receipt.pool_epoch, owner.shard_epoch(g)) << where;
    EXPECT_EQ(receipt.pool_records, owner.shard_view(g).snap->rows.size()) << where;
  };
  expect_owner_receipt(via_router, wires[0], "router door");
  expect_owner_receipt(at_owner, wires[1], "miner door");

  // 2. A batch under an unknown nonce: the negative receipt, surfacing as
  //    ContributionRejected — not a kError frame, not a typed refusal.
  const auto expect_rejected = [&](net::ServeClient& door, const char* where) {
    try {
      (void)door.contribute_wire(rogue);
      ADD_FAILURE() << where << ": an unknown nonce must be rejected";
    } catch (const net::ContributionRejected& e) {
      EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos) << e.what();
    } catch (const sap::Error& e) {
      ADD_FAILURE() << where << ": expected the negative receipt, got " << e.what();
    }
  };
  expect_rejected(via_router, "router door");
  expect_rejected(at_rogue_owner, "miner door");

  // 3. An unknown job: the definitive typed refusal.
  const auto expect_bad_request = [&](net::ServeClient& door, const char* where) {
    try {
      (void)door.mine_named("no-such-job");
      ADD_FAILURE() << where << ": expected ServeError for an unknown job";
    } catch (const net::ServeError& e) {
      EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest) << where;
    }
  };
  expect_bad_request(via_router, "router door");
  expect_bad_request(at_owner, "miner door");

  // 4. A pool slice is a miner-only kind: the router door refuses it with a
  //    kError frame.
  try {
    (void)via_router.pool_slice(0, 0);
    ADD_FAILURE() << "the router door served a pool slice";
  } catch (const net::ServeError& e) {
    ADD_FAILURE() << "expected a kError refusal, got " << e.what();
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("request refused"), std::string::npos) << e.what();
  }
  EXPECT_EQ(router->requests_served(), 4u);

  via_router.bye();
  at_owner.bye();
  at_rogue_owner.bye();
  router->stop();
  router.reset();
  a.stop();
  b.stop();
}

}  // namespace

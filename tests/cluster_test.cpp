// Sharded-cluster tests (net/cluster.hpp + the sharded MiningEngine):
//
//   * engine layer: every job's report is BIT-IDENTICAL across shard counts
//     {1, 2, 4} and both hash layouts — from a segment install and again
//     after interleaved per-nonce appends (the exact-merge contract and the
//     gather fallback both preserve the canonical (nonce, seq) order);
//   * the ownership rule: the shards a member installs are the shards the
//     router routes to it, pinned for 2 and 4 members at 1 and 2 replicas;
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
//   * bounded kNN partials: whatever the radii, a bounded round comes up
//     short or merges bit for bit to the unbounded one; a short round is
//     rerun without radii; a router's second kNN read is bounded, ships
//     smaller partials and still equals the flat engine;
//   * empty shards (more shards than nonces) keep every job bit-identical
//     to the flat engine, before and after routed contributions.
//   * the router door answers like a miner door: the owner's receipt, the
//     negative receipt for a rejected batch, kBadRequest for an unknown
//     job — and a kError refusal for a kind only miners serve;
//   * the miner door refuses a partial request with bad params, a query
//     block of the wrong width or a malformed radius block with
//     kBadRequest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classify/naive_bayes.hpp"
#include "cluster_fixture.hpp"
#include "common/error.hpp"
#include "common/wire.hpp"
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

TEST(ShardedEngine, PartialsReceiveTheEvalPrefixOnlyWhenTheyReadIt) {
  // NB's partial never reads its queries, so a sharded serve hands it an
  // empty block; kNN's gets the prefix. The merge gets the prefix either way.
  const Dataset pool = normalized_pool("Iris", 7003);
  const auto segments = make_segments(pool, {11, 5021, 90210});
  for (const bool reads : {false, true}) {
    auto engine = make_engine(2, proto::ShardLayout::kHashMod);
    engine.set_pool_segments(segments);
    std::vector<std::size_t> partial_queries;
    std::size_t merge_queries = 0;
    proto::JobSpec probe = engine.registry().find("nb-train-accuracy");
    probe.name = "probe";
    probe.partial_reads_queries = reads;
    probe.partial = [&](const proto::ShardSnapshot&, const Dataset& queries,
                        std::span<const double>, const proto::JobParams&) {
      partial_queries.push_back(queries.size());
      return std::vector<double>{};
    };
    probe.merge_partials = [&](const std::vector<std::vector<double>>&,
                               const Dataset& queries, const proto::JobParams&) {
      merge_queries = queries.size();
      return std::vector<double>{};
    };
    engine.registry().register_job(std::move(probe));
    (void)engine.run({"probe", {{"eval-records", 48.0}}});
    EXPECT_EQ(partial_queries, std::vector<std::size_t>(2, reads ? 48 : 0));
    EXPECT_EQ(merge_queries, 48u);
  }
  EXPECT_FALSE(proto::JobRegistry::builtins().find("nb-train-accuracy").partial_reads_queries);
  EXPECT_TRUE(proto::JobRegistry::builtins().find("knn-train-accuracy").partial_reads_queries);
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

/// What an engine's per-snapshot canonical views feed, for every owned
/// shard: each mergeable job's partial over `queries`, then the whole
/// canonical slice and a 7-row prefix, flattened as (row..., label, nonce,
/// seq) per row.
std::vector<std::vector<double>> view_reads(proto::MiningEngine& engine,
                                            const Dataset& queries) {
  std::vector<std::vector<double>> out;
  for (const std::size_t g : engine.owned_shards()) {
    for (const char* job :
         {"record-count", "class-histogram", "nb-train-accuracy", "knn-train-accuracy"})
      out.push_back(engine.run_partial(g, {job, {}}, queries).values);
    for (const std::size_t limit : {0u, 7u}) {
      const auto slice = engine.shard_slice(g, limit);
      std::vector<double> flat;
      for (std::size_t i = 0; i < slice.rows.size(); ++i) {
        const auto rec = slice.rows.record(i);
        flat.insert(flat.end(), rec.begin(), rec.end());
        flat.push_back(slice.rows.label(i));
        flat.push_back(static_cast<double>(slice.keys[i].nonce));
        flat.push_back(slice.keys[i].seq);
      }
      out.push_back(std::move(flat));
    }
  }
  return out;
}

TEST(ShardedEngine, CanonicalViewNeverGoesStale) {
  // One engine is read after every kind of pool change, so each change
  // replaces snapshots whose views earlier reads built. Its reads must
  // equal those of an engine that made the same changes with no read in
  // between, whose views are all built fresh.
  const Dataset pool = normalized_pool("Iris", 7005);
  const std::vector<std::uint64_t> nonces = {23, 40961, 7700003};
  const auto segments = make_segments(pool.slice(0, 90), nonces);
  const auto regrown = make_segments(pool.slice(30, 150), {23, 5021, 40961});
  const Dataset queries = pool.slice(0, 16);
  const std::vector<std::pair<std::uint64_t, Dataset>> appends = {
      {nonces[0], pool.slice(90, 97)}, {nonces[2], pool.slice(97, 105)}};

  auto live = make_engine(2, proto::ShardLayout::kHashMod);
  live.set_pool_segments(segments);
  auto previous = view_reads(live, queries);

  // A fresh engine replays `changes` over `segments` and is read once.
  using Change = std::function<void(proto::MiningEngine&)>;
  std::vector<Change> changes;
  const auto check = [&](const char* what, const Change& change) {
    change(live);
    changes.push_back(change);
    auto fresh = make_engine(2, proto::ShardLayout::kHashMod);
    fresh.set_pool_segments(segments);
    for (const auto& c : changes) c(fresh);
    const auto got = view_reads(live, queries);
    EXPECT_EQ(got, view_reads(fresh, queries)) << what;
    EXPECT_NE(got, previous) << what << " changed nothing the reads see";
    previous = got;
  };
  for (const auto& [nonce, batch] : appends)
    check("append_records", [nonce, batch](proto::MiningEngine& e) {
      (void)e.append_records(nonce, batch);
    });
  check("set_pool_segments",
        [&regrown](proto::MiningEngine& e) { e.set_pool_segments(regrown); });
  // A resync install: shard 0 adopts a donor's arrival-order rows at the
  // donor's later epoch.
  auto donor = make_engine(2, proto::ShardLayout::kHashMod);
  donor.set_pool_segments(segments);
  for (const auto& [nonce, batch] : appends) (void)donor.append_records(nonce, batch);
  const auto donated = donor.shard_view(0);
  ASSERT_GT(donated.snap->rows.size(), 0u);
  check("install_shard", [donated](proto::MiningEngine& e) {
    e.install_shard(0, donated.snap->rows, donated.snap->keys,
                    std::max(donated.epoch, e.shard_epoch(0)) + 1);
  });
}

TEST(ShardedEngine, ConcurrentFirstPartialsShareOneView) {
  // Eight threads ask for the first partial of a new snapshot at once; the
  // view is built once and every thread gets the same blob (the TSAN job
  // runs this).
  const Dataset pool = normalized_pool("Iris", 7006);
  const auto segments = make_segments(pool.slice(0, 120), {23, 40961, 7700003});
  const Dataset queries = pool.slice(0, 24);
  auto engine = make_engine(2, proto::ShardLayout::kHashMod);
  engine.set_pool_segments(segments);
  constexpr std::size_t kThreads = 8;
  const std::size_t shard = proto::shard_of_nonce(23, 2, proto::ShardLayout::kHashMod);
  const char* const jobs[] = {"knn-train-accuracy", "nb-train-accuracy"};
  for (std::size_t round = 0; round < 4; ++round) {
    // Each round's append makes the snapshot the threads read first.
    const auto batch = [&pool](std::size_t r) { return pool.slice(120 + 5 * r, 125 + 5 * r); };
    (void)engine.append_records(23, batch(round));
    const char* job = jobs[round % 2];
    SCOPED_TRACE(job);
    std::vector<std::vector<double>> blobs(kThreads);
    std::atomic<std::size_t> waiting{kThreads};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() != 0) std::this_thread::yield();
        blobs[t] = engine.run_partial(shard, {job, {}}, queries).values;
      });
    for (auto& thread : threads) thread.join();
    auto fresh = make_engine(2, proto::ShardLayout::kHashMod);
    fresh.set_pool_segments(segments);
    for (std::size_t r = 0; r <= round; ++r) (void)fresh.append_records(23, batch(r));
    const auto want = fresh.run_partial(shard, {job, {}}, queries).values;
    for (const auto& blob : blobs) EXPECT_EQ(blob, want);
  }
}

/// The NB partial blob folded from scratch: each nonce's rows, in (nonce,
/// seq) order, through collect_stats, in the layout nb_partial writes.
std::vector<double> fresh_nb_blob(const proto::ShardSnapshot& snap) {
  std::vector<std::size_t> order(snap.keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return snap.keys[a] < snap.keys[b]; });
  std::vector<double> segments;
  std::size_t count = 0;
  for (std::size_t at = 0; at < order.size();) {
    const std::uint64_t nonce = snap.keys[order[at]].nonce;
    std::vector<std::size_t> rows;
    for (; at < order.size() && snap.keys[order[at]].nonce == nonce; ++at)
      rows.push_back(order[at]);
    const auto stats = sap::ml::GaussianNaiveBayes::collect_stats(snap.rows.subset(rows));
    segments.push_back(static_cast<double>(nonce));
    segments.push_back(static_cast<double>(stats.size()));
    for (const auto& cls : stats) {
      segments.push_back(cls.label);
      segments.push_back(static_cast<double>(cls.count));
      for (const auto* moments : {&cls.shift, &cls.sum, &cls.sumsq})
        segments.insert(segments.end(), moments->begin(), moments->end());
    }
    ++count;
  }
  std::vector<double> blob{static_cast<double>(snap.rows.dims()), static_cast<double>(count)};
  blob.insert(blob.end(), segments.begin(), segments.end());
  return blob;
}

TEST(ShardedEngine, NbStatisticsAreSummedOncePerSnapshot) {
  // An NB partial depends on neither its queries nor its params, so each
  // snapshot sums its nonces' statistics once, on its first NB read, and
  // every later read serializes the same view. Every blob equals a fold
  // from scratch, byte for byte, whatever the shard count.
  const Dataset pool = normalized_pool("Iris", 7008);
  const auto segments = make_segments(pool, {11, 5021, 90210, 777001, 900000017});
  const Dataset queries = pool.slice(0, 16);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(shards);
    auto engine = make_engine(shards, proto::ShardLayout::kHashMod);
    engine.set_pool_segments(segments);
    for (const std::size_t g : engine.owned_shards()) {
      const auto view = engine.shard_view(g);
      const auto want = fresh_nb_blob(*view.snap);
      EXPECT_EQ(engine.run_partial(g, {"nb-train-accuracy", {}}, {}).values, want);
      const auto built = view.snap->nonce_stats();
      // Other params and queries read the same view.
      EXPECT_EQ(engine.run_partial(g, {"nb-train-accuracy", {{"var-smoothing", 1e-3}}}, queries)
                    .values,
                want);
      EXPECT_EQ(view.snap->nonce_stats().data(), built.data());
      if (!built.empty()) {
        EXPECT_EQ(view.snap->nonce_stats().front().classes.data(),
                  built.front().classes.data());
      }
    }
    // An append makes a new snapshot, whose view is summed afresh.
    const std::size_t g = proto::shard_of_nonce(11, shards, proto::ShardLayout::kHashMod);
    (void)engine.append_records(11, pool.slice(0, 9));
    EXPECT_EQ(engine.run_partial(g, {"nb-train-accuracy", {}}, {}).values,
              fresh_nb_blob(*engine.shard_view(g).snap));
  }
}

// ---- bounded kNN partials ------------------------------------------------

/// Iris rounded to quarter steps, then every row again under another nonce
/// with the next label: exact distance ties everywhere, across shards too,
/// and a tie taken wrongly moves a vote.
std::vector<proto::PoolSegment> tied_segments(std::size_t rows) {
  const Dataset iris = normalized_pool("Iris", 7004).slice(0, rows / 2);
  const std::size_t n = iris.size();
  sap::linalg::Matrix f(2 * n, iris.dims());
  std::vector<int> labels(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < iris.dims(); ++c)
      f(i, c) = f(n + i, c) = std::round(iris.record(i)[c] * 4.0) / 4.0;
    labels[i] = iris.label(i);
    labels[n + i] = (iris.label(i) + 1) % 3;
  }
  return make_segments(Dataset("tied", std::move(f), std::move(labels)),
                       {11, 5021, 90210, 777001, 31337001, 900000017});
}

/// An engine's non-empty shard snapshots and their canonical eval prefix,
/// as a coordinator scatters to them.
struct ShardCut {
  std::vector<proto::PoolShard::View> views;
  Dataset queries;

  ShardCut(const proto::MiningEngine& engine, std::size_t limit) {
    std::vector<proto::KeyedRows> parts;
    for (const std::size_t g : engine.owned_shards()) {
      auto view = engine.shard_view(g);
      if (view.snap->rows.size() > 0) views.push_back(std::move(view));
    }
    for (const auto& view : views) parts.push_back({&view.snap->rows, view.snap->keys});
    queries = proto::merge_canonical(parts, limit);
  }

  /// Every shard's partial of `spec`, bounded by `radii`.
  std::vector<std::vector<double>> partials(const proto::JobSpec& spec,
                                            const proto::JobParams& resolved,
                                            std::span<const double> radii) const {
    const Dataset none;
    std::vector<std::vector<double>> out;
    for (const auto& view : views)
      out.push_back(spec.partial(*view.snap, spec.partial_reads_queries ? queries : none,
                                 radii, resolved));
    return out;
  }
};

TEST(BoundedPartials, ARoundComesUpShortOrMergesBitForBit) {
  // Whatever the radii, a bounded round either reports itself short or
  // merges to the unbounded report and radii bit for bit. Each query's
  // radius is drawn from 0, its exact k-th distance, the double below it
  // and a large one; the ties sit at the radius.
  const auto segments = tied_segments(300);
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool_segments(segments);
  const auto registry = proto::JobRegistry::builtins();
  const auto& spec = registry.find("knn-train-accuracy");
  Engine eng(7007);
  for (const std::size_t shards : {2u, 4u}) {
    auto engine = make_engine(shards, proto::ShardLayout::kHashMod);
    engine.set_pool_segments(segments);
    const ShardCut cut(engine, 64);
    for (const std::size_t k : {1u, 5u, 8u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", k " + std::to_string(k));
      const proto::JobParams request{{"k", static_cast<double>(k)}, {"eval-records", 64.0}};
      const auto resolved = spec.resolve_params(request);
      const auto exact = spec.merge_bounded(cut.partials(spec, resolved, {}), cut.queries, {},
                                            resolved);
      ASSERT_FALSE(exact.short_round);
      ASSERT_EQ(exact.radii.size(), cut.queries.size());
      ASSERT_EQ(exact.values, flat.run({"knn-train-accuracy", request}).values);
      std::size_t served = 0;
      std::size_t short_rounds = 0;
      for (std::size_t trial = 0; trial < 48; ++trial) {
        // Trials 0-3 give every query the same kind of radius; then each
        // query draws one of the four, then one of the two that never
        // leave it short.
        std::vector<double> radii(cut.queries.size());
        for (std::size_t q = 0; q < radii.size(); ++q) {
          const double kth = exact.radii[q];
          const double draws[] = {kth, 1e9, std::nextafter(kth, 0.0), 0.0};
          const std::size_t pick = trial < 4    ? trial
                                   : trial < 26 ? eng.uniform_index(4)
                                                : eng.uniform_index(2);
          radii[q] = draws[pick];
        }
        const auto got = spec.merge_bounded(cut.partials(spec, resolved, radii), cut.queries,
                                            radii, resolved);
        if (got.short_round) {
          EXPECT_TRUE(got.values.empty() && got.radii.empty()) << "trial " << trial;
          EXPECT_TRUE(trial >= 2 && trial < 26) << "trial " << trial;
          ++short_rounds;
          continue;
        }
        ++served;
        EXPECT_EQ(got.values, exact.values) << "trial " << trial;
        EXPECT_EQ(got.radii, exact.radii) << "trial " << trial;
      }
      EXPECT_GE(served, 24u);
      if (k > 1) {
        EXPECT_GE(short_rounds, 1u) << "no draw came up short";
      }
    }
  }
}

TEST(BoundedPartials, MergeRoundRerunsAShortRoundWithoutRadii) {
  const auto registry = proto::JobRegistry::builtins();
  const auto& knn = registry.find("knn-train-accuracy");
  auto engine = make_engine(2, proto::ShardLayout::kHashMod);
  engine.set_pool_segments(tied_segments(300));
  const ShardCut cut(engine, 48);
  // What each scatter was asked to bound its partials by.
  std::vector<std::vector<double>> sent;
  const auto scatter_for = [&](const proto::JobSpec& spec, const proto::JobParams& resolved) {
    return [&, resolved](std::span<const double> radii) {
      sent.emplace_back(radii.begin(), radii.end());
      return cut.partials(spec, resolved, radii);
    };
  };
  const auto resolved = knn.resolve_params({{"k", 5.0}, {"eval-records", 48.0}});
  const auto scatter = scatter_for(knn, resolved);

  const auto unbounded = proto::merge_round(knn, cut.queries, resolved, {}, scatter);
  EXPECT_FALSE(unbounded.bounded || unbounded.rerun);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(sent[0].empty());
  ASSERT_EQ(unbounded.radii.size(), cut.queries.size());

  sent.clear();
  const auto bounded = proto::merge_round(knn, cut.queries, resolved, unbounded.radii, scatter);
  EXPECT_TRUE(bounded.bounded);
  EXPECT_FALSE(bounded.rerun);
  EXPECT_EQ(sent, std::vector<std::vector<double>>{unbounded.radii});
  EXPECT_EQ(bounded.values, unbounded.values);
  EXPECT_EQ(bounded.radii, unbounded.radii);

  // Radius 0 leaves most queries short of k: the round is not served but
  // scattered again without radii.
  sent.clear();
  const std::vector<double> zeros(cut.queries.size(), 0.0);
  const auto rerun = proto::merge_round(knn, cut.queries, resolved, zeros, scatter);
  EXPECT_TRUE(rerun.rerun);
  EXPECT_FALSE(rerun.bounded);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], zeros);
  EXPECT_TRUE(sent[1].empty());
  EXPECT_EQ(rerun.values, unbounded.values);
  EXPECT_EQ(rerun.radii, unbounded.radii);

  // A job without bounded partials never sends radii.
  const auto& nb = registry.find("nb-train-accuracy");
  sent.clear();
  const auto nb_round = proto::merge_round(nb, cut.queries, nb.resolve_params({}), zeros,
                                           scatter_for(nb, nb.resolve_params({})));
  EXPECT_FALSE(nb_round.bounded || nb_round.rerun);
  EXPECT_TRUE(nb_round.radii.empty());
  EXPECT_EQ(sent, std::vector<std::vector<double>>{{}});

  // No radii are kept for a pool smaller than k.
  auto small = make_engine(2, proto::ShardLayout::kHashMod);
  small.set_pool_segments(tied_segments(60));
  const ShardCut small_cut(small, 0);
  const auto wide_k = knn.resolve_params({{"k", 64.0}});
  const auto whole = proto::merge_round(knn, small_cut.queries, wide_k, {},
                                        [&](std::span<const double> radii) {
                                          return small_cut.partials(knn, wide_k, radii);
                                        });
  EXPECT_TRUE(whole.radii.empty());
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool_segments(tied_segments(60));
  EXPECT_EQ(whole.values, flat.run({"knn-train-accuracy", {{"k", 64.0}}}).values);
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

TEST(ShardOwnership, MembersInstallTheShardsTheRouterRoutesToThem) {
  struct Row {
    std::size_t members, replicas;
    std::vector<std::vector<std::size_t>> owned;  // per member
  };
  // (2, 2) member 0 is the README walkthrough's `owns{ 0 1 }`.
  const Row rows[] = {
      {2, 1, {{0}, {1}}},
      {2, 2, {{0, 1}, {0, 1}}},
      {4, 1, {{0}, {1}, {2}, {3}}},
      {4, 2, {{0, 3}, {0, 1}, {1, 2}, {2, 3}}},
  };
  for (const Row& row : rows) {
    net::ShardRouterOptions ropts;
    ropts.miners.assign(row.members, net::SocketAddr{"127.0.0.1", 1});
    ropts.replicas = row.replicas;
    ropts.parties = 3;
    const net::ShardRouter router(ropts);  // connects lazily: nothing dials
    ASSERT_EQ(router.shards(), row.members);
    for (std::size_t m = 0; m < row.members; ++m) {
      const auto owned = net::owned_shards(m, row.members, row.replicas);
      EXPECT_EQ(owned, row.owned[m]) << row.members << " members, " << row.replicas
                                     << " replicas, member " << m;
      for (std::size_t g = 0; g < row.members; ++g) {
        const auto owners = router.owners(g);
        EXPECT_EQ(owners, net::shard_owners(g, row.members, row.replicas));
        EXPECT_EQ(std::count(owners.begin(), owners.end(), m),
                  std::count(owned.begin(), owned.end(), g))
            << "shard " << g << ", member " << m;
      }
    }
  }
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

TEST(ShardRouter, SecondKnnReadIsABoundedRound) {
  // A read-only cluster: the first kNN read gathers the prefix and keeps
  // each query's k-th merged distance; the second sends them as radii, so
  // each shard lists fewer candidates, and still equals the flat engine.
  Cluster cluster(5757);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  // A shard lists at most k per query, so only a second non-empty shard
  // has candidates to drop.
  for (const Member* m : {&a, &b})
    for (const std::size_t g : m->daemon->engine().owned_shards())
      ASSERT_GT(m->daemon->engine().shard_view(g).snap->rows.size(), 0u)
          << "shard " << g << " is empty: the case under test is gone";

  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->reactor_addr(), b.daemon->reactor_addr()};
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({&a, &b}));
  const auto params = job_params("knn-train-accuracy");
  const auto want = flat.run({"knn-train-accuracy", params}).values;

  const auto counter = [&](const char* name) {
    return counter_value(router.metrics().snapshot(), name);
  };
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  const auto first_bytes = counter("router.partial_bytes");
  EXPECT_EQ(counter("router.bounded_rounds"), 0u);
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  const auto second_bytes = counter("router.partial_bytes") - first_bytes;
  EXPECT_EQ(counter("router.bounded_rounds"), 1u);
  EXPECT_EQ(counter("router.short_rounds"), 0u);
  EXPECT_GT(second_bytes, 0u);
  EXPECT_LT(second_bytes, first_bytes);
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

// ---- eval prefix by handle ----------------------------------------------

double gauge_value(const sap::obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges)
    if (n == name) return v;
  return -1.0;
}

std::uint64_t member_counter(const Member& m, const std::string& name) {
  return counter_value(m.daemon->stats_snapshot(), name);
}

TEST(PrefixTable, KeepsTheNewestRowSetsUnderHandlesNoProcessReuses) {
  net::PrefixTable table;
  const Dataset rows = normalized_pool("Iris", 7009).slice(0, 6);
  std::vector<std::uint64_t> handles;
  for (std::size_t i = 0; i < net::PrefixTable::kCapacity + 3; ++i) {
    const Dataset kept = rows.slice(0, 1 + i % 5);
    const std::uint64_t handle = table.keep(kept);
    EXPECT_GE(handle, proto::kFirstPrefixHandle);
    EXPECT_LT(handle, sap::wire::kDoubleExactLimit);
    ASSERT_NE(table.find(handle), nullptr);
    EXPECT_EQ(table.find(handle)->features(), kept.features());
    handles.push_back(handle);
    EXPECT_EQ(table.size(), std::min(i + 1, net::PrefixTable::kCapacity));
  }
  // Oldest evicted first; every handle distinct, within a table and across
  // tables in one process.
  for (std::size_t i = 0; i < handles.size(); ++i)
    EXPECT_EQ(table.find(handles[i]) != nullptr, i >= 3) << "keep " << i;
  net::PrefixTable other;
  handles.push_back(other.keep(rows));
  std::sort(handles.begin(), handles.end());
  EXPECT_EQ(std::adjacent_find(handles.begin(), handles.end()), handles.end());
  EXPECT_EQ(table.find(handles.back() + 1), nullptr);
  EXPECT_EQ(table.find(proto::kPrefixInline), nullptr);
}

TEST(PrefixHandles, SecondKnnReadGoesByHandleAndTheStatsDoorShowsIt) {
  // Through a router door: the first kNN read sends each member the eval
  // prefix's rows to keep, the second only the handles they answered with.
  // Both equal the flat engine; the stats door shows the handles, the
  // kept rows and the smaller requests.
  Cluster cluster(5858);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  net::RouterDaemonOptions ropts;
  ropts.router.miners = {a.daemon->local_addr(), b.daemon->local_addr()};
  ropts.router.replicas = 1;
  ropts.router.seed = cluster.seed;
  ropts.router.parties = cluster.k;
  ropts.reactor.listen = {"127.0.0.1", 0};
  auto router = std::make_unique<net::RouterDaemon>(ropts);
  net::ServeClient client(router->local_addr(), cluster.seed, cluster.k);

  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({&a, &b}));
  const auto knn = job_params("knn-train-accuracy");
  const auto want = flat.run({"knn-train-accuracy", knn}).values;

  EXPECT_EQ(client.mine_named("knn-train-accuracy", knn).values, want);
  const auto first = client.stats().snapshot;
  EXPECT_EQ(client.mine_named("knn-train-accuracy", knn).values, want);
  const auto second = client.stats().snapshot;
  // An NB read sends no rows and names no handle.
  EXPECT_EQ(client.mine_named("nb-train-accuracy", job_params("nb-train-accuracy")).values,
            flat.run({"nb-train-accuracy", job_params("nb-train-accuracy")}).values);
  const auto third = client.stats().snapshot;

  EXPECT_EQ(counter_value(first, "router.prefix_refs"), 0u);
  EXPECT_EQ(counter_value(first, "serve.prefix.kept"), 2u);  // one per member
  EXPECT_EQ(counter_value(second, "router.prefix_refs"), 2u);
  EXPECT_EQ(counter_value(second, "serve.prefix.hits"), 2u);
  EXPECT_EQ(counter_value(second, "serve.prefix.kept"), 2u);
  for (const auto* snap : {&first, &second, &third}) {
    EXPECT_EQ(counter_value(*snap, "router.prefix_resends"), 0u);
    EXPECT_EQ(counter_value(*snap, "serve.prefix.misses"), 0u);
    EXPECT_EQ(gauge_value(*snap, "m0.serve.prefix.held"), 1.0);
    EXPECT_EQ(gauge_value(*snap, "m1.serve.prefix.held"), 1.0);
  }
  EXPECT_EQ(counter_value(third, "router.prefix_refs"), 2u);
  EXPECT_EQ(counter_value(third, "serve.prefix.kept"), 2u);
  const auto first_bytes = counter_value(first, "router.partial_request_bytes");
  const auto second_bytes = counter_value(second, "router.partial_request_bytes") - first_bytes;
  EXPECT_GT(second_bytes, 0u);
  EXPECT_LT(second_bytes, first_bytes);

  client.bye();
  router->stop();
  router.reset();
  a.stop();
  b.stop();
}

TEST(PrefixHandles, ARestartedMemberIsResentTheRowsOnce) {
  // A member restarts at its old address between two reads. Its new
  // process holds no kept rows and knows none of its predecessor's
  // handles, so its leg is answered kUnknownPrefix and resent with the rows
  // inside the leg: no failover, and the read still equals the flat engine.
  Cluster cluster(6060);
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  net::MinerDaemonOptions db = da;
  db.owned_shards = {1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, db);
  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->local_addr(), b.daemon->local_addr()};
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({&a, &b}));
  const auto params = job_params("knn-train-accuracy");
  const auto want = flat.run({"knn-train-accuracy", params}).values;
  const auto counter = [&](const char* name) {
    return counter_value(router.metrics().snapshot(), name);
  };

  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_EQ(counter("router.prefix_refs"), 2u);

  // The same exchange installs the same shard at the same epoch.
  da.listen = a.daemon->local_addr();
  a.stop();
  Member restarted;
  restarted.start(cluster.shards, cluster.sap_opts, cluster.seed, da);
  // Past the client's idle probe, so the old connection is found closed and
  // redialed before the request is written.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_EQ(counter("router.prefix_resends"), 1u);
  EXPECT_EQ(member_counter(restarted, "serve.prefix.misses"), 1u);
  EXPECT_EQ(member_counter(restarted, "serve.prefix.kept"), 1u);
  EXPECT_EQ(member_counter(b, "serve.prefix.misses"), 0u);

  // The next read goes by handle to both members again.
  const auto refs = counter("router.prefix_refs");
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_EQ(counter("router.prefix_refs") - refs, 2u);
  EXPECT_EQ(counter("router.prefix_resends"), 1u);
  EXPECT_EQ(router.failovers(), 0u);
  EXPECT_EQ(counter("router.prefix_stale"), 0u);

  restarted.stop();
  b.stop();
}

TEST(PrefixHandles, RowsKeptPastTheCapAreResent) {
  // One member serves two routers over prefixes of different lengths.
  // While both prefixes are kept each router's handle names its own rows;
  // once the second router has kept more prefixes than the cap, the first
  // one's handle is evicted, and its next read is resent with the rows.
  Cluster cluster(6161);
  Member a;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);
  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->local_addr()};
  ropts.shards = 1;
  ropts.replicas = 1;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter first(ropts);
  net::ShardRouter churn(ropts);
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({&a}));
  const auto read = [&](net::ShardRouter& router, double eval_records) {
    const proto::JobParams params{{"eval-records", eval_records}};
    EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values,
              flat.run({"knn-train-accuracy", params}).values)
        << eval_records << " eval records";
  };
  const auto resends = [&] {
    return counter_value(first.metrics().snapshot(), "router.prefix_resends");
  };

  read(first, 20);
  read(churn, 21);
  read(first, 20);  // by handle, beside the churn router's kept rows
  EXPECT_EQ(counter_value(first.metrics().snapshot(), "router.prefix_refs"), 1u);
  for (std::size_t i = 0; i < net::PrefixTable::kCapacity; ++i)
    read(churn, 22.0 + static_cast<double>(i));
  EXPECT_EQ(resends(), 0u);
  read(first, 20);
  EXPECT_EQ(resends(), 1u);
  EXPECT_EQ(member_counter(a, "serve.prefix.misses"), 1u);
  EXPECT_EQ(gauge_value(a.daemon->stats_snapshot(), "serve.prefix.held"),
            static_cast<double>(net::PrefixTable::kCapacity));
  read(first, 20);  // by handle again
  EXPECT_EQ(resends(), 1u);
  EXPECT_EQ(counter_value(churn.metrics().snapshot(), "router.prefix_resends"), 0u);
  EXPECT_EQ(first.failovers() + churn.failovers(), 0u);

  a.stop();
}

TEST(PrefixHandles, AFailoverSendsTheRowsToTheReplica) {
  // Two members own both shards; each is the primary of one. Both keep the
  // prefix on the first read. When member 0 dies, shard 0's legs fail over
  // to member 1, which holds a handle for the same rows, yet every leg
  // that failed over carries the rows: once in the read's bounded round,
  // once after the re-gather the failover forces.
  Cluster cluster(6262);
  Member a, b;
  net::MinerDaemonOptions opts;
  opts.shards = 2;
  opts.owned_shards = {0, 1};
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);
  b.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);
  net::ShardRouterOptions ropts;
  ropts.miners = {a.daemon->local_addr(), b.daemon->local_addr()};
  ropts.replicas = 2;
  ropts.seed = cluster.seed;
  ropts.parties = cluster.k;
  net::ShardRouter router(ropts);
  auto flat = make_engine(1, proto::ShardLayout::kHashMod);
  flat.set_pool(union_pool({&b}));
  const auto params = job_params("knn-train-accuracy");
  const auto want = flat.run({"knn-train-accuracy", params}).values;

  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_EQ(member_counter(b, "serve.prefix.kept"), 1u);
  EXPECT_EQ(member_counter(b, "serve.prefix.hits"), 1u);

  a.stop();
  EXPECT_EQ(router.mine_named("knn-train-accuracy", params).values, want);
  EXPECT_GE(router.failovers(), 1u);
  EXPECT_EQ(member_counter(b, "serve.prefix.kept"), 3u);
  EXPECT_EQ(member_counter(b, "serve.prefix.misses"), 0u);
  EXPECT_EQ(counter_value(router.metrics().snapshot(), "router.prefix_resends"), 0u);

  b.stop();
}

// ---- router door ---------------------------------------------------------

TEST(RouterDoor, AnswersLikeAMinerDoor) {
  Cluster cluster(5353);
  // Both miners' log lines, which keep the throw site a reply leaves out.
  std::mutex log_mutex;
  std::vector<std::string> log_lines;
  Member a, b;
  net::MinerDaemonOptions da;
  da.shards = 2;
  da.owned_shards = {0};
  da.log = [&](const std::string& line) {
    const std::lock_guard lock(log_mutex);
    log_lines.push_back(line);
  };
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
  {
    const std::lock_guard lock(log_mutex);
    EXPECT_TRUE(std::any_of(log_lines.begin(), log_lines.end(), [](const std::string& line) {
      return line.rfind("rejected contribution: ", 0) == 0 && line.find(".cpp:") != std::string::npos;
    })) << "no miner logged a rejected contribution with its throw site";
  }

  // 3. An unknown job: the definitive typed refusal, whose text names no
  //    source file of the server's build.
  const auto expect_bad_request = [&](net::ServeClient& door, const char* where,
                                      const char* job, const proto::JobParams& params) {
    try {
      (void)door.mine_named(job, params);
      ADD_FAILURE() << where << ": expected ServeError for " << job;
    } catch (const net::ServeError& e) {
      EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest) << where;
      EXPECT_EQ(std::string(e.what()).find(".cpp:"), std::string::npos) << where << ": " << e.what();
    }
  };
  expect_bad_request(via_router, "router door", "no-such-job", {});
  expect_bad_request(at_owner, "miner door", "no-such-job", {});
  // A parameter the job does not take is refused the same way.
  expect_bad_request(at_owner, "miner door", "record-count", {{"eval-records", 8.0}});

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

// ---- miner door ----------------------------------------------------------

TEST(MinerDoor, RefusesMalformedPartialRequestsDefinitively) {
  // Every owner would refuse these alike, so each is kBadRequest, which a
  // router spends no failover on, not kUnavailable.
  Cluster cluster(5959);
  Member a;
  net::MinerDaemonOptions opts;
  opts.shards = 1;
  a.start(cluster.shards, cluster.sap_opts, cluster.seed, opts);
  net::ServeClient client(a.daemon->reactor_addr(), cluster.seed, cluster.k);
  const Dataset queries = cluster.pool.slice(0, 6);
  const Dataset narrow("narrow", sap::linalg::Matrix(6, queries.dims() - 1, 0.25),
                       queries.labels());
  const auto radii = [&](double value) { return std::vector<double>(queries.size(), value); };
  auto with = [](std::vector<double> radii, std::size_t at, double value) {
    radii[at] = value;
    return radii;
  };
  // Rows kept for the handle rows below.
  const Dataset none;
  const auto kept = client.mine_partial(0, "knn-train-accuracy", {}, queries, {},
                                        proto::kPrefixKeep);
  ASSERT_GE(kept.kept, proto::kFirstPrefixHandle);
  struct Case {
    const char* what;
    const char* job;
    proto::JobParams params;
    const Dataset* queries;
    std::vector<double> radii;
    std::uint64_t prefix = proto::kPrefixInline;
  };
  const Case cases[] = {
      {"k = 0", "knn-train-accuracy", {{"k", 0.0}}, &queries, {}},
      {"k = 1e6", "knn-train-accuracy", {{"k", 1e6}}, &queries, {}},
      {"an unknown parameter", "knn-train-accuracy", {{"no-such-param", 1.0}}, &queries, {}},
      {"a query block one column short", "knn-train-accuracy", {}, &narrow, {}},
      {"one radius too few", "knn-train-accuracy", {}, &queries,
       std::vector<double>(queries.size() - 1, 1.0)},
      {"a negative radius", "knn-train-accuracy", {}, &queries, with(radii(1.0), 2, -0.5)},
      {"a NaN radius", "knn-train-accuracy", {}, &queries,
       with(radii(1.0), 0, std::numeric_limits<double>::quiet_NaN())},
      {"an infinite radius", "knn-train-accuracy", {}, &queries,
       with(radii(1.0), 5, std::numeric_limits<double>::infinity())},
      {"radii for a job whose partial takes none", "nb-train-accuracy", {}, &queries,
       radii(1.0)},
      {"a prefix handle beside a non-empty row block", "knn-train-accuracy", {}, &queries, {},
       kept.kept},
      {"rows to keep for a job whose partial reads none", "nb-train-accuracy", {}, &queries, {},
       proto::kPrefixKeep},
      {"a prefix handle for a job whose partial reads none", "class-histogram", {}, &none, {},
       kept.kept},
      {"a radius count that does not match the kept rows", "knn-train-accuracy", {}, &none,
       std::vector<double>(queries.size() + 1, 1.0), kept.kept},
  };
  for (const auto& c : cases) {
    try {
      (void)client.mine_partial(0, c.job, c.params, *c.queries, c.radii, c.prefix);
      ADD_FAILURE() << c.what << ": served";
    } catch (const net::ServeError& e) {
      EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest) << c.what << ": " << e.what();
    }
  }
  // A handle this member never issued is a typed miss, which a router
  // answers by resending the rows, not a bad request.
  try {
    (void)client.mine_partial(0, "knn-train-accuracy", {}, none, radii(0.5), kept.kept + 1);
    ADD_FAILURE() << "an unknown handle was served";
  } catch (const net::ServeError& e) {
    EXPECT_EQ(e.code(), proto::ServeErrorCode::kUnknownPrefix) << e.what();
  }
  // Well-formed bounded partials are served, by handle as with the rows.
  const auto inline_rows = client.mine_partial(0, "knn-train-accuracy", {}, queries, radii(0.5));
  EXPECT_FALSE(inline_rows.blob.empty());
  EXPECT_EQ(inline_rows.kept, 0u);
  const auto by_handle =
      client.mine_partial(0, "knn-train-accuracy", {}, none, radii(0.5), kept.kept);
  EXPECT_EQ(by_handle.blob, inline_rows.blob);
  EXPECT_EQ(by_handle.kept, 0u);
  const auto stats = a.daemon->stats_snapshot();
  EXPECT_EQ(counter_value(stats, "serve.refused.bad_request"), std::size(cases));
  EXPECT_EQ(counter_value(stats, "serve.refused.unavailable"), 0u);
  EXPECT_EQ(counter_value(stats, "serve.prefix.misses"), 1u);
  EXPECT_EQ(counter_value(stats, "serve.prefix.kept"), 1u);
  client.bye();
  a.stop();
}

}  // namespace

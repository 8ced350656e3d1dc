// Tests for the mining-serving stack: ThreadPool (common/thread_pool.hpp),
// the JobSpec registry (protocol/jobs.hpp), and the MiningEngine
// (protocol/mining_engine.hpp) — including the determinism invariant (a
// batch's reports are bit-identical to serial execution regardless of
// thread count) and an 8-thread hammer against one shared engine. Run under
// TSAN like the session's party pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "protocol/jobs.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/session.hpp"

namespace {

using sap::ThreadPool;
using sap::data::Dataset;
namespace proto = sap::proto;

Dataset normalized_pool(const std::string& name, std::uint64_t seed) {
  const Dataset raw = sap::data::make_uci(name, seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  return {raw.name(), norm.transform(raw.features()), raw.labels()};
}

std::unique_ptr<proto::MiningEngine> make_engine(std::size_t threads) {
  auto engine = std::make_unique<proto::MiningEngine>(
      proto::MiningEngineOptions{.threads = threads,
                                 .shards = 1,
                                 .layout = proto::ShardLayout::kHashMod,
                                 .owned = {}});
  engine->set_pool(normalized_pool("Iris", 42));
  return engine;
}

/// Mixed request load exercising structural + trainable jobs and parameter
/// variation (so the cache sees several distinct keys).
std::vector<proto::MiningRequest> mixed_requests(std::size_t count) {
  std::vector<proto::MiningRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 5) {
      case 0: reqs.push_back({"record-count", {}}); break;
      case 1: reqs.push_back({"class-histogram", {}}); break;
      case 2: reqs.push_back({"knn-train-accuracy", {{"k", double(1 + (i % 3) * 2)}}}); break;
      case 3: reqs.push_back({"nb-train-accuracy", {}}); break;
      default: reqs.push_back({"perceptron-train-accuracy", {{"epochs", 10.0}}}); break;
    }
  }
  return reqs;
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.run_indexed(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  pool.run_indexed(3, [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAfterBatchDrains) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(threads);
    std::atomic<int> completed{0};
    try {
      pool.run_indexed(64, [&](std::size_t i) {
        if (i == 7) SAP_FAIL("index 7 failed");
        completed.fetch_add(1);
      });
      FAIL() << "exception must propagate";
    } catch (const sap::Error& e) {
      EXPECT_NE(std::string(e.what()).find("index 7"), std::string::npos);
    }
    // Every non-throwing index still ran: a failure never abandons work.
    EXPECT_EQ(completed.load(), 63);
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run_indexed(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500);
}

// ------------------------------------------------------------ job registry

TEST(JobRegistryTest, DuplicateRegisterReplaces) {
  auto registry = proto::JobRegistry::builtins();
  const auto before = registry.size();
  proto::JobSpec replacement;
  replacement.name = "record-count";
  replacement.run = [](const Dataset&, const proto::JobParams&) {
    return std::vector<double>{-1.0};
  };
  registry.register_job(std::move(replacement));
  EXPECT_EQ(registry.size(), before);  // replaced, not added

  proto::MiningEngine engine({}, std::move(registry));
  engine.set_pool(normalized_pool("Iris", 1));
  EXPECT_EQ(engine.run({"record-count", {}}).values, std::vector<double>{-1.0});
}

TEST(JobRegistryTest, UnknownNameThrows) {
  const auto registry = proto::JobRegistry::builtins();
  EXPECT_THROW((void)registry.find("no-such-job"), sap::Error);
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  EXPECT_THROW(engine.run({"no-such-job", {}}), sap::Error);
  EXPECT_THROW(engine.run_batch({{"record-count", {}}, {"no-such-job", {}}}), sap::Error);
}

TEST(JobRegistryTest, EmptyJobIsANoOpResult) {
  auto engine_ptr = make_engine(2);
  auto& engine = *engine_ptr;
  const auto single = engine.run({"", {}});
  EXPECT_TRUE(single.values.empty());
  const auto batch = engine.run_batch({{"", {}}, {"record-count", {}}, {"", {}}});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].values.empty());
  EXPECT_EQ(batch[1].values, std::vector<double>{150.0});
  EXPECT_TRUE(batch[2].values.empty());
  // No-op requests never touch the pool or the cache.
  EXPECT_EQ(engine.cache_stats().fits, 0u);
}

TEST(JobRegistryTest, MalformedSpecsRejected) {
  proto::JobRegistry registry;
  proto::JobSpec nameless;
  nameless.run = [](const Dataset&, const proto::JobParams&) {
    return std::vector<double>{};
  };
  EXPECT_THROW(registry.register_job(nameless), sap::Error);

  proto::JobSpec pathless;
  pathless.name = "neither-path";
  EXPECT_THROW(registry.register_job(pathless), sap::Error);

  proto::JobSpec bad_default;
  bad_default.name = "bad-default";
  bad_default.params = {{"p", 5.0, 0.0, 1.0}};  // default outside [min, max]
  bad_default.run = [](const Dataset&, const proto::JobParams&) {
    return std::vector<double>{};
  };
  EXPECT_THROW(registry.register_job(bad_default), sap::Error);
}

TEST(JobRegistryTest, ParamValidation) {
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  // Unknown parameter name.
  EXPECT_THROW(engine.run({"knn-train-accuracy", {{"bogus", 1.0}}}), sap::Error);
  // Out-of-range value (k must be >= 1).
  EXPECT_THROW(engine.run({"knn-train-accuracy", {{"k", 0.0}}}), sap::Error);
  // Defaults and explicit-default resolve to the same canonical key.
  const auto& spec = engine.registry().find("knn-train-accuracy");
  EXPECT_EQ(proto::JobSpec::canonical_params(spec.resolve_params({})),
            proto::JobSpec::canonical_params(spec.resolve_params({{"k", 5.0}})));
}

/// knn-train-accuracy's partial blob by brute force: every row's distance
/// with the one-row chain, ALL rows sorted by (distance, tie), the first
/// min(k, n) emitted as {dist, nonce, seq, label}.
template <typename TieLess>
std::vector<double> knn_blob_reference(const Dataset& rows,
                                       const std::vector<proto::PoolKey>& keys,
                                       const Dataset& queries, std::size_t k,
                                       TieLess tie_less) {
  std::vector<double> blob{static_cast<double>(k), static_cast<double>(queries.size())};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto query = queries.record(q);
    std::vector<std::pair<double, std::size_t>> all;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto row = rows.record(i);
      double acc = 0.0;
      for (std::size_t c = 0; c < query.size(); ++c) {
        const double diff = row[c] - query[c];
        acc += diff * diff;
      }
      all.emplace_back(acc, i);
    }
    std::sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return tie_less(a.second, b.second);
    });
    const std::size_t kept = std::min(k, all.size());
    blob.push_back(static_cast<double>(kept));
    for (std::size_t i = 0; i < kept; ++i) {
      const std::size_t row = all[i].second;
      blob.push_back(all[i].first);
      blob.push_back(static_cast<double>(keys[row].nonce));
      blob.push_back(static_cast<double>(keys[row].seq));
      blob.push_back(static_cast<double>(rows.label(row)));
    }
  }
  return blob;
}

TEST(JobRegistryTest, KnnPartialBreaksTiesByCanonicalKeyNotArrival) {
  // A shard whose rows arrived out of canonical PoolKey order, with every
  // row duplicated on a second nonce so the two copies tie exactly. The
  // partial must keep the (distance, PoolKey) order of the merge, whatever
  // the arrival order.
  sap::rng::Engine eng(77);
  const std::size_t n = 48;
  const std::size_t d = 3;
  sap::linalg::Matrix f(n, d);
  std::vector<int> labels(n);
  std::vector<proto::PoolKey> keys(n);
  for (std::size_t i = 0; i < n; i += 2) {
    for (std::size_t c = 0; c < d; ++c) {
      f(i, c) = std::round(eng.uniform(0.0, 4.0)) / 2.0;
      f(i + 1, c) = f(i, c);
    }
    // The copy on nonce 9 arrives first; canonical order puts nonce 3 first.
    keys[i] = {9, static_cast<std::uint32_t>(n - i)};
    keys[i + 1] = {3, static_cast<std::uint32_t>(n - i)};
    labels[i] = 0;
    labels[i + 1] = 1;
  }
  const Dataset rows("shard", f, labels);
  const Dataset queries = rows.slice(0, 12);
  const auto registry = proto::JobRegistry::builtins();
  const auto& spec = registry.find("knn-train-accuracy");
  const auto by_key = [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; };
  const auto by_arrival = [](std::size_t a, std::size_t b) { return a < b; };
  for (const std::size_t k : {1, 2, 5, 64, 256}) {
    const auto resolved = spec.resolve_params({{"k", static_cast<double>(k)}});
    const auto blob = spec.partial(proto::ShardSnapshot(rows, keys), queries, {}, resolved);
    const auto reference = knn_blob_reference(rows, keys, queries, k, by_key);
    EXPECT_EQ(blob, reference) << "k " << k;
    // The case discriminates: an arrival-index tie-break gives another blob.
    EXPECT_NE(reference, knn_blob_reference(rows, keys, queries, k, by_arrival)) << "k " << k;
  }
  // Queries of the wrong width are refused, not read past the rows.
  const Dataset wide("wide", sap::linalg::Matrix(1, d + 1, 0.5), std::vector<int>{0});
  EXPECT_THROW(
      (void)spec.partial(proto::ShardSnapshot(rows, keys), wide, {}, spec.resolve_params({})),
      sap::Error);
}

TEST(JobRegistryTest, KnnMergeRefusesUnorderedListsAndRepeatedKeys) {
  // Hand-built kNN partials over one query ([k, queries, {cands, {dist,
  // nonce, seq, label}*}*]): each shard's list must arrive in strict
  // (distance, key) order, and no key may reach the merge twice. The merge
  // takes the first k from the lists as they stand, so it refuses what a
  // re-sort would have hidden and what a vote would have counted twice.
  const auto registry = proto::JobRegistry::builtins();
  const auto& spec = registry.find("knn-train-accuracy");
  const auto resolved = spec.resolve_params({{"k", 3.0}});
  const Dataset queries("q", sap::linalg::Matrix(1, 2, 0.0), std::vector<int>{1});
  using Cand = std::array<double, 4>;  // dist, nonce, seq, label
  const auto blob = [](const std::vector<Cand>& cands) {
    std::vector<double> out{3.0, 1.0, static_cast<double>(cands.size())};
    for (const auto& c : cands) out.insert(out.end(), c.begin(), c.end());
    return out;
  };
  const auto merge = [&](const std::vector<std::vector<double>>& partials) {
    return spec.merge_partials(partials, queries, resolved);
  };
  // Shard A holds nonce 5, shard B nonce 7. The vote over the global three
  // nearest, (1.0, 5:0, label 0), (1.5, 7:0, 1), (2.0, 7:1, 1), says 1.
  const auto a = blob({{1.0, 5, 0, 0}, {2.5, 5, 1, 0}, {3.0, 5, 2, 0}});
  const auto b = blob({{1.5, 7, 0, 1}, {2.0, 7, 1, 1}});
  EXPECT_EQ(merge({a, b}), std::vector<double>{1.0});
  EXPECT_EQ(merge({b, a}), std::vector<double>{1.0});
  // Two candidates of the query swapped: a re-sort would hide it.
  const auto swapped = blob({{2.5, 5, 1, 0}, {1.0, 5, 0, 0}, {3.0, 5, 2, 0}});
  EXPECT_THROW((void)merge({swapped, b}), sap::Error);
  // Equal distances are ordered by key, so a key tie out of order is refused too.
  const auto tie_swapped = blob({{1.0, 5, 1, 0}, {1.0, 5, 0, 0}});
  EXPECT_THROW((void)merge({tie_swapped, b}), sap::Error);
  // One key listed twice in a shard's list: the vote would count it twice.
  const auto repeated = blob({{1.0, 5, 0, 0}, {1.0, 5, 0, 0}, {3.0, 5, 2, 0}});
  EXPECT_THROW((void)merge({repeated, b}), sap::Error);
  // One key sent by two shards (a nonce lives on one shard only), whether
  // it would be taken or not.
  const auto stolen = blob({{1.5, 7, 0, 1}, {4.0, 5, 0, 0}});
  EXPECT_THROW((void)merge({a, stolen}), sap::Error);
  const auto twice = blob({{1.0, 5, 0, 0}});
  EXPECT_THROW((void)merge({a, b, twice}), sap::Error);
}

// ------------------------------------------------------------ engine serving

TEST(MiningEngineTest, RequiresAPool) {
  proto::MiningEngine engine;
  EXPECT_FALSE(engine.has_pool());
  EXPECT_THROW((void)engine.pool(), sap::Error);
  EXPECT_THROW(engine.run({"record-count", {}}), sap::Error);
}

TEST(MiningEngineTest, BatchReportsBitIdenticalToSerialAtAnyThreadCount) {
  const auto requests = mixed_requests(60);
  auto serial = make_engine(0);
  const auto reference = serial->run_batch(requests);
  ASSERT_EQ(reference.size(), requests.size());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    auto engine_ptr = make_engine(threads);
    const auto responses = engine_ptr->run_batch(requests);
    ASSERT_EQ(responses.size(), reference.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_EQ(responses[i].values.size(), reference[i].values.size()) << "request " << i;
      for (std::size_t v = 0; v < responses[i].values.size(); ++v)
        EXPECT_EQ(responses[i].values[v], reference[i].values[v])  // bit-identical
            << "request " << i << " value " << v << " at " << threads << " threads";
    }
  }
}

TEST(MiningEngineTest, TrainableJobsFitOncePerKeyAndServeFromCache) {
  auto engine_ptr = make_engine(4);
  auto& engine = *engine_ptr;
  const proto::MiningRequest req{"knn-train-accuracy", {{"k", 3.0}}};
  const auto first = engine.run(req);
  EXPECT_FALSE(first.model_cached);
  const auto second = engine.run(req);
  EXPECT_TRUE(second.model_cached);
  EXPECT_EQ(second.values, first.values);
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.fits, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // A different hyperparameter is a different model.
  (void)engine.run({"knn-train-accuracy", {{"k", 7.0}}});
  stats = engine.cache_stats();
  EXPECT_EQ(stats.fits, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // Structural jobs never touch the cache.
  (void)engine.run({"record-count", {}});
  EXPECT_EQ(engine.cache_stats().fits, 2u);
}

TEST(MiningEngineTest, SetPoolBumpsEpochAndInvalidatesModels) {
  auto engine_ptr = make_engine(2);
  auto& engine = *engine_ptr;
  EXPECT_EQ(engine.pool_epoch(), 1u);
  const auto iris = engine.run({"knn-train-accuracy", {}});
  EXPECT_EQ(engine.cache_stats().fits, 1u);

  engine.set_pool(normalized_pool("Wine", 7));
  EXPECT_EQ(engine.pool_epoch(), 2u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);  // stale models dropped
  const auto wine = engine.run({"knn-train-accuracy", {}});
  EXPECT_FALSE(wine.model_cached);              // refit on the new pool
  EXPECT_EQ(engine.cache_stats().fits, 2u);
  EXPECT_NE(wine.values, iris.values);  // genuinely a different pool's model
}

TEST(MiningEngineTest, EvalRecordsBoundsTheServingCost) {
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  const auto full = engine.run({"knn-train-accuracy", {}});
  const auto bounded = engine.run({"knn-train-accuracy", {{"eval-records", 32.0}}});
  // eval-records is serve-only: it bounds the report, not the model, so the
  // second request reuses the first request's fitted model.
  EXPECT_TRUE(bounded.model_cached);
  EXPECT_EQ(engine.cache_stats().fits, 1u);
  ASSERT_EQ(full.values.size(), 1u);
  ASSERT_EQ(bounded.values.size(), 1u);
  EXPECT_GE(bounded.values[0], 0.0);
  EXPECT_LE(bounded.values[0], 1.0);
}

TEST(MiningEngineTest, HammeredFromEightThreadsMatchesSerialReference) {
  // The concurrency test the engine's thread-safety contract promises:
  // 8 caller threads hammer ONE engine with overlapping keys; every
  // response must equal the serial reference bit for bit, and the cache
  // must have fit each distinct key at most once.
  const std::size_t kThreads = 8, kPerThread = 30;
  const auto requests = mixed_requests(kPerThread);
  auto serial = make_engine(0);
  const auto reference = serial->run_batch(requests);

  auto shared_ptr = make_engine(0);  // callers bring their own threads
  auto& shared = *shared_ptr;
  std::vector<std::vector<proto::MiningResponse>> got(kThreads);
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    callers.emplace_back([&, t] {
      got[t].reserve(requests.size());
      for (const auto& req : requests) got[t].push_back(shared.run(req));
    });
  for (auto& c : callers) c.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(got[t][i].values, reference[i].values) << "thread " << t << " request " << i;
  }
  const auto stats = shared.cache_stats();
  // mixed_requests(30) contains 5 distinct trainable keys (knn k∈{1,3,5},
  // nb, perceptron): exactly one fit each despite 8x30 requests.
  EXPECT_EQ(stats.fits, serial->cache_stats().fits);
  EXPECT_EQ(stats.hits + stats.fits, kThreads * /*trainable requests*/ 18u);
}

// ------------------------------------------------------------ live pool (append)

TEST(LivePoolTest, AppendRecordsBumpsEpochAndKeepsCachedWork) {
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  const Dataset pool = normalized_pool("Iris", 42);
  EXPECT_EQ(engine.pool_epoch(), 1u);

  const auto before = engine.run({"nb-train-accuracy", {}});
  EXPECT_FALSE(before.model_cached);
  EXPECT_EQ(before.pool_epoch, 1u);
  EXPECT_EQ(engine.cache_stats().fits, 1u);

  const auto epoch = engine.append_records(pool.slice(0, 20));
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(engine.pool_epoch(), 2u);
  EXPECT_EQ(engine.pool_view().data->size(), 170u);
  // The cached entry survives the append (unlike set_pool) and seeds an
  // incremental refit.
  EXPECT_EQ(engine.cache_stats().entries, 1u);

  const auto after = engine.run({"nb-train-accuracy", {}});
  EXPECT_EQ(after.pool_epoch, 2u);
  EXPECT_TRUE(after.model_incremental);
  EXPECT_FALSE(after.model_cached);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.fits, 1u);         // never retrained from scratch
  EXPECT_EQ(stats.incremental, 1u);  // extended instead

  const auto again = engine.run({"nb-train-accuracy", {}});
  EXPECT_TRUE(again.model_cached);  // the refit model now serves epoch 2
  EXPECT_EQ(again.values, after.values);
}

TEST(LivePoolTest, IncrementalRefitMatchesFullRetrainReports) {
  // Incremental-refit contract through the engine: for NaiveBayes and Knn
  // the post-append report must equal the full-retrain report bit for bit.
  const Dataset pool = normalized_pool("Wine", 9);
  const Dataset base = pool.slice(0, 120);
  const Dataset batch = pool.slice(120, pool.size());
  for (const auto* job : {"nb-train-accuracy", "knn-train-accuracy"}) {
    proto::MiningEngine incremental{proto::MiningEngineOptions{}};
    incremental.set_pool(base);
    (void)incremental.run({job, {}});  // warm: full fit on the base pool
    incremental.append_records(batch);
    const auto fast = incremental.run({job, {}});
    EXPECT_TRUE(fast.model_incremental) << job;

    proto::MiningEngine fresh{proto::MiningEngineOptions{}};
    fresh.set_pool(base);
    fresh.append_records(batch);
    const auto slow = fresh.run({job, {}});
    EXPECT_FALSE(slow.model_incremental) << job;
    EXPECT_EQ(fast.values, slow.values) << job;
  }
}

TEST(LivePoolTest, ModelsWithoutPartialFitFallBackToFullRefit) {
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  (void)engine.run({"svm-train-accuracy", {}});
  engine.append_records(normalized_pool("Iris", 42).slice(0, 10));
  const auto response = engine.run({"svm-train-accuracy", {}});
  EXPECT_FALSE(response.model_incremental);
  EXPECT_FALSE(response.model_cached);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.fits, 2u);  // full refit on the grown pool
  EXPECT_EQ(stats.incremental, 0u);
}

TEST(LivePoolTest, SetPoolSeversIncrementalLineage) {
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  (void)engine.run({"nb-train-accuracy", {}});
  engine.set_pool(normalized_pool("Wine", 7));
  const auto response = engine.run({"nb-train-accuracy", {}});
  EXPECT_FALSE(response.model_incremental);  // replaced pool: full fit
  EXPECT_EQ(engine.cache_stats().fits, 2u);
}

TEST(LivePoolTest, AppendValidations) {
  proto::MiningEngine engine;
  const Dataset pool = normalized_pool("Iris", 42);
  EXPECT_THROW(engine.append_records(pool.slice(0, 10)), sap::Error);  // no pool yet
  engine.set_pool(pool);
  EXPECT_THROW(engine.append_records(pool.slice(0, 0)), sap::Error);  // empty batch
  EXPECT_THROW(engine.append_records(normalized_pool("Wine", 7).slice(0, 5)),
               sap::Error);  // 13 dims vs 4
  EXPECT_EQ(engine.pool_epoch(), 1u);  // nothing mutated
}

TEST(LivePoolTest, SnapshotsOutliveAppends) {
  auto engine_ptr = make_engine(0);
  auto& engine = *engine_ptr;
  const auto old_view = engine.pool_view();
  EXPECT_EQ(old_view.data->size(), 150u);
  engine.append_records(normalized_pool("Iris", 42).slice(0, 30));
  // The pre-append snapshot still answers with the old pool (bounded
  // staleness: a request that grabbed it finishes against epoch 1).
  EXPECT_EQ(old_view.data->size(), 150u);
  EXPECT_EQ(old_view.epoch, 1u);
  EXPECT_EQ(engine.pool_view().data->size(), 180u);
}

TEST(LivePoolTest, BatchReportsBitIdenticalAcrossThreadCountsWithInterleavedAppends) {
  const Dataset pool = normalized_pool("Iris", 42);
  const auto requests = mixed_requests(40);
  const auto scenario = [&](std::size_t threads) {
    proto::MiningEngine engine({.threads = threads,
                                .shards = 1,
                                .layout = proto::ShardLayout::kHashMod,
                                .owned = {}});
    engine.set_pool(pool.slice(0, 100));
    std::vector<proto::MiningResponse> all;
    for (const std::size_t step : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
      if (step > 0) engine.append_records(pool.slice(75 + 25 * step, 100 + 25 * step));
      auto part = engine.run_batch(requests);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  };
  const auto reference = scenario(0);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto got = scenario(threads);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].values, reference[i].values) << "response " << i;
      EXPECT_EQ(got[i].pool_epoch, reference[i].pool_epoch) << "response " << i;
    }
  }
}

TEST(LivePoolTest, ServingStaysAvailableDuringConcurrentIngest) {
  // The TSAN-relevant hammer: one ingest thread keeps appending while four
  // caller threads serve. Every response must be well-formed and land on a
  // real epoch; afterwards the quiesced engine must agree with a fresh
  // engine fitted on the final pool (NB's incremental chain is bit-exact).
  const Dataset pool = normalized_pool("Iris", 42);
  auto engine_ptr = std::make_unique<proto::MiningEngine>(proto::MiningEngineOptions{});
  auto& engine = *engine_ptr;
  engine.set_pool(pool.slice(0, 60));

  std::thread ingester([&] {
    for (std::size_t b = 0; b < 9; ++b)
      engine.append_records(pool.slice(60 + 10 * b, 70 + 10 * b));
  });
  std::vector<std::thread> servers;
  std::atomic<std::size_t> served{0};
  for (int t = 0; t < 4; ++t)
    servers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const auto r = engine.run({"nb-train-accuracy", {}});
        ASSERT_EQ(r.values.size(), 1u);
        ASSERT_GE(r.pool_epoch, 1u);
        ASSERT_LE(r.pool_epoch, 10u);
        served.fetch_add(1);
      }
    });
  ingester.join();
  for (auto& s : servers) s.join();
  EXPECT_EQ(served.load(), 100u);

  const auto settled = engine.run({"nb-train-accuracy", {}});
  EXPECT_EQ(settled.pool_epoch, 10u);
  proto::MiningEngine fresh{proto::MiningEngineOptions{}};
  fresh.set_pool(pool);
  EXPECT_EQ(settled.values, fresh.run({"nb-train-accuracy", {}}).values);
}

// ------------------------------------------------------------ session wiring

proto::SapOptions fast_session_opts(std::uint64_t seed) {
  auto opts = proto::SapOptions::fast();
  opts.seed = seed;
  opts.compute_satisfaction = false;
  return opts;
}

std::vector<Dataset> iris_shards(std::size_t k, std::uint64_t seed) {
  const Dataset pool = normalized_pool("Iris", seed);
  sap::rng::Engine eng(seed ^ 0xBEEF);
  sap::data::PartitionOptions popts;
  return sap::data::partition(pool, k, popts, eng);
}

TEST(SessionEngineTest, EngineAccessorCompletesThePhasesAndServesBatches) {
  auto opts = fast_session_opts(21);
  opts.mining_threads = 4;
  proto::SapSession session(iris_shards(4, 21), opts);
  EXPECT_EQ(session.phase(), proto::SessionPhase::kLocalOptimize);

  auto& engine = session.engine();  // implicit run_until(kMine)
  EXPECT_EQ(session.phase(), proto::SessionPhase::kMine);
  EXPECT_EQ(engine.pool().size(), 150u);
  EXPECT_EQ(engine.threads(), 4u);

  const std::size_t before = session.transport().trace().size();
  const auto responses = engine.run_batch(mixed_requests(20));
  EXPECT_EQ(responses.size(), 20u);
  // Direct engine access broadcasts nothing (mine()/mine_named() do).
  EXPECT_EQ(session.transport().trace().size(), before);
}

TEST(SessionEngineTest, MineNamedAcceptsParamsAndBroadcasts) {
  proto::SapSession session(iris_shards(4, 22), fast_session_opts(22));
  const auto result = session.mine_named("knn-train-accuracy", {{"k", 1.0}});
  // 1-NN training accuracy on the training pool itself is always 1.
  std::size_t reports = 0;
  for (proto::PartyId p = 0; p < 4; ++p)
    reports += session.transport().count_received(p, proto::PayloadKind::kModelReport);
  EXPECT_EQ(reports, 4u);
  (void)result;
}

TEST(SessionEngineTest, RepeatedMineNamedServesFromTheModelCache) {
  proto::SapSession session(iris_shards(4, 23), fast_session_opts(23));
  (void)session.mine_named("nb-train-accuracy");
  (void)session.mine_named("nb-train-accuracy");
  (void)session.mine_named("nb-train-accuracy");
  const auto stats = session.engine().cache_stats();
  EXPECT_EQ(stats.fits, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(SessionEngineTest, SessionDeterminismHoldsAcrossMiningThreadCounts) {
  // The session-level determinism invariant: mining_threads must not leak
  // into any reported value (same exchange, same pool, same reports).
  auto opts_serial = fast_session_opts(24);
  auto opts_threaded = fast_session_opts(24);
  opts_threaded.mining_threads = 8;
  proto::SapSession a(iris_shards(5, 24), opts_serial);
  proto::SapSession b(iris_shards(5, 24), opts_threaded);

  const auto batch = mixed_requests(25);
  const auto ra = a.engine().run_batch(batch);
  const auto rb = b.engine().run_batch(batch);
  EXPECT_TRUE(a.engine().pool().features().approx_equal(b.engine().pool().features(), 0.0));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].values, rb[i].values);
}

}  // namespace

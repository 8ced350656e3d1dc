// The in-process cluster fixture shared by cluster_test, fault_test and
// obs_test: one seeded exchange (a normalized Iris pool split over k
// parties) and a Member that runs a real MinerDaemon plus its k exchange
// parties on threads, so a test can stand up one or more serving doors
// without process machinery.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/remote.hpp"
#include "protocol/party_logic.hpp"
#include "rng/rng.hpp"

namespace sap::testing {

/// Min-max normalized copy of a synthetic UCI dataset.
inline data::Dataset normalized_pool(const std::string& name, std::uint64_t seed) {
  const data::Dataset raw = data::make_uci(name, seed);
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  return {raw.name(), norm.transform(raw.features()), raw.labels()};
}

/// One in-process cluster member: a MinerDaemon plus its k exchange
/// parties. Party 0 holds the daemon open until stop() — releasing it ends
/// the daemon run loop and STOPS the reactor, which is how the failover
/// tests take a miner down.
struct Member {
  std::unique_ptr<net::MinerDaemon> daemon;
  std::future<net::MinerDaemon::Summary> done;
  std::vector<std::thread> parties;
  std::promise<void> release;
  bool stopped = false;

  Member() = default;
  Member(const Member&) = delete;
  Member& operator=(const Member&) = delete;
  /// Unwind-safe: a throwing assertion mid-test must not destroy joinable
  /// party threads (std::terminate) — it should surface the assertion.
  ~Member() {
    if (daemon == nullptr || stopped) return;
    try {
      (void)stop();
    } catch (...) {
    }
  }

  void start(const std::vector<data::Dataset>& shards, const proto::SapOptions& sap_opts,
             std::uint64_t seed, net::MinerDaemonOptions opts) {
    const std::size_t k = shards.size();
    opts.parties = k;
    opts.seed = seed;
    opts.reactor_loops = 2;
    opts.reactor_compute_threads = 2;
    daemon = std::make_unique<net::MinerDaemon>(opts);
    done = std::async(std::launch::async, [this] { return daemon->run(); });
    std::promise<void> exchanged;
    std::shared_future<void> released(release.get_future());
    for (std::size_t i = 0; i < k; ++i) {
      parties.emplace_back([this, &shards, &sap_opts, k, i, released, &exchanged] {
        net::PartyClientOptions popts;
        popts.connect = daemon->local_addr();
        popts.index = i;
        popts.parties = k;
        popts.sap = sap_opts;
        net::PartyClient party(shards[i], popts);
        (void)party.run_exchange();
        if (i == 0) {
          exchanged.set_value();
          released.wait();
        }
        party.finish();
      });
    }
    exchanged.get_future().wait();
    // Party 0 finishing its exchange does not mean the DAEMON has installed
    // the pool yet — wait for the serving flip so direct clients and
    // retry-count assertions never race a transient "not serving" refusal.
    for (int i = 0; i < 2000 && !daemon->serving(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SAP_REQUIRE(daemon->serving(), "test member: daemon never started serving");
  }

  net::MinerDaemon::Summary stop() {
    stopped = true;
    release.set_value();
    for (auto& t : parties) t.join();
    return done.get();
  }
};

/// The seeded exchange every member of one test runs: the first 100 pool
/// records split over k parties, the rest held back for contributions.
struct Cluster {
  data::Dataset pool;
  std::vector<data::Dataset> shards;
  proto::SapOptions sap_opts;
  std::uint64_t seed;
  std::size_t k;

  explicit Cluster(std::uint64_t seed_in, std::size_t k_in = 3) : seed(seed_in), k(k_in) {
    pool = normalized_pool("Iris", seed);
    rng::Engine shard_eng(seed ^ 0xBEEF);
    data::PartitionOptions popts;
    shards = data::partition(pool.slice(0, 100), k, popts, shard_eng);
    sap_opts = proto::SapOptions::fast();
    sap_opts.seed = seed;
    sap_opts.compute_satisfaction = false;
  }

  /// Party 0's contribution wires (the adaptor the exchange installed
  /// accepts them), batches drawn from the held-back pool tail.
  std::vector<std::vector<double>> wires(std::size_t count) const {
    const auto seeds = proto::logic::derive_session_seeds(seed, k);
    rng::Engine eng = seeds.provider_eng[0];
    const auto local = proto::logic::optimize_local(shards[0].features_T(),
                                                    shards[0].dims(), sap_opts, eng);
    std::vector<std::vector<double>> out;
    for (std::size_t b = 0; b < count; ++b) {
      const data::Dataset batch = pool.slice(100 + b * 10, 110 + b * 10);
      const auto y = local.g.apply(batch.features_T(), eng);
      out.push_back(proto::encode_contribution(local.nonce, y, batch.labels()));
    }
    return out;
  }
};

}  // namespace sap::testing

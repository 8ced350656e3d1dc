// Daemon processes of the deployment under test. The benchmark re-executes
// itself in one of these modes; each prints tagged lines on stdout for the
// benchmark process (common.hpp: Child) and serves until it exits or is
// killed.
#include <chrono>
#include <future>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"

namespace perfbench {

namespace net = sap::net;

namespace {

[[noreturn]] void serve_until_killed() {
  for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
}

}  // namespace

// Exchange miner: hub only, the k parties connect from the benchmark
// process. Prints "HUB <port>", then "POOL <digest> <epoch>" as soon as the
// pool is installed, and exits when the last party has left.
int child_exchange_miner(std::uint64_t seed) {
  net::MinerDaemonOptions opts;
  opts.listen = {"127.0.0.1", 0};
  opts.parties = kParties;
  opts.seed = seed;
  net::MinerDaemon daemon(opts);
  emit_line(fmt("HUB %u", static_cast<unsigned>(daemon.local_addr().port)));
  auto done = std::async(std::launch::async, [&] { return daemon.run(); });
  bool installed = false;
  for (int attempt = 0; attempt < 120'000 && !installed; ++attempt) {
    if (daemon.serving()) {
      installed = true;
      break;
    }
    if (done.wait_for(std::chrono::milliseconds(1)) == std::future_status::ready) break;
  }
  if (installed) {
    const auto view = daemon.engine().pool_view();
    emit_line(fmt("POOL %llu %llu",
                  static_cast<unsigned long long>(net::dataset_digest(*view.data)),
                  static_cast<unsigned long long>(view.epoch)));
  }
  (void)done.get();  // rethrows an exchange failure: exit nonzero
  return installed ? 0 : 1;
}

// Serving miner: runs the Shuttle-shape exchange with all k parties
// in-process (every member unifies the same segments from the seed), owns
// shard `index` of `shards`, prints "DOOR <port>" then "READY".
int child_miner(std::uint64_t seed, std::size_t shards, std::size_t index, std::size_t loops,
                std::size_t lanes) {
  const Prep prep = make_prep("Shuttle", 16, 32, seed);
  net::MinerDaemonOptions opts;
  opts.listen = {"127.0.0.1", 0};
  opts.parties = kParties;
  opts.seed = seed;
  opts.reactor_loops = loops;
  opts.reactor_compute_threads = lanes;
  opts.shards = shards;
  opts.shard_layout = proto::ShardLayout::kHashMod;
  if (shards > 1) opts.owned_shards = {index};
  net::MinerDaemon daemon(opts);
  emit_line(fmt("DOOR %u", static_cast<unsigned>(daemon.reactor_addr().port)));

  auto served = std::async(std::launch::async, [&] { return daemon.run(); });
  std::promise<void> exchanged;
  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < kParties; ++i) {
    parties.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = daemon.local_addr();
      popts.index = i;
      popts.parties = kParties;
      popts.sap = prep.sap;
      net::PartyClient party(prep.shards[i], popts);
      (void)party.run_exchange();
      if (i != 0) {
        party.finish();
        return;
      }
      // Party 0 keeps its hub link open so the daemon keeps serving.
      exchanged.set_value();
      serve_until_killed();
    });
  }
  exchanged.get_future().wait();
  // A miner may own an empty shard (hash-mod over k nonces), so readiness is
  // the daemon's own serving flag, not a served record-count.
  for (int attempt = 0; attempt < 60'000 && !daemon.serving(); ++attempt)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (daemon.serving()) emit_line("READY ok");
  for (auto& t : parties) t.join();  // party 0 never returns
  return 1;
}

// Router over the given miner doors (comma-separated ports), one shard per
// miner, one replica. Prints "DOOR <port>".
int child_router(std::uint64_t seed, const std::string& miners) {
  net::RouterDaemonOptions opts;
  std::stringstream ss(miners);
  std::string port;
  while (std::getline(ss, port, ','))
    opts.router.miners.push_back({"127.0.0.1", static_cast<std::uint16_t>(std::stoi(port))});
  opts.router.replicas = 1;
  opts.router.layout = proto::ShardLayout::kHashMod;
  opts.router.seed = seed;
  opts.router.parties = kParties;
  opts.reactor.loops = 1;
  opts.reactor.compute_threads = 2;
  net::RouterDaemon daemon(opts);
  emit_line(fmt("DOOR %u", static_cast<unsigned>(daemon.local_addr().port)));
  serve_until_killed();
}

}  // namespace perfbench

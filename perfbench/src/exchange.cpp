// The exchange layers, traced: one distributed k = 4 exchange of a
// workload's own data against a fresh hub-only MinerDaemon process, with
// four PartyClient threads in this process running LocalOptimize ->
// AdaptorAlignment, followed by replays of each exchange layer's public
// call from the same seed. Every serving workload pays this exchange in its
// set-up (each miner runs it at start), so these layers move `setup_s`.
#include <algorithm>
#include <memory>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "net/remote.hpp"
#include "optimize/optimizer.hpp"
#include "privacy/evaluator.hpp"

namespace perfbench {

namespace net = sap::net;

void trace_exchange(const Prep& prep, const proto::SapResult& reference, Tracer& tr,
                    Result& result) {
  constexpr const char* kRoot = "exchange.session";
  std::vector<double> exchange_ms(kParties, 0.0), rho(kParties, 0.0);
  std::vector<std::string> errors(kParties);
  const std::int64_t t0 = now_ns();
  Child miner({"--child", "exchange-miner", "--seed", std::to_string(prep.sap.seed)});
  const net::SocketAddr hub{"127.0.0.1",
                            static_cast<std::uint16_t>(std::stoi(miner.expect("HUB", 30'000)))};
  std::vector<std::unique_ptr<net::PartyClient>> parties(kParties);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kParties; ++i) {
      threads.emplace_back([&, i] {
        try {
          net::PartyClientOptions popts;
          popts.connect = hub;
          popts.index = i;
          popts.parties = kParties;
          popts.sap = prep.sap;
          const std::int64_t start = now_ns();
          parties[i] = std::make_unique<net::PartyClient>(prep.shards[i], popts);
          rho[i] = parties[i]->run_exchange().local_rho;
          exchange_ms[i] = ms_between(start, now_ns());
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& e : errors)
    if (!e.empty()) throw sap::Error("exchange party failed: " + e);
  const std::uint64_t root = tr.root(kRoot, t0, now_ns());

  // Correctness: the distributed exchange equals the in-process session.
  unsigned long long digest = 0, epoch = 0;
  if (std::sscanf(miner.expect("POOL", 10'000).c_str(), "%llu %llu", &digest, &epoch) != 2)
    throw sap::Error("exchange: malformed POOL line");
  ++result.attempted;
  if (digest != net::dataset_digest(reference.unified))
    result.wrong("traced exchange: pool digest differs from the in-process session");
  for (std::size_t i = 0; i < kParties; ++i)
    if (rho[i] != reference.parties[i].local_rho)
      result.wrong("traced exchange: party rho differs from the in-process session");
  for (auto& p : parties) p->finish();
  if (!miner.wait_exit(10'000)) result.wrong("traced exchange miner did not exit cleanly");

  // Layer replays from the same seed, one thread per party.
  const auto seeds = proto::logic::derive_session_seeds(prep.sap.seed, kParties);
  std::vector<proto::logic::LocalPerturbation> locals(kParties);
  std::vector<sap::linalg::Matrix> ys(kParties);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      const auto& shard = prep.shards[i];
      const auto x = shard.features_T();
      sap::rng::Engine eng = seeds.provider_eng[i];
      const std::int64_t t = now_ns();
      locals[i] = proto::logic::optimize_local(x, shard.dims(), prep.sap, eng);
      const std::int64_t t_opt = now_ns();
      tr.span(root, "optimize.local_ms", t, t_opt);
      tr.count(root, "net.exchange_wait_ms", exchange_ms[i] - ms_between(t, t_opt));
      {
        ScopedSpan span(tr, root, "perturb.apply_ms");
        ys[i] = locals[i].g.apply(x, eng);
      }
      const std::size_t m = std::min(shard.size(), prep.sap.optimizer.max_eval_records);
      const auto xs = shard.slice(0, m).features_T();
      const auto yp = locals[i].g.apply(xs, eng);
      const sap::privacy::AttackSuite suite(prep.sap.optimizer.attacks);
      auto scratch = suite.make_scratch(xs);
      {
        ScopedSpan span(tr, root, "privacy.attack_eval_ms");
        (void)suite.evaluate(xs, yp, eng, scratch);
      }
      if (i == 0) {
        auto opts = prep.sap.optimizer;
        opts.noise_sigma = prep.sap.noise_sigma;
        sap::rng::Engine probe = seeds.provider_eng[i];
        const auto run = sap::opt::optimize_perturbation(x, opts, probe);
        tr.count(root, "optimize.evals", static_cast<double>(run.evaluations * prep.sap.bound_runs));
      }
    });
  }
  for (auto& t : threads) t.join();

  sap::rng::Engine coord = seeds.coordinator_eng;
  const auto target = proto::logic::make_target_space(prep.shards[0].dims(), coord);
  std::vector<proto::logic::MinerShard> received;
  std::vector<std::pair<std::uint64_t, sap::perturb::SpaceAdaptor>> adaptors;
  for (std::size_t i = 0; i < kParties; ++i) {
    received.push_back({locals[i].nonce, static_cast<proto::PartyId>(i),
                        {ys[i], prep.shards[i].labels()}});
    adaptors.emplace_back(locals[i].nonce,
                          sap::perturb::SpaceAdaptor::between(locals[i].g, target));
  }
  {
    ScopedSpan span(tr, root, "protocol.unify_ms");
    (void)proto::logic::unify_pool(std::move(received), std::move(adaptors), kParties);
  }

  const double n = static_cast<double>(kParties);
  const auto per_party = [&](const char* name) {
    return tr.per_root_ms(kRoot, name, Tracer::Agg::kSum) / n;
  };
  result.add_layer("optimize.local_ms", per_party("optimize.local_ms"), "ms", kParties);
  result.add_layer("optimize.evals", tr.per_root_count(kRoot, "optimize.evals"), "count", 1);
  result.add_layer("privacy.attack_eval_ms", per_party("privacy.attack_eval_ms"), "ms", kParties);
  result.add_layer("perturb.apply_ms", per_party("perturb.apply_ms"), "ms", kParties);
  result.add_layer("protocol.unify_ms", tr.per_root_ms(kRoot, "protocol.unify_ms", Tracer::Agg::kSum),
                   "ms", 1);
  result.add_layer("net.exchange_wait_ms", tr.per_root_count(kRoot, "net.exchange_wait_ms") / n,
                   "ms", kParties);
  result.add_layer("net.exchange_bytes", static_cast<double>(reference.total_bytes), "bytes", 1);
}

}  // namespace perfbench

// Multiparty collaborative mining with the Space Adaptation Protocol —
// the paper's headline scenario, end to end.
//
// Six hospitals ("data providers") each hold a shard of a diabetes-screening
// dataset. None will share raw records. They run SAP:
//   * each locally optimizes its own geometric perturbation,
//   * a coordinator (one of the providers) picks a random target space and a
//     random exchange permutation,
//   * perturbed shards are exchanged between peers and forwarded to the
//     mining service provider, which unifies them with space adaptors and
//     trains an SVM — never learning which shard came from whom.
//
// Build & run:  ./build/examples/multiparty_mining
#include <cstdio>

#include "classify/svm.hpp"
#include "common/table.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "protocol/session.hpp"

int main() {
  using namespace sap;
  const std::size_t kProviders = 6;

  // ---- the pooled data nobody actually holds: 6 shards, class-skewed
  //      (each hospital's patient mix differs from the population).
  const data::Dataset raw = data::make_uci("Diabetes", 11);
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const data::Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  rng::Engine eng(311);
  const auto split = data::stratified_split(pool, 0.7, eng);

  data::PartitionOptions popts;
  popts.kind = data::PartitionKind::kClass;
  popts.class_alpha = 0.8;
  auto shards = data::partition(split.train, kProviders, popts, eng);

  std::printf("== SAP multiparty mining: %zu providers, dataset %s ==\n\n", kProviders,
              raw.name().c_str());
  for (std::size_t i = 0; i < shards.size(); ++i)
    std::printf("  provider %zu holds %4zu records (class skew %.2f)\n", i,
                shards[i].size(), data::class_skew(split.train, shards[i]));

  // ---- run the protocol; the miner trains an SVM on the unified data.
  proto::SapOptions opts;
  opts.noise_sigma = 0.1;
  opts.optimizer.candidates = 8;
  opts.optimizer.refine_steps = 4;
  opts.optimizer.attacks = {.naive = true, .ica = true, .known_inputs = 4};
  opts.bound_runs = 2;
  opts.seed = 424242;

  proto::SapSession session(std::move(shards), opts);
  session.run_until(proto::SessionPhase::kMine);  // the exchange, phase by phase

  std::printf("\nprotocol phases (LocalOptimize runs one worker per party):\n");
  for (const auto& stats : session.phase_log())
    std::printf("  %-20s %7.1f ms   %3zu msgs  %7.1f KiB\n",
                proto::to_string(stats.phase).c_str(), stats.millis, stats.messages,
                static_cast<double>(stats.total_bytes) / 1024.0);

  // One exchange serves many mining jobs: train the SVM, then re-mine the
  // pooled unified space with a second named job at zero exchange cost.
  const proto::SapResult result = session.mine_named("svm-train-accuracy");
  // The engine cached the fitted SVM, so reading its report back is free.
  const double miner_train_acc =
      session.engine().run({"svm-train-accuracy", {}}).values.front();
  const proto::SapResult knn_result = session.mine_named("knn-train-accuracy");

  std::printf("\nminer unified %zu records in the target space (SVM train acc %.1f%%)\n",
              result.unified.size(), miner_train_acc * 100.0);
  std::printf("second job on the same pool: knn-train-accuracy (+%zu report msgs only)\n",
              knn_result.messages - result.messages);
  std::printf("network: %zu messages, %.1f KiB ciphertext total\n\n", result.messages,
              static_cast<double>(result.total_bytes) / 1024.0);

  // ---- per-party privacy accounting (paper notation).
  Table table({"provider", "rho_i", "b_i", "s_i", "pi_i", "risk eq(1)", "risk eq(2)"});
  for (const auto& p : result.parties) {
    table.add_row({std::to_string(p.id), Table::num(p.local_rho), Table::num(p.bound),
                   Table::num(p.satisfaction), Table::num(p.identifiability),
                   Table::num(p.risk_breach), Table::num(p.risk_sap)});
  }
  std::fputs(table.str().c_str(), stdout);

  // ---- utility check from the providers' side: they know G_t, so they can
  //      evaluate the miner's model on their own (target-space) test data.
  ml::Svm svm_unified;
  svm_unified.fit(result.unified);
  const data::Dataset test_t(pool.name(),
                             result.target_space.apply_noiseless(split.test.features_T())
                                 .transpose(),
                             split.test.labels());
  ml::Svm svm_baseline;
  svm_baseline.fit(split.train);
  std::printf("\ntest accuracy: baseline (raw pooled data) %.1f%%  vs  SAP unified %.1f%%\n",
              ml::accuracy(svm_baseline, split.test) * 100.0,
              ml::accuracy(svm_unified, test_t) * 100.0);
  std::printf("\n-> every provider's identifiability at the miner is 1/(k-1) = %.3f and\n"
              "   no party ever saw another's raw data or perturbation parameters.\n",
              result.parties.front().identifiability);
  return 0;
}

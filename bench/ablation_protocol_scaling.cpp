// Ablation Abl-3: protocol cost scaling with the number of parties k.
//
// Reports, per k: source identifiability pi = 1/(k-1), wire bytes (total and
// data-plane share), message count, and the wall time of one session run
// (local optimization runs one worker per party). Expectation: pi decays
// hyperbolically (the privacy benefit of more parties), and bytes stay
// within a constant factor of 2x the raw data volume (each record crosses
// exactly two encrypted hops) plus O(k) adaptor overhead.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

int main() {
  using namespace sap;
  const std::string dataset = "Credit_g";  // 1000 records, 24 dims

  std::printf("== Ablation: protocol cost vs number of parties (%s) ==\n\n",
              dataset.c_str());

  Table table({"k", "pi=1/(k-1)", "messages", "total KiB", "KiB/record", "ms"});
  for (std::size_t k = 3; k <= 12; ++k) {
    const data::Dataset pool = bench::normalized_uci(dataset, 8);
    rng::Engine eng(31 + k);
    data::PartitionOptions popts;
    auto parts = data::partition(pool, k, popts, eng);

    auto opts = bench::bench_sap_options();
    opts.optimizer.candidates = 2;  // cost bench: minimal optimization
    opts.optimizer.refine_steps = 0;
    opts.seed = 41 + k;
    proto::SapSession session(std::move(parts), opts);

    Stopwatch sw;
    const proto::SapResult result = session.run();
    const double ms = sw.millis();

    table.add_row({std::to_string(k), Table::num(1.0 / static_cast<double>(k - 1)),
                   std::to_string(result.messages),
                   Table::num(static_cast<double>(result.total_bytes) / 1024.0, 1),
                   Table::num(static_cast<double>(result.total_bytes) / 1024.0 /
                                  static_cast<double>(result.unified.size()),
                              3),
                   Table::num(ms, 1)});
  }
  bench::emit_table("protocol_scaling", table);
  std::printf("\nexpected: pi ~ 1/(k-1); KiB/record roughly flat (2 data hops + O(k)\n"
              "control).\n");
  return 0;
}

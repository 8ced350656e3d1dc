// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload serve-cluster|ingest-mix --seed N
//             --seconds S --trace 0|1 [--corrupt-reference]
//
// Prints human-readable lines (run metadata, every metric with its unit and
// sample count), then, as the LAST line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when the correctness gate fails, 2 on bad arguments or a run
// that could not complete.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

#ifndef PERFBENCH_COMMIT
#define PERFBENCH_COMMIT "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::emit_line;
using perfbench::fmt;

/// The metric names of BENCHMARK.json, in its order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"}, {"rho_min", "ratio"}, {"rss_mb", "MiB"}, {"mine_cpu_ms", "ms"},
};
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"optimize.local_ms", "ms"},      {"optimize.evals", "count"},
    {"privacy.attack_eval_ms", "ms"}, {"perturb.apply_ms", "ms"},
    {"protocol.unify_ms", "ms"},      {"net.exchange_wait_ms", "ms"},
    {"net.exchange_bytes", "bytes"},  {"cluster.front_wait_ms", "ms"},
    {"cluster.gather_ms", "ms"},      {"cluster.partial_ms", "ms"},
    {"cluster.partial_max_ms", "ms"}, {"cluster.merge_ms", "ms"},
    {"cluster.legs", "count"},        {"cluster.leg_bytes", "bytes"},
    {"engine.serve_ms", "ms"},        {"engine.fit_ms", "ms"},
    {"engine.cache_hit_ratio", "ratio"}, {"engine.incremental_ratio", "ratio"},
    {"engine.append_us", "us"},       {"perturb.adapt_us", "us"},
    {"protocol.codec_us", "us"},      {"protocol.wire_bytes", "bytes"},
    {"net.frame_us", "us"},           {"net.rtt_us", "us"},
    {"reactor.queue_wait_ms", "ms"},  {"reactor.handler_ms", "ms"},
    {"ingest.late_ms", "ms"},         {"trace.overhead", "ratio"},
    {"trace.unaccounted_ratio", "ratio"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  return fmt("%.17g", v);
}

void handle_fatal(int sig) {
  perfbench::kill_all_children();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve-cluster|ingest-mix "
               "--seed N --seconds S --trace 0|1 [--corrupt-reference] [--trace-out PATH]\n",
               why);
  return 2;
}

int run(const perfbench::RunContext& ctx) {
  emit_line(fmt("meta workload=%s seed=%llu seconds=%d trace=%d nproc=%u", ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.trace ? 1 : 0,
                std::thread::hardware_concurrency()));
  emit_line("meta cpu=" + cpu_model());
  emit_line(fmt("meta compiler=%s build=%s commit=%s obs=%s", __VERSION__, PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMMIT, sap::obs::enabled() ? "on" : "off"));

  const perfbench::Result r = ctx.workload == "serve-cluster" ? perfbench::run_serve_cluster(ctx)
                                                              : perfbench::run_ingest_mix(ctx);

  // Every metric of the report, by BENCHMARK.json name; per-layer metrics a
  // workload leaves idle read 0.
  const auto& names = ctx.trace ? kPerLayer : kEndToEnd;
  const auto& have = ctx.trace ? r.layers : r.e2e;
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const perfbench::Metric* m = nullptr;
    for (const auto& h : have)
      if (h.name == name) m = &h;
    if (m == nullptr && !ctx.trace) throw sap::Error(std::string("no value for ") + name);
    const double value = m ? m->value : 0.0;
    const std::size_t samples = m ? m->samples : 0;
    emit_line(fmt("%s %s = %.6f %s (n=%zu)%s", ctx.trace ? "layer" : "e2e", name, value, unit,
                  samples, m ? "" : " idle"));
    if (!metrics.empty()) metrics += ", ";
    metrics += fmt("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", name,
                   json_number(value).c_str(), unit);
  }
  const double rate = r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0;
  emit_line(fmt("error_rate = %.6f ratio (%zu of %zu)", rate, r.failed, r.attempted));
  emit_line(fmt("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}",
                r.correct ? "true" : "false", r.attempted, r.failed,
                metrics.c_str()));
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
      const std::string mode = argc >= 3 ? argv[2] : "";
      std::uint64_t seed = 0;
      std::vector<std::string> rest(argv + 3, argv + argc);
      for (std::size_t i = 0; i + 1 < rest.size(); i += 2)
        if (rest[i] == "--seed") seed = std::stoull(rest[i + 1]);
      const auto arg = [&](const char* key) -> std::string {
        for (std::size_t i = 0; i + 1 < rest.size(); i += 2)
          if (rest[i] == key) return rest[i + 1];
        throw sap::Error(std::string("child: missing ") + key);
      };
      if (mode == "exchange-miner") return perfbench::child_exchange_miner(seed);
      if (mode == "miner")
        return perfbench::child_miner(seed, std::stoul(arg("--shards")),
                                      std::stoul(arg("--index")), std::stoul(arg("--loops")),
                                      std::stoul(arg("--lanes")));
      if (mode == "router") return perfbench::child_router(seed, arg("--miners"));
      return usage("unknown child mode");
    }

    perfbench::RunContext ctx;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--corrupt-reference") {
        ctx.corrupt_reference = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        ctx.workload = v;
      } else if (a == "--seed") {
        ctx.seed = std::stoull(v);
      } else if (a == "--seconds") {
        ctx.seconds = std::stoi(v);
      } else if (a == "--trace") {
        ctx.trace = v == "1";
      } else if (a == "--trace-out") {
        ctx.trace_path = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    }
    if (ctx.workload != "serve-cluster" && ctx.workload != "ingest-mix")
      return usage("unknown or missing --workload");
    if (ctx.seconds < 1 || ctx.seconds > 600) return usage("--seconds must be 1..600");

    for (const int sig : {SIGINT, SIGTERM, SIGHUP, SIGSEGV, SIGABRT}) ::signal(sig, handle_fatal);
    return run(ctx);
  } catch (const std::exception& e) {
    perfbench::kill_all_children();
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

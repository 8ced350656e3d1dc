// sap_cli — command-line driver for libsap.
//
// Subcommands:
//   datasets                                  list the built-in synthetic suite
//   jobs                                      list the named miner jobs
//   generate <name> <out.csv> [seed]          write a synthetic dataset as CSV
//   perturb <in.csv> <out.csv> [sigma] [seed] normalize + optimized perturbation
//   attack <orig.csv> <pert.csv> [known_m]    run the attack suite, print report
//   protocol <name> [parties] [sigma] [seed]  full SAP run + KNN utility check
//            [--job <name>] [--phases]
//   serve <name> [parties] [sigma] [seed]     run the exchange, then serve a
//            [--requests N] [--threads K]     mining request load from the
//            [--job name[:k=v,...]]           session's MiningEngine and
//            [--no-cache]                     report req/s + p50/p99 latency
//            [--ingest-every N]               (optionally streaming new
//            [--ingest-records M]             batches into the live pool
//                                            between request chunks)
//   contribute <name> [parties] [sigma] [seed] run the exchange, then stream
//            [--batches N] [--batch-records M] held-back record batches into
//            [--job name[:k=v,...]]            the live pool via the
//                                             Contribute phase, re-serving
//                                             the job after every append
//   minparties <s0> <opt_rate>                Figure-4 calculator
//
// Every numeric argument is validated; bad flags or malformed values exit
// with status 2 after printing usage to stderr. `--help` (or `-h`, or the
// `help` subcommand) prints usage to stdout and exits 0.
//
// Examples:
//   sap_cli generate Diabetes /tmp/diab.csv 7
//   sap_cli perturb /tmp/diab.csv /tmp/diab_pert.csv 0.1
//   sap_cli attack /tmp/diab_norm.csv /tmp/diab_pert.csv 4
//   sap_cli protocol Diabetes 6 0.1 1 --job svm-train-accuracy --phases
//   sap_cli minparties 0.95 0.9
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "sap.hpp"

namespace {

using namespace sap;

const char* kUsage =
    "usage:\n"
    "  sap_cli datasets\n"
    "  sap_cli jobs [--json]\n"
    "  sap_cli generate <name> <out.csv> [seed=1]\n"
    "  sap_cli perturb <in.csv> <out.csv> [sigma=0.1] [seed=1]\n"
    "          [--optimize-threads K=0]\n"
    "  sap_cli attack <original.csv> <perturbed.csv> [known_m=4]\n"
    "  sap_cli protocol <dataset-name> [parties=5] [sigma=0.1] [seed=1]\n"
    "          [--job <name>] [--phases]\n"
    "          [--optimize-threads K=0]\n"
    "  sap_cli serve <dataset-name> [parties=5] [sigma=0.1] [seed=1]\n"
    "          [--requests N=256] [--threads K=4] [--job name[:k=v,...]]\n"
    "          [--no-cache] [--ingest-every N=0] [--ingest-records M=32]\n"
    "          [--optimize-threads K=0]\n"
    "  sap_cli serve --listen HOST:PORT --parties K [--seed S=1]\n"
    "          [--no-cache] [--deadline-ms N=30000]\n"
    "          [--reactor-loops N=1]\n"
    "          [--shards N=1 --shard-index I] [--replicas R=1]\n"
    "          [--resync HOST:PORT,...] [--fault SPEC]\n"
    "          (miner daemon: port 0 = ephemeral, the bound port is printed;\n"
    "           one epoll door on --listen with N sharded event loops\n"
    "           carries everything: the parties claim their ids there and\n"
    "           it routes their exchange, then it serves contributions and\n"
    "           jobs, DESIGN.md \xc2\xa7""10; --deadline-ms bounds the\n"
    "           exchange phase;\n"
    "           --shards N > 1 makes this daemon cluster member I of N: it\n"
    "           installs/serves only the nonce-hash shards it owns — shard I\n"
    "           as primary plus the R-1 preceding shards as replicas,\n"
    "           DESIGN.md \xc2\xa7""11;\n"
    "           --resync names peer miner addresses: before serving, each owned\n"
    "           shard is resynced from the first peer ahead of this miner's\n"
    "           local epoch — how a restarted miner re-enters rotation,\n"
    "           DESIGN.md \xc2\xa7""13)\n"
    "  sap_cli router --miners HOST:PORT,HOST:PORT,... --parties K\n"
    "          [--seed S=1] [--listen HOST:PORT] [--shards N=miners]\n"
    "          [--replicas R=1] [--serve-ms N=60000] [--fault SPEC]\n"
    "          (cluster front door: hash-routes contributions to owning\n"
    "           miners, scatter-gathers mining requests, merges exactly,\n"
    "           fails reads over to replicas — serves for --serve-ms then\n"
    "           exits with stats)\n"
    "  sap_cli stats HOST:PORT [--parties K=5] [--seed S=1] [--json]\n"
    "          [--health]\n"
    "          (fetch a serving endpoint's live metrics + recent request\n"
    "           traces over one kStatsRequest round trip. Works against a\n"
    "           miner's --listen address and a router front door — the router\n"
    "           answers the cluster-wide aggregate: counters and latency\n"
    "           histograms merged exactly across miners, per-miner gauges\n"
    "           namespaced m<i>.*. --parties/--seed must match the cluster\n"
    "           session, like every other client. --health prints a one-line\n"
    "           liveness summary instead of the full dump. An unreachable\n"
    "           endpoint exits 2 with a one-line diagnostic)\n"
    "  sap_cli party <dataset-name> [parties=5] [sigma=0.1] [seed=1]\n"
    "          --connect HOST:PORT --index I [--batches N=4]\n"
    "          [--batch-records M=16] [--job name[:k=v,...]]\n"
    "          [--deadline-ms N=30000] [--optimize-threads K=0]\n"
    "          (one party process: claims --index at the daemon's door and\n"
    "           runs the exchange, its contributions and its jobs over that\n"
    "           one connection; --deadline-ms bounds every wait it makes:\n"
    "           connect + claim, each exchange wait, each write stall, each\n"
    "           request)\n"
    "  sap_cli contribute <dataset-name> [parties=5] [sigma=0.1] [seed=1]\n"
    "          [--batches N=4] [--batch-records M=16] [--job name[:k=v,...]]\n"
    "          [--optimize-threads K=0]\n"
    "  sap_cli minparties <s0> <opt_rate>\n"
    "  sap_cli --help\n"
    "\n"
    "flags for `protocol`:\n"
    "  --job <name>        run a named miner job on the unified pool\n"
    "                      (see `sap_cli jobs`; repeatable)\n"
    "  --phases            print per-phase timing and wire cost\n"
    "\n"
    "shared flag (perturb / protocol / serve / party / contribute):\n"
    "  --optimize-threads <k>  worker threads for each party's LocalOptimize\n"
    "                      candidate search (0 = serial). Pure speed knob:\n"
    "                      results are bit-identical for any thread count.\n"
    "                      In-process runs already optimize every party on\n"
    "                      its own worker; this pool nests inside each.\n"
    "\n"
    "flags for `serve`:\n"
    "  --requests <n>      total mining requests to serve (round-robin over\n"
    "                      the --job list)\n"
    "  --threads <k>       MiningEngine worker threads (0 = serve inline)\n"
    "  --job <spec>        job name with optional params, e.g.\n"
    "                      knn-train-accuracy:k=3,eval-records=64 (repeatable;\n"
    "                      default: every built-in trainable job)\n"
    "  --no-cache          retrain per request instead of serving cached models\n"
    "  --ingest-every <n>  after every n requests, stream a held-back record\n"
    "                      batch into the live pool through the Contribute\n"
    "                      phase (0 = serve a frozen pool, the default)\n"
    "  --ingest-records <m> records per streamed batch (with --ingest-every)\n"
    "\n"
    "flags for `contribute`:\n"
    "  --batches <n>       number of held-back batches to stream\n"
    "  --batch-records <m> records per streamed batch\n"
    "  --job <spec>        job re-served after every append (default\n"
    "                      nb-train-accuracy, which refits incrementally)\n"
    "\n"
    "environment:\n"
    "  SAP_LOG_LEVEL       stderr verbosity: off|error|warn|info|debug (or\n"
    "                      0-4); default warn. Daemon log lines carry a\n"
    "                      role prefix ([sap INFO  miner 0/2] ...)\n"
    "  SAP_FAULT           seeded socket-level fault injection for THIS\n"
    "                      process (chaos testing, DESIGN.md \xc2\xa7""13), e.g.\n"
    "                      'seed=7,drop=0.02,corrupt=0.02,reset=0.02' or\n"
    "                      'seed=7,rate=0.06'. Same spec + same seed =>\n"
    "                      the identical fault schedule. The --fault flag\n"
    "                      (serve --listen / router) takes the same spec\n"
    "                      and wins over the environment.\n"
    "\n"
    "cross-process mode (see README for the two-terminal walkthrough):\n"
    "  `serve --listen` runs the miner daemon: it binds HOST:PORT, waits for\n"
    "  --parties party processes, pools the exchange, then serves streamed\n"
    "  contributions and mining requests on the same address until every\n"
    "  party disconnects.\n"
    "  `party` runs one provider: every party process must use the SAME\n"
    "  dataset/parties/sigma/seed arguments (they define the logical\n"
    "  session; the seed also stands in for the out-of-band key exchange)\n"
    "  and a DISTINCT --index 0..K-1 (K-1 doubles as the coordinator).\n"
    "  Each party streams the held-back batches b with b mod K == --index\n"
    "  and re-serves --job (repeatable) over the wire after its last\n"
    "  batch. The exchange pool is bit-identical to the in-process run's\n"
    "  (`contribute` with the same arguments);\n"
    "  concurrently streamed batches land in scheduling-dependent order, so\n"
    "  compare the daemon's `multiset` digest (order-insensitive) — with a\n"
    "  single contributing party the ordered digest matches too.\n";

int usage_error(const char* message = nullptr) {
  if (message) std::fprintf(stderr, "error: %s\n", message);
  std::fputs(kUsage, stderr);
  return 2;
}

int usage_ok() {
  std::fputs(kUsage, stdout);
  return 0;
}

/// Strict double parse; exits via return false on garbage ("1x", "", "nan").
bool parse_double(const char* text, double& out) {
  if (!text || !*text) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text, &end);
  return errno == 0 && end && *end == '\0' && std::isfinite(out);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (!text || !*text || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end && *end == '\0';
}

/// Comma-separated HOST:PORT list ("a:1,b:2"); false when empty or any
/// element fails to parse.
bool parse_addr_list(const std::string& text, std::vector<net::SocketAddr>& out) {
  try {
    std::size_t at = 0;
    while (at <= text.size()) {
      const auto comma = text.find(',', at);
      const auto one = text.substr(
          at, comma == std::string::npos ? std::string::npos : comma - at);
      if (!one.empty()) out.push_back(net::SocketAddr::parse(one));
      if (comma == std::string::npos) break;
      at = comma + 1;
    }
  } catch (const sap::Error&) {
    return false;
  }
  return !out.empty();
}

/// Shared --fault SPEC handler: parse + install (flag wins over SAP_FAULT).
bool install_fault_spec(const char* text, std::string& error) {
  try {
    net::fault::install(net::fault::FaultPlan::parse(text ? text : ""));
  } catch (const sap::Error& e) {
    error = e.what();
    return false;
  }
  return true;
}

int cmd_datasets() {
  Table table({"name", "records", "dims", "classes", "binary frac"});
  for (const auto& spec : data::uci_suite())
    table.add_row({spec.name, std::to_string(spec.rows), std::to_string(spec.dims),
                   std::to_string(spec.classes), Table::num(spec.binary_fraction, 2)});
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_jobs(int argc, char** argv) {
  const auto registry = proto::JobRegistry::builtins();
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else {
      return usage_error(("unknown flag " + arg + " for jobs").c_str());
    }
  }
  if (json) {
    std::fputs(proto::schema_json(registry).c_str(), stdout);
    return 0;
  }
  Table table({"job", "kind", "params (name=default)", "summary"});
  for (const auto& name : registry.names()) {
    const auto& spec = registry.find(name);
    std::string params;
    for (const auto& p : spec.params) {
      if (!params.empty()) params += ", ";
      params += p.name + "=" + Table::num(p.def, 4);
    }
    table.add_row({name, spec.trainable() ? "trainable" : "structural", params,
                   spec.summary});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4 || argc > 5) return usage_error("generate takes 2-3 arguments");
  std::uint64_t seed = 1;
  if (argc == 5 && !parse_u64(argv[4], seed)) return usage_error("bad seed");
  const auto ds = data::make_uci(argv[2], seed);
  data::save_csv(ds, argv[3]);
  std::printf("wrote %zu records x %zu dims to %s\n", ds.size(), ds.dims(), argv[3]);
  return 0;
}

/// Shared `--optimize-threads K` handler: returns true when argv[i] was this
/// flag (advancing i past the value), false otherwise; `err` is set on a
/// malformed value.
bool take_optimize_threads(int argc, char** argv, int& i, std::uint64_t& out, bool& err) {
  if (std::string(argv[i]) != "--optimize-threads") return false;
  err = (++i >= argc || !parse_u64(argv[i], out) || out > 256);
  return true;
}

int cmd_perturb(int argc, char** argv) {
  std::vector<const char*> positional;
  std::uint64_t optimize_threads = 0;
  for (int i = 2; i < argc; ++i) {
    bool bad = false;
    if (take_optimize_threads(argc, argv, i, optimize_threads, bad)) {
      if (bad) return usage_error("--optimize-threads needs a count in [0, 256]");
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      return usage_error(("unknown flag " + std::string(argv[i])).c_str());
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2 || positional.size() > 4)
    return usage_error("perturb takes 2-4 positional arguments");
  double sigma = 0.1;
  std::uint64_t seed = 1;
  if (positional.size() > 2 && !parse_double(positional[2], sigma))
    return usage_error("bad sigma");
  if (positional.size() > 3 && !parse_u64(positional[3], seed))
    return usage_error("bad seed");
  if (sigma < 0.0) return usage_error("sigma must be non-negative");
  const char* in_path = positional[0];
  const char* out_path = positional[1];

  const data::Dataset raw = data::load_csv(in_path, "input");
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const data::Dataset ds(raw.name(), norm.transform(raw.features()), raw.labels());

  opt::OptimizerOptions opts;
  opts.candidates = 12;
  opts.refine_steps = 6;
  opts.noise_sigma = sigma;
  opts.threads = optimize_threads;
  opts.attacks = {.naive = true, .ica = true, .known_inputs = 4};
  rng::Engine eng(seed);
  const auto result = opt::optimize_perturbation(ds.features_T(), opts, eng);

  const data::Dataset out(ds.name(), result.best.apply(ds.features_T(), eng).transpose(),
                          ds.labels());
  data::save_csv(out, out_path);
  std::printf("optimized perturbation: rho = %.3f (sigma = %.2f, %zu evaluations)\n",
              result.best_rho, sigma, result.evaluations);
  std::printf("wrote perturbed dataset to %s\n", out_path);
  return 0;
}

int cmd_attack(int argc, char** argv) {
  if (argc < 4 || argc > 5) return usage_error("attack takes 2-3 arguments");
  std::uint64_t known = 4;
  if (argc == 5 && !parse_u64(argv[4], known)) return usage_error("bad known_m");
  const data::Dataset original = data::load_csv(argv[2], "original");
  const data::Dataset perturbed = data::load_csv(argv[3], "perturbed");
  SAP_REQUIRE(original.size() == perturbed.size() && original.dims() == perturbed.dims(),
              "attack: datasets must have identical shape");

  privacy::AttackSuite suite({.naive = true, .ica = true, .spectral = true,
                              .known_inputs = static_cast<std::size_t>(known)});
  rng::Engine eng(99);
  const auto report = suite.evaluate(original.features_T(), perturbed.features_T(), eng);

  Table table({"attack", "rho", "status"});
  for (const auto& a : report.attacks)
    table.add_row({a.attack, a.failed ? "-" : Table::num(a.rho),
                   a.failed ? "failed" : "ok"});
  std::fputs(table.str().c_str(), stdout);
  std::printf("minimum privacy guarantee rho = %.3f\n", report.rho);
  return 0;
}

int cmd_protocol(int argc, char** argv) {
  // Positionals first, then flags (flags may also interleave).
  std::vector<const char*> positional;
  std::vector<std::string> job_names;
  std::uint64_t optimize_threads = 0;
  bool show_phases = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (take_optimize_threads(argc, argv, i, optimize_threads, bad)) {
      if (bad) return usage_error("--optimize-threads needs a count in [0, 256]");
    } else if (arg == "--job") {
      if (++i >= argc) return usage_error("--job needs a value");
      job_names.emplace_back(argv[i]);
    } else if (arg == "--phases") {
      show_phases = true;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      return usage_error(("unknown flag " + arg).c_str());
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 4)
    return usage_error("protocol takes 1-4 positional arguments");

  std::uint64_t parties = 5, seed = 1;
  double sigma = 0.1;
  if (positional.size() > 1 && !parse_u64(positional[1], parties))
    return usage_error("bad party count");
  if (positional.size() > 2 && !parse_double(positional[2], sigma))
    return usage_error("bad sigma");
  if (positional.size() > 3 && !parse_u64(positional[3], seed))
    return usage_error("bad seed");
  if (parties < 3) return usage_error("protocol needs at least 3 parties");
  if (sigma < 0.0) return usage_error("sigma must be non-negative");

  const data::Dataset raw = data::make_uci(positional[0], seed);
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const data::Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  rng::Engine eng(seed ^ 0xC11);
  const auto split = data::stratified_split(pool, 0.7, eng);
  data::PartitionOptions popts;
  auto shards = data::partition(split.train, parties, popts, eng);

  proto::SapOptions opts;
  opts.noise_sigma = sigma;
  opts.seed = seed;
  opts.optimizer.candidates = 8;
  opts.optimizer.refine_steps = 4;
  opts.optimizer.threads = optimize_threads;
  opts.optimizer.attacks = {.naive = true, .ica = true, .known_inputs = 4};
  proto::SapSession session(std::move(shards), opts);

  // Validate job names against the registry BEFORE paying for the exchange.
  for (const auto& name : job_names) {
    const auto known = session.job_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "error: unknown miner job '%s' (see `sap_cli jobs`)\n",
                   name.c_str());
      return 2;
    }
  }

  const auto result = session.run();

  Table table({"provider", "rho_i", "b_i", "s_i", "pi_i", "risk eq(1)", "risk eq(2)"});
  for (const auto& p : result.parties)
    table.add_row({std::to_string(p.id), Table::num(p.local_rho), Table::num(p.bound),
                   Table::num(p.satisfaction), Table::num(p.identifiability),
                   Table::num(p.risk_breach), Table::num(p.risk_sap)});
  std::fputs(table.str().c_str(), stdout);

  if (show_phases) {
    std::printf("\nphases:\n");
    for (const auto& stats : session.phase_log())
      std::printf("  %-20s %8.1f ms  %4zu msgs  %8.1f KiB\n",
                  proto::to_string(stats.phase).c_str(), stats.millis, stats.messages,
                  static_cast<double>(stats.total_bytes) / 1024.0);
  }

  // Named jobs re-mine the pooled unified space without redoing the exchange.
  for (const auto& name : job_names) {
    const auto job_result = session.mine_named(name);
    (void)job_result;
    std::printf("job %-22s report broadcast to %llu providers\n", name.c_str(),
                static_cast<unsigned long long>(parties));
  }

  ml::Knn knn(5);
  knn.fit(result.unified);
  const data::Dataset test_t(pool.name(),
                             result.target_space.apply_noiseless(split.test.features_T())
                                 .transpose(),
                             split.test.labels());
  ml::Knn baseline(5);
  baseline.fit(split.train);
  std::printf("\nmessages=%zu, ciphertext=%.1f KiB\n", result.messages,
              static_cast<double>(result.total_bytes) / 1024.0);
  std::printf("KNN accuracy: baseline %.1f%%, SAP-unified %.1f%%\n",
              ml::accuracy(baseline, split.test) * 100.0,
              ml::accuracy(knn, test_t) * 100.0);
  return 0;
}

/// Parse "name[:k=v[,k=v...]]" into a MiningRequest; false on malformed text.
bool parse_job_spec(const std::string& text, proto::MiningRequest& out) {
  const auto colon = text.find(':');
  out.job = text.substr(0, colon);
  out.params.clear();
  if (out.job.empty()) return false;
  if (colon == std::string::npos) return true;
  std::string rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string pair = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    double value = 0.0;
    if (!parse_double(pair.substr(eq + 1).c_str(), value)) return false;
    out.params[pair.substr(0, eq)] = value;
  }
  return true;
}

/// Validate each request's job name AND params against the builtin registry
/// (what the engine and the miner daemon serve) BEFORE paying for any
/// exchange; prints the error and returns false on the first invalid one.
bool validate_job_requests(const std::vector<proto::MiningRequest>& requests) {
  const auto builtins = proto::JobRegistry::builtins();
  for (const auto& req : requests) {
    if (!builtins.contains(req.job)) {
      std::fprintf(stderr, "error: unknown miner job '%s' (see `sap_cli jobs`)\n",
                   req.job.c_str());
      return false;
    }
    try {
      (void)builtins.find(req.job).resolve_params(req.params);
    } catch (const sap::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
  }
  return true;
}

/// Miner daemon: bind, pool the exchange from remote parties, serve
/// contributions + mining requests until every party disconnects.
int cmd_serve_daemon(int argc, char** argv) {
  std::string listen_text;
  std::uint64_t parties = 0, seed = 1, deadline_ms = 30000;
  std::uint64_t reactor_loops = 1;
  std::uint64_t shards = 1, shard_index = 0, replicas = 1;
  bool have_shard_index = false;
  bool cache = true;
  std::vector<net::SocketAddr> resync_peers;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen") {
      if (++i >= argc) return usage_error("--listen needs HOST:PORT");
      listen_text = argv[i];
    } else if (arg == "--resync") {
      if (++i >= argc || !parse_addr_list(argv[i], resync_peers))
        return usage_error("--resync needs HOST:PORT,HOST:PORT,...");
    } else if (arg == "--fault") {
      std::string fault_error;
      if (++i >= argc || !install_fault_spec(argv[i], fault_error))
        return usage_error(("--fault needs a valid spec: " + fault_error).c_str());
    } else if (arg == "--shards") {
      if (++i >= argc || !parse_u64(argv[i], shards) || shards == 0 || shards > 4096)
        return usage_error("--shards needs a count in [1, 4096]");
    } else if (arg == "--shard-index") {
      if (++i >= argc || !parse_u64(argv[i], shard_index))
        return usage_error("--shard-index needs an index");
      have_shard_index = true;
    } else if (arg == "--replicas") {
      if (++i >= argc || !parse_u64(argv[i], replicas) || replicas == 0)
        return usage_error("--replicas needs a count >= 1");
    } else if (arg == "--reactor-loops") {
      if (++i >= argc || !parse_u64(argv[i], reactor_loops) || reactor_loops == 0 ||
          reactor_loops > 64)
        return usage_error("--reactor-loops needs a count in [1, 64]");
    } else if (arg == "--parties") {
      if (++i >= argc || !parse_u64(argv[i], parties))
        return usage_error("--parties needs a count");
    } else if (arg == "--seed") {
      if (++i >= argc || !parse_u64(argv[i], seed)) return usage_error("bad seed");
    } else if (arg == "--deadline-ms") {
      if (++i >= argc || !parse_u64(argv[i], deadline_ms) || deadline_ms == 0 ||
          deadline_ms > 3600000)
        return usage_error("--deadline-ms needs a timeout in (0, 3600000]");
    } else if (arg == "--no-cache") {
      cache = false;
    } else {
      return usage_error(("unknown argument " + arg + " in daemon mode").c_str());
    }
  }
  if (parties < 3) return usage_error("daemon mode needs --parties >= 3");
  if (shards > 1 && !have_shard_index)
    return usage_error("--shards > 1 needs --shard-index (this miner's slot)");
  if (shard_index >= shards) return usage_error("--shard-index must be < --shards");
  if (replicas > shards) return usage_error("--replicas must be <= --shards");

  net::MinerDaemonOptions opts;
  try {
    opts.listen = net::SocketAddr::parse(listen_text);
  } catch (const sap::Error&) {
    return usage_error("--listen needs HOST:PORT (IPv4 or localhost)");
  }
  opts.parties = parties;
  opts.seed = seed;
  opts.cache_models = cache;
  opts.exchange_timeout_ms = static_cast<int>(deadline_ms);
  opts.shards = shards;
  if (shards > 1) {
    // Miner I owns shard I (primary) plus replica copies of the preceding
    // replicas-1 shards — matching ShardRouter's owner j of shard g being
    // miner (g + j) % N in the one-miner-per-shard cluster.
    std::set<std::size_t> owned;
    for (std::uint64_t j = 0; j < replicas; ++j)
      owned.insert(static_cast<std::size_t>((shard_index + shards - j) % shards));
    opts.owned_shards.assign(owned.begin(), owned.end());
  }
  opts.reactor_loops = reactor_loops;
  opts.resync_peers = std::move(resync_peers);
  opts.log = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };
  log::set_role(shards > 1 ? "miner " + std::to_string(shard_index) + "/" +
                                 std::to_string(shards)
                           : "miner");
  net::MinerDaemon daemon(opts);
  // Parties, serving clients and scripts parse this line for the bound port.
  std::printf("listening on %s (%llu parties, seed %llu, %llu loops)\n",
              daemon.local_addr().to_string().c_str(),
              static_cast<unsigned long long>(parties),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(reactor_loops));
  if (shards > 1) {
    std::string owned;
    for (const auto g : opts.owned_shards) owned += " " + std::to_string(g);
    std::printf("cluster member: shard %llu of %llu, owns{%s }\n",
                static_cast<unsigned long long>(shard_index),
                static_cast<unsigned long long>(shards), owned.c_str());
  }
  std::fflush(stdout);

  const auto summary = daemon.run();
  const auto stats = daemon.engine().cache_stats();
  // Sharded daemons have no single flat pool: their summary digest already
  // IS the commutative multiset combine over owned shards.
  std::uint64_t multiset = summary.pool_digest;
  if (shards <= 1)
    multiset = net::dataset_multiset_digest(*daemon.engine().pool_view().data);
  std::printf("served: %zu records at epoch %llu, digest %llu, multiset %llu\n",
              summary.pool_records, static_cast<unsigned long long>(summary.pool_epoch),
              static_cast<unsigned long long>(summary.pool_digest),
              static_cast<unsigned long long>(multiset));
  std::printf("contributions: %zu, requests: %zu, fits: %zu full, %zu incremental, "
              "%zu cache hits\n",
              summary.contributions, summary.requests_served, stats.fits, stats.incremental,
              stats.hits);
  const auto rs = daemon.reactor()->stats();
  std::printf("reactor: %zu accepted, %zu requests, %zu responses, "
              "%zu evicted idle, %zu shed\n",
              rs.accepted, rs.requests, rs.responses, rs.evicted_idle, rs.shed);
  return 0;
}

/// The cluster front door: a ShardRouter behind a reactor, hash-routing
/// contributions and scatter-gathering mining requests across miners.
int cmd_router(int argc, char** argv) {
  std::string miners_text, listen_text = "127.0.0.1:0";
  std::uint64_t parties = 0, seed = 1, shards = 0, replicas = 1, serve_ms = 60000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--miners") {
      if (++i >= argc) return usage_error("--miners needs HOST:PORT,HOST:PORT,...");
      miners_text = argv[i];
    } else if (arg == "--listen") {
      if (++i >= argc) return usage_error("--listen needs HOST:PORT");
      listen_text = argv[i];
    } else if (arg == "--parties") {
      if (++i >= argc || !parse_u64(argv[i], parties))
        return usage_error("--parties needs a count");
    } else if (arg == "--seed") {
      if (++i >= argc || !parse_u64(argv[i], seed)) return usage_error("bad seed");
    } else if (arg == "--shards") {
      if (++i >= argc || !parse_u64(argv[i], shards) || shards > 4096)
        return usage_error("--shards needs a count in [0, 4096] (0 = one per miner)");
    } else if (arg == "--replicas") {
      if (++i >= argc || !parse_u64(argv[i], replicas) || replicas == 0)
        return usage_error("--replicas needs a count >= 1");
    } else if (arg == "--serve-ms") {
      if (++i >= argc || !parse_u64(argv[i], serve_ms) || serve_ms == 0 ||
          serve_ms > 3600000)
        return usage_error("--serve-ms needs a duration in (0, 3600000]");
    } else if (arg == "--fault") {
      std::string fault_error;
      if (++i >= argc || !install_fault_spec(argv[i], fault_error))
        return usage_error(("--fault needs a valid spec: " + fault_error).c_str());
    } else {
      return usage_error(("unknown argument " + arg + " for router").c_str());
    }
  }
  if (parties < 3) return usage_error("router needs --parties >= 3");
  if (miners_text.empty()) return usage_error("router needs --miners");

  net::RouterDaemonOptions opts;
  if (!parse_addr_list(miners_text, opts.router.miners))
    return usage_error("--miners needs HOST:PORT,HOST:PORT,... (IPv4 or localhost)");
  if (replicas > opts.router.miners.size())
    return usage_error("--replicas must be <= miner count");
  opts.router.shards = shards;
  opts.router.replicas = replicas;
  opts.router.seed = seed;
  opts.router.parties = parties;
  try {
    opts.reactor.listen = net::SocketAddr::parse(listen_text);
  } catch (const sap::Error&) {
    return usage_error("--listen needs HOST:PORT (IPv4 or localhost)");
  }

  log::set_role("router");
  net::RouterDaemon daemon(opts);
  // Clients parse this line for the bound port (same convention as serve).
  std::printf("router listening on %s (%zu miners, %zu shards, %llu replicas)\n",
              daemon.local_addr().to_string().c_str(), opts.router.miners.size(),
              daemon.router().shards(), static_cast<unsigned long long>(replicas));
  std::fflush(stdout);

  std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
  daemon.stop();
  std::printf("router served %zu requests, %zu failovers\n", daemon.requests_served(),
              daemon.router().failovers());
  return 0;
}

/// One provider process: exchange + streamed contributions + wire jobs.
int cmd_party(int argc, char** argv) {
  std::vector<const char*> positional;
  std::vector<proto::MiningRequest> job_requests;
  std::string connect_text;
  std::uint64_t index = 0, batches = 4, batch_records = 16, deadline_ms = 30000;
  std::uint64_t optimize_threads = 0;
  bool have_index = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad_ot = false;
    if (take_optimize_threads(argc, argv, i, optimize_threads, bad_ot)) {
      if (bad_ot) return usage_error("--optimize-threads needs a count in [0, 256]");
      continue;
    }
    if (arg == "--connect") {
      if (++i >= argc) return usage_error("--connect needs HOST:PORT");
      connect_text = argv[i];
    } else if (arg == "--index") {
      if (++i >= argc || !parse_u64(argv[i], index)) return usage_error("bad --index");
      have_index = true;
    } else if (arg == "--batches") {
      if (++i >= argc || !parse_u64(argv[i], batches))
        return usage_error("--batches needs a count");
    } else if (arg == "--batch-records") {
      if (++i >= argc || !parse_u64(argv[i], batch_records) || batch_records == 0)
        return usage_error("--batch-records needs a positive count");
    } else if (arg == "--deadline-ms") {
      if (++i >= argc || !parse_u64(argv[i], deadline_ms) || deadline_ms == 0 ||
          deadline_ms > 3600000)
        return usage_error("--deadline-ms needs a timeout in (0, 3600000]");
    } else if (arg == "--job") {
      if (++i >= argc) return usage_error("--job needs a value");
      proto::MiningRequest req;
      if (!parse_job_spec(argv[i], req))
        return usage_error("bad job spec (use name[:k=v,...])");
      job_requests.push_back(std::move(req));
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      return usage_error(("unknown flag " + arg).c_str());
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 4)
    return usage_error("party takes 1-4 positional arguments");
  if (connect_text.empty()) return usage_error("party needs --connect HOST:PORT");
  if (!have_index) return usage_error("party needs --index");

  std::uint64_t parties = 5, seed = 1;
  double sigma = 0.1;
  if (positional.size() > 1 && !parse_u64(positional[1], parties))
    return usage_error("bad party count");
  if (positional.size() > 2 && !parse_double(positional[2], sigma))
    return usage_error("bad sigma");
  if (positional.size() > 3 && !parse_u64(positional[3], seed))
    return usage_error("bad seed");
  if (parties < 3) return usage_error("party needs at least 3 parties");
  if (index >= parties) return usage_error("--index must be < parties");
  if (sigma < 0.0) return usage_error("sigma must be non-negative");

  // A typo must exit 2 up front, not "refused" after the protocol work.
  if (!validate_job_requests(job_requests)) return 2;

  // Data prep replicated by EVERY party process (and by `contribute`, which
  // is the same logical session in one process): each derives the full
  // partition deterministically and keeps only its own shard.
  data::StreamWorkload workload;
  try {
    workload = data::make_stream_workload(positional[0], parties, batches, batch_records,
                                          seed);
  } catch (const sap::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const data::Dataset& stream = workload.stream;

  net::PartyClientOptions opts;
  try {
    opts.connect = net::SocketAddr::parse(connect_text);
  } catch (const sap::Error&) {
    return usage_error("--connect needs HOST:PORT (IPv4 or localhost)");
  }
  opts.index = index;
  opts.parties = parties;
  opts.sap = net::serving_session_options(sigma, seed, optimize_threads);
  opts.timeout_ms = static_cast<int>(deadline_ms);

  log::set_role("party " + std::to_string(index));
  net::PartyClient party(workload.shards[index], opts);
  std::printf("party %llu: connected to %s\n", static_cast<unsigned long long>(index),
              opts.connect.to_string().c_str());
  std::fflush(stdout);
  const auto report = party.run_exchange();
  std::printf("party %llu: exchange done (rho_i=%.4f, b_i=%.4f, pi_i=%.4f)\n",
              static_cast<unsigned long long>(index), report.local_rho, report.bound,
              report.identifiability);
  std::fflush(stdout);

  // Stream this party's share of the held-back batches, in global order.
  for (std::uint64_t b = 0; b < batches; ++b) {
    if (b % parties != index) continue;
    const auto batch = stream.slice(b * batch_records, (b + 1) * batch_records);
    const auto receipt = party.contribute(batch);
    std::printf("party %llu: batch %llu accepted: pool %zu records at epoch %llu\n",
                static_cast<unsigned long long>(index), static_cast<unsigned long long>(b),
                receipt.pool_records, static_cast<unsigned long long>(receipt.pool_epoch));
    std::fflush(stdout);
  }

  bool any_refused = false;
  for (const auto& req : job_requests) {
    const auto response = party.mine_named(req.job, req.params);
    any_refused = any_refused || response.values.empty();
    std::string values;
    for (const double v : response.values) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6f", values.empty() ? "" : " ", v);
      values += buf;
    }
    std::printf("party %llu: job %s -> [%s] (epoch %llu%s)\n",
                static_cast<unsigned long long>(index), req.job.c_str(), values.c_str(),
                static_cast<unsigned long long>(response.pool_epoch),
                response.values.empty() ? ", refused" : "");
    std::fflush(stdout);
  }

  party.finish();
  std::printf("party %llu: done\n", static_cast<unsigned long long>(index));
  // A daemon-refused job is a failed request: exit nonzero so scripts
  // driving the two-terminal walkthrough cannot mistake it for success.
  return any_refused ? 1 : 0;
}

int cmd_serve(int argc, char** argv) {
  // `--listen` switches serve into the cross-process miner daemon.
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--listen") return cmd_serve_daemon(argc, argv);
  }
  std::vector<const char*> positional;
  std::vector<proto::MiningRequest> job_templates;
  std::uint64_t requests = 256, threads = 4;
  std::uint64_t ingest_every = 0, ingest_records = 32;
  std::uint64_t optimize_threads = 0;
  bool cache = true;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad_ot = false;
    if (take_optimize_threads(argc, argv, i, optimize_threads, bad_ot)) {
      if (bad_ot) return usage_error("--optimize-threads needs a count in [0, 256]");
      continue;
    }
    if (arg == "--job") {
      if (++i >= argc) return usage_error("--job needs a value");
      proto::MiningRequest req;
      if (!parse_job_spec(argv[i], req))
        return usage_error("bad job spec (use name[:k=v,...])");
      job_templates.push_back(std::move(req));
    } else if (arg == "--requests") {
      if (++i >= argc || !parse_u64(argv[i], requests) || requests == 0)
        return usage_error("--requests needs a positive count");
    } else if (arg == "--threads") {
      if (++i >= argc || !parse_u64(argv[i], threads) || threads > 256)
        return usage_error("--threads needs a count in [0, 256]");
    } else if (arg == "--ingest-every") {
      if (++i >= argc || !parse_u64(argv[i], ingest_every))
        return usage_error("--ingest-every needs a count");
    } else if (arg == "--ingest-records") {
      if (++i >= argc || !parse_u64(argv[i], ingest_records) || ingest_records == 0)
        return usage_error("--ingest-records needs a positive count");
    } else if (arg == "--no-cache") {
      cache = false;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      return usage_error(("unknown flag " + arg).c_str());
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 4)
    return usage_error("serve takes 1-4 positional arguments");

  std::uint64_t parties = 5, seed = 1;
  double sigma = 0.1;
  if (positional.size() > 1 && !parse_u64(positional[1], parties))
    return usage_error("bad party count");
  if (positional.size() > 2 && !parse_double(positional[2], sigma))
    return usage_error("bad sigma");
  if (positional.size() > 3 && !parse_u64(positional[3], seed))
    return usage_error("bad seed");
  if (parties < 3) return usage_error("serve needs at least 3 parties");
  if (sigma < 0.0) return usage_error("sigma must be non-negative");

  const data::Dataset raw = data::make_uci(positional[0], seed);
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  data::Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  rng::Engine eng(seed ^ 0xC11);
  // With streaming ingest enabled, 30% of the records are held back and
  // arrive later through the Contribute phase instead of the exchange.
  data::Dataset stream;
  if (ingest_every > 0) {
    auto held = data::train_test_split(pool, 0.7, eng);
    pool = std::move(held.train);
    stream = std::move(held.test);
  }
  data::PartitionOptions popts;
  auto shards = data::partition(pool, parties, popts, eng);

  auto opts = net::serving_session_options(sigma, seed, optimize_threads);
  opts.mining_threads = threads;
  opts.cache_models = cache;
  proto::SapSession session(std::move(shards), opts);

  if (job_templates.empty()) {
    // Default load: every built-in trainable job at its declared defaults.
    const auto builtins = proto::JobRegistry::builtins();
    for (const auto& name : builtins.names())
      if (builtins.find(name).trainable()) job_templates.push_back({name, {}});
  }
  // Bad names/values exit 2, like every other argument error.
  if (!validate_job_requests(job_templates)) return 2;

  Stopwatch exchange_sw;
  auto& engine = session.engine();  // runs the exchange
  const double exchange_ms = exchange_sw.millis();

  std::vector<proto::MiningRequest> load;
  load.reserve(requests);
  for (std::uint64_t i = 0; i < requests; ++i)
    load.push_back(job_templates[i % job_templates.size()]);

  Stopwatch serve_sw;
  std::vector<proto::MiningResponse> responses;
  std::size_t ingests = 0, stream_pos = 0;
  if (ingest_every == 0) {
    responses = engine.run_batch(load);
  } else {
    // Serve in chunks; between chunks, stream the next held-back batch into
    // the live pool (round-robin over providers). Requests in the following
    // chunk see the grown pool; cached models refit incrementally.
    for (std::size_t pos = 0; pos < load.size(); pos += ingest_every) {
      const auto count = std::min<std::size_t>(ingest_every, load.size() - pos);
      const std::vector<proto::MiningRequest> chunk(
          load.begin() + static_cast<std::ptrdiff_t>(pos),
          load.begin() + static_cast<std::ptrdiff_t>(pos + count));
      auto part = engine.run_batch(chunk);
      responses.insert(responses.end(), part.begin(), part.end());
      if (stream_pos < stream.size() && pos + count < load.size()) {
        const auto take =
            std::min<std::size_t>(ingest_records, stream.size() - stream_pos);
        session.contribute(ingests % parties, stream.slice(stream_pos, stream_pos + take));
        stream_pos += take;
        ++ingests;
      }
    }
  }
  const double serve_ms = serve_sw.millis();

  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const auto& r : responses) latencies.push_back(r.millis);
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    const auto idx = static_cast<std::size_t>(p * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };
  const auto stats = engine.cache_stats();

  std::printf("exchange: %.1f ms (%llu parties)\n", exchange_ms,
              static_cast<unsigned long long>(parties));
  Table table({"requests", "threads", "cache", "wall ms", "req/s", "p50 ms", "p99 ms",
               "fits", "incr", "cache hits"});
  table.add_row({std::to_string(requests), std::to_string(threads),
                 cache ? "on" : "off", Table::num(serve_ms, 1),
                 Table::num(1000.0 * static_cast<double>(requests) / serve_ms, 1),
                 Table::num(pct(0.50), 3), Table::num(pct(0.99), 3),
                 std::to_string(stats.fits), std::to_string(stats.incremental),
                 std::to_string(stats.hits)});
  std::fputs(table.str().c_str(), stdout);
  if (ingest_every > 0)
    std::printf("ingest: %zu batches (%zu records) streamed; pool %zu records at epoch %llu\n",
                ingests, stream_pos, engine.pool_view().data->size(),
                static_cast<unsigned long long>(engine.pool_epoch()));
  return 0;
}

int cmd_contribute(int argc, char** argv) {
  std::vector<const char*> positional;
  proto::MiningRequest job{"nb-train-accuracy", {}};
  std::uint64_t batches = 4, batch_records = 16;
  std::uint64_t optimize_threads = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad_ot = false;
    if (take_optimize_threads(argc, argv, i, optimize_threads, bad_ot)) {
      if (bad_ot) return usage_error("--optimize-threads needs a count in [0, 256]");
      continue;
    }
    if (arg == "--job") {
      if (++i >= argc) return usage_error("--job needs a value");
      if (!parse_job_spec(argv[i], job))
        return usage_error("bad job spec (use name[:k=v,...])");
    } else if (arg == "--batches") {
      if (++i >= argc || !parse_u64(argv[i], batches) || batches == 0)
        return usage_error("--batches needs a positive count");
    } else if (arg == "--batch-records") {
      if (++i >= argc || !parse_u64(argv[i], batch_records) || batch_records == 0)
        return usage_error("--batch-records needs a positive count");
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      return usage_error(("unknown flag " + arg).c_str());
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 4)
    return usage_error("contribute takes 1-4 positional arguments");

  std::uint64_t parties = 5, seed = 1;
  double sigma = 0.1;
  if (positional.size() > 1 && !parse_u64(positional[1], parties))
    return usage_error("bad party count");
  if (positional.size() > 2 && !parse_double(positional[2], sigma))
    return usage_error("bad sigma");
  if (positional.size() > 3 && !parse_u64(positional[3], seed))
    return usage_error("bad seed");
  if (parties < 3) return usage_error("contribute needs at least 3 parties");
  if (sigma < 0.0) return usage_error("sigma must be non-negative");

  if (!validate_job_requests({job})) return 2;

  // Same prep as `party`: bit-identity between the in-process and the
  // cross-process topology rests on this being the SAME code path.
  data::StreamWorkload workload;
  try {
    workload = data::make_stream_workload(positional[0], parties, batches, batch_records,
                                          seed);
  } catch (const sap::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const data::Dataset& stream = workload.stream;

  auto opts = net::serving_session_options(sigma, seed, optimize_threads);
  proto::SapSession session(std::move(workload.shards), opts);

  Stopwatch exchange_sw;
  auto& engine = session.engine();  // runs the exchange
  std::printf("exchange: %.1f ms (%llu parties); pool %zu records\n", exchange_sw.millis(),
              static_cast<unsigned long long>(parties), engine.pool_view().data->size());

  Table table({"batch", "provider", "records", "pool", "epoch", "refit", "report",
               "serve ms"});
  const auto initial_response = engine.run(job);
  table.add_row({"-", "-", "-", std::to_string(engine.pool_view().data->size()),
                 std::to_string(initial_response.pool_epoch), "full",
                 Table::num(initial_response.values.empty() ? 0.0
                                                            : initial_response.values[0]),
                 Table::num(initial_response.millis, 3)});
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::size_t provider = b % parties;
    const auto batch =
        stream.slice(b * batch_records, (b + 1) * batch_records);
    const auto receipt = session.contribute(provider, batch);
    const auto response = engine.run(job);
    table.add_row({std::to_string(b), std::to_string(provider),
                   std::to_string(batch.size()), std::to_string(receipt.pool_records),
                   std::to_string(receipt.pool_epoch),
                   response.model_incremental ? "incremental"
                   : response.model_cached    ? "cached"
                                              : "full",
                   Table::num(response.values.empty() ? 0.0 : response.values[0]),
                   Table::num(response.millis, 3)});
  }
  std::fputs(table.str().c_str(), stdout);
  const auto stats = engine.cache_stats();
  std::printf("fits: %zu full, %zu incremental, %zu cache hits\n", stats.fits,
              stats.incremental, stats.hits);
  return 0;
}

/// Fetch and pretty-print a serving endpoint's live metrics + traces. One
/// kStatsRequest round trip through the same dispatch door as serving
/// traffic; a router endpoint answers the cluster-wide aggregate.
int cmd_stats(int argc, char** argv) {
  std::string addr_text;
  std::uint64_t parties = 5, seed = 1;
  bool json = false;
  bool health = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--health") {
      health = true;
    } else if (arg == "--parties") {
      if (++i >= argc || !parse_u64(argv[i], parties))
        return usage_error("--parties needs a count");
    } else if (arg == "--seed") {
      if (++i >= argc || !parse_u64(argv[i], seed)) return usage_error("bad seed");
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      return usage_error(("unknown flag " + arg + " for stats").c_str());
    } else if (addr_text.empty()) {
      addr_text = arg;
    } else {
      return usage_error("stats takes one HOST:PORT");
    }
  }
  if (addr_text.empty()) return usage_error("stats needs HOST:PORT");
  if (parties < 3) return usage_error("stats needs --parties >= 3");
  net::SocketAddr addr;
  try {
    addr = net::SocketAddr::parse(addr_text);
  } catch (const sap::Error&) {
    return usage_error("stats needs HOST:PORT (IPv4 or localhost)");
  }
  proto::DecodedStats decoded;
  try {
    net::ServeClient client(addr, seed, parties);
    decoded = client.stats();
    client.bye();
  } catch (const sap::Error& e) {
    // Exit 2 (not the generic 1): scripts probing liveness distinguish "the
    // endpoint is down" from "sap_cli itself misbehaved".
    std::fprintf(stderr, "stats: %s unreachable: %s\n", addr_text.c_str(), e.what());
    return 2;
  }
  if (health) {
    // One line an operator (or a watchdog) can grep: request counters plus
    // the cluster health surface — failovers, retries, and how many miner
    // breakers are not closed right now (router endpoints only; a plain
    // miner reports 0s for the router.* entries).
    std::uint64_t failovers = 0, retries = 0, opens = 0, unreachable = 0;
    for (const auto& [name, value] : decoded.snapshot.counters) {
      if (name == "router.failovers") failovers = value;
      if (name == "router.retries") retries = value;
      if (name == "router.breaker_opens") opens = value;
    }
    std::size_t breakers_not_closed = 0;
    for (const auto& [name, value] : decoded.snapshot.gauges) {
      if (name == "router.stats_unreachable")
        unreachable = static_cast<std::uint64_t>(value);
      if (name.size() > 8 && name.compare(name.size() - 8, 8, ".breaker") == 0 &&
          value != 0.0)
        ++breakers_not_closed;
    }
    std::printf("healthy %s: failovers=%llu retries=%llu breaker_opens=%llu "
                "breakers_not_closed=%zu stats_unreachable=%llu\n",
                addr_text.c_str(), static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(opens), breakers_not_closed,
                static_cast<unsigned long long>(unreachable));
    return 0;
  }
  if (json) {
    std::printf("%s\n", decoded.snapshot.to_json().c_str());
    return 0;
  }
  std::fputs(decoded.snapshot.to_text().c_str(), stdout);
  if (!decoded.traces.empty()) {
    std::printf("traces (%zu recent, oldest first):\n", decoded.traces.size());
    for (const auto& t : decoded.traces) {
      std::printf("  %016llx %-22s", static_cast<unsigned long long>(t.id),
                  t.op.c_str());
      for (std::size_t s = 0; s < obs::kStageCount; ++s)
        if (t.stage_ms[s] > 0.0)
          std::printf(" %s=%.3f", obs::to_string(static_cast<obs::Stage>(s)),
                      t.stage_ms[s]);
      std::printf(" total=%.3f ms\n", t.total_ms());
    }
  }
  return 0;
}

int cmd_minparties(int argc, char** argv) {
  if (argc != 4) return usage_error("minparties takes exactly 2 arguments");
  double s0 = 0.0, rate = 0.0;
  if (!parse_double(argv[2], s0)) return usage_error("bad s0");
  if (!parse_double(argv[3], rate)) return usage_error("bad opt_rate");
  const auto primary =
      proto::min_parties(s0, rate, proto::MinPartiesCriterion::kResidualTolerance, 10000);
  const auto alt = proto::min_parties(s0, rate, proto::MinPartiesCriterion::kNoExtraRisk, 10000);
  std::printf("s0=%.3f opt_rate=%.3f -> min parties: %zu (residual tolerance), "
              "%zu (no extra risk)\n",
              s0, rate, primary, alt);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error();
  if (const char* env = std::getenv("SAP_LOG_LEVEL")) {
    log::Level lvl;
    if (log::parse_level(env, lvl))
      log::set_level(lvl);
    else
      std::fprintf(stderr, "warning: ignoring bad SAP_LOG_LEVEL '%s' "
                           "(use off|error|warn|info|debug or 0-4)\n",
                   env);
  }
  try {
    if (net::fault::install_from_env())
      std::fprintf(stderr, "warning: SAP_FAULT active (%s) — this process "
                           "injects socket faults\n",
                   net::fault::plan().to_string().c_str());
  } catch (const sap::Error& e) {
    std::fprintf(stderr, "error: bad SAP_FAULT: %s\n", e.what());
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage_ok();
  try {
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "datasets") return cmd_datasets();
    if (cmd == "jobs") return cmd_jobs(argc, argv);
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "perturb") return cmd_perturb(argc, argv);
    if (cmd == "attack") return cmd_attack(argc, argv);
    if (cmd == "protocol") return cmd_protocol(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "router") return cmd_router(argc, argv);
    if (cmd == "party") return cmd_party(argc, argv);
    if (cmd == "contribute") return cmd_contribute(argc, argv);
    if (cmd == "minparties") return cmd_minparties(argc, argv);
  } catch (const sap::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage_error(("unknown subcommand '" + cmd + "'").c_str());
}

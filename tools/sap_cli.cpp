// sap_cli — command-line driver for libsap. `sap_cli --help` lists every
// command and argument.
//
// Each argument is declared once below as an Arg (name, value type,
// default, valid range, one help line); each command lists the Args it
// takes, and one parser applies them before any work starts. Exit status:
// 0 on success; 1 on a runtime sap::Error; 2 on a usage error — an unknown
// flag, a missing, malformed or out-of-range value, an unknown dataset or
// job, a wrong positional count or a broken cross-field rule — reported as
// one `error:` line naming the argument. `stats` also exits 2 when its
// endpoint is unreachable.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sap.hpp"

namespace {

using namespace sap;

/// A usage error: exit 2 with one `error:` line.
struct Usage : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws Usage(`why`) unless `ok`.
void require(bool ok, const std::string& why) {
  if (!ok) throw Usage(why);
}

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

enum class Type : std::uint8_t {
  kSwitch, kCount, kReal, kText, kDataset, kAddr, kAddrs, kJob, kFault
};

/// Value placeholders in the help, by Type.
constexpr const char* kPlaceholder[] = {
    "", "N", "X", "PATH", "NAME", "HOST:PORT", "HOST:PORT,...", "NAME[:K=V,...]", "SPEC"};

/// One argument: a flag ("--name") or a positional ("name"). A number must
/// lie in [lo, hi], either end open when its flag says so. A command may
/// take a shared declaration under its own default or require it; the
/// range and help stay the declaration's.
struct Arg {
  const char* name;
  Type type;
  const char* def = nullptr;  ///< default value text; nullptr = none
  double lo = 0.0;
  double hi = kNoLimit;
  bool lo_open = false;
  bool hi_open = false;
  bool required = false;
  const char* help = "";

  [[nodiscard]] bool flag() const { return name[0] == '-'; }
  [[nodiscard]] constexpr Arg named(const char* flag_name) const {
    Arg out = *this;
    out.name = flag_name;
    return out;
  }
  [[nodiscard]] constexpr Arg defaults_to(const char* value) const {
    Arg out = *this;
    out.def = value;
    return out;
  }
  [[nodiscard]] constexpr Arg needed() const {
    Arg out = *this;
    out.def = nullptr;
    out.required = true;
    return out;
  }
};

// ---- the declarations ----------------------------------------------------

constexpr Arg kDataset{.name = "dataset", .type = Type::kDataset, .required = true,
                       .help = "a built-in dataset (`sap_cli datasets`)"};
constexpr Arg kParties{.name = "parties", .type = Type::kCount, .def = "5", .lo = 3,
                       .help = "providers in the session, k"};
constexpr Arg kSigma{.name = "sigma", .type = Type::kReal, .def = "0.1",
                     .help = "perturbation noise sigma"};
constexpr Arg kSeed{.name = "seed", .type = Type::kCount, .def = "1",
                    .help = "master seed, shared by every process of a session"};
constexpr Arg kInCsv{.name = "in.csv", .type = Type::kText, .required = true,
                     .help = "labelled CSV to normalize and perturb"};
constexpr Arg kOutCsv{.name = "out.csv", .type = Type::kText, .required = true,
                      .help = "CSV file to write"};
constexpr Arg kOriginal{.name = "original.csv", .type = Type::kText, .required = true,
                        .help = "the normalized original records"};
constexpr Arg kPerturbed{.name = "perturbed.csv", .type = Type::kText, .required = true,
                         .help = "their perturbed release, same shape"};
constexpr Arg kKnownM{.name = "known_m", .type = Type::kCount, .def = "4",
                      .help = "records the known-input attack holds"};
constexpr Arg kS0{.name = "s0", .type = Type::kReal, .hi = 1, .lo_open = true,
                  .hi_open = true, .required = true, .help = "satisfaction level s0"};
constexpr Arg kRate{.name = "opt_rate", .type = Type::kReal, .hi = 1, .lo_open = true,
                    .required = true, .help = "LocalOptimize's optimality rate"};
constexpr Arg kEndpoint{.name = "endpoint", .type = Type::kAddr, .required = true,
                        .help = "HOST:PORT of a miner's or a router's door"};

constexpr Arg kJson{.name = "--json", .type = Type::kSwitch,
                    .help = "print JSON instead of a table"};
constexpr Arg kPhases{.name = "--phases", .type = Type::kSwitch,
                      .help = "print per-phase timing and wire cost"};
constexpr Arg kHealth{.name = "--health", .type = Type::kSwitch,
                      .help = "print one liveness line instead of the full dump"};
constexpr Arg kOptimizeThreads{
    .name = "--optimize-threads", .type = Type::kCount, .def = "0", .hi = 256,
    .help = "LocalOptimize workers per party, 0 = serial; same result"};
constexpr Arg kJob{.name = "--job", .type = Type::kJob,
                   .help = "a miner job and its params (`sap_cli jobs`); repeatable"};
constexpr Arg kRequests{.name = "--requests", .type = Type::kCount, .def = "256", .lo = 1,
                        .help = "mining requests to serve, round-robin over the jobs"};
constexpr Arg kThreads{.name = "--threads", .type = Type::kCount, .def = "4", .hi = 256,
                       .help = "MiningEngine workers; 0 = serve inline"};
constexpr Arg kIngestEvery{
    .name = "--ingest-every", .type = Type::kCount, .def = "0",
    .help = "stream a held-back batch every N requests; 0 = never"};
constexpr Arg kIngestRecords{.name = "--ingest-records", .type = Type::kCount, .def = "32",
                             .lo = 1, .help = "records per streamed batch"};
constexpr Arg kListen{.name = "--listen", .type = Type::kAddr, .def = "127.0.0.1:0",
                      .help = "the door to bind; port 0 picks one and prints it"};
constexpr Arg kPartiesFlag = kParties.named("--parties");
constexpr Arg kSeedFlag = kSeed.named("--seed");
constexpr Arg kDeadline{.name = "--deadline-ms", .type = Type::kCount, .def = "30000",
                        .lo = 1, .hi = 3600000,
                        .help = "bound on the exchange and each wait at the door"};
constexpr Arg kReactorLoops{.name = "--reactor-loops", .type = Type::kCount, .def = "1",
                            .lo = 1, .hi = 64, .help = "the door's event loops"};
constexpr Arg kShards{.name = "--shards", .type = Type::kCount, .def = "1", .lo = 1,
                      .hi = 4096, .help = "cluster members, one shard each (DESIGN.md §11)"};
constexpr Arg kShardIndex{.name = "--shard-index", .type = Type::kCount,
                          .help = "this member's shard; needed when there are several"};
constexpr Arg kReplicas{.name = "--replicas", .type = Type::kCount, .def = "1", .lo = 1,
                        .help = "owners per shard: the primary and R - 1 replicas"};
constexpr Arg kResync{.name = "--resync", .type = Type::kAddrs,
                      .help = "peers to resync the owned shards from before serving"};
constexpr Arg kFault{.name = "--fault", .type = Type::kFault,
                     .help = "seeded socket fault plan, as SAP_FAULT, which it overrides"};
constexpr Arg kMiners{.name = "--miners", .type = Type::kAddrs, .required = true,
                      .help = "the members' doors, member 0 first"};
constexpr Arg kServeMs{.name = "--serve-ms", .type = Type::kCount, .def = "60000", .lo = 1,
                       .hi = 3600000, .help = "serve this long, then print stats and exit"};
constexpr Arg kConnect{.name = "--connect", .type = Type::kAddr, .required = true,
                       .help = "the miner daemon's door"};
constexpr Arg kIndex{.name = "--index", .type = Type::kCount, .required = true,
                     .help = "this party's id, < parties; parties - 1 coordinates"};
constexpr Arg kBatches{.name = "--batches", .type = Type::kCount, .def = "4",
                       .help = "held-back record batches to stream; 0 = none"};
constexpr Arg kBatchRecords{.name = "--batch-records", .type = Type::kCount, .def = "16",
                            .lo = 1, .help = "records per batch"};

// ---- values --------------------------------------------------------------

/// Strict double parse: false on garbage ("1x", "", "nan").
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

std::string number_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, v == std::floor(v) ? "%.0f" : "%g", v);
  return buf;
}

/// "in [1, 256]", ">= 3", "in (0, 1]"; empty when every value is valid.
std::string range_text(const Arg& a) {
  if (a.type != Type::kCount && a.type != Type::kReal) return "";
  if (a.hi == kNoLimit) {
    if (a.type == Type::kCount && a.lo == 0.0) return "";
    return (a.lo_open ? "> " : ">= ") + number_text(a.lo);
  }
  return std::string("in ") + (a.lo_open ? "(" : "[") + number_text(a.lo) + ", " +
         number_text(a.hi) + (a.hi_open ? ")" : "]");
}

[[noreturn]] void bad(const Arg& a, const std::string& why) {
  throw Usage(std::string(a.name) + ": " + why);
}

void check_range(const Arg& a, double v, const std::string& text) {
  const bool above = a.lo_open ? v > a.lo : v >= a.lo;
  const bool below = a.hi_open ? v < a.hi : v <= a.hi;
  if (!above || !below) bad(a, text + " is out of range, must be " + range_text(a));
}

// Each converter below both checks a value (the parser) and converts it
// (the accessors of Args).

std::uint64_t to_count(const Arg& a, const std::string& text) {
  std::uint64_t v = 0;
  if (!parse_u64(text.c_str(), v)) bad(a, "'" + text + "' is not a count");
  check_range(a, static_cast<double>(v), text);
  return v;
}

double to_real(const Arg& a, const std::string& text) {
  double v = 0.0;
  if (!parse_double(text.c_str(), v)) bad(a, "'" + text + "' is not a number");
  check_range(a, v, text);
  return v;
}

net::SocketAddr to_addr(const Arg& a, const std::string& text) {
  try {
    return net::SocketAddr::parse(text);
  } catch (const sap::Error&) {
    bad(a, "'" + text + "' is not HOST:PORT (IPv4 or localhost)");
  }
}

/// Comma-separated HOST:PORT list; empty elements are skipped.
std::vector<net::SocketAddr> to_addrs(const Arg& a, const std::string& text) {
  std::vector<net::SocketAddr> out;
  for (std::size_t at = 0; at <= text.size();) {
    const auto comma = std::min(text.find(',', at), text.size());
    if (comma > at) out.push_back(to_addr(a, text.substr(at, comma - at)));
    at = comma + 1;
  }
  if (out.empty()) bad(a, "needs HOST:PORT,HOST:PORT,...");
  return out;
}

/// "name[:k=v,...]", checked against the builtin registry (what the engine
/// and the miner daemon serve).
proto::MiningRequest to_job(const Arg& a, const std::string& text) {
  proto::MiningRequest req;
  const auto colon = text.find(':');
  req.job = text.substr(0, colon);
  for (std::size_t at = colon == std::string::npos ? text.size() : colon + 1;
       at < text.size();) {
    const auto comma = std::min(text.find(',', at), text.size());
    const std::string pair = text.substr(at, comma - at);
    const auto eq = pair.find('=');
    double value = 0.0;
    if (eq == std::string::npos || eq == 0 || !parse_double(pair.c_str() + eq + 1, value))
      bad(a, "'" + text + "' is not NAME[:K=V,...]");
    req.params[pair.substr(0, eq)] = value;
    at = comma + 1;
  }
  const auto builtins = proto::JobRegistry::builtins();
  if (!builtins.contains(req.job))
    bad(a, "unknown miner job '" + req.job + "' (see `sap_cli jobs`)");
  try {
    (void)builtins.find(req.job).resolve_params(req.params);
  } catch (const sap::Error& e) {
    bad(a, e.what());
  }
  return req;
}

net::fault::FaultPlan to_fault(const Arg& a, const std::string& text) {
  try {
    return net::fault::FaultPlan::parse(text);
  } catch (const sap::Error& e) {
    bad(a, e.what());
  }
}

void check(const Arg& a, const std::string& text) {
  switch (a.type) {
    case Type::kCount: (void)to_count(a, text); break;
    case Type::kReal: (void)to_real(a, text); break;
    case Type::kAddr: (void)to_addr(a, text); break;
    case Type::kAddrs: (void)to_addrs(a, text); break;
    case Type::kJob: (void)to_job(a, text); break;
    case Type::kFault: (void)to_fault(a, text); break;
    case Type::kDataset: {
      const auto& suite = data::uci_suite();
      if (std::none_of(suite.begin(), suite.end(),
                       [&](const data::SyntheticSpec& s) { return s.name == text; }))
        bad(a, "unknown dataset '" + text + "' (see `sap_cli datasets`)");
      break;
    }
    case Type::kSwitch:
    case Type::kText: break;
  }
}

/// What the parser filled: each declaration's given values in argv order,
/// else its default.
class Args {
 public:
  [[nodiscard]] bool has(const Arg& a) const { return values_.contains(a.name); }
  [[nodiscard]] const std::string& text(const Arg& a) const {
    return values_.at(a.name).back();
  }
  [[nodiscard]] std::uint64_t count(const Arg& a) const { return to_count(a, text(a)); }
  [[nodiscard]] double real(const Arg& a) const { return to_real(a, text(a)); }
  [[nodiscard]] net::SocketAddr addr(const Arg& a) const { return to_addr(a, text(a)); }
  /// Every value's addresses, concatenated.
  [[nodiscard]] std::vector<net::SocketAddr> addrs(const Arg& a) const {
    std::vector<net::SocketAddr> out;
    for (const auto& text : all(a)) {
      const auto some = to_addrs(a, text);
      out.insert(out.end(), some.begin(), some.end());
    }
    return out;
  }
  [[nodiscard]] std::vector<proto::MiningRequest> jobs(const Arg& a) const {
    std::vector<proto::MiningRequest> out;
    for (const auto& text : all(a)) out.push_back(to_job(a, text));
    return out;
  }

  void add(const Arg& a, const std::string& text) { values_[a.name].push_back(text); }

 private:
  [[nodiscard]] std::vector<std::string> all(const Arg& a) const {
    const auto it = values_.find(a.name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  std::map<std::string, std::vector<std::string>> values_;
};

struct Command {
  const char* name;
  const char* mode;  ///< a flag whose presence picks this entry, or nullptr
  const char* summary;
  std::vector<Arg> args;
  int (*run)(const Args&);
};

/// `-x` and `--x` are flags; `-1` and `-.5` are values.
bool is_flag(const std::string& token) {
  return token.size() > 1 && token[0] == '-' &&
         !std::isdigit(static_cast<unsigned char>(token[1])) && token[1] != '.';
}

/// The one parser: fills `c`'s declarations from its arguments.
Args parse(const Command& c, int argc, char** argv) {
  std::vector<const Arg*> positionals;
  for (const Arg& a : c.args)
    if (!a.flag()) positionals.push_back(&a);
  Args out;
  std::size_t next = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string token = argv[i];
    const Arg* a = nullptr;
    if (is_flag(token)) {
      const auto it = std::find_if(c.args.begin(), c.args.end(),
                                   [&](const Arg& d) { return d.flag() && token == d.name; });
      require(it != c.args.end(), "unknown flag " + token + " for " + c.name);
      a = &*it;
      if (a->type == Type::kSwitch) {
        out.add(*a, "");
        continue;
      }
      require(i + 1 < argc, token + " needs a value");
      ++i;
    } else {
      require(next < positionals.size(),
              "unexpected argument '" + token + "' for " + c.name);
      a = positionals[next++];
    }
    check(*a, argv[i]);
    out.add(*a, argv[i]);
  }
  for (const Arg& a : c.args) {
    if (out.has(a)) continue;
    require(!a.required, std::string("missing ") + a.name);
    if (a.def) out.add(a, a.def);
  }
  return out;
}

// ---- commands ------------------------------------------------------------

int cmd_datasets(const Args&) {
  Table table({"name", "records", "dims", "classes", "binary frac"});
  for (const auto& spec : data::uci_suite())
    table.add_row({spec.name, std::to_string(spec.rows), std::to_string(spec.dims),
                   std::to_string(spec.classes), Table::num(spec.binary_fraction, 2)});
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_jobs(const Args& a) {
  const auto registry = proto::JobRegistry::builtins();
  if (a.has(kJson)) {
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

int cmd_generate(const Args& a) {
  const auto ds = data::make_uci(a.text(kDataset), a.count(kSeed));
  data::save_csv(ds, a.text(kOutCsv));
  std::printf("wrote %zu records x %zu dims to %s\n", ds.size(), ds.dims(),
              a.text(kOutCsv).c_str());
  return 0;
}

int cmd_perturb(const Args& a) {
  const double sigma = a.real(kSigma);
  const data::Dataset raw = data::load_csv(a.text(kInCsv), "input");
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const data::Dataset ds(raw.name(), norm.transform(raw.features()), raw.labels());

  opt::OptimizerOptions opts;
  opts.candidates = 12;
  opts.refine_steps = 6;
  opts.noise_sigma = sigma;
  opts.threads = a.count(kOptimizeThreads);
  opts.attacks = {.naive = true, .ica = true, .known_inputs = 4};
  rng::Engine eng(a.count(kSeed));
  const auto result = opt::optimize_perturbation(ds.features_T(), opts, eng);

  const data::Dataset out(ds.name(), result.best.apply(ds.features_T(), eng).transpose(),
                          ds.labels());
  data::save_csv(out, a.text(kOutCsv));
  std::printf("optimized perturbation: rho = %.3f (sigma = %.2f, %zu evaluations)\n",
              result.best_rho, sigma, result.evaluations);
  std::printf("wrote perturbed dataset to %s\n", a.text(kOutCsv).c_str());
  return 0;
}

int cmd_attack(const Args& a) {
  const data::Dataset original = data::load_csv(a.text(kOriginal), "original");
  const data::Dataset perturbed = data::load_csv(a.text(kPerturbed), "perturbed");
  SAP_REQUIRE(original.size() == perturbed.size() && original.dims() == perturbed.dims(),
              "attack: datasets must have identical shape");

  privacy::AttackSuite suite({.naive = true, .ica = true, .spectral = true,
                              .known_inputs = static_cast<std::size_t>(a.count(kKnownM))});
  rng::Engine eng(99);
  const auto report = suite.evaluate(original.features_T(), perturbed.features_T(), eng);

  Table table({"attack", "rho", "status"});
  for (const auto& r : report.attacks)
    table.add_row({r.attack, r.failed ? "-" : Table::num(r.rho),
                   r.failed ? "failed" : "ok"});
  std::fputs(table.str().c_str(), stdout);
  std::printf("minimum privacy guarantee rho = %.3f\n", report.rho);
  return 0;
}

int cmd_protocol(const Args& a) {
  const std::uint64_t parties = a.count(kParties), seed = a.count(kSeed);
  const data::Dataset raw = data::make_uci(a.text(kDataset), seed);
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const data::Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  rng::Engine eng(seed ^ 0xC11);
  const auto split = data::stratified_split(pool, 0.7, eng);
  data::PartitionOptions popts;
  auto shards = data::partition(split.train, parties, popts, eng);

  proto::SapOptions opts;
  opts.noise_sigma = a.real(kSigma);
  opts.seed = seed;
  opts.optimizer.candidates = 8;
  opts.optimizer.refine_steps = 4;
  opts.optimizer.threads = a.count(kOptimizeThreads);
  opts.optimizer.attacks = {.naive = true, .ica = true, .known_inputs = 4};
  proto::SapSession session(std::move(shards), opts);
  const auto result = session.run();

  Table table({"provider", "rho_i", "b_i", "s_i", "pi_i", "risk eq(1)", "risk eq(2)"});
  for (const auto& p : result.parties)
    table.add_row({std::to_string(p.id), Table::num(p.local_rho), Table::num(p.bound),
                   Table::num(p.satisfaction), Table::num(p.identifiability),
                   Table::num(p.risk_breach), Table::num(p.risk_sap)});
  std::fputs(table.str().c_str(), stdout);

  if (a.has(kPhases)) {
    std::printf("\nphases:\n");
    for (const auto& stats : session.phase_log())
      std::printf("  %-20s %8.1f ms  %4zu msgs  %8.1f KiB\n",
                  proto::to_string(stats.phase).c_str(), stats.millis, stats.messages,
                  static_cast<double>(stats.total_bytes) / 1024.0);
  }

  // Named jobs re-mine the pooled unified space without redoing the exchange.
  for (const auto& req : a.jobs(kJob)) {
    (void)session.mine_named(req.job, req.params);
    std::printf("job %-22s report broadcast to %llu providers\n", req.job.c_str(),
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

/// Miner daemon: bind, pool the exchange from remote parties, serve
/// contributions + mining requests until every party disconnects.
int cmd_serve_daemon(const Args& a) {
  const std::uint64_t shards = a.count(kShards), replicas = a.count(kReplicas);
  require(shards == 1 || a.has(kShardIndex),
          std::string(kShards.name) + " > 1 needs " + kShardIndex.name);
  const std::uint64_t shard_index = a.has(kShardIndex) ? a.count(kShardIndex) : 0;
  require(shard_index < shards, std::string(kShardIndex.name) + " must be < " + kShards.name);
  require(replicas <= shards, std::string(kReplicas.name) + " must be <= " + kShards.name);

  net::MinerDaemonOptions opts;
  opts.listen = a.addr(kListen);
  opts.parties = a.count(kPartiesFlag);
  opts.seed = a.count(kSeedFlag);
  opts.exchange_timeout_ms = static_cast<int>(a.count(kDeadline));
  opts.shards = shards;
  if (shards > 1) opts.owned_shards = net::owned_shards(shard_index, shards, replicas);
  opts.reactor_loops = a.count(kReactorLoops);
  opts.resync_peers = a.addrs(kResync);
  opts.log = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };
  log::set_role(shards > 1 ? "miner " + std::to_string(shard_index) + "/" +
                                 std::to_string(shards)
                           : "miner");
  net::MinerDaemon daemon(opts);
  // Parties, serving clients and scripts parse this line for the bound port.
  std::printf("listening on %s (%zu parties, seed %llu, %zu loops)\n",
              daemon.local_addr().to_string().c_str(), opts.parties,
              static_cast<unsigned long long>(opts.seed), opts.reactor_loops);
  if (shards > 1) {
    std::string owned;
    for (const auto g : opts.owned_shards) {
      owned += ' ';
      owned += std::to_string(g);
    }
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
/// contributions and scatter-gathering mining requests across miners, one
/// shard per miner.
int cmd_router(const Args& a) {
  net::RouterDaemonOptions opts;
  opts.router.miners = a.addrs(kMiners);
  opts.router.replicas = a.count(kReplicas);
  require(opts.router.replicas <= opts.router.miners.size(),
          std::string(kReplicas.name) + " must be <= the miner count");
  opts.router.seed = a.count(kSeedFlag);
  opts.router.parties = a.count(kPartiesFlag);
  opts.reactor.listen = a.addr(kListen);

  log::set_role("router");
  net::RouterDaemon daemon(opts);
  // Clients parse this line for the bound port (same convention as serve).
  std::printf("router listening on %s (%zu miners, %zu shards, %zu replicas)\n",
              daemon.local_addr().to_string().c_str(), opts.router.miners.size(),
              daemon.router().shards(), opts.router.replicas);
  std::fflush(stdout);

  std::this_thread::sleep_for(std::chrono::milliseconds(a.count(kServeMs)));
  daemon.stop();
  std::printf("router served %zu requests, %zu failovers\n", daemon.requests_served(),
              daemon.router().failovers());
  return 0;
}

/// The held-back stream and the k shards that `party` and `contribute`
/// both derive: one code path, so the in-process and cross-process pools
/// are bit-identical. A dataset too small for the batches is a usage error.
data::StreamWorkload stream_workload(const Args& a) {
  try {
    return data::make_stream_workload(a.text(kDataset), a.count(kParties), a.count(kBatches),
                                      a.count(kBatchRecords), a.count(kSeed));
  } catch (const sap::Error& e) {
    throw Usage(std::string(kBatches.name) + ": " + e.what());
  }
}

/// One provider process: exchange + streamed contributions + wire jobs.
int cmd_party(const Args& a) {
  const std::uint64_t index = a.count(kIndex), parties = a.count(kParties);
  require(index < parties, std::string(kIndex.name) + " must be < parties");
  const auto job_requests = a.jobs(kJob);
  const std::uint64_t batches = a.count(kBatches), batch_records = a.count(kBatchRecords);
  const auto workload = stream_workload(a);

  net::PartyClientOptions opts;
  opts.connect = a.addr(kConnect);
  opts.index = index;
  opts.parties = parties;
  opts.sap = net::serving_session_options(a.real(kSigma), a.count(kSeed),
                                          a.count(kOptimizeThreads));
  opts.timeout_ms = static_cast<int>(a.count(kDeadline));

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
    const auto batch = workload.stream.slice(b * batch_records, (b + 1) * batch_records);
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

int cmd_serve(const Args& a) {
  const std::uint64_t parties = a.count(kParties), seed = a.count(kSeed);
  const std::uint64_t requests = a.count(kRequests), threads = a.count(kThreads);
  const std::uint64_t ingest_every = a.count(kIngestEvery);
  const std::uint64_t ingest_records = a.count(kIngestRecords);
  auto job_templates = a.jobs(kJob);
  if (job_templates.empty()) {
    // Default load: every built-in trainable job at its declared defaults.
    const auto builtins = proto::JobRegistry::builtins();
    for (const auto& name : builtins.names())
      if (builtins.find(name).trainable()) job_templates.push_back({name, {}});
  }

  const data::Dataset raw = data::make_uci(a.text(kDataset), seed);
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

  auto opts = net::serving_session_options(a.real(kSigma), seed, a.count(kOptimizeThreads));
  opts.mining_threads = threads;
  proto::SapSession session(std::move(shards), opts);

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
  Table table({"requests", "threads", "wall ms", "req/s", "p50 ms", "p99 ms", "fits", "incr",
               "cache hits"});
  table.add_row({std::to_string(requests), std::to_string(threads), Table::num(serve_ms, 1),
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

int cmd_contribute(const Args& a) {
  const std::uint64_t parties = a.count(kParties);
  const std::uint64_t batches = a.count(kBatches), batch_records = a.count(kBatchRecords);
  const proto::MiningRequest job = a.jobs(kJob).back();  // the last one given
  auto workload = stream_workload(a);

  auto opts =
      net::serving_session_options(a.real(kSigma), a.count(kSeed), a.count(kOptimizeThreads));
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
    const auto batch = workload.stream.slice(b * batch_records, (b + 1) * batch_records);
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
int cmd_stats(const Args& a) {
  const std::string& addr_text = a.text(kEndpoint);
  proto::DecodedStats decoded;
  try {
    net::ServeClient client(a.addr(kEndpoint), a.count(kSeedFlag), a.count(kPartiesFlag));
    decoded = client.stats();
    client.bye();
  } catch (const sap::Error& e) {
    // Exit 2 (not the generic 1): scripts probing liveness distinguish "the
    // endpoint is down" from "sap_cli itself misbehaved".
    std::fprintf(stderr, "stats: %s unreachable: %s\n", addr_text.c_str(), e.what());
    return 2;
  }
  if (a.has(kHealth)) {
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
  if (a.has(kJson)) {
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

int cmd_minparties(const Args& a) {
  const double s0 = a.real(kS0), rate = a.real(kRate);
  const auto primary =
      proto::min_parties(s0, rate, proto::MinPartiesCriterion::kResidualTolerance, 10000);
  const auto alt = proto::min_parties(s0, rate, proto::MinPartiesCriterion::kNoExtraRisk, 10000);
  std::printf("s0=%.3f opt_rate=%.3f -> min parties: %zu (residual tolerance), "
              "%zu (no extra risk)\n",
              s0, rate, primary, alt);
  return 0;
}

// ---- the command table ---------------------------------------------------

std::vector<Arg> with(std::vector<Arg> head, std::initializer_list<Arg> tail) {
  head.insert(head.end(), tail);
  return head;
}

/// `<dataset> [parties=5] [sigma=0.1] [seed=1]`: the logical session.
const std::vector<Arg> kSessionArgs = {kDataset, kParties, kSigma, kSeed};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"datasets", nullptr, "list the built-in synthetic suite", {}, cmd_datasets},
      {"jobs", nullptr, "list the named miner jobs and their parameters", {kJson}, cmd_jobs},
      {"generate", nullptr, "write a built-in dataset as CSV", {kDataset, kOutCsv, kSeed},
       cmd_generate},
      {"perturb", nullptr, "normalize a CSV and release it under an optimized perturbation",
       {kInCsv, kOutCsv, kSigma, kSeed, kOptimizeThreads}, cmd_perturb},
      {"attack", nullptr, "run the attack suite on an original/perturbed pair",
       {kOriginal, kPerturbed, kKnownM}, cmd_attack},
      {"protocol", nullptr, "run the exchange in one process, then a KNN utility check",
       with(kSessionArgs, {kJob, kPhases, kOptimizeThreads}), cmd_protocol},
      {"serve", nullptr,
       "run the exchange, then serve a mining load (by default every trainable\n"
       "  job) and report req/s and p50/p99 latency",
       with(kSessionArgs, {kRequests, kThreads, kJob, kIngestEvery, kIngestRecords,
                           kOptimizeThreads}),
       cmd_serve},
      {"serve", kListen.name,
       "miner daemon: at its one door the parties claim their ids and run the\n"
       "  exchange; it then serves contributions and jobs until the last party leaves",
       {kListen.needed(), kPartiesFlag.needed(), kSeedFlag, kDeadline, kReactorLoops,
        kShards, kShardIndex, kReplicas, kResync, kFault},
       cmd_serve_daemon},
      {"router", nullptr,
       "cluster front door over one-shard members: routes contributions to their\n"
       "  owners and merges scattered reads exactly; serves, then prints its stats",
       {kMiners, kPartiesFlag.needed(), kSeedFlag, kListen, kReplicas, kServeMs, kFault},
       cmd_router},
      {"stats", nullptr, "fetch an endpoint's live metrics and recent request traces",
       {kEndpoint, kPartiesFlag, kSeedFlag, kJson, kHealth}, cmd_stats},
      {"party", nullptr,
       "one provider process: the exchange at the daemon's door, then batch b\n"
       "  when b mod parties is its index, then each job",
       with(kSessionArgs, {kConnect, kIndex, kBatches, kBatchRecords, kJob, kDeadline,
                           kOptimizeThreads}),
       cmd_party},
      {"contribute", nullptr,
       "every party's part in one process: the exchange, then each batch,\n"
       "  re-serving the job (the last one named) after each",
       with(kSessionArgs, {kBatches, kBatchRecords, kJob.defaults_to("nb-train-accuracy"),
                           kOptimizeThreads}),
       cmd_contribute},
      {"minparties", nullptr, "Figure 4: the fewest parties that satisfy s0",
       {kS0, kRate}, cmd_minparties},
  };
  return table;
}

/// The entry `name` names; `serve --listen` picks the daemon.
const Command* find_command(const std::string& name, int argc, char** argv) {
  const Command* plain = nullptr;
  for (const Command& c : commands()) {
    if (name != c.name) continue;
    if (c.mode == nullptr)
      plain = &c;
    else if (std::any_of(argv, argv + argc,
                         [&](const char* arg) { return std::strcmp(arg, c.mode) == 0; }))
      return &c;
  }
  return plain;
}

std::string synopsis(const Command& c) {
  std::string out = std::string("sap_cli ") + c.name;
  bool optional_flags = false;
  for (const Arg& a : c.args) {
    if (!a.flag())
      out += a.def ? std::string(" [") + a.name + "=" + a.def + "]"
                   : std::string(" <") + a.name + ">";
    else if (a.required)
      out += std::string(" ") + a.name + " " + kPlaceholder[static_cast<int>(a.type)];
    else
      optional_flags = true;
  }
  if (optional_flags) out += " [flags]";
  return out;
}

void print_help(std::FILE* out) {
  std::fputs("usage: sap_cli <command> [arguments]\n"
             "exit status: 0 ok, 1 runtime error, 2 usage error\n",
             out);
  for (const Command& c : commands()) {
    std::fprintf(out, "\n%s\n  %s\n", synopsis(c).c_str(), c.summary);
    for (const Arg& a : c.args) {
      std::string head = a.name;
      if (a.flag() && a.type != Type::kSwitch)
        head += std::string(" ") + kPlaceholder[static_cast<int>(a.type)];
      std::string notes = a.required ? "required" : a.def ? std::string("default ") + a.def : "";
      const std::string range = range_text(a);
      if (!notes.empty() && !range.empty()) notes += ", ";
      notes += range;
      std::fprintf(out, "    %-26s %s%s%s%s\n", head.c_str(), a.help, notes.empty() ? "" : " (",
                   notes.c_str(), notes.empty() ? "" : ")");
    }
  }
  std::fputs("\nenvironment:\n"
             "  SAP_LOG_LEVEL  stderr verbosity: off|error|warn|info|debug or 0-4 (default\n"
             "                 warn); daemon lines carry a role prefix\n"
             "  SAP_FAULT      seeded socket fault plan for this process (DESIGN.md §13),\n"
             "                 e.g. 'seed=7,drop=0.02,corrupt=0.02,reset=0.02' or\n"
             "                 'seed=7,rate=0.06'; the same spec replays the same faults\n",
             out);
}

}  // namespace

int main(int argc, char** argv) {
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
  const std::string name = argc > 1 ? argv[1] : "";
  if (name == "--help" || name == "-h" || name == "help") {
    print_help(stdout);
    return 0;
  }
  const Command* command = name.empty() ? nullptr : find_command(name, argc - 2, argv + 2);
  if (command == nullptr) {
    std::fprintf(stderr, "error: %s\nsee `sap_cli --help`\n",
                 name.empty() ? "missing command" : ("unknown command '" + name + "'").c_str());
    return 2;
  }
  try {
    const Args args = parse(*command, argc - 2, argv + 2);
    // The flag wins over SAP_FAULT.
    if (args.has(kFault)) net::fault::install(to_fault(kFault, args.text(kFault)));
    return command->run(args);
  } catch (const Usage& e) {
    std::fprintf(stderr, "error: %s\nusage: %s\n", e.what(), synopsis(*command).c_str());
    return 2;
  } catch (const sap::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

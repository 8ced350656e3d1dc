// perfbench — shared plumbing for the repository benchmark: the one output
// emitter, exact sample statistics, the in-memory span tracer, child-process
// management for the daemons, and the deterministic workload preparation
// every process of one run derives from the workload seed.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "data/dataset.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "protocol/jobs.hpp"
#include "protocol/party_logic.hpp"
#include "protocol/session.hpp"

namespace perfbench {

namespace data = sap::data;
namespace proto = sap::proto;

// ---- output --------------------------------------------------------------

/// The single emitter (lint R5): every line the benchmark prints and every
/// file it writes goes through these two functions.
void emit_line(const std::string& line);
void emit_file(const std::string& path, const std::string& text);

/// printf-style formatting into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// ---- statistics ----------------------------------------------------------

/// Exact quantile (linear interpolation between order statistics). Not
/// histogram-quantized: reported values carry all their digits.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Monotonic nanoseconds (steady clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

// ---- results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind the value
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed + refused + wrong answers
  std::vector<Metric> e2e;
  std::vector<Metric> layers;

  void add_e2e(const std::string& name, double value, const std::string& unit,
               std::size_t samples) {
    e2e.push_back({name, value, unit, samples});
  }
  void add_layer(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
    layers.push_back({name, value, unit, samples});
  }
  /// Record one correctness failure (counted in `failed`; fails the run).
  void wrong(const std::string& what);
};

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder. A root span is one client request; every layer
/// span names its root. Spans are kept in memory and written out once, when
/// the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for roots
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Count {
    std::uint64_t root = 0;
    std::string name;
    double value = 0.0;
  };

  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// New root span over [start, end]; returns its id (0 when disabled).
  std::uint64_t root(const std::string& name, std::int64_t start_ns, std::int64_t end_ns);
  /// A child span of `root` over [start, end].
  void span(std::uint64_t root, const std::string& name, std::int64_t start_ns,
            std::int64_t end_ns);
  /// An exact count attached to `root`.
  void count(std::uint64_t root, const std::string& name, double value);
  /// Stretch a root's end (replays attach to a root after its request).
  void extend(std::uint64_t root, std::int64_t end_ns);

  enum class Agg { kSum, kMax };
  /// Mean over roots named `root_name` of the per-root aggregate of child
  /// span durations (ms) named `name`; roots without such spans count as 0.
  [[nodiscard]] double per_root_ms(const std::string& root_name, const std::string& name,
                                   Agg agg) const;
  /// Mean over roots named `root_name` of the number of spans named `name`.
  [[nodiscard]] double per_root_spans(const std::string& root_name,
                                      const std::string& name) const;
  /// Mean over roots named `root_name` of the per-root sum of counts.
  [[nodiscard]] double per_root_count(const std::string& root_name,
                                      const std::string& name) const;
  /// Mean self time (ms) of spans named `name`: duration minus the union of
  /// its children's intervals.
  [[nodiscard]] double mean_self_ms(const std::string& name) const;
  [[nodiscard]] std::size_t roots(const std::string& root_name) const;
  /// Distinct span names with their span counts, name-sorted.
  [[nodiscard]] std::map<std::string, std::size_t> names() const;

  /// JSON lines, one span or count per line.
  [[nodiscard]] std::string dump() const;

 private:
  bool on_;
  mutable sap::Mutex mutex_;
  std::vector<Span> spans_ SAP_GUARDED_BY(mutex_);
  std::vector<Count> counts_ SAP_GUARDED_BY(mutex_);
  std::uint64_t next_id_ SAP_GUARDED_BY(mutex_) = 1;
};

/// Prints every span name's mean self time and count, then writes the
/// spans to `path` (when set) — the end of every traced run.
void finish_trace(const Tracer& t, const std::string& path);

/// Times a block into a tracer span (no-op when the tracer is off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::uint64_t root, const char* name)
      : t_(t), root_(root), name_(name), start_(t.on() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (t_.on()) t_.span(root_, name_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::uint64_t root_;
  const char* name_;
  std::int64_t start_;
};

// ---- child processes -----------------------------------------------------

/// One daemon process: this binary re-executed in a --child mode, its
/// stdout piped back line by line. SIGKILLed and reaped on destruction, so
/// every exit path (exceptions included) leaves nothing listening. Children
/// also die with the benchmark process (PR_SET_PDEATHSIG).
class Child {
 public:
  Child() = default;
  explicit Child(const std::vector<std::string>& args);
  ~Child() { kill(); }
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Next stdout line; throws sap::Error on EOF or after `timeout_ms`.
  std::string read_line(int timeout_ms);
  /// Next line, which must start with `tag ` — returns the remainder.
  std::string expect(const std::string& tag, int timeout_ms);
  /// Peak resident set (VmHWM) in MiB; the process must still be alive.
  [[nodiscard]] double peak_rss_mb() const;
  /// CPU time (user + system, all threads, in seconds) the process has run
  /// so far, from its CPU-time clock (steal time excluded); the process must
  /// still be alive.
  [[nodiscard]] double cpu_s() const;
  /// Wait up to `timeout_ms` for a voluntary exit (then SIGKILL); true when
  /// the process exited 0 on its own.
  bool wait_exit(int timeout_ms);
  void kill();

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buf_;
};

/// SIGKILL every live child (async-signal-safe; the fatal-signal handler).
void kill_all_children();

// ---- run context ---------------------------------------------------------

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool corrupt_reference = false;  ///< self-test: falsify one reference value
  std::string trace_path;          ///< where the traced run writes its spans
};

constexpr std::size_t kParties = 4;
constexpr double kNoiseSigma = 0.1;

/// The dataset sample and its partition are the same for every workload
/// seed, so runs on different seeds measure the same data; the seed draws
/// the protocol randomness (perturbations, nonces, routing), request order
/// and contribution noise.
constexpr std::uint64_t kDataSeed = 1;

/// Normalized, shuffled and partitioned UCI-shape data for one exchange,
/// with `batches` x `batch_records` records held back as a contribution
/// stream (data::make_stream_workload — every process derives it alike),
/// and the serving preset with the exchange's protocol seed.
struct Prep {
  std::vector<data::Dataset> shards;
  data::Dataset stream;
  proto::SapOptions sap;
  std::size_t pool_records = 0;
};
Prep make_prep(const std::string& dataset, std::size_t batches, std::size_t batch_records,
               std::uint64_t seed);

/// Every party's LocalOptimize output, replayed from the seed (one thread
/// per party) — what a contributing party perturbs its batches with.
std::vector<proto::logic::LocalPerturbation> replay_locals(const Prep& prep);

/// The in-process reference exchange (SapSession on kSimulated).
struct Reference {
  std::unique_ptr<proto::SapSession> session;
  proto::SapResult result;
};
Reference reference_session(const Prep& prep);

/// One job of a serving mix.
struct JobMix {
  std::string job;
  proto::JobParams params;
  double weight = 0.0;
};
/// Index into `mix` drawn with the mix weights.
std::size_t pick(const std::vector<JobMix>& mix, sap::rng::Engine& eng);

/// Stats-door counter `name`, summed over snapshots.
double counter_of(const std::vector<sap::obs::Snapshot>& snaps, const std::string& name);
/// Mean of the stats-door histogram `name` over the samples recorded
/// between `before` and `after` (summed over snapshots); {mean, count}.
std::pair<double, double> hist_delta_mean(const std::vector<sap::obs::Snapshot>& before,
                                          const std::vector<sap::obs::Snapshot>& after,
                                          const std::string& name);

/// Replays one payload through the envelope and frame layers:
/// EncryptedEnvelope seal + open, encode_frame + FrameReader parse. Timed
/// as a net.frame_us span under `root`.
void replay_frame(Tracer& t, std::uint64_t root, const std::vector<double>& payload,
                  proto::PayloadKind kind);

/// One latency sample stamped with its completion time.
struct Sample {
  std::int64_t at_ns = 0;
  double ms = 0.0;
};

/// Number of equal slices a timed window is cut into. Medians over slices
/// keep a short burst of interference from another tenant on the machine
/// from moving a whole run's figure.
constexpr std::size_t kSlices = 10;

/// Samples grouped into kSlices equal time slices of [start, end).
std::vector<std::vector<double>> slice_by_time(const std::vector<Sample>& samples,
                                               std::int64_t start, std::int64_t end);

/// Wall-clock rate and latency, printed beside the metrics as `info` lines
/// but not part of the result: `<prefix>_rps` is completions per second over
/// [start, end), `<prefix>_p50_ms` / `<prefix>_p90_ms` the medians over time
/// slices of each slice's 50th and 90th percentiles. On a shared host they
/// move with other tenants' load (vCPU wake-up latency, steal time) by more
/// than any bound a regression gate could use.
void emit_wall_info(const std::string& prefix, const std::vector<Sample>& samples,
                    std::int64_t start, std::int64_t end);

/// Idle front-door floor: mean of `n` record-count round trips (us).
double measure_rtt_us(const sap::net::SocketAddr& door, std::uint64_t seed, std::size_t n);

// ---- CPU cost ------------------------------------------------------------

struct CpuTrace {
  std::vector<double> cpu;     ///< serving CPU seconds at the kSlices + 1 slice boundaries
  std::vector<double> ref_ms;  ///< per slice: median CPU ms of one reference kernel run
  std::vector<std::vector<double>> probes;
};

/// CPU seconds of `procs`, summed, read at each of the kSlices + 1 slice
/// boundaries of [start, end); between them the calling thread runs the
/// benchmark's fixed reference kernel every 10 ms and times it on its own
/// CPU clock, which measures how fast the host runs code right now. Returns
/// once the last slice has ended.
CpuTrace sample_cpu(const std::vector<const Child*>& procs, std::int64_t start,
                    std::int64_t end);

struct Cost {
  double cpu_ms = 0.0;     ///< serving CPU ms per request
  double ref_units = 0.0;  ///< the same in reference-kernel runs
};

/// Serving CPU per request: for each slice of [start, end) the CPU time the
/// serving processes ran in it over the requests completed in it, as is and
/// over the slice's reference-kernel time; the medians over slices.
Cost cost_per_request(const CpuTrace& t, const std::vector<Sample>& done, std::int64_t start,
                      std::int64_t end);


// ---- workloads -----------------------------------------------------------

Result run_serve_cluster(const RunContext& ctx);
Result run_ingest_mix(const RunContext& ctx);

/// One distributed exchange of `prep` with every exchange layer traced
/// (exchange.cpp); checked against the in-process `reference`, adds the
/// exchange layers' metrics to `result`.
void trace_exchange(const Prep& prep, const proto::SapResult& reference, Tracer& tr,
                    Result& result);

/// Child modes (re-executed daemons). Return the process exit code.
int child_exchange_miner(std::uint64_t seed);
int child_miner(std::uint64_t seed, std::size_t shards, std::size_t index, std::size_t loops,
                std::size_t lanes);
int child_router(std::uint64_t seed, const std::string& miners);

}  // namespace perfbench

#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "protocol/message.hpp"

namespace perfbench {

// ---- output --------------------------------------------------------------

void emit_line(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void emit_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw sap::Error("perfbench: cannot write " + path);
  out << text;
}

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, format, again);
  va_end(again);
  return out;
}

// ---- statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Result::wrong(const std::string& what) {
  correct = false;
  ++failed;
  emit_line("WRONG: " + what);
}

// ---- tracing -------------------------------------------------------------

std::uint64_t Tracer::root(const std::string& name, std::int64_t start_ns,
                           std::int64_t end_ns) {
  if (!on_) return 0;
  sap::MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, 0, name, start_ns, end_ns});
  return id;
}

void Tracer::span(std::uint64_t root, const std::string& name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  if (!on_) return;
  sap::MutexLock lock(mutex_);
  spans_.push_back({next_id_++, root, name, start_ns, end_ns});
}

void Tracer::count(std::uint64_t root, const std::string& name, double value) {
  if (!on_) return;
  sap::MutexLock lock(mutex_);
  counts_.push_back({root, name, value});
}

void Tracer::extend(std::uint64_t root, std::int64_t end_ns) {
  if (!on_) return;
  sap::MutexLock lock(mutex_);
  for (auto& s : spans_)
    if (s.id == root) s.end_ns = std::max(s.end_ns, end_ns);
}

std::size_t Tracer::roots(const std::string& root_name) const {
  sap::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& s : spans_)
    if (s.parent == 0 && s.name == root_name) ++n;
  return n;
}

double Tracer::per_root_ms(const std::string& root_name, const std::string& name,
                           Agg agg) const {
  sap::MutexLock lock(mutex_);
  std::map<std::uint64_t, double> per_root;
  for (const auto& s : spans_)
    if (s.parent == 0 && s.name == root_name) per_root[s.id] = 0.0;
  if (per_root.empty()) return 0.0;
  for (const auto& s : spans_) {
    if (s.parent == 0 || s.name != name) continue;
    const auto it = per_root.find(s.parent);
    if (it == per_root.end()) continue;
    const double d = ms_between(s.start_ns, s.end_ns);
    it->second = agg == Agg::kSum ? it->second + d : std::max(it->second, d);
  }
  double total = 0.0;
  for (const auto& [id, v] : per_root) total += v;
  return total / static_cast<double>(per_root.size());
}

double Tracer::per_root_spans(const std::string& root_name, const std::string& name) const {
  sap::MutexLock lock(mutex_);
  std::map<std::uint64_t, double> per_root;
  for (const auto& s : spans_)
    if (s.parent == 0 && s.name == root_name) per_root[s.id] = 0.0;
  if (per_root.empty()) return 0.0;
  for (const auto& s : spans_) {
    if (s.parent == 0 || s.name != name) continue;
    const auto it = per_root.find(s.parent);
    if (it != per_root.end()) it->second += 1.0;
  }
  double total = 0.0;
  for (const auto& [id, v] : per_root) total += v;
  return total / static_cast<double>(per_root.size());
}

double Tracer::per_root_count(const std::string& root_name, const std::string& name) const {
  sap::MutexLock lock(mutex_);
  std::map<std::uint64_t, double> per_root;
  for (const auto& s : spans_)
    if (s.parent == 0 && s.name == root_name) per_root[s.id] = 0.0;
  if (per_root.empty()) return 0.0;
  for (const auto& c : counts_) {
    if (c.name != name) continue;
    const auto it = per_root.find(c.root);
    if (it != per_root.end()) it->second += c.value;
  }
  double total = 0.0;
  for (const auto& [id, v] : per_root) total += v;
  return total / static_cast<double>(per_root.size());
}

double Tracer::mean_self_ms(const std::string& name) const {
  sap::MutexLock lock(mutex_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& c : spans_)
    if (c.parent != 0) children[c.parent].push_back(&c);
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span* c : children[s.id]) {
      const std::int64_t a = std::max(c->start_ns, s.start_ns);
      const std::int64_t b = std::min(c->end_ns, s.end_ns);
      if (b > a) kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : kids) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    total += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

std::map<std::string, std::size_t> Tracer::names() const {
  sap::MutexLock lock(mutex_);
  std::map<std::string, std::size_t> out;
  for (const auto& s : spans_) ++out[s.name];
  return out;
}

void finish_trace(const Tracer& t, const std::string& path) {
  for (const auto& [name, n] : t.names())
    emit_line(fmt("span %s self_ms = %.6f (n=%zu)", name.c_str(), t.mean_self_ms(name), n));
  if (!path.empty()) emit_file(path, t.dump());
}

std::string Tracer::dump() const {
  sap::MutexLock lock(mutex_);
  std::ostringstream out;
  for (const auto& s : spans_)
    out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  for (const auto& c : counts_)
    out << "{\"count\":\"" << c.name << "\",\"root\":" << c.root << ",\"value\":" << c.value
        << "}\n";
  return out.str();
}

// ---- child processes -----------------------------------------------------

namespace {

constexpr std::size_t kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw sap::Error("perfbench: cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

}  // namespace

void kill_all_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

Child::Child(const std::vector<std::string>& args) {
  const std::string exe = self_exe();
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw sap::Error("perfbench: pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw sap::Error("perfbench: fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(fds[1], 1);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  fd_ = fds[0];
  track(pid);
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.pid_ = -1;
  other.fd_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    kill();
    pid_ = other.pid_;
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.pid_ = -1;
    other.fd_ = -1;
  }
  return *this;
}

std::string Child::read_line(int timeout_ms) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (int attempt = 0; attempt < 1'000'000; ++attempt) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    const std::int64_t remaining_ms = (deadline - now_ns()) / 1'000'000;
    if (remaining_ms <= 0 || fd_ < 0) break;
    pollfd p{fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(remaining_ms));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) break;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw sap::Error(fmt("perfbench: child %d closed its output", pid_));
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  throw sap::Error(fmt("perfbench: child %d sent no line within %d ms", pid_, timeout_ms));
}

std::string Child::expect(const std::string& tag, int timeout_ms) {
  const std::string line = read_line(timeout_ms);
  if (line.rfind(tag + " ", 0) != 0)
    throw sap::Error("perfbench: expected '" + tag + "' from child, got '" + line + "'");
  return line.substr(tag.size() + 1);
}

double Child::peak_rss_mb() const {
  std::ifstream in(fmt("/proc/%d/status", pid_));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw sap::Error(fmt("perfbench: no VmHWM for child %d", pid_));
}

double Child::cpu_s() const {
  clockid_t clock = 0;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0)
    throw sap::Error(fmt("perfbench: cannot read the CPU clock of child %d", pid_));
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool Child::wait_exit(int timeout_ms) {
  if (pid_ <= 0) return false;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (int attempt = 0; attempt < 1'000'000 && now_ns() < deadline; ++attempt) {
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_) {
      untrack(pid_);
      pid_ = -1;
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill();
  return false;
}

void Child::kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    untrack(pid_);
    pid_ = -1;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- workload preparation ------------------------------------------------

Prep make_prep(const std::string& dataset, std::size_t batches, std::size_t batch_records,
               std::uint64_t seed) {
  Prep p;
  auto w = data::make_stream_workload(dataset, kParties, batches, batch_records, kDataSeed);
  p.shards = std::move(w.shards);
  p.stream = std::move(w.stream);
  p.sap = sap::net::serving_session_options(kNoiseSigma, seed);
  for (const auto& s : p.shards) p.pool_records += s.size();
  return p;
}

std::vector<proto::logic::LocalPerturbation> replay_locals(const Prep& prep) {
  const auto seeds = proto::logic::derive_session_seeds(prep.sap.seed, kParties);
  std::vector<proto::logic::LocalPerturbation> out(kParties);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      sap::rng::Engine eng = seeds.provider_eng[i];
      out[i] = proto::logic::optimize_local(prep.shards[i].features_T(),
                                            prep.shards[i].dims(), prep.sap, eng);
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

Reference reference_session(const Prep& prep) {
  Reference ref;
  proto::SapOptions opts = prep.sap;
  opts.transport = proto::TransportKind::kSimulated;
  opts.optimizer.threads = kParties;  // thread-count-invariant results
  ref.session = std::make_unique<proto::SapSession>(prep.shards, opts);
  ref.result = ref.session->run();
  return ref;
}

std::size_t pick(const std::vector<JobMix>& mix, sap::rng::Engine& eng) {
  double total = 0.0;
  for (const auto& m : mix) total += m.weight;
  double u = eng.uniform() * total;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (u < mix[i].weight) return i;
    u -= mix[i].weight;
  }
  return mix.size() - 1;
}

double counter_of(const std::vector<sap::obs::Snapshot>& snaps, const std::string& name) {
  double total = 0.0;
  for (const auto& s : snaps) {
    for (const auto& [n, v] : s.counters)
      if (n == name) total += static_cast<double>(v);
  }
  return total;
}

std::pair<double, double> hist_delta_mean(const std::vector<sap::obs::Snapshot>& before,
                                          const std::vector<sap::obs::Snapshot>& after,
                                          const std::string& name) {
  const auto sum_of = [&](const std::vector<sap::obs::Snapshot>& snaps) {
    std::pair<double, double> acc{0.0, 0.0};
    for (const auto& s : snaps)
      for (const auto& [n, h] : s.histograms)
        if (n == name) {
          acc.first += h.sum;
          acc.second += static_cast<double>(h.count);
        }
    return acc;
  };
  const auto a = sum_of(before);
  const auto b = sum_of(after);
  const double count = b.second - a.second;
  return {count > 0 ? (b.first - a.first) / count : 0.0, count};
}

void replay_frame(Tracer& t, std::uint64_t root, const std::vector<double>& payload,
                  proto::PayloadKind kind) {
  if (!t.on()) return;
  constexpr std::uint64_t kKey = 0x5EA1ED;
  ScopedSpan s(t, root, "net.frame_us");
  const proto::EncryptedEnvelope env(payload, kKey);
  sap::net::Frame frame;
  frame.type = sap::net::FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(kind);
  frame.body = sap::net::envelope_body(env);
  std::vector<std::uint8_t> bytes;
  sap::net::encode_frame(frame, bytes);
  sap::net::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  sap::net::Frame parsed;
  if (!reader.next(parsed)) throw sap::Error("perfbench: frame replay did not parse");
  const auto plain = sap::net::body_envelope(parsed.body).open(kKey);
  if (plain.size() != payload.size()) throw sap::Error("perfbench: frame replay mismatch");
}

std::vector<std::vector<double>> slice_by_time(const std::vector<Sample>& samples,
                                               std::int64_t start, std::int64_t end) {
  std::vector<std::vector<double>> groups(kSlices);
  const double span = static_cast<double>(std::max<std::int64_t>(1, end - start));
  for (const auto& s : samples) {
    const auto k = static_cast<std::size_t>(static_cast<double>(s.at_ns - start) / span *
                                            static_cast<double>(kSlices));
    groups[std::min(k, kSlices - 1)].push_back(s.ms);
  }
  return groups;
}

void emit_wall_info(const std::string& prefix, const std::vector<Sample>& samples,
                    std::int64_t start, std::int64_t end) {
  std::vector<double> p50, p90;
  for (const auto& g : slice_by_time(samples, start, end)) {
    if (g.empty()) continue;
    p50.push_back(quantile(g, 0.5));
    p90.push_back(quantile(g, 0.9));
  }
  const std::size_t n = samples.size();
  emit_line(fmt("info %s_rps = %.6f 1/s (n=%zu)", prefix.c_str(),
                static_cast<double>(n) / (static_cast<double>(end - start) / 1e9), n));
  emit_line(fmt("info %s_p50_ms = %.6f ms (n=%zu)", prefix.c_str(), quantile(p50, 0.5), n));
  emit_line(fmt("info %s_p90_ms = %.6f ms (n=%zu)", prefix.c_str(), quantile(p90, 0.5), n));
}

double measure_rtt_us(const sap::net::SocketAddr& door, std::uint64_t seed, std::size_t n) {
  sap::net::ServeClient client(door, seed, kParties);
  (void)client.mine_named("record-count");
  std::vector<double> us;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    (void)client.mine_named("record-count");
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  client.bye();
  return mean(us);
}

// ---- CPU cost ------------------------------------------------------------

namespace {

constexpr std::int64_t kProbeGapNs = 10'000'000;  ///< pause between reference runs
constexpr std::size_t kTableRows = 4096;
constexpr std::size_t kTableDims = 9;
constexpr std::size_t kQueries = 16;

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The reference kernel: nearest squared distance from kQueries fixed rows
/// to a fixed kTableRows x kTableDims table, the shape of the workloads' kNN
/// scoring. No library code runs in it. Returns the sum of the distances.
double reference_kernel(const std::vector<double>& table) {
  double sum = 0.0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const double* query = &table[((q * 131 + 7) % kTableRows) * kTableDims];
    double best = 1e300;
    for (std::size_t r = 0; r < kTableRows; ++r) {
      const double* row = &table[r * kTableDims];
      double d = 0.0;
      for (std::size_t j = 0; j < kTableDims; ++j) d += (row[j] - query[j]) * (row[j] - query[j]);
      if (d > 0.0) best = std::min(best, d);
    }
    sum += best;
  }
  return sum;
}

}  // namespace

CpuTrace sample_cpu(const std::vector<const Child*>& procs, std::int64_t start,
                    std::int64_t end) {
  std::vector<double> table(kTableRows * kTableDims);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  CpuTrace t;
  std::vector<double> probes;
  double sink = 0.0;
  for (std::size_t k = 0; k <= kSlices; ++k) {
    const std::int64_t at =
        start + (end - start) * static_cast<std::int64_t>(k) / static_cast<std::int64_t>(kSlices);
    for (int probe = 0; probe < 100'000 && now_ns() < at; ++probe) {
      const double c0 = thread_cpu_ms();
      sink += reference_kernel(table);
      probes.push_back(thread_cpu_ms() - c0);
      const std::int64_t wait = std::min(at - now_ns(), kProbeGapNs);
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    double total = 0.0;
    for (const Child* p : procs) total += p->cpu_s();
    t.cpu.push_back(total);
    if (k > 0) {
      t.ref_ms.push_back(quantile(probes, 0.5));
      t.probes.push_back(probes);
    }
    probes.clear();
  }
  if (!(sink > 0.0)) throw sap::Error("perfbench: the reference kernel computed nothing");
  return t;
}

Cost cost_per_request(const CpuTrace& t, const std::vector<Sample>& done, std::int64_t start,
                      std::int64_t end) {
  if (t.cpu.size() != kSlices + 1 || t.ref_ms.size() != kSlices)
    throw sap::Error("perfbench: CPU samples missing");
  std::vector<std::size_t> n(kSlices, 0);
  const double span = static_cast<double>(std::max<std::int64_t>(1, end - start));
  for (const auto& s : done) {
    if (s.at_ns < start || s.at_ns >= end) continue;
    const auto k = static_cast<std::size_t>(static_cast<double>(s.at_ns - start) / span *
                                            static_cast<double>(kSlices));
    ++n[std::min(k, kSlices - 1)];
  }
  std::vector<double> ms, refs, rmin, rp10, rp25;
  std::vector<double> all;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (n[k] == 0 || !(t.ref_ms[k] > 0.0)) continue;
    const double per = (t.cpu[k + 1] - t.cpu[k]) * 1e3 / static_cast<double>(n[k]);
    ms.push_back(per);
    refs.push_back(per / t.ref_ms[k]);
    rmin.push_back(per / quantile(t.probes[k], 0.0));
    rp10.push_back(per / quantile(t.probes[k], 0.1));
    rp25.push_back(per / quantile(t.probes[k], 0.25));
    all.insert(all.end(), t.probes[k].begin(), t.probes[k].end());
  }
  std::string dbg;
  for (std::size_t k = 0; k < kSlices; ++k)
    dbg += fmt(" %.3f/%zu/%.4f/%.4f", (t.cpu[k + 1] - t.cpu[k]), n[k], t.ref_ms[k],
               quantile(t.probes[k], 0.0));
  emit_line("debug slices cpu_s/n/ref/refmin" + dbg);
  emit_line(fmt("info mine_cmin = %.6f x", quantile(rmin, 0.5)));
  emit_line(fmt("info mine_cp10 = %.6f x", quantile(rp10, 0.5)));
  emit_line(fmt("info mine_cp25 = %.6f x", quantile(rp25, 0.5)));
  emit_line(fmt("info mine_refmed = %.6f x", quantile(all, 0.5)));
  emit_line(fmt("info mine_refp10 = %.6f x", quantile(all, 0.1)));
  return {quantile(ms, 0.5), quantile(refs, 0.5)};
}

}  // namespace perfbench

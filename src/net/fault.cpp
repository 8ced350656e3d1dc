#include "net/fault.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/mutex.hpp"

namespace sap::net::fault {
namespace {

// Decisions, stats, and the trace live behind one mutex: fault mode is a
// test/chaos facility, never a hot path — when disabled the only cost
// anywhere is the relaxed enabled() load, and when enabled a short critical
// section per socket operation keeps every structure TSAN-clean without
// ordering subtleties.
struct State {
  Mutex mutex;
  FaultPlan plan SAP_GUARDED_BY(mutex);
  std::uint64_t next_index SAP_GUARDED_BY(mutex) = 0;
  std::array<std::uint64_t, kKindCount> injected SAP_GUARDED_BY(mutex){};
  std::vector<std::pair<std::uint64_t, Kind>> ring SAP_GUARDED_BY(mutex);
};

constexpr std::size_t kTraceCapacity = 4096;

std::atomic<bool> g_enabled{false};

State& state() {
  static State s;
  return s;
}

// SplitMix64 finalizer (Steele/Lea/Flood) — the same mixer sap::rng uses
// for seeding, reimplemented here so the fault schedule is a self-contained
// pure function of (seed, index).
std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double unit_interval(std::uint64_t word) noexcept {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

// Draw the decision word for the next index and record what got injected.
// `record` runs under the state mutex with the plan, the fresh word, and a
// derived parameter word; it returns the Kind injected (kNone = no fault).
template <typename Fn>
Kind draw(Fn&& record) {
  State& s = state();
  MutexLock lk(s.mutex);
  const std::uint64_t index = s.next_index++;
  const std::uint64_t word = decision_word(s.plan.seed, index);
  const Kind kind = record(s.plan, unit_interval(word), mix64(word));
  if (kind != Kind::kNone) {
    ++s.injected[static_cast<int>(kind)];
    if (s.ring.size() < kTraceCapacity) s.ring.emplace_back(index, kind);
  }
  return kind;
}

int bounded_delay(const FaultPlan& plan, std::uint64_t param) noexcept {
  const int cap = plan.delay_ms > 0 ? plan.delay_ms : 1;
  return 1 + static_cast<int>(param % static_cast<std::uint64_t>(cap));
}

double parse_probability(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  SAP_REQUIRE(end != nullptr && *end == '\0' && p >= 0.0 && p <= 1.0,
              "FaultPlan: bad probability for '" + key + "': '" + value + "'");
  return p;
}

std::uint64_t parse_u64_field(const std::string& key, const std::string& value) {
  SAP_REQUIRE(!value.empty(), "FaultPlan: empty value for '" + key + "'");
  std::uint64_t out = 0;
  for (const char c : value) {
    SAP_REQUIRE(c >= '0' && c <= '9',
                "FaultPlan: bad integer for '" + key + "': '" + value + "'");
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return out;
}

void append_field(std::string& out, const char* key, double p) {
  if (p <= 0.0) return;
  if (!out.empty()) out += ',';
  out += key;
  out += '=';
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", p);
  out += buf;
}

}  // namespace

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kDrop: return "drop";
    case Kind::kDelay: return "delay";
    case Kind::kPartialWrite: return "partial";
    case Kind::kTruncate: return "truncate";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kReset: return "reset";
    case Kind::kRefuseAccept: return "accept";
  }
  return "none";
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(start, comma - start);
    start = comma + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    SAP_REQUIRE(eq != std::string::npos && eq > 0 && eq + 1 < field.size(),
                "FaultPlan: expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64_field(key, value);
    } else if (key == "delay_ms") {
      const std::uint64_t ms = parse_u64_field(key, value);
      SAP_REQUIRE(ms >= 1 && ms <= 60'000, "FaultPlan: delay_ms out of range");
      plan.delay_ms = static_cast<int>(ms);
    } else if (key == "drop") {
      plan.drop = parse_probability(key, value);
    } else if (key == "delay") {
      plan.delay = parse_probability(key, value);
    } else if (key == "partial") {
      plan.partial = parse_probability(key, value);
    } else if (key == "truncate") {
      plan.truncate = parse_probability(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_probability(key, value);
    } else if (key == "reset") {
      plan.reset = parse_probability(key, value);
    } else if (key == "accept") {
      plan.refuse_accept = parse_probability(key, value);
    } else if (key == "rate") {
      const double p = parse_probability(key, value) / 3.0;
      plan.drop = plan.corrupt = plan.reset = p;
    } else {
      SAP_FAIL("FaultPlan: unknown key '" + key + "' (expected seed, drop, delay, "
               "partial, truncate, corrupt, reset, accept, rate, delay_ms)");
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out = "seed=" + std::to_string(seed);
  append_field(out, "drop", drop);
  append_field(out, "delay", delay);
  append_field(out, "partial", partial);
  append_field(out, "truncate", truncate);
  append_field(out, "corrupt", corrupt);
  append_field(out, "reset", reset);
  append_field(out, "accept", refuse_accept);
  if (delay_ms != FaultPlan{}.delay_ms) out += ",delay_ms=" + std::to_string(delay_ms);
  return out;
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void install(const FaultPlan& plan) {
  State& s = state();
  {
    MutexLock lk(s.mutex);
    s.plan = plan;
    s.next_index = 0;
    s.injected.fill(0);
    s.ring.clear();
  }
  g_enabled.store(true, std::memory_order_release);
}

void uninstall() noexcept {
  g_enabled.store(false, std::memory_order_release);
}

bool install_from_env() {
  const char* spec = std::getenv("SAP_FAULT");
  if (spec == nullptr || spec[0] == '\0') return false;
  install(FaultPlan::parse(spec));
  return true;
}

FaultPlan plan() {
  State& s = state();
  MutexLock lk(s.mutex);
  return s.plan;
}

std::uint64_t decision_word(std::uint64_t seed, std::uint64_t index) noexcept {
  // Golden-ratio index stride before the finalizer: adjacent indices land
  // far apart in the mix input, so short schedules have no visible lattice.
  return mix64(seed ^ (index * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL));
}

WriteFault next_write_fault(std::size_t len) {
  WriteFault out;
  draw([&](const FaultPlan& p, double u, std::uint64_t param) {
    // Cumulative thresholds over the write-applicable kinds; one uniform
    // draw selects at most one fault per operation.
    double edge = p.drop;
    if (u < edge) {
      out.kind = Kind::kDrop;
      return out.kind;
    }
    edge += p.delay;
    if (u < edge) {
      out.kind = Kind::kDelay;
      out.delay_ms = bounded_delay(p, param);
      return out.kind;
    }
    edge += p.partial;
    if (u < edge && len >= 2) {
      out.kind = Kind::kPartialWrite;
      out.keep = 1 + static_cast<std::size_t>(param % (len - 1));
      out.delay_ms = bounded_delay(p, mix64(param));
      return out.kind;
    }
    edge += p.truncate;
    if (u < edge && len >= 1) {
      out.kind = Kind::kTruncate;
      out.keep = static_cast<std::size_t>(param % len);
      return out.kind;
    }
    edge += p.corrupt;
    if (u < edge && len >= 1) {
      out.kind = Kind::kCorrupt;
      out.corrupt_at = static_cast<std::size_t>(param % len);
      out.corrupt_mask = static_cast<std::uint8_t>(1u << (mix64(param) % 8));
      return out.kind;
    }
    edge += p.reset;
    if (u < edge) {
      out.kind = Kind::kReset;
      return out.kind;
    }
    return Kind::kNone;
  });
  return out;
}

ReadFault next_read_fault(std::size_t len) {
  ReadFault out;
  draw([&](const FaultPlan& p, double u, std::uint64_t param) {
    double edge = p.delay;
    if (u < edge) {
      out.kind = Kind::kDelay;
      out.delay_ms = bounded_delay(p, param);
      return out.kind;
    }
    edge += p.corrupt;
    if (u < edge && len >= 1) {
      out.kind = Kind::kCorrupt;
      out.corrupt_at = static_cast<std::size_t>(param % len);
      out.corrupt_mask = static_cast<std::uint8_t>(1u << (mix64(param) % 8));
      return out.kind;
    }
    edge += p.reset;
    if (u < edge) {
      out.kind = Kind::kReset;  // surfaces as a spurious peer close
      return out.kind;
    }
    return Kind::kNone;
  });
  return out;
}

bool next_connect_fault() {
  bool refuse = false;
  draw([&](const FaultPlan& p, double u, std::uint64_t /*param*/) {
    if (u < p.reset) {
      refuse = true;
      return Kind::kReset;
    }
    return Kind::kNone;
  });
  return refuse;
}

bool next_accept_fault() {
  bool refuse = false;
  draw([&](const FaultPlan& p, double u, std::uint64_t /*param*/) {
    if (u < p.refuse_accept) {
      refuse = true;
      return Kind::kRefuseAccept;
    }
    return Kind::kNone;
  });
  return refuse;
}

std::uint64_t Stats::total_injected() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected) total += n;
  return total;
}

Stats stats() {
  State& s = state();
  MutexLock lk(s.mutex);
  Stats out;
  out.decisions = s.next_index;
  out.injected = s.injected;
  return out;
}

void export_stats(obs::Snapshot& snap) {
  if (!enabled()) return;
  const Stats fs = stats();
  snap.set_counter("fault.decisions", fs.decisions);
  snap.set_counter("fault.injected", fs.total_injected());
  for (int k = 1; k < kKindCount; ++k)
    snap.set_counter(std::string("fault.injected.") + kind_name(static_cast<Kind>(k)),
                     fs.injected[static_cast<std::size_t>(k)]);
}

std::vector<std::pair<std::uint64_t, Kind>> trace() {
  State& s = state();
  MutexLock lk(s.mutex);
  return s.ring;
}

}  // namespace sap::net::fault

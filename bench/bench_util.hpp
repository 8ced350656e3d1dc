// Shared helpers for the figure-reproduction benches.
//
// Each fig*_ binary prints the series of one paper figure as an aligned
// text table (sap::Table).
// emit_table() additionally writes the same series as BENCH_<name>.json so
// the perf/accuracy trajectory can be tracked across PRs by machines.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classify/classifier.hpp"
#include "common/table.hpp"
#include "data/dataset.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "perturb/geometric.hpp"
#include "protocol/session.hpp"

namespace sap::bench {

// ---- latency summaries ---------------------------------------------------

/// Percentile summary of a latency sample set, computed through the SAME
/// log-linear sap::obs::Histogram the serving daemons export over the stats
/// door — so p50/p95/p99 in BENCH_*.json and in `sap_cli stats` output are
/// bucket-compatible and directly comparable (DESIGN.md §12). Units follow
/// the samples (the benches record milliseconds or microseconds and say so
/// in their column headers).
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarize raw samples. Histogram::record is gated on obs::enabled(),
/// which defaults to on and which no bench turns off.
inline LatencySummary summarize_latency(const std::vector<double>& samples) {
  LatencySummary out;
  if (samples.empty()) return out;
  obs::Histogram h;
  for (const double s : samples) h.record(s);
  const obs::HistogramSnapshot snap = h.snapshot();
  out.count = snap.count;
  out.mean = snap.mean();
  out.p50 = snap.quantile(0.50);
  out.p95 = snap.quantile(0.95);
  out.p99 = snap.quantile(0.99);
  out.max = snap.max;
  return out;
}

/// Exact sample median (NOT histogram-quantized) for series where a ~12.5%
/// bucket width would blur the comparison being made (e.g. speedup ratios
/// near 1.0). Latency percentiles go through summarize_latency instead.
inline double exact_median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Normalized copy of a synthetic UCI dataset (min-max to [0,1], as the
/// paper's pipeline requires before perturbation).
inline data::Dataset normalized_uci(const std::string& name, std::uint64_t seed) {
  const data::Dataset raw = data::make_uci(name, seed);
  data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  return {raw.name(), norm.transform(raw.features()), raw.labels()};
}

/// Transform a normalized N x d dataset into a SAP target space (the
/// provider-side step that lets parties use the miner's model).
inline data::Dataset to_target_space(const data::Dataset& ds,
                                     const perturb::GeometricPerturbation& g_t) {
  return {ds.name(), g_t.apply_noiseless(ds.features_T()).transpose(), ds.labels()};
}

/// Figure 5/6 measurement: accuracy deviation (percentage points) of a
/// classifier trained on the SAP-unified data versus the original data.
/// Returns {baseline accuracy, deviation in points}.
template <typename ClassifierT>
std::pair<double, double> accuracy_deviation(const std::string& dataset,
                                             data::PartitionKind kind, std::size_t parties,
                                             std::uint64_t seed,
                                             const proto::SapOptions& sap_opts) {
  const data::Dataset pool = normalized_uci(dataset, seed);
  rng::Engine eng(seed * 1000003 + 17);
  const auto split = data::stratified_split(pool, 0.7, eng);

  data::PartitionOptions popts;
  popts.kind = kind;
  auto parts = data::partition(split.train, parties, popts, eng);

  auto opts = sap_opts;
  opts.seed = seed ^ 0xF16;
  proto::SapSession session(std::move(parts), opts);
  const auto result = session.run();

  ClassifierT baseline;
  baseline.fit(split.train);
  const double acc_base = ml::accuracy(baseline, split.test);

  ClassifierT unified;
  unified.fit(result.unified);
  const data::Dataset test_t = to_target_space(split.test, result.target_space);
  const double acc_sap = ml::accuracy(unified, test_t);

  return {acc_base, (acc_sap - acc_base) * 100.0};
}

/// SAP options tuned for the figure benches: local optimization on, modest
/// optimizer budget, satisfaction accounting off (figures 5/6 measure
/// accuracy only).
inline proto::SapOptions bench_sap_options() {
  proto::SapOptions o;
  o.optimizer.candidates = 6;
  o.optimizer.refine_steps = 3;
  o.optimizer.max_eval_records = 120;
  o.optimizer.attacks.naive = true;
  o.optimizer.attacks.ica = false;  // rho accounting is not measured here
  o.optimizer.attacks.known_inputs = 4;
  o.bound_runs = 1;
  o.compute_satisfaction = false;
  return o;
}

// ---- machine-readable output ---------------------------------------------

/// True when the cell prints unchanged as a JSON number (the Table cells are
/// produced by std::to_string / Table::num, so plain decimal syntax covers
/// every numeric cell the benches emit).
inline bool is_json_number(const std::string& cell) {
  if (cell.empty()) return false;
  std::size_t i = (cell[0] == '-') ? 1 : 0;
  if (i == cell.size()) return false;
  bool digits = false, dot = false;
  for (; i < cell.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(cell[i]))) {
      digits = true;
    } else if (cell[i] == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digits && cell.back() != '.';
}

/// Minimal JSON string escaping (the cells are ASCII table text).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Run metadata stamped into every BENCH_*.json so the perf trajectory is
/// comparable across PRs: when was it measured, with how many workers, over
/// which transport. Benches that exercise a specific backend set
/// `transport` explicitly; the default marks plain in-process execution.
struct BenchMeta {
  std::string transport = "in-process";
  std::size_t threads = std::thread::hardware_concurrency();
  /// Cluster topology (PR 8): pool shard count and owners per shard. The
  /// defaults mark a single unsharded miner — only the cluster benches set
  /// them, but every BENCH_*.json carries the fields so the perf
  /// trajectory stays comparable across topologies.
  std::size_t shards = 1;
  std::size_t replicas = 1;
};

/// ISO-8601 UTC timestamp ("2026-07-26T12:34:56Z").
inline std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Write `table` as BENCH_<name>.json in the working directory:
///   {"bench": <name>, "meta": {...}, "columns": [...],
///    "rows": [{column: value, ...}, ...]}
/// Numeric cells become JSON numbers, everything else strings.
inline void write_bench_json(const std::string& name, const Table& table,
                             const BenchMeta& meta = {}) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"" << json_escape(name) << "\",\n  \"meta\": {\"utc\": \""
      << json_escape(utc_timestamp()) << "\", \"threads\": " << meta.threads
      << ", \"transport\": \"" << json_escape(meta.transport)
      << "\", \"shards\": " << meta.shards << ", \"replicas\": " << meta.replicas
      << "},\n  \"columns\": [";
  const auto& header = table.header();
  for (std::size_t c = 0; c < header.size(); ++c)
    out << (c ? ", " : "") << '"' << json_escape(header[c]) << '"';
  out << "],\n  \"rows\": [\n";
  const auto& rows = table.row_data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << "    {";
    for (std::size_t c = 0; c < header.size(); ++c) {
      const std::string& cell = rows[r][c];
      out << (c ? ", " : "") << '"' << json_escape(header[c]) << "\": ";
      if (is_json_number(cell)) {
        out << cell;
      } else {
        out << '"' << json_escape(cell) << '"';
      }
    }
    out << '}' << (r + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

/// Print the table to stdout AND write BENCH_<name>.json beside it.
inline void emit_table(const std::string& name, const Table& table,
                       const BenchMeta& meta = {}) {
  std::fputs(table.str().c_str(), stdout);
  write_bench_json(name, table, meta);
}

}  // namespace sap::bench

// sap::obs — cluster-wide metrics: counters, gauges, and mergeable
// log-linear latency histograms (DESIGN.md §12).
//
// Design constraints, in order:
//
//   * PURE MEASUREMENT. Nothing in this header draws randomness, allocates
//     on the record path, or feeds back into computation — job reports,
//     pool digests, and party accounting are bit-identical with metrics on
//     or off (tests/obs_test.cpp pins this against the goldens, and
//     sap-lint rule R6 keeps obs:: calls out of the numeric kernels).
//   * CONTENTION-FREE HOT PATH. Counter increments land in per-thread
//     sharded cache-line-padded slots; histogram records are relaxed
//     fetch_adds on a fixed bucket array. No locks anywhere on the record
//     path; the registry mutex guards only name->metric registration and
//     snapshotting.
//   * EXACT MERGE. A histogram snapshot is its bucket counts; merging
//     snapshots is bucket-wise addition, so the router can aggregate shard
//     histograms into exactly the histogram a single daemon would have
//     recorded for the union of the samples (asserted bucket-for-bucket in
//     tests/obs_test.cpp). Quantiles are computed on snapshots, never on
//     live state.
//
// The global enable flag (set_enabled) gates every record/add/set with one
// relaxed atomic load — tests/obs_test.cpp serves a live member in both
// positions; perfbench's mine_cpu_ms prices the metrics-on default.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace sap::obs {

/// Global metrics switch (default on). Off = every record/add/set returns
/// after one relaxed load; registries and snapshots still work, they just
/// observe frozen values.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic counter with per-thread sharded slots: each thread increments
/// its own cache line, so hot-path increments from many serving threads
/// never bounce a shared line. value() sums the slots (racy-exact: every
/// completed add is counted).
class Counter {
 public:
  static constexpr std::size_t kSlots = 16;

  void add(std::uint64_t n = 1) noexcept;
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kSlots> slots_{};
};

/// Point-in-time reading (queue depth, live connections, pool epoch).
/// Last-writer-wins set(); add() for +/- deltas.
class Gauge {
 public:
  void set(double v) noexcept;
  void add(double delta) noexcept;
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Mergeable snapshot of one histogram: total count/sum/max plus the sparse
/// non-zero buckets (index ascending). merge() is bucket-wise addition —
/// the exactness the router's shard aggregation rests on.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  void merge(const HistogramSnapshot& other);
  [[nodiscard]] double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile estimate: the upper bound of the bucket where the cumulative
  /// count reaches q (q in [0,1]); exact max for q >= 1. Samples in the
  /// overflow bucket report the recorded max.
  [[nodiscard]] double quantile(double q) const;
};

/// Log-linear latency histogram: each power-of-two octave of the value
/// range splits into kSubBuckets equal-width buckets, so relative
/// resolution is bounded (~12.5%) from sub-millisecond to minutes while
/// the bucket count stays fixed and snapshots merge exactly. Values are
/// milliseconds by convention (metric names carry the unit, DESIGN.md §12).
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -7;  ///< values below 2^-7 ms land in bucket 0
  static constexpr int kMaxExp = 22;  ///< values >= 2^22 ms land in the overflow bucket
  static constexpr std::uint32_t kBucketCount =
      2 + static_cast<std::uint32_t>(kMaxExp - kMinExp) * kSubBuckets;

  /// Bucket index for a value (NaN/negative/tiny -> 0, huge -> overflow).
  [[nodiscard]] static std::uint32_t bucket_index(double v) noexcept;
  /// Upper bound of a bucket's value range (inclusive quantile estimate);
  /// the overflow bucket has no finite bound and reports the snapshot max.
  [[nodiscard]] static double bucket_upper(std::uint32_t index) noexcept;

  void record(double v) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// One daemon's full metrics state at a point in time, name-sorted for a
/// deterministic exposition. Counters and histograms MERGE exactly across
/// daemons (addition); gauges are point-in-time readings and do not — the
/// router namespaces them per miner instead of pretending (DESIGN.md §12).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Add/overwrite one entry (collect-time injection of values that live
  /// outside a registry, e.g. Reactor's atomics). normalize() afterwards.
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, double value);

  /// Sum counters, merge histograms bucket-wise, sum gauges on name
  /// collision (callers that aggregate across daemons prefix gauge names
  /// first — see ShardRouter::cluster_stats).
  void merge(const Snapshot& other);

  /// Sort every section by name (the exposition and codec contract).
  void normalize();

  /// Versioned text exposition ("sap-stats v1", one line per metric).
  [[nodiscard]] std::string to_text() const;
  /// The same content as a JSON object ({"version":1, "counters":{...},
  /// "gauges":{...}, "histograms":{name:{count,sum,max,p50,p95,p99}}}).
  [[nodiscard]] std::string to_json() const;
};

/// Named-metric registry. Registration (name lookup) takes a mutex and may
/// allocate — hot paths call it once at setup and keep the reference, which
/// stays valid for the registry's lifetime. The record path on the returned
/// metrics is lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name) SAP_EXCLUDES(mutex_);
  [[nodiscard]] Gauge& gauge(const std::string& name) SAP_EXCLUDES(mutex_);
  [[nodiscard]] Histogram& histogram(const std::string& name) SAP_EXCLUDES(mutex_);

  /// Convenience for collect-time gauge writes (set_enabled-gated like
  /// every other mutation).
  void set_gauge(const std::string& name, double value) SAP_EXCLUDES(mutex_);

  [[nodiscard]] Snapshot snapshot() const SAP_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ SAP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SAP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ SAP_GUARDED_BY(mutex_);
};

}  // namespace sap::obs

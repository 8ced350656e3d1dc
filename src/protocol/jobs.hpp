// Mining job specifications and the named-job registry.
//
// A mining job is what the mining service provider executes on the unified
// pool once the exchange is complete. A bare closure would admit no
// per-request parameters and give the engine nothing to cache by, so every
// job is a named JobSpec that declares:
//
//   * a parameter schema (names, defaults, valid ranges) — every request
//     merges its JobParams over the defaults and is validated against the
//     schema, so "k=5 by default" and "k=5 explicitly" are the same request
//     (and hit the same cache entry);
//   * whether the job is *trainable* (builds a Classifier on the pool, then
//     serves from the fitted model's const predict() path) or *structural*
//     (computes straight off the pool). The split is what the MiningEngine's
//     model cache keys on: trainable jobs fit once per (job, params) at the
//     pool epoch first requested, serve unlimited requests from the shared
//     immutable model, and — when the live pool grows via append_records —
//     are extended incrementally through Classifier::partial_fit where the
//     model supports it (see mining_engine.hpp).
//
// The built-in registry covers the paper's mining workloads (KNN / SVM /
// Naive Bayes / perceptron accuracy on the unified space) plus cheap
// structural jobs; every SapSession's engine starts with a copy and can
// register its own.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "data/dataset.hpp"
#include "protocol/shard.hpp"

namespace sap::proto {

/// Per-request job parameters, merged over the spec's declared defaults.
using JobParams = std::map<std::string, double>;

/// One declared parameter: its default and the closed range of valid values.
/// serve_only marks parameters that shape the *report* but not the fitted
/// model (e.g. an evaluation limit) — they are excluded from the engine's
/// model-cache key, so requests differing only in serve-only params share
/// one fitted model.
struct ParamSpec {
  std::string name;
  double def = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  bool serve_only = false;
};

/// A named mining workload. Exactly one of the two execution paths is set:
///   * structural: `run(pool, params)` computes the report directly;
///   * trainable:  `make_model(params)` builds an untrained Classifier, the
///     engine fits it on the pool (cacheable), and `serve(model, pool,
///     params)` produces the report from the fitted model's const,
///     thread-safe predict() path.
///
/// A job may additionally declare an EXACT-MERGE contract for sharded pools
/// (DESIGN.md §11): `partial` executes AT one shard over that shard's rows
/// (plus their parallel canonical PoolKeys) and returns an opaque double
/// blob; `merge_partials` executes at the coordinator over one blob per
/// shard — in ANY blob order, because exact merges reorder by canonical key
/// internally — and produces the final report. `queries` is the eval prefix
/// of the canonical pool (what the report scores against; empty for
/// structural merges). A partial is handed that prefix only when
/// `partial_reads_queries` says it reads it, and an empty block otherwise;
/// the merge always gets it. The contract: the merged report is
/// bit-identical to running the job on the canonical concatenated pool,
/// whatever the shard count or hash-route layout. A job without the contract is served over a
/// sharded pool by gathering the canonical pool and executing flat — exact,
/// but it ships rows to the merging side (the SVM and perceptron fits).
struct JobSpec {
  std::string name;
  std::string summary;
  std::vector<ParamSpec> params;

  /// Structural path (mutually exclusive with make_model/serve).
  std::function<std::vector<double>(const data::Dataset& pool, const JobParams&)> run;

  /// Trainable path: model factory + const serving function.
  std::function<std::unique_ptr<ml::Classifier>(const JobParams&)> make_model;
  std::function<std::vector<double>(const ml::Classifier& model, const data::Dataset& pool,
                                    const JobParams&)>
      serve;

  /// Exact-merge contract (optional; both set or both unset). See the
  /// struct comment for semantics.
  std::function<std::vector<double>(const data::Dataset& rows,
                                    std::span<const PoolKey> keys,
                                    const data::Dataset& queries, const JobParams&)>
      partial;
  std::function<std::vector<double>(const std::vector<std::vector<double>>& partials,
                                    const data::Dataset& queries, const JobParams&)>
      merge_partials;
  /// Whether `partial` reads its queries (kNN's does; NB's scores them at
  /// the merge), so the prefix crosses to each shard only when it is read.
  bool partial_reads_queries = false;

  [[nodiscard]] bool trainable() const noexcept { return static_cast<bool>(make_model); }
  [[nodiscard]] bool mergeable() const noexcept { return static_cast<bool>(merge_partials); }

  /// Merge `request` over the declared defaults; throws sap::Error on an
  /// undeclared name or an out-of-range value.
  [[nodiscard]] JobParams resolve_params(const JobParams& request) const;

  /// Canonical "name=value;..." encoding of resolved params (sorted by name,
  /// max-precision values).
  [[nodiscard]] static std::string canonical_params(const JobParams& resolved);

  /// canonical_params restricted to the params the fitted model depends on
  /// (serve-only params skipped) — the params component of the engine's
  /// model-cache key.
  [[nodiscard]] std::string model_key_params(const JobParams& resolved) const;
};

/// Named JobSpec collection. Not internally synchronized: registration must
/// not race with lookups (the MiningEngine serves lookups concurrently but
/// treats its registry as frozen while a batch is in flight).
class JobRegistry {
 public:
  /// Add `spec`, replacing any existing spec with the same name. Throws
  /// sap::Error on an empty name, neither-or-both execution paths, or a
  /// malformed parameter schema (duplicate names, default outside range).
  void register_job(JobSpec spec);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Lookup; throws sap::Error for unknown names.
  [[nodiscard]] const JobSpec& find(const std::string& name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }

  /// Registry seeded with the built-in jobs:
  ///   structural
  ///     "record-count"             → {N}
  ///     "class-histogram"          → {count of class 0, count of class 1, ...}
  ///   trainable (all take eval-records: 0 = score the whole pool, else
  ///   score the first eval-records records — the train-once/query-many
  ///   serving path)
  ///     "knn-train-accuracy"        (k)
  ///     "svm-train-accuracy"        (c, gamma)
  ///     "nb-train-accuracy"         (var-smoothing)
  ///     "perceptron-train-accuracy" (epochs, learning-rate)
  [[nodiscard]] static JobRegistry builtins();

 private:
  std::map<std::string, JobSpec> specs_;
};

/// Machine-readable job/param schema (sap_cli `jobs --json`, orchestration
/// over the miner daemon):
///   {"jobs": [{"name": ..., "kind": "trainable"|"structural",
///              "summary": ..., "params": [{"name": ..., "default": ...,
///              "min": ..., "max": ..., "serve_only": bool}, ...]}, ...]}
/// Jobs are listed in name order; numbers print with max round-trip
/// precision.
[[nodiscard]] std::string schema_json(const JobRegistry& registry);

}  // namespace sap::proto

#include "protocol/jobs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "classify/knn.hpp"
#include "classify/naive_bayes.hpp"
#include "classify/nearest.hpp"
#include "classify/perceptron.hpp"
#include "classify/svm.hpp"
#include "common/error.hpp"
#include "common/wire.hpp"

namespace sap::proto {
namespace {

double param(const JobParams& resolved, const std::string& name) {
  const auto it = resolved.find(name);
  SAP_REQUIRE(it != resolved.end(), "JobSpec: missing resolved parameter '" + name + "'");
  return it->second;
}

/// Shared serving function for every trainable accuracy job: score the
/// fitted model on the pool prefix selected by eval-records (0 = all). The
/// prefix is a deterministic subset, so a request's report is a pure
/// function of (pool, params) — required for cacheable serving.
std::vector<double> serve_accuracy(const ml::Classifier& model, const data::Dataset& pool,
                                   const JobParams& resolved) {
  const auto limit = static_cast<std::size_t>(param(resolved, "eval-records"));
  return {ml::accuracy(model, pool, limit)};
}

const ParamSpec kEvalRecords{"eval-records", 0.0, 0.0, 1e9, /*serve_only=*/true};

// ---- exact-merge helpers (DESIGN.md §11) ---------------------------------
// Partial blobs are flat double vectors, written and read through the same
// wire cursor as the payloads in protocol/message.cpp. They cross the
// cluster's encrypted links, but a confused or stale miner could still ship
// a malformed blob — every merge reads through wire::Reader, and every
// partial writes through wire::Writer under the same bounds.

/// Blob bounds: record and class sizes, dims/k/segments, query count, class
/// count, and the per-nonce sequence number.
constexpr std::size_t kMaxBlobCount = 1ull << 52;
constexpr std::size_t kMaxBlobDims = 1u << 20;
constexpr std::size_t kMaxBlobQueries = 1u << 26;
constexpr std::size_t kMaxBlobClasses = 4096;
constexpr std::size_t kMaxBlobSeq = 0xFFFFFFFF;

/// Row indices of a shard's pool in canonical (nonce, seq) order.
std::vector<std::size_t> canonical_order(std::span<const PoolKey> keys) {
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return keys[a] < keys[b];
  });
  return order;
}

// -- record-count: partials are per-shard counts; the merge is an exact
//    integer sum (record counts are far below 2^53).
std::vector<double> count_partial(const data::Dataset& rows, std::span<const PoolKey>,
                                  const data::Dataset&, const JobParams&) {
  wire::Writer w("record-count partial", 1);
  w.count(rows.size(), "record count", kMaxBlobCount);
  return w.take();
}

std::vector<double> count_merge(const std::vector<std::vector<double>>& partials,
                                const data::Dataset&, const JobParams&) {
  double total = 0.0;
  for (const auto& blob : partials) {
    wire::Reader in(blob, "record-count merge");
    total += static_cast<double>(in.count("record count", kMaxBlobCount));
    in.finish();
  }
  return {total};
}

// -- class-histogram: partials are (label, count) pairs; the merge sums per
//    label and reports counts in ascending label order — exactly what
//    Dataset::class_counts() yields on the concatenated pool.
std::vector<double> hist_partial(const data::Dataset& rows, std::span<const PoolKey>,
                                 const data::Dataset&, const JobParams&) {
  const auto labels = rows.classes();
  const auto counts = rows.class_counts();
  wire::Writer w("class-histogram partial", 1 + 2 * labels.size());
  w.count(labels.size(), "class count", kMaxBlobClasses);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    w.label(labels[i], "label");
    w.count(counts[i], "class size", kMaxBlobCount);
  }
  return w.take();
}

std::vector<double> hist_merge(const std::vector<std::vector<double>>& partials,
                               const data::Dataset&, const JobParams&) {
  std::map<int, double> tally;
  for (const auto& blob : partials) {
    wire::Reader in(blob, "class-histogram merge");
    const std::size_t classes = in.count("class count", kMaxBlobClasses);
    for (std::size_t i = 0; i < classes; ++i) {
      const int label = in.label("label");
      tally[label] += static_cast<double>(in.count("class size", kMaxBlobCount));
    }
    in.finish();
  }
  std::vector<double> report;
  report.reserve(tally.size());
  for (const auto& [label, count] : tally) report.push_back(count);
  return report;
}

// -- nb-train-accuracy: partials carry per-NONCE-segment sufficient
//    statistics (the segment set is a pure function of the pool, not of the
//    shard layout); the merge folds segments in canonical nonce order via
//    GaussianNaiveBayes::merge_stats and scores the queries. Blob layout:
//    [dims, segments, {nonce, classes, {label, count, shift[d], sum[d],
//    sumsq[d]}*}*].
std::vector<double> nb_partial(const data::Dataset& rows, std::span<const PoolKey> keys,
                               const data::Dataset&, const JobParams&) {
  SAP_REQUIRE(keys.size() == rows.size(), "nb partial: keys/rows size mismatch");
  const auto order = canonical_order(keys);
  std::size_t segments = 0;
  for (std::size_t at = 0; at < order.size(); ++at)
    segments += at == 0 || keys[order[at]].nonce != keys[order[at - 1]].nonce;
  wire::Writer w("nb partial");
  w.count(rows.dims(), "dims", kMaxBlobDims);
  w.count(segments, "segments", kMaxBlobDims);
  std::size_t at = 0;
  while (at < order.size()) {
    const std::uint64_t nonce = keys[order[at]].nonce;
    std::vector<std::size_t> segment;
    while (at < order.size() && keys[order[at]].nonce == nonce) segment.push_back(order[at++]);
    const auto stats = ml::GaussianNaiveBayes::collect_stats(rows.subset(segment));
    w.u64(nonce, "nonce");
    w.count(stats.size(), "classes", kMaxBlobClasses);
    for (const auto& cls : stats) {
      w.label(cls.label, "label");
      w.count(cls.count, "class size", kMaxBlobCount);
      w.block(cls.shift);
      w.block(cls.sum);
      w.block(cls.sumsq);
    }
  }
  return w.take();
}

std::vector<double> nb_merge(const std::vector<std::vector<double>>& partials,
                             const data::Dataset& queries, const JobParams& resolved) {
  SAP_REQUIRE(!partials.empty(), "nb merge: no partials");
  // Decode every (nonce, stats) segment, then refold in canonical nonce
  // order — each nonce lives on exactly one shard, so the segment sequence
  // is a pure function of the pool whatever the layout was.
  std::vector<std::pair<std::uint64_t, std::vector<ml::NbClassStats>>> segments;
  std::size_t dims = 0;
  for (const auto& blob : partials) {
    wire::Reader in(blob, "nb merge");
    const std::size_t d = in.count("dims", kMaxBlobDims);
    const std::size_t nsegs = in.count("segments", kMaxBlobDims);
    if (nsegs > 0) {  // an empty shard's blob carries no dims to reconcile
      SAP_REQUIRE(d > 0 && (dims == 0 || d == dims), "nb merge: inconsistent dims");
      dims = d;
    }
    for (std::size_t s = 0; s < nsegs; ++s) {
      const std::uint64_t nonce = in.u64("nonce");
      std::vector<ml::NbClassStats> stats(in.count("classes", kMaxBlobClasses));
      for (auto& cls : stats) {
        cls.label = in.label("label");
        cls.count = in.count("class size", kMaxBlobCount);
        for (auto* moments : {&cls.shift, &cls.sum, &cls.sumsq}) {
          const auto values = in.block(dims, "moments");
          moments->assign(values.begin(), values.end());
        }
      }
      segments.emplace_back(nonce, std::move(stats));
    }
    in.finish();
  }
  SAP_REQUIRE(!segments.empty(), "nb merge: no rows across shards");
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < segments.size(); ++i)
    SAP_REQUIRE(segments[i].first != segments[i - 1].first,
                "nb merge: duplicate nonce segment across partials");
  std::vector<std::vector<ml::NbClassStats>> ordered;
  ordered.reserve(segments.size());
  for (auto& [nonce, stats] : segments) ordered.push_back(std::move(stats));
  const auto model =
      ml::GaussianNaiveBayes::merge_stats(ordered, dims, param(resolved, "var-smoothing"));
  return {ml::accuracy(model, queries)};
}

// -- knn-train-accuracy: partials carry, per query, the shard's k nearest
//    candidates as (dist², nonce, seq, label); the merge re-selects the
//    global k by the same (distance, canonical index) tie-break Knn uses
//    and replays its majority vote. Blob layout: [k, queries, {cands,
//    {dist, nonce, seq, label}*}*].
std::vector<double> knn_partial(const data::Dataset& rows, std::span<const PoolKey> keys,
                                const data::Dataset& queries, const JobParams& resolved) {
  SAP_REQUIRE(keys.size() == rows.size(), "knn partial: keys/rows size mismatch");
  const auto k = static_cast<std::size_t>(param(resolved, "k"));
  const std::size_t n = rows.size();
  SAP_REQUIRE(n == 0 || queries.size() == 0 || queries.dims() == rows.dims(),
              "knn partial: query dimension mismatch");
  // The kernel's tie-id is each row's rank in canonical PoolKey order, so
  // (distance, rank) order is (distance, key) order — the merge's order.
  const auto order = canonical_order(keys);
  std::vector<std::size_t> rank(n);
  for (std::size_t r = 0; r < n; ++r) rank[order[r]] = r;
  wire::Writer w("knn partial", 2 + queries.size() * (1 + 4 * std::min(k, n)));
  w.count(k, "k", kMaxBlobDims);
  w.count(queries.size(), "queries", kMaxBlobQueries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ml::NearestK best(queries.record(q), std::min(k, n));
    best.scan(rows.features().data().data(), n, rank.data());
    const auto nearest = best.take();
    w.count(nearest.size(), "candidates", k);
    for (const auto& nb : nearest) {
      const std::size_t row = order[nb.index];
      w.finite(nb.distance_sq, "distance");
      w.u64(keys[row].nonce, "nonce");
      w.count(keys[row].seq, "seq", kMaxBlobSeq);
      w.label(rows.label(row), "label");
    }
  }
  return w.take();
}

std::vector<double> knn_merge(const std::vector<std::vector<double>>& partials,
                              const data::Dataset& queries, const JobParams& resolved) {
  SAP_REQUIRE(!partials.empty(), "knn merge: no partials");
  SAP_REQUIRE(queries.size() > 0, "knn merge: empty query prefix");
  const auto k = static_cast<std::size_t>(param(resolved, "k"));
  struct Cand {
    double dist = 0.0;
    PoolKey key;
    int label = 0;
  };
  // Per query, the union of every shard's local candidates.
  std::vector<std::vector<Cand>> merged(queries.size());
  for (const auto& blob : partials) {
    wire::Reader in(blob, "knn merge");
    SAP_REQUIRE(in.count("k", kMaxBlobDims) == k, "knn merge: k mismatch across partials");
    SAP_REQUIRE(in.count("queries", kMaxBlobQueries) == queries.size(),
                "knn merge: query count mismatch");
    for (auto& cands : merged) {
      const std::size_t count = in.count("candidates", k);
      for (std::size_t i = 0; i < count; ++i) {
        Cand c;
        c.dist = in.finite("distance");
        SAP_REQUIRE(c.dist >= 0.0, "knn merge: negative distance");
        c.key.nonce = in.u64("nonce");
        c.key.seq = static_cast<std::uint32_t>(in.count("seq", kMaxBlobSeq));
        c.label = in.label("label");
        cands.push_back(c);
      }
    }
    in.finish();
  }
  std::size_t hits = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto& cands = merged[q];
    SAP_REQUIRE(!cands.empty(), "knn merge: no candidates for a query");
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.key < b.key;
    });
    const std::size_t kk = std::min(k, cands.size());
    // Replay Knn::predict's vote exactly: tallies accumulate in ascending
    // (distance, canonical index) order, majority wins, ties break toward
    // the smaller summed distance.
    std::map<int, std::pair<std::size_t, double>> votes;
    for (std::size_t i = 0; i < kk; ++i) {
      auto& [count, dsum] = votes[cands[i].label];
      ++count;
      dsum += cands[i].dist;
    }
    int best_label = votes.begin()->first;
    std::pair<std::size_t, double> best{0, 0.0};
    for (const auto& [label, tally] : votes) {
      const bool wins = tally.first > best.first ||
                        (tally.first == best.first && tally.second < best.second);
      if (wins) {
        best = tally;
        best_label = label;
      }
    }
    hits += (best_label == queries.label(q));
  }
  return {static_cast<double>(hits) / static_cast<double>(queries.size())};
}

}  // namespace

JobParams JobSpec::resolve_params(const JobParams& request) const {
  JobParams resolved;
  for (const auto& spec : params) resolved[spec.name] = spec.def;
  for (const auto& [name, value] : request) {
    const auto it = std::find_if(params.begin(), params.end(),
                                 [&](const ParamSpec& p) { return p.name == name; });
    SAP_REQUIRE(it != params.end(),
                "JobSpec '" + this->name + "': unknown parameter '" + name + "'");
    SAP_REQUIRE(std::isfinite(value) && value >= it->min_value && value <= it->max_value,
                "JobSpec '" + this->name + "': parameter '" + name + "' out of range");
    resolved[name] = value;
  }
  return resolved;
}

std::string JobSpec::canonical_params(const JobParams& resolved) {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : resolved) {  // std::map: already name-sorted
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += name;
    out += '=';
    out += buf;
    out += ';';
  }
  return out;
}

std::string JobSpec::model_key_params(const JobParams& resolved) const {
  JobParams model_relevant;
  for (const auto& [name, value] : resolved) {
    const auto it = std::find_if(params.begin(), params.end(),
                                 [&](const ParamSpec& p) { return p.name == name; });
    if (it == params.end() || !it->serve_only) model_relevant.emplace(name, value);
  }
  return canonical_params(model_relevant);
}

void JobRegistry::register_job(JobSpec spec) {
  SAP_REQUIRE(!spec.name.empty(), "JobRegistry: empty job name");
  SAP_REQUIRE(static_cast<bool>(spec.run) != spec.trainable(),
              "JobRegistry '" + spec.name +
                  "': exactly one of run or make_model must be set");
  SAP_REQUIRE(!spec.trainable() || static_cast<bool>(spec.serve),
              "JobRegistry '" + spec.name + "': trainable job needs a serve function");
  SAP_REQUIRE(static_cast<bool>(spec.partial) == static_cast<bool>(spec.merge_partials),
              "JobRegistry '" + spec.name +
                  "': partial and merge_partials must be set together");
  for (std::size_t i = 0; i < spec.params.size(); ++i) {
    const auto& p = spec.params[i];
    SAP_REQUIRE(!p.name.empty(), "JobRegistry '" + spec.name + "': empty parameter name");
    SAP_REQUIRE(p.min_value <= p.def && p.def <= p.max_value,
                "JobRegistry '" + spec.name + "': default for '" + p.name +
                    "' outside its declared range");
    for (std::size_t j = i + 1; j < spec.params.size(); ++j)
      SAP_REQUIRE(spec.params[j].name != p.name,
                  "JobRegistry '" + spec.name + "': duplicate parameter '" + p.name + "'");
  }
  specs_[spec.name] = std::move(spec);  // replaces an existing spec
}

bool JobRegistry::contains(const std::string& name) const {
  return specs_.find(name) != specs_.end();
}

const JobSpec& JobRegistry::find(const std::string& name) const {
  const auto it = specs_.find(name);
  SAP_REQUIRE(it != specs_.end(), "JobRegistry: unknown miner job '" + name + "'");
  return it->second;
}

std::vector<std::string> JobRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) out.push_back(name);
  return out;
}

JobRegistry JobRegistry::builtins() {
  JobRegistry reg;

  {
    JobSpec spec;
    spec.name = "record-count";
    spec.summary = "pool size {N}";
    spec.run = [](const data::Dataset& pool, const JobParams&) {
      return std::vector<double>{static_cast<double>(pool.size())};
    };
    spec.partial = count_partial;
    spec.merge_partials = count_merge;
    reg.register_job(std::move(spec));
  }

  {
    JobSpec spec;
    spec.name = "class-histogram";
    spec.summary = "per-class record counts";
    spec.run = [](const data::Dataset& pool, const JobParams&) {
      const auto counts = pool.class_counts();
      std::vector<double> report;
      report.reserve(counts.size());
      for (const auto count : counts) report.push_back(static_cast<double>(count));
      return report;
    };
    spec.partial = hist_partial;
    spec.merge_partials = hist_merge;
    reg.register_job(std::move(spec));
  }

  {
    JobSpec spec;
    spec.name = "knn-train-accuracy";
    spec.summary = "k-NN accuracy on the pool";
    spec.params = {{"k", 5.0, 1.0, 256.0}, kEvalRecords};
    spec.make_model = [](const JobParams& p) -> std::unique_ptr<ml::Classifier> {
      return std::make_unique<ml::Knn>(static_cast<std::size_t>(param(p, "k")));
    };
    spec.serve = serve_accuracy;
    spec.partial = knn_partial;
    spec.merge_partials = knn_merge;
    reg.register_job(std::move(spec));
  }

  {
    JobSpec spec;
    spec.name = "svm-train-accuracy";
    spec.summary = "SMO-trained RBF SVM accuracy on the pool";
    spec.params = {{"c", 4.0, 1e-3, 1e3},
                   {"gamma", 0.0, 0.0, 1e3},  // 0 = scale heuristic
                   kEvalRecords};
    spec.make_model = [](const JobParams& p) -> std::unique_ptr<ml::Classifier> {
      ml::SvmOptions opts;
      opts.c = param(p, "c");
      opts.gamma = param(p, "gamma");
      return std::make_unique<ml::Svm>(opts);
    };
    spec.serve = serve_accuracy;
    // SMO's working-set selection is a global optimization over all rows —
    // no exact merge exists, so a sharded serve gathers the canonical pool.
    reg.register_job(std::move(spec));
  }

  {
    JobSpec spec;
    spec.name = "nb-train-accuracy";
    spec.summary = "Gaussian Naive Bayes accuracy on the pool";
    spec.params = {{"var-smoothing", 1e-9, 0.0, 1.0}, kEvalRecords};
    spec.make_model = [](const JobParams& p) -> std::unique_ptr<ml::Classifier> {
      return std::make_unique<ml::GaussianNaiveBayes>(param(p, "var-smoothing"));
    };
    spec.serve = serve_accuracy;
    spec.partial = nb_partial;
    spec.merge_partials = nb_merge;
    reg.register_job(std::move(spec));
  }

  {
    JobSpec spec;
    spec.name = "perceptron-train-accuracy";
    spec.summary = "averaged perceptron accuracy on the pool";
    spec.params = {{"epochs", 30.0, 1.0, 1e4}, {"learning-rate", 0.5, 1e-6, 10.0},
                   kEvalRecords};
    spec.make_model = [](const JobParams& p) -> std::unique_ptr<ml::Classifier> {
      ml::PerceptronOptions opts;
      opts.epochs = static_cast<std::size_t>(param(p, "epochs"));
      opts.learning_rate = param(p, "learning-rate");
      return std::make_unique<ml::Perceptron>(opts);
    };
    spec.serve = serve_accuracy;
    // Epoch-ordered mistake-driven updates depend on the full record
    // sequence; like the SVM, sharded serves gather rather than merge.
    reg.register_job(std::move(spec));
  }

  return reg;
}

std::string schema_json(const JobRegistry& registry) {
  // Max round-trip precision, plain JSON-number syntax (%.17g may print an
  // exponent, which is still valid JSON). JSON has no inf/nan, so
  // non-finite bounds (register_job accepts e.g. +inf as "no upper bound")
  // serialize as null.
  const auto num = [](double v) -> std::string {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::string s(buf);
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    return s;
  };
  // register_job accepts arbitrary names/summaries, so escape — an
  // unescaped quote in a registered spec must not break the orchestration
  // surface this exists for.
  const auto str = [](const std::string& s) {
    std::string out = "\"";
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
    out.push_back('"');
    return out;
  };
  std::string out = "{\"jobs\": [\n";
  bool first_job = true;
  for (const auto& name : registry.names()) {
    const auto& spec = registry.find(name);
    if (!first_job) out += ",\n";
    first_job = false;
    out += "  {\"name\": " + str(spec.name) + ", \"kind\": \"";
    out += spec.trainable() ? "trainable" : "structural";
    out += "\", \"summary\": " + str(spec.summary) + ", \"params\": [";
    bool first_param = true;
    for (const auto& p : spec.params) {
      if (!first_param) out += ", ";
      first_param = false;
      out += "{\"name\": " + str(p.name) + ", \"default\": " + num(p.def) +
             ", \"min\": " + num(p.min_value) + ", \"max\": " + num(p.max_value) +
             ", \"serve_only\": " + (p.serve_only ? "true" : "false") + "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace sap::proto

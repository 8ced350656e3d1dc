#include "protocol/jobs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "classify/knn.hpp"
#include "classify/naive_bayes.hpp"
#include "classify/nearest.hpp"
#include "classify/perceptron.hpp"
#include "classify/svm.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/wire.hpp"
#include "protocol/pool_shard.hpp"

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

// -- record-count: partials are per-shard counts; the merge is an exact
//    integer sum (record counts are far below 2^53).
std::vector<double> count_partial(const ShardSnapshot& shard, const data::Dataset&,
                                  std::span<const double>, const JobParams&) {
  wire::Writer w("record-count partial", 1);
  w.count(shard.rows.size(), "record count", kMaxBlobCount);
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
std::vector<double> hist_partial(const ShardSnapshot& shard, const data::Dataset&,
                                 std::span<const double>, const JobParams&) {
  const auto labels = shard.rows.classes();
  const auto counts = shard.rows.class_counts();
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
std::vector<double> nb_partial(const ShardSnapshot& shard, const data::Dataset&,
                               std::span<const double>, const JobParams&) {
  // The statistics are the snapshot's: summed once, on its first NB read.
  const auto segments = shard.nonce_stats();
  wire::Writer w("nb partial");
  w.count(shard.rows.dims(), "dims", kMaxBlobDims);
  w.count(segments.size(), "segments", kMaxBlobDims);
  for (const auto& [nonce, stats] : segments) {
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
//    candidates as (dist², nonce, seq, label) in ascending (distance, key)
//    order; the merge takes the global k from those lists with a k-way
//    merge, under the same (distance, canonical index) tie-break Knn uses,
//    and replays its majority vote. Blob layout: [k, queries, {cands,
//    {dist, nonce, seq, label}*}*]. A bounded partial lists only candidates
//    within its query's radius, so a list may be shorter than k.
std::vector<double> knn_partial(const ShardSnapshot& shard, const data::Dataset& queries,
                                std::span<const double> radii, const JobParams& resolved) {
  const auto k = static_cast<std::size_t>(param(resolved, "k"));
  const data::Dataset& rows = shard.rows;
  const std::size_t n = rows.size();
  SAP_REQUIRE(n == 0 || queries.size() == 0 || queries.dims() == rows.dims(),
              "knn partial: query dimension mismatch");
  SAP_REQUIRE(radii.empty() || radii.size() == queries.size(),
              "knn partial: one radius per query");
  // The shard's rows as lane blocks in canonical PoolKey order, so each
  // row's tie-id is its canonical rank and (distance, tie-id) order is
  // (distance, key) order — the merge's.
  const auto order = shard.canonical_order();
  const ml::LaneBlocks& blocks = shard.canonical_blocks();
  wire::Writer w("knn partial", 2 + queries.size() * (1 + 4 * std::min(k, n)));
  w.count(k, "k", kMaxBlobDims);
  w.count(queries.size(), "queries", kMaxBlobQueries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ml::NearestK best(queries.record(q), std::min(k, n),
                      radii.empty() ? std::numeric_limits<double>::infinity() : radii[q]);
    best.scan(blocks, 0);
    const auto nearest = best.sorted();
    w.count(nearest.size(), "candidates", k);
    for (const auto& nb : nearest) {
      const std::size_t row = order[nb.index];
      w.finite(nb.distance_sq, "distance");
      w.u64(shard.keys[row].nonce, "nonce");
      w.count(shard.keys[row].seq, "seq", kMaxBlobSeq);
      w.label(rows.label(row), "label");
    }
  }
  return w.take();
}

/// Merges kNN partials that ran with `radii` (empty: unbounded). A query
/// with fewer than k candidates makes a bounded round short; unbounded, it
/// means a pool smaller than k, whose report is the vote over every row.
BoundedMerge knn_merge(const std::vector<std::vector<double>>& partials,
                       const data::Dataset& queries, std::span<const double> radii,
                       const JobParams& resolved) {
  SAP_REQUIRE(!partials.empty(), "knn merge: no partials");
  SAP_REQUIRE(queries.size() > 0, "knn merge: empty query prefix");
  SAP_REQUIRE(radii.empty() || radii.size() == queries.size(),
              "knn merge: one radius per query");
  const auto k = static_cast<std::size_t>(param(resolved, "k"));
  struct Cand {
    double dist = 0.0;
    PoolKey key;
    int label = 0;
    [[nodiscard]] bool before(const Cand& o) const {
      return dist != o.dist ? dist < o.dist : key < o.key;
    }
  };
  // The partials are read in lockstep, one query's list from each at a
  // time, into one flat buffer of k slots per partial. Each list must be
  // strictly ascending in (distance, key), and a nonce may come from one
  // partial only (each nonce lives on one shard), so no key reaches the
  // merge twice.
  const std::size_t parts = partials.size();
  std::vector<wire::Reader> in;
  in.reserve(parts);
  for (const auto& blob : partials) {
    in.emplace_back(blob, "knn merge");
    SAP_REQUIRE(in.back().count("k", kMaxBlobDims) == k, "knn merge: k mismatch across partials");
    SAP_REQUIRE(in.back().count("queries", kMaxBlobQueries) == queries.size(),
                "knn merge: query count mismatch");
  }
  std::vector<Cand> lists(parts * k);
  std::vector<std::size_t> head(parts);
  std::vector<std::size_t> end(parts);
  // (nonce, partial) for every nonce read so far, by nonce, and each
  // partial's last nonce read; all ones is none yet, since a wire nonce is
  // double-exact and never all ones.
  std::vector<std::pair<std::uint64_t, std::size_t>> owners;
  std::vector<std::uint64_t> last_nonce(parts, ~std::uint64_t{0});
  BoundedMerge out;
  out.radii.reserve(queries.size());
  std::size_t hits = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::size_t total = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t count = in[p].count("candidates", k);
      head[p] = p * k;
      end[p] = p * k + count;
      total += count;
      for (std::size_t at = head[p]; at < end[p]; ++at) {
        Cand& c = lists[at];
        c.dist = in[p].finite("distance");
        SAP_REQUIRE(c.dist >= 0.0, "knn merge: negative distance");
        c.key.nonce = in[p].u64("nonce");
        c.key.seq = static_cast<std::uint32_t>(in[p].count("seq", kMaxBlobSeq));
        c.label = in[p].label("label");
        SAP_REQUIRE(at == head[p] || lists[at - 1].before(c),
                    "knn merge: a candidate list is not in strict (distance, key) order");
        if (c.key.nonce != last_nonce[p]) {
          const auto owner = std::lower_bound(owners.begin(), owners.end(),
                                              std::pair{c.key.nonce, std::size_t{0}});
          if (owner == owners.end() || owner->first != c.key.nonce)
            owners.insert(owner, {c.key.nonce, p});
          else
            SAP_REQUIRE(owner->second == p, "knn merge: a nonce sent by two partials");
          last_nonce[p] = c.key.nonce;
        }
      }
    }
    if (total < k && !radii.empty()) {
      // Rows past a radius may be among this query's k nearest.
      out.short_round = true;
      out.radii.clear();
      return out;
    }
    SAP_REQUIRE(total > 0, "knn merge: no candidates for a query");
    // The k-way merge of the query's lists gives the same first k a sort of
    // their union would. Knn::predict's vote over the k nearest in ascending
    // (distance, canonical index) order.
    const std::size_t kk = std::min(k, total);
    ml::KnnVote vote(kk);
    double last = 0.0;
    for (std::size_t taken = 0; taken < kk; ++taken) {
      std::size_t best = 0;
      while (head[best] == end[best]) ++best;  // kk <= total: some list is left
      for (std::size_t p = best + 1; p < parts; ++p)
        if (head[p] < end[p] && lists[head[p]].before(lists[head[best]])) best = p;
      const Cand& c = lists[head[best]++];
      vote.add(c.label, c.dist);
      last = c.dist;
    }
    if (kk == k) out.radii.push_back(last);
    hits += (vote.winner() == queries.label(q));
  }
  for (const auto& reader : in) reader.finish();
  if (out.radii.size() < queries.size()) out.radii.clear();  // a pool smaller than k
  out.values = {static_cast<double>(hits) / static_cast<double>(queries.size())};
  return out;
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

MergedRound merge_round(const JobSpec& spec, const data::Dataset& queries,
                        const JobParams& resolved, std::span<const double> radii,
                        const ScatterPartials& scatter) {
  MergedRound out;
  const auto scatter_and_merge = [&](std::span<const double> sent) {
    const auto partials = scatter(sent);
    Stopwatch sw;
    BoundedMerge merged;
    if (spec.bounded())
      merged = spec.merge_bounded(partials, queries, sent, resolved);
    else
      merged.values = spec.merge_partials(partials, queries, resolved);
    out.merge_ms += sw.millis();
    return merged;
  };
  out.bounded = spec.bounded() && !radii.empty();
  auto merged = scatter_and_merge(out.bounded ? radii : std::span<const double>{});
  if (merged.short_round) {
    out.bounded = false;
    out.rerun = true;
    merged = scatter_and_merge({});
  }
  out.values = std::move(merged.values);
  out.radii = std::move(merged.radii);
  return out;
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
  SAP_REQUIRE(!spec.bounded() || (spec.mergeable() && spec.partial_reads_queries),
              "JobRegistry '" + spec.name +
                  "': bounded partials need an exact merge whose partial reads its queries");
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
    spec.merge_partials = [](const std::vector<std::vector<double>>& partials,
                             const data::Dataset& queries, const JobParams& resolved) {
      return knn_merge(partials, queries, {}, resolved).values;
    };
    spec.partial_reads_queries = true;
    spec.merge_bounded = knn_merge;
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

#include "protocol/message.hpp"

#include <algorithm>
#include <string_view>

#include "common/error.hpp"
#include "common/wire.hpp"

namespace sap::proto {
namespace {

constexpr std::size_t kMaxWireParams = 64;

}  // namespace

std::string to_string(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kTargetSpace: return "target-space";
    case PayloadKind::kRoutingNotice: return "routing-notice";
    case PayloadKind::kPerturbedData: return "perturbed-data";
    case PayloadKind::kForwardedData: return "forwarded-data";
    case PayloadKind::kSpaceAdaptor: return "space-adaptor";
    case PayloadKind::kAdaptorSequence: return "adaptor-sequence";
    case PayloadKind::kModelReport: return "model-report";
    case PayloadKind::kContribution: return "contribution";
    case PayloadKind::kContributionAck: return "contribution-ack";
    case PayloadKind::kMiningRequest: return "mining-request";
    case PayloadKind::kMiningResponse: return "mining-response";
    case PayloadKind::kServeError: return "serve-error";
    case PayloadKind::kPartialRequest: return "partial-request";
    case PayloadKind::kPartialResponse: return "partial-response";
    case PayloadKind::kPoolSliceRequest: return "pool-slice-request";
    case PayloadKind::kPoolSliceResponse: return "pool-slice-response";
    case PayloadKind::kStatsRequest: return "stats-request";
    case PayloadKind::kStatsResponse: return "stats-response";
    case PayloadKind::kShardSnapshotRequest: return "shard-snapshot-request";
    case PayloadKind::kShardSnapshotResponse: return "shard-snapshot-response";
    case PayloadKind::kServingStarted: return "serving-started";
  }
  return "unknown";
}

std::string to_string(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kBadRequest: return "bad-request";
    case ServeErrorCode::kNotOwner: return "not-owner";
    case ServeErrorCode::kUnavailable: return "unavailable";
    case ServeErrorCode::kUnknownPrefix: return "unknown-prefix";
  }
  return "unknown";
}

EncryptedEnvelope EncryptedEnvelope::from_raw(std::vector<std::uint64_t> cipher,
                                              std::uint64_t checksum) {
  EncryptedEnvelope env;
  env.cipher_ = std::move(cipher);
  env.checksum_ = checksum;
  return env;
}

EncryptedEnvelope::EncryptedEnvelope(std::span<const double> plain, std::uint64_t key)
    : cipher_(plain.size()) {
  checksum_ = seal_words(plain, key, [this](std::size_t i, std::uint64_t word) {
    cipher_[i] = word;
  });
}

std::vector<double> EncryptedEnvelope::open(std::uint64_t key) const {
  std::vector<double> plain(cipher_.size());
  open_words(plain, key, checksum_, [this](std::size_t i) { return cipher_[i]; });
  return plain;
}

std::vector<double> encode_dataset(const linalg::Matrix& features_dxn,
                                   std::span<const int> labels) {
  SAP_REQUIRE(features_dxn.cols() == labels.size(), "encode_dataset: label count mismatch");
  const std::size_t d = features_dxn.rows();
  const std::size_t n = features_dxn.cols();
  wire::Writer w("encode_dataset", 2 + d * n + n);
  w.count(d, "dimension count");
  w.count(n, "record count");
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < d; ++i) w.value(features_dxn(i, j));
  for (const int label : labels) w.label(label, "label");
  return w.take();
}

DecodedDataset decode_dataset(std::span<const double> wire) {
  wire::Reader in(wire, "decode_dataset");
  const std::size_t d = in.count("dimension count");
  const std::size_t n = in.count("record count");
  SAP_REQUIRE(d > 0 && n > 0, "decode_dataset: empty dataset");
  // One NaN/Inf record would poison every later fit on the pool.
  const auto features = in.finite_block(d * n, "feature value");
  DecodedDataset out;
  out.features = linalg::Matrix(d, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < d; ++i) out.features(i, j) = features[j * d + i];
  out.labels.resize(n);
  for (int& label : out.labels) label = in.label("label");
  in.finish();
  return out;
}

std::vector<double> encode_target_space(const linalg::Matrix& r, const linalg::Vector& t) {
  SAP_REQUIRE(r.rows() == r.cols() && r.rows() == t.size(),
              "encode_target_space: shape mismatch");
  wire::Writer w("encode_target_space", 1 + r.size() + t.size());
  w.count(r.rows(), "dimension count");
  w.block(r.data());
  w.block(t);
  return w.take();
}

DecodedTargetSpace decode_target_space(std::span<const double> wire) {
  wire::Reader in(wire, "decode_target_space");
  const std::size_t d = in.count("dimension count");
  SAP_REQUIRE(d > 0, "decode_target_space: empty target space");
  const auto r = in.block(d * d, "rotation");
  const auto t = in.block(d, "translation");
  in.finish();
  DecodedTargetSpace out;
  out.r = linalg::Matrix(d, d);
  std::copy(r.begin(), r.end(), out.r.data().begin());
  out.t.assign(t.begin(), t.end());
  return out;
}

std::vector<double> encode_contribution(std::uint64_t nonce,
                                        const linalg::Matrix& features_dxm,
                                        std::span<const int> labels) {
  const auto body = encode_dataset(features_dxm, labels);
  wire::Writer w("encode_contribution", 1 + body.size());
  w.u64(nonce, "nonce");
  w.block(body);
  return w.take();
}

DecodedContribution decode_contribution(std::span<const double> wire) {
  wire::Reader in(wire, "decode_contribution");
  DecodedContribution out;
  out.nonce = in.u64("nonce");
  out.data = decode_dataset(in.rest());
  return out;
}

std::vector<double> encode_routing(PartyId receiver, std::uint32_t inbound) {
  wire::Writer w("encode_routing", 2);
  w.count(receiver, "party id");
  w.count(inbound, "inbound count");
  return w.take();
}

RoutingNotice decode_routing(std::span<const double> wire) {
  wire::Reader in(wire, "decode_routing");
  RoutingNotice notice;
  notice.receiver = static_cast<PartyId>(in.count("party id"));
  notice.inbound = static_cast<std::uint32_t>(in.count("inbound count"));
  in.finish();
  return notice;
}

std::vector<double> encode_mining_request(const std::string& job,
                                          const std::map<std::string, double>& params) {
  wire::Writer w("encode_mining_request");
  w.text(job, "job name");
  w.count(params.size(), "param count", kMaxWireParams);
  for (const auto& [key, value] : params) {
    w.text(key, "param name");
    w.finite(value, "param value");
  }
  return w.take();
}

DecodedMiningRequest decode_mining_request(std::span<const double> wire) {
  wire::Reader in(wire, "decode_mining_request");
  DecodedMiningRequest out;
  out.job = in.text("job name");
  const std::size_t count = in.count("param count", kMaxWireParams);
  for (std::size_t i = 0; i < count; ++i) {
    std::string key = in.text("param name");
    const double value = in.finite("param value");
    SAP_REQUIRE(out.params.emplace(std::move(key), value).second,
                "decode_mining_request: duplicate param");
  }
  in.finish();
  return out;
}

std::vector<double> encode_mining_response(const WireMiningResponse& response) {
  wire::Writer w("encode_mining_response", 4 + response.values.size());
  w.count(response.pool_epoch, "pool epoch");
  w.flag(response.model_cached);
  w.flag(response.model_incremental);
  w.count(response.values.size(), "value count");
  w.block(response.values);
  return w.take();
}

WireMiningResponse decode_mining_response(std::span<const double> wire) {
  wire::Reader in(wire, "decode_mining_response");
  WireMiningResponse out;
  out.pool_epoch = in.count("pool epoch");
  out.model_cached = in.flag("cached flag");
  out.model_incremental = in.flag("incremental flag");
  const std::size_t count = in.count("value count");
  const auto values = in.block(count, "values");
  out.values.assign(values.begin(), values.end());
  in.finish();
  return out;
}

std::vector<double> encode_receipt(std::uint64_t pool_epoch, std::size_t pool_records) {
  wire::Writer w("encode_receipt", 2);
  w.count(pool_epoch, "pool epoch");
  w.count(pool_records, "record count");
  return w.take();
}

DecodedReceipt decode_receipt(std::span<const double> wire) {
  wire::Reader in(wire, "decode_receipt");
  DecodedReceipt out;
  out.pool_epoch = in.count("pool epoch");
  out.pool_records = in.count("record count");
  in.finish();
  return out;
}

std::vector<double> encode_serve_error(ServeErrorCode code, const std::string& message) {
  // Error texts come from exception messages, which may exceed the wire
  // string cap or carry odd bytes — clamp instead of refusing to report.
  std::string clipped = message.empty() ? std::string("(no message)") : message;
  if (clipped.size() > wire::kMaxText) clipped.resize(wire::kMaxText);
  for (auto& c : clipped)
    if (c < 32 || c > 126) c = '?';
  wire::Writer w("encode_serve_error", 2 + clipped.size());
  w.count(static_cast<std::size_t>(code), "error code");
  w.text(clipped, "error message");
  return w.take();
}

DecodedServeError decode_serve_error(std::span<const double> wire) {
  wire::Reader in(wire, "decode_serve_error");
  const std::size_t code =
      in.count("error code", static_cast<std::size_t>(ServeErrorCode::kUnknownPrefix));
  SAP_REQUIRE(code >= 1, "decode_serve_error: unknown error code");
  DecodedServeError out;
  out.code = static_cast<ServeErrorCode>(code);
  out.message = in.text("error message");
  in.finish();
  return out;
}

namespace {

/// [d, m, features row-major m x d, labels...]; m == 0 (with d 0) is an
/// empty block.
void write_rows(wire::Writer& w, const data::Dataset& rows) {
  w.count(rows.size() == 0 ? 0 : rows.dims(), "dimension count");
  w.count(rows.size(), "record count");
  w.block(rows.features().data());
  for (const int label : rows.labels()) w.label(label, "label");
}

data::Dataset read_rows(wire::Reader& in, const char* what) {
  const std::size_t d = in.count("dimension count");
  const std::size_t m = in.count("record count");
  SAP_REQUIRE(m == 0 ? d == 0 : d > 0, std::string("decode: malformed ") + what);
  if (m == 0) return {};
  // Queries feed the kNN kernel, whose total order needs finite distances,
  // and snapshot rows go straight into a live shard.
  const auto values = in.finite_block(m * d, "feature value");
  linalg::Matrix features(m, d);
  std::copy(values.begin(), values.end(), features.data().begin());
  std::vector<int> labels(m);
  for (int& label : labels) label = in.label("label");
  return data::Dataset("wire", std::move(features), std::move(labels));
}

}  // namespace

std::vector<double> encode_partial_request(std::size_t shard, const std::string& job,
                                           const std::map<std::string, double>& params,
                                           const data::Dataset& queries,
                                           std::span<const double> radii,
                                           std::uint64_t prefix) {
  const auto request = encode_mining_request(job, params);
  wire::Writer w("encode_partial_request", 6 + request.size() + radii.size() +
                                               queries.features().size() + queries.size());
  w.count(shard, "shard id");
  w.count(request.size(), "request length");
  w.block(request);
  w.count(radii.size(), "radius count");
  w.block(radii);
  w.u64(prefix, "prefix");
  write_rows(w, queries);
  return w.take();
}

DecodedPartialRequest decode_partial_request(std::span<const double> wire) {
  wire::Reader in(wire, "decode_partial_request");
  DecodedPartialRequest out;
  out.shard = in.count("shard id");
  const std::size_t request_length = in.count("request length");
  auto request = decode_mining_request(in.block(request_length, "mining request"));
  out.job = std::move(request.job);
  out.params = std::move(request.params);
  const std::size_t radius_count = in.count("radius count");
  const auto radii = in.block(radius_count, "radii");
  out.radii.assign(radii.begin(), radii.end());
  out.prefix = in.u64("prefix");
  out.queries = read_rows(in, "query block");
  in.finish();
  return out;
}

std::vector<double> encode_partial_response(std::uint64_t shard_epoch,
                                            std::span<const double> blob,
                                            std::uint64_t kept) {
  wire::Writer w("encode_partial_response", 3 + blob.size());
  w.count(shard_epoch, "shard epoch");
  w.count(blob.size(), "blob length");
  w.block(blob);
  w.u64(kept, "kept prefix");
  return w.take();
}

DecodedPartialResponse decode_partial_response(std::span<const double> wire) {
  wire::Reader in(wire, "decode_partial_response");
  DecodedPartialResponse out;
  out.shard_epoch = in.count("shard epoch");
  const std::size_t count = in.count("blob length");
  const auto blob = in.block(count, "blob");
  out.blob.assign(blob.begin(), blob.end());
  out.kept = in.u64("kept prefix");
  SAP_REQUIRE(out.kept == 0 || out.kept >= kFirstPrefixHandle,
              "decode_partial_response: malformed kept prefix");
  in.finish();
  return out;
}

std::vector<double> encode_pool_slice_request(std::size_t shard, std::size_t max_records) {
  wire::Writer w("encode_pool_slice_request", 2);
  w.count(shard, "shard id");
  w.count(max_records, "max records");
  return w.take();
}

DecodedPoolSliceRequest decode_pool_slice_request(std::span<const double> wire) {
  wire::Reader in(wire, "decode_pool_slice_request");
  DecodedPoolSliceRequest out;
  out.shard = in.count("shard id");
  out.max_records = in.count("max records");
  in.finish();
  return out;
}

std::vector<double> encode_shard_snapshot_request(std::size_t shard) {
  wire::Writer w("encode_shard_snapshot_request", 1);
  w.count(shard, "shard id");
  return w.take();
}

std::size_t decode_shard_snapshot_request(std::span<const double> wire) {
  wire::Reader in(wire, "decode_shard_snapshot_request");
  const std::size_t shard = in.count("shard id");
  in.finish();
  return shard;
}

std::vector<double> encode_pool_slice(std::uint64_t shard_epoch, const data::Dataset& rows,
                                      std::span<const PoolKey> keys) {
  SAP_REQUIRE(rows.size() == keys.size(), "encode_pool_slice: rows/keys size mismatch");
  wire::Writer w("encode_pool_slice", 3 + rows.features().size() + 3 * rows.size());
  w.count(shard_epoch, "shard epoch");
  write_rows(w, rows);
  for (const auto& key : keys) {
    w.u64(key.nonce, "slice nonce");
    w.count(key.seq, "slice seq");
  }
  return w.take();
}

DecodedPoolSlice decode_pool_slice(std::span<const double> wire) {
  wire::Reader in(wire, "decode_pool_slice");
  DecodedPoolSlice out;
  out.shard_epoch = in.count("shard epoch");
  out.rows = read_rows(in, "slice rows");
  out.keys.resize(out.rows.size());
  for (auto& key : out.keys) {
    key.nonce = in.u64("slice nonce");
    key.seq = static_cast<std::uint32_t>(in.count("slice seq"));
  }
  in.finish();
  return out;
}

// ---- stats door (PR 9) ---------------------------------------------------

namespace {

constexpr double kStatsWireVersion = 1.0;
/// Caps on collection counts — a stats payload is operator traffic, but it
/// still crosses the adversarial wire boundary like everything else.
constexpr std::size_t kMaxStatsEntries = 4096;
constexpr std::size_t kMaxBucketIndex = obs::Histogram::kBucketCount - 1;
/// A trace id uses the full 64 bits (16-bit door salt in the top bits), so
/// it rides as two 32-bit halves, each trivially double-exact.
constexpr std::size_t kMaxTraceIdHalf = 0xFFFFFFFF;

}  // namespace

std::vector<double> encode_stats_request() { return {kStatsWireVersion}; }

void decode_stats_request(std::span<const double> wire) {
  wire::Reader in(wire, "decode_stats_request");
  SAP_REQUIRE(in.value("version") == kStatsWireVersion,
              "decode_stats_request: unsupported stats version");
  in.finish();
}

std::vector<double> encode_stats_response(const obs::Snapshot& snapshot,
                                          std::span<const obs::TraceRecord> traces) {
  wire::Writer w("encode_stats_response");
  w.value(kStatsWireVersion);
  w.count(snapshot.counters.size(), "counter section", kMaxStatsEntries);
  for (const auto& [name, value] : snapshot.counters) {
    w.text(name, "counter name");
    w.u64(value, "counter value");
  }
  w.count(snapshot.gauges.size(), "gauge section", kMaxStatsEntries);
  for (const auto& [name, value] : snapshot.gauges) {
    w.text(name, "gauge name");
    w.finite(value, "gauge value");
  }
  w.count(snapshot.histograms.size(), "histogram section", kMaxStatsEntries);
  for (const auto& [name, hist] : snapshot.histograms) {
    w.text(name, "histogram name");
    w.u64(hist.count, "histogram count");
    w.finite(hist.sum, "histogram sum");
    w.finite(hist.max, "histogram max");
    w.count(hist.buckets.size(), "bucket count", obs::Histogram::kBucketCount);
    for (const auto& [index, n] : hist.buckets) {
      w.count(index, "bucket index", kMaxBucketIndex);
      w.u64(n, "bucket count");
    }
  }
  w.count(traces.size(), "trace section", kMaxStatsEntries);
  for (const auto& trace : traces) {
    w.count(trace.id >> 32, "trace id hi", kMaxTraceIdHalf);
    w.count(trace.id & kMaxTraceIdHalf, "trace id lo", kMaxTraceIdHalf);
    w.text(trace.op.empty() ? std::string_view("?") : std::string_view(trace.op), "trace op");
    for (const double ms : trace.stage_ms) w.finite(ms, "trace stage ms");
  }
  return w.take();
}

DecodedStats decode_stats_response(std::span<const double> wire) {
  wire::Reader in(wire, "decode_stats_response");
  SAP_REQUIRE(in.value("version") == kStatsWireVersion,
              "decode_stats_response: unsupported stats version");
  DecodedStats out;
  auto& snap = out.snapshot;

  snap.counters.resize(in.count("counter section", kMaxStatsEntries));
  for (auto& [name, value] : snap.counters) {
    name = in.text("counter name");
    value = in.u64("counter value");
  }

  snap.gauges.resize(in.count("gauge section", kMaxStatsEntries));
  for (auto& [name, value] : snap.gauges) {
    name = in.text("gauge name");
    value = in.finite("gauge value");
  }

  snap.histograms.resize(in.count("histogram section", kMaxStatsEntries));
  for (auto& [name, hist] : snap.histograms) {
    name = in.text("histogram name");
    hist.count = in.u64("histogram count");
    hist.sum = in.finite("histogram sum");
    hist.max = in.finite("histogram max");
    hist.buckets.resize(in.count("bucket count", obs::Histogram::kBucketCount));
    std::uint64_t bucket_total = 0;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      auto& [index, n] = hist.buckets[b];
      index = static_cast<std::uint32_t>(in.count("bucket index", kMaxBucketIndex));
      SAP_REQUIRE(b == 0 || index > hist.buckets[b - 1].first,
                  "decode_stats_response: bucket indices not ascending");
      n = in.u64("bucket count");
      bucket_total += n;
    }
    SAP_REQUIRE(bucket_total == hist.count,
                "decode_stats_response: bucket counts disagree with total");
  }

  out.traces.resize(in.count("trace section", kMaxStatsEntries));
  for (auto& trace : out.traces) {
    const std::uint64_t hi = in.count("trace id hi", kMaxTraceIdHalf);
    trace.id = (hi << 32) | in.count("trace id lo", kMaxTraceIdHalf);
    trace.op = in.text("trace op");
    for (double& ms : trace.stage_ms) ms = in.finite("trace stage ms");
  }
  in.finish();
  return out;
}

}  // namespace sap::proto

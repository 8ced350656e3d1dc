#include "protocol/message.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "rng/rng.hpp"

namespace sap::proto {
namespace {

/// Validate-and-cast a wire double that must encode a small non-negative
/// integer (dimension, record count, label, party id). Rejects non-finite,
/// non-integral, negative, or absurdly large values — wire payloads are
/// adversarial input until proven otherwise.
std::size_t checked_count(double v, const char* what) {
  SAP_REQUIRE(std::isfinite(v) && v >= 0.0 && v < 1e9 && v == std::floor(v),
              std::string("decode: malformed ") + what);
  return static_cast<std::size_t>(v);
}

int checked_label(double v) {
  SAP_REQUIRE(std::isfinite(v) && std::abs(v) < 2e9 && v == std::floor(v),
              "decode: malformed label");
  return static_cast<int>(v);
}

constexpr std::size_t kMaxWireString = 128;
constexpr std::size_t kMaxWireParams = 64;

void encode_string(std::vector<double>& wire, const std::string& text, const char* what) {
  SAP_REQUIRE(!text.empty() && text.size() <= kMaxWireString,
              std::string("encode: bad length for ") + what);
  for (const char c : text)
    SAP_REQUIRE(c >= 32 && c <= 126, std::string("encode: non-printable char in ") + what);
  wire.push_back(static_cast<double>(text.size()));
  for (const char c : text) wire.push_back(static_cast<double>(c));
}

/// Decode a length-prefixed printable-ASCII string starting at wire[pos];
/// advances pos past it. Throws on truncation or hostile code points.
std::string decode_string(std::span<const double> wire, std::size_t& pos, const char* what) {
  SAP_REQUIRE(pos < wire.size(), std::string("decode: truncated ") + what);
  const std::size_t len = checked_count(wire[pos], what);
  SAP_REQUIRE(len >= 1 && len <= kMaxWireString && pos + 1 + len <= wire.size(),
              std::string("decode: malformed ") + what);
  ++pos;
  std::string text;
  text.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const double v = wire[pos++];
    SAP_REQUIRE(v == std::floor(v) && v >= 32.0 && v <= 126.0,
                std::string("decode: hostile char in ") + what);
    text.push_back(static_cast<char>(v));
  }
  return text;
}

}  // namespace

/// 2^53: every integer below it is exactly representable as a double.
constexpr std::uint64_t kDoubleExactLimit = 1ULL << 53;

void require_double_exact(std::uint64_t v, const char* what) {
  SAP_REQUIRE(v < kDoubleExactLimit, std::string("encode: not double-exact: ") + what);
}

std::uint64_t checked_u64(double v, const char* what) {
  // The cast below is UB for non-finite or >= 2^64 values, and wire
  // payloads are adversarial input until proven otherwise.
  SAP_REQUIRE(std::isfinite(v) && v >= 0.0 && v < static_cast<double>(kDoubleExactLimit) &&
                  v == std::floor(v),
              std::string("decode: malformed ") + what);
  return static_cast<std::uint64_t>(v);
}

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

EncryptedEnvelope::EncryptedEnvelope(std::span<const double> plain, std::uint64_t key) {
  rng::Engine keystream(key);
  cipher_.resize(plain.size());
  checksum_ = 0xC0FFEE ^ key;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const auto word = std::bit_cast<std::uint64_t>(plain[i]);
    checksum_ = checksum_ * 1099511628211ULL ^ word;
    cipher_[i] = word ^ keystream();
  }
}

std::vector<double> EncryptedEnvelope::open(std::uint64_t key) const {
  rng::Engine keystream(key);
  std::vector<double> plain(cipher_.size());
  std::uint64_t check = 0xC0FFEE ^ key;
  for (std::size_t i = 0; i < cipher_.size(); ++i) {
    const std::uint64_t word = cipher_[i] ^ keystream();
    check = check * 1099511628211ULL ^ word;
    plain[i] = std::bit_cast<double>(word);
  }
  SAP_REQUIRE(check == checksum_, "EncryptedEnvelope::open: checksum mismatch (wrong key?)");
  return plain;
}

std::vector<double> encode_dataset(const linalg::Matrix& features_dxn,
                                   std::span<const int> labels) {
  SAP_REQUIRE(features_dxn.cols() == labels.size(), "encode_dataset: label count mismatch");
  std::vector<double> wire;
  const std::size_t d = features_dxn.rows();
  const std::size_t n = features_dxn.cols();
  wire.reserve(2 + d * n + n);
  wire.push_back(static_cast<double>(d));
  wire.push_back(static_cast<double>(n));
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < d; ++i) wire.push_back(features_dxn(i, j));
  for (int label : labels) wire.push_back(static_cast<double>(label));
  return wire;
}

DecodedDataset decode_dataset(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() >= 2, "decode_dataset: truncated payload");
  const std::size_t d = checked_count(wire[0], "dimension count");
  const std::size_t n = checked_count(wire[1], "record count");
  SAP_REQUIRE(d > 0 && n > 0 && wire.size() == 2 + d * n + n,
              "decode_dataset: malformed payload");
  DecodedDataset out;
  out.features = linalg::Matrix(d, n);
  std::size_t pos = 2;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < d; ++i) {
      // One NaN/Inf record would poison every later fit on the pool.
      SAP_REQUIRE(std::isfinite(wire[pos]), "decode_dataset: non-finite feature value");
      out.features(i, j) = wire[pos++];
    }
  }
  out.labels.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.labels[j] = checked_label(wire[pos++]);
  return out;
}

std::vector<double> encode_target_space(const linalg::Matrix& r, const linalg::Vector& t) {
  SAP_REQUIRE(r.rows() == r.cols() && r.rows() == t.size(),
              "encode_target_space: shape mismatch");
  std::vector<double> wire;
  wire.reserve(1 + r.size() + t.size());
  wire.push_back(static_cast<double>(r.rows()));
  wire.insert(wire.end(), r.data().begin(), r.data().end());
  wire.insert(wire.end(), t.begin(), t.end());
  return wire;
}

DecodedTargetSpace decode_target_space(std::span<const double> wire) {
  SAP_REQUIRE(!wire.empty(), "decode_target_space: empty payload");
  const std::size_t d = checked_count(wire[0], "dimension count");
  SAP_REQUIRE(d > 0 && wire.size() == 1 + d * d + d, "decode_target_space: malformed payload");
  DecodedTargetSpace out;
  out.r = linalg::Matrix(d, d);
  for (std::size_t i = 0; i < d * d; ++i) out.r.data()[i] = wire[1 + i];
  out.t.assign(wire.begin() + static_cast<std::ptrdiff_t>(1 + d * d), wire.end());
  return out;
}

std::vector<double> encode_contribution(std::uint64_t nonce,
                                        const linalg::Matrix& features_dxm,
                                        std::span<const int> labels) {
  // Nonces are 32-bit by construction (session.cpp), hence exactly
  // representable as doubles; reject anything that would round on the wire.
  require_double_exact(nonce, "contribution nonce");
  std::vector<double> wire;
  wire.push_back(static_cast<double>(nonce));
  const auto body = encode_dataset(features_dxm, labels);
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

DecodedContribution decode_contribution(std::span<const double> wire) {
  SAP_REQUIRE(!wire.empty(), "decode_contribution: empty payload");
  DecodedContribution out;
  out.nonce = checked_u64(wire[0], "contribution nonce");
  out.data = decode_dataset(wire.subspan(1));
  return out;
}

std::vector<double> encode_routing(PartyId receiver, std::uint32_t inbound) {
  return {static_cast<double>(receiver), static_cast<double>(inbound)};
}

RoutingNotice decode_routing(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() == 2, "decode_routing: malformed payload");
  RoutingNotice notice;
  notice.receiver = static_cast<PartyId>(checked_count(wire[0], "party id"));
  notice.inbound = static_cast<std::uint32_t>(checked_count(wire[1], "inbound count"));
  return notice;
}

std::vector<double> encode_mining_request(const std::string& job,
                                          const std::map<std::string, double>& params) {
  SAP_REQUIRE(params.size() <= kMaxWireParams, "encode_mining_request: too many params");
  std::vector<double> wire;
  encode_string(wire, job, "job name");
  wire.push_back(static_cast<double>(params.size()));
  for (const auto& [key, value] : params) {
    encode_string(wire, key, "param name");
    SAP_REQUIRE(std::isfinite(value), "encode_mining_request: non-finite param value");
    wire.push_back(value);
  }
  return wire;
}

DecodedMiningRequest decode_mining_request(std::span<const double> wire) {
  DecodedMiningRequest out;
  std::size_t pos = 0;
  out.job = decode_string(wire, pos, "job name");
  SAP_REQUIRE(pos < wire.size(), "decode_mining_request: truncated payload");
  const std::size_t count = checked_count(wire[pos++], "param count");
  SAP_REQUIRE(count <= kMaxWireParams, "decode_mining_request: too many params");
  for (std::size_t i = 0; i < count; ++i) {
    std::string key = decode_string(wire, pos, "param name");
    SAP_REQUIRE(pos < wire.size(), "decode_mining_request: truncated payload");
    const double value = wire[pos++];
    SAP_REQUIRE(std::isfinite(value), "decode_mining_request: non-finite param value");
    SAP_REQUIRE(out.params.emplace(std::move(key), value).second,
                "decode_mining_request: duplicate param");
  }
  SAP_REQUIRE(pos == wire.size(), "decode_mining_request: trailing garbage");
  return out;
}

std::vector<double> encode_mining_response(const WireMiningResponse& response) {
  // Mirror the decoder's checked_count bound (< 1e9) — an encoder that
  // accepts what every well-behaved peer rejects is a wire-contract bug.
  SAP_REQUIRE(response.pool_epoch < 1000000000ULL,
              "encode_mining_response: epoch out of wire range");
  std::vector<double> wire;
  wire.reserve(4 + response.values.size());
  wire.push_back(static_cast<double>(response.pool_epoch));
  wire.push_back(response.model_cached ? 1.0 : 0.0);
  wire.push_back(response.model_incremental ? 1.0 : 0.0);
  wire.push_back(static_cast<double>(response.values.size()));
  wire.insert(wire.end(), response.values.begin(), response.values.end());
  return wire;
}

WireMiningResponse decode_mining_response(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() >= 4, "decode_mining_response: truncated payload");
  WireMiningResponse out;
  out.pool_epoch = static_cast<std::uint64_t>(checked_count(wire[0], "pool epoch"));
  SAP_REQUIRE(wire[1] == 0.0 || wire[1] == 1.0, "decode_mining_response: malformed flag");
  SAP_REQUIRE(wire[2] == 0.0 || wire[2] == 1.0, "decode_mining_response: malformed flag");
  out.model_cached = wire[1] == 1.0;
  out.model_incremental = wire[2] == 1.0;
  const std::size_t count = checked_count(wire[3], "value count");
  SAP_REQUIRE(wire.size() == 4 + count, "decode_mining_response: malformed payload");
  out.values.assign(wire.begin() + 4, wire.end());
  return out;
}

std::vector<double> encode_receipt(std::uint64_t pool_epoch, std::size_t pool_records) {
  // Mirror the decoder's checked_count bound (< 1e9), as above.
  SAP_REQUIRE(pool_epoch < 1000000000ULL, "encode_receipt: epoch out of wire range");
  SAP_REQUIRE(pool_records < 1000000000ULL, "encode_receipt: record count out of wire range");
  return {static_cast<double>(pool_epoch), static_cast<double>(pool_records)};
}

DecodedReceipt decode_receipt(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() == 2, "decode_receipt: malformed payload");
  DecodedReceipt out;
  out.pool_epoch = static_cast<std::uint64_t>(checked_count(wire[0], "pool epoch"));
  out.pool_records = checked_count(wire[1], "record count");
  return out;
}

std::vector<double> encode_serve_error(ServeErrorCode code, const std::string& message) {
  std::vector<double> wire{static_cast<double>(static_cast<std::uint8_t>(code))};
  // Error texts come from exception messages, which may exceed the wire
  // string cap or carry odd bytes — clamp instead of refusing to report.
  std::string clipped = message.empty() ? std::string("(no message)") : message;
  if (clipped.size() > kMaxWireString) clipped.resize(kMaxWireString);
  for (auto& c : clipped)
    if (c < 32 || c > 126) c = '?';
  encode_string(wire, clipped, "error message");
  return wire;
}

DecodedServeError decode_serve_error(std::span<const double> wire) {
  SAP_REQUIRE(!wire.empty(), "decode_serve_error: empty payload");
  const auto code = checked_count(wire[0], "error code");
  SAP_REQUIRE(code >= 1 && code <= 3, "decode_serve_error: unknown error code");
  DecodedServeError out;
  out.code = static_cast<ServeErrorCode>(code);
  std::size_t pos = 1;
  out.message = decode_string(wire, pos, "error message");
  SAP_REQUIRE(pos == wire.size(), "decode_serve_error: trailing garbage");
  return out;
}

namespace {

/// [qd, qm, features col-major, labels] with qm == 0 allowed (no queries).
void encode_query_block(std::vector<double>& wire, const data::Dataset& queries) {
  const std::size_t d = queries.size() == 0 ? 0 : queries.dims();
  const std::size_t m = queries.size();
  wire.push_back(static_cast<double>(d));
  wire.push_back(static_cast<double>(m));
  for (std::size_t j = 0; j < m; ++j) {
    const auto rec = queries.record(j);
    wire.insert(wire.end(), rec.begin(), rec.end());
  }
  for (std::size_t j = 0; j < m; ++j)
    wire.push_back(static_cast<double>(queries.label(j)));
}

data::Dataset decode_query_block(std::span<const double> wire, std::size_t& pos,
                                 const char* what) {
  SAP_REQUIRE(pos + 2 <= wire.size(), std::string("decode: truncated ") + what);
  const std::size_t d = checked_count(wire[pos++], "dimension count");
  const std::size_t m = checked_count(wire[pos++], "record count");
  if (m == 0) {
    SAP_REQUIRE(d == 0, std::string("decode: malformed ") + what);
    return {};
  }
  SAP_REQUIRE(d > 0 && pos + m * d + m <= wire.size(),
              std::string("decode: malformed ") + what);
  linalg::Matrix features(m, d, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    auto row = features.row(j);
    for (std::size_t i = 0; i < d; ++i) {
      // Queries feed the kNN kernel, whose total order needs finite
      // distances, and snapshot rows go straight into a live shard.
      SAP_REQUIRE(std::isfinite(wire[pos]),
                  std::string("decode: non-finite feature value in ") + what);
      row[i] = wire[pos++];
    }
  }
  std::vector<int> labels(m);
  for (std::size_t j = 0; j < m; ++j) labels[j] = checked_label(wire[pos++]);
  return data::Dataset("wire", std::move(features), std::move(labels));
}

}  // namespace

std::vector<double> encode_partial_request(std::size_t shard, const std::string& job,
                                           const std::map<std::string, double>& params,
                                           const data::Dataset& queries) {
  SAP_REQUIRE(shard < 1000000000ULL, "encode_partial_request: shard out of wire range");
  std::vector<double> wire{static_cast<double>(shard)};
  const auto request = encode_mining_request(job, params);
  wire.push_back(static_cast<double>(request.size()));
  wire.insert(wire.end(), request.begin(), request.end());
  encode_query_block(wire, queries);
  return wire;
}

DecodedPartialRequest decode_partial_request(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() >= 2, "decode_partial_request: truncated payload");
  DecodedPartialRequest out;
  out.shard = checked_count(wire[0], "shard id");
  const std::size_t req_len = checked_count(wire[1], "request length");
  SAP_REQUIRE(2 + req_len <= wire.size(), "decode_partial_request: malformed payload");
  const auto request = decode_mining_request(wire.subspan(2, req_len));
  out.job = request.job;
  out.params = request.params;
  std::size_t pos = 2 + req_len;
  out.queries = decode_query_block(wire, pos, "query block");
  SAP_REQUIRE(pos == wire.size(), "decode_partial_request: trailing garbage");
  return out;
}

std::vector<double> encode_partial_response(std::uint64_t shard_epoch,
                                            std::span<const double> blob) {
  SAP_REQUIRE(shard_epoch < 1000000000ULL,
              "encode_partial_response: epoch out of wire range");
  std::vector<double> wire;
  wire.reserve(2 + blob.size());
  wire.push_back(static_cast<double>(shard_epoch));
  wire.push_back(static_cast<double>(blob.size()));
  wire.insert(wire.end(), blob.begin(), blob.end());
  return wire;
}

DecodedPartialResponse decode_partial_response(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() >= 2, "decode_partial_response: truncated payload");
  DecodedPartialResponse out;
  out.shard_epoch = static_cast<std::uint64_t>(checked_count(wire[0], "shard epoch"));
  const std::size_t count = checked_count(wire[1], "blob length");
  SAP_REQUIRE(wire.size() == 2 + count, "decode_partial_response: malformed payload");
  out.blob.assign(wire.begin() + 2, wire.end());
  return out;
}

std::vector<double> encode_pool_slice_request(std::size_t shard, std::size_t max_records) {
  SAP_REQUIRE(shard < 1000000000ULL, "encode_pool_slice_request: shard out of wire range");
  SAP_REQUIRE(max_records < 1000000000ULL,
              "encode_pool_slice_request: max_records out of wire range");
  return {static_cast<double>(shard), static_cast<double>(max_records)};
}

DecodedPoolSliceRequest decode_pool_slice_request(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() == 2, "decode_pool_slice_request: malformed payload");
  DecodedPoolSliceRequest out;
  out.shard = checked_count(wire[0], "shard id");
  out.max_records = checked_count(wire[1], "max records");
  return out;
}

std::vector<double> encode_shard_snapshot_request(std::size_t shard) {
  SAP_REQUIRE(shard < 1000000000ULL, "encode_shard_snapshot_request: shard out of wire range");
  return {static_cast<double>(shard)};
}

std::size_t decode_shard_snapshot_request(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() == 1, "decode_shard_snapshot_request: malformed payload");
  return checked_count(wire[0], "shard id");
}

std::vector<double> encode_pool_slice(std::uint64_t shard_epoch, const data::Dataset& rows,
                                      std::span<const PoolKey> keys) {
  SAP_REQUIRE(shard_epoch < 1000000000ULL, "encode_pool_slice: epoch out of wire range");
  SAP_REQUIRE(rows.size() == keys.size(), "encode_pool_slice: rows/keys size mismatch");
  std::vector<double> wire{static_cast<double>(shard_epoch)};
  for (const auto& key : keys) {
    require_double_exact(key.nonce, "slice nonce");
    SAP_REQUIRE(key.seq < 1000000000U, "encode_pool_slice: seq out of wire range");
  }
  encode_query_block(wire, rows);
  for (const auto& key : keys) {
    wire.push_back(static_cast<double>(key.nonce));
    wire.push_back(static_cast<double>(key.seq));
  }
  return wire;
}

DecodedPoolSlice decode_pool_slice(std::span<const double> wire) {
  SAP_REQUIRE(!wire.empty(), "decode_pool_slice: truncated payload");
  DecodedPoolSlice out;
  out.shard_epoch = static_cast<std::uint64_t>(checked_count(wire[0], "shard epoch"));
  std::size_t pos = 1;
  out.rows = decode_query_block(wire, pos, "slice rows");
  SAP_REQUIRE(wire.size() == pos + 2 * out.rows.size(),
              "decode_pool_slice: malformed payload");
  out.keys.reserve(out.rows.size());
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    const std::uint64_t nonce = checked_u64(wire[pos++], "slice nonce");
    const auto seq = checked_count(wire[pos++], "slice seq");
    out.keys.push_back({nonce, static_cast<std::uint32_t>(seq)});
  }
  return out;
}

// ---- stats door (PR 9) ---------------------------------------------------

namespace {

constexpr double kStatsWireVersion = 1.0;
/// Caps on collection counts — a stats payload is operator traffic, but it
/// still crosses the adversarial wire boundary like everything else.
constexpr std::size_t kMaxStatsEntries = 4096;

void encode_u64(std::vector<double>& wire, std::uint64_t v, const char* what) {
  require_double_exact(v, what);
  wire.push_back(static_cast<double>(v));
}

void encode_stat_value(std::vector<double>& wire, double v, const char* what) {
  SAP_REQUIRE(std::isfinite(v), std::string("encode: non-finite ") + what);
  wire.push_back(v);
}

double checked_stat_value(std::span<const double> wire, std::size_t& pos, const char* what) {
  SAP_REQUIRE(pos < wire.size(), std::string("decode: truncated ") + what);
  const double v = wire[pos++];
  SAP_REQUIRE(std::isfinite(v), std::string("decode: non-finite ") + what);
  return v;
}

}  // namespace

std::vector<double> encode_stats_request() { return {kStatsWireVersion}; }

void decode_stats_request(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() == 1 && wire[0] == kStatsWireVersion,
              "decode_stats_request: unsupported stats version");
}

std::vector<double> encode_stats_response(const obs::Snapshot& snapshot,
                                          std::span<const obs::TraceRecord> traces) {
  SAP_REQUIRE(snapshot.counters.size() <= kMaxStatsEntries &&
                  snapshot.gauges.size() <= kMaxStatsEntries &&
                  snapshot.histograms.size() <= kMaxStatsEntries &&
                  traces.size() <= kMaxStatsEntries,
              "encode_stats_response: too many entries");
  std::vector<double> wire{kStatsWireVersion};
  wire.push_back(static_cast<double>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    encode_string(wire, name, "counter name");
    encode_u64(wire, value, "counter value");
  }
  wire.push_back(static_cast<double>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    encode_string(wire, name, "gauge name");
    encode_stat_value(wire, value, "gauge value");
  }
  wire.push_back(static_cast<double>(snapshot.histograms.size()));
  for (const auto& [name, hist] : snapshot.histograms) {
    encode_string(wire, name, "histogram name");
    encode_u64(wire, hist.count, "histogram count");
    encode_stat_value(wire, hist.sum, "histogram sum");
    encode_stat_value(wire, hist.max, "histogram max");
    SAP_REQUIRE(hist.buckets.size() <= obs::Histogram::kBucketCount,
                "encode_stats_response: too many histogram buckets");
    wire.push_back(static_cast<double>(hist.buckets.size()));
    for (const auto& [index, n] : hist.buckets) {
      SAP_REQUIRE(index < obs::Histogram::kBucketCount,
                  "encode_stats_response: bucket index out of range");
      wire.push_back(static_cast<double>(index));
      encode_u64(wire, n, "bucket count");
    }
  }
  wire.push_back(static_cast<double>(traces.size()));
  for (const auto& trace : traces) {
    // A trace id uses the full 64 bits (16-bit door salt in the top bits),
    // so it cannot ride the double-exact u64 path — split into 32-bit
    // halves, each trivially exact.
    encode_u64(wire, trace.id >> 32, "trace id hi");
    encode_u64(wire, trace.id & 0xFFFFFFFFull, "trace id lo");
    encode_string(wire, trace.op.empty() ? std::string("?") : trace.op, "trace op");
    for (const double ms : trace.stage_ms) encode_stat_value(wire, ms, "trace stage ms");
  }
  return wire;
}

DecodedStats decode_stats_response(std::span<const double> wire) {
  SAP_REQUIRE(!wire.empty() && wire[0] == kStatsWireVersion,
              "decode_stats_response: unsupported stats version");
  DecodedStats out;
  std::size_t pos = 1;

  const auto read_count = [&](const char* what) {
    SAP_REQUIRE(pos < wire.size(), std::string("decode: truncated ") + what);
    const std::size_t n = checked_count(wire[pos++], what);
    SAP_REQUIRE(n <= kMaxStatsEntries, std::string("decode: oversized ") + what);
    return n;
  };

  const std::size_t n_counters = read_count("counter section");
  out.snapshot.counters.reserve(n_counters);
  for (std::size_t i = 0; i < n_counters; ++i) {
    std::string name = decode_string(wire, pos, "counter name");
    SAP_REQUIRE(pos < wire.size(), "decode_stats_response: truncated counter");
    const std::uint64_t value = checked_u64(wire[pos++], "counter value");
    out.snapshot.counters.emplace_back(std::move(name), value);
  }

  const std::size_t n_gauges = read_count("gauge section");
  out.snapshot.gauges.reserve(n_gauges);
  for (std::size_t i = 0; i < n_gauges; ++i) {
    std::string name = decode_string(wire, pos, "gauge name");
    const double value = checked_stat_value(wire, pos, "gauge value");
    out.snapshot.gauges.emplace_back(std::move(name), value);
  }

  const std::size_t n_hists = read_count("histogram section");
  out.snapshot.histograms.reserve(n_hists);
  for (std::size_t i = 0; i < n_hists; ++i) {
    std::string name = decode_string(wire, pos, "histogram name");
    obs::HistogramSnapshot hist;
    SAP_REQUIRE(pos < wire.size(), "decode_stats_response: truncated histogram");
    hist.count = checked_u64(wire[pos++], "histogram count");
    hist.sum = checked_stat_value(wire, pos, "histogram sum");
    hist.max = checked_stat_value(wire, pos, "histogram max");
    SAP_REQUIRE(pos < wire.size(), "decode_stats_response: truncated histogram");
    const std::size_t n_buckets = checked_count(wire[pos++], "bucket count");
    SAP_REQUIRE(n_buckets <= obs::Histogram::kBucketCount,
                "decode_stats_response: too many buckets");
    hist.buckets.reserve(n_buckets);
    std::uint64_t bucket_total = 0;
    std::uint32_t prev_index = 0;
    for (std::size_t b = 0; b < n_buckets; ++b) {
      SAP_REQUIRE(pos + 1 < wire.size(), "decode_stats_response: truncated bucket");
      const auto index = static_cast<std::uint32_t>(checked_count(wire[pos++], "bucket index"));
      SAP_REQUIRE(index < obs::Histogram::kBucketCount,
                  "decode_stats_response: bucket index out of range");
      SAP_REQUIRE(b == 0 || index > prev_index,
                  "decode_stats_response: bucket indices not ascending");
      prev_index = index;
      const std::uint64_t n = checked_u64(wire[pos++], "bucket count");
      bucket_total += n;
      hist.buckets.emplace_back(index, n);
    }
    SAP_REQUIRE(bucket_total == hist.count,
                "decode_stats_response: bucket counts disagree with total");
    out.snapshot.histograms.emplace_back(std::move(name), std::move(hist));
  }

  const std::size_t n_traces = read_count("trace section");
  out.traces.reserve(n_traces);
  for (std::size_t i = 0; i < n_traces; ++i) {
    obs::TraceRecord trace;
    SAP_REQUIRE(pos + 1 < wire.size(), "decode_stats_response: truncated trace");
    const std::uint64_t id_hi = checked_u64(wire[pos++], "trace id hi");
    const std::uint64_t id_lo = checked_u64(wire[pos++], "trace id lo");
    SAP_REQUIRE(id_hi <= 0xFFFFFFFFull && id_lo <= 0xFFFFFFFFull,
                "decode_stats_response: trace id half out of range");
    trace.id = (id_hi << 32) | id_lo;
    trace.op = decode_string(wire, pos, "trace op");
    for (double& ms : trace.stage_ms) ms = checked_stat_value(wire, pos, "trace stage ms");
    out.traces.push_back(std::move(trace));
  }
  SAP_REQUIRE(pos == wire.size(), "decode_stats_response: trailing garbage");
  return out;
}

}  // namespace sap::proto

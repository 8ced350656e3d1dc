// Protocol messages and the encrypted-channel boundary.
//
// The paper assumes encrypted pairwise channels and a semi-honest model; the
// protocol's privacy therefore rests on *who is sent what*, which these
// types make explicit and the network records for the invariant tests.
// Payloads travel as EncryptedEnvelope: a per-link keystream cipher over the
// serialized doubles. The cipher is a stand-in for TLS (documented
// substitution) — the point is that the network trace retains only
// ciphertext + metadata, so tests can assert that no honest-but-curious
// observer of the wire sees plaintext.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/shard.hpp"

namespace sap::proto {

using PartyId = std::uint32_t;

/// Message kinds — one per protocol step (paper §3).
enum class PayloadKind : std::uint8_t {
  kTargetSpace = 1,      ///< coordinator -> provider: G_t parameters
  kRoutingNotice = 2,    ///< coordinator -> provider: where to send your data
  kPerturbedData = 3,    ///< provider -> provider: Y_i = G_i(X_i) + labels
  kForwardedData = 4,    ///< provider -> miner: relayed Y_tau(i)
  kSpaceAdaptor = 5,     ///< provider -> coordinator: A_it
  kAdaptorSequence = 6,  ///< coordinator -> miner: adaptors aligned to forwarders
  kModelReport = 7,      ///< miner -> providers: trained model summary
  kContribution = 8,     ///< party -> miner: post-exchange perturbed batch
  kContributionAck = 9,  ///< miner -> party: receipt for an accepted batch
  kMiningRequest = 10,   ///< party -> miner: named job + params to serve
  kMiningResponse = 11,  ///< miner -> party: the served job report
  // -- cluster traffic (PR 8): router <-> sharded miners ------------------
  kServeError = 12,        ///< miner -> client: typed serving refusal
  kPartialRequest = 13,    ///< router -> miner: one shard's partial blob, please
  kPartialResponse = 14,   ///< miner -> router: the opaque partial blob
  kPoolSliceRequest = 15,  ///< router -> miner: one shard's canonical rows
  kPoolSliceResponse = 16, ///< miner -> router: rows + keys, canonical order
  // -- observability (PR 9): the live stats door ---------------------------
  kStatsRequest = 17,      ///< operator/router -> daemon: metrics snapshot, please
  kStatsResponse = 18,     ///< daemon -> requester: snapshot + recent traces
  // -- self-healing (PR 10): the shard-snapshot resync door -----------------
  kShardSnapshotRequest = 19,   ///< rejoining miner -> live owner: one shard, please
  kShardSnapshotResponse = 20,  ///< owner -> rejoiner: rows in ARRIVAL order + epoch
  kServingStarted = 21,  ///< miner -> party over its exchange link: serving started
};

/// Printable name for traces and tests.
std::string to_string(PayloadKind kind);

/// Ciphertext container. Construction encrypts; open() decrypts. Keys are
/// per-(sender, receiver) pair and derived inside the network from its
/// session secret — parties never exchange them in-band.
class EncryptedEnvelope {
 public:
  EncryptedEnvelope() = default;

  /// Encrypt `plain` under `key`.
  EncryptedEnvelope(std::span<const double> plain, std::uint64_t key);

  /// Decrypt under `key`; wrong keys yield garbage (checked via checksum):
  /// throws sap::Error on checksum mismatch.
  [[nodiscard]] std::vector<double> open(std::uint64_t key) const;

  [[nodiscard]] std::size_t size_doubles() const noexcept { return cipher_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> ciphertext() const noexcept { return cipher_; }

  /// Integrity word carried beside the ciphertext. Exposed (with from_raw)
  /// so wire transports can serialize an envelope byte-exactly; it reveals
  /// nothing beyond what a wire observer already sees.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }

  /// Rebuild an envelope from its wire parts (net::Frame decoding). The
  /// result is exactly the envelope whose ciphertext()/checksum() produced
  /// the parts; open() still enforces the integrity check.
  [[nodiscard]] static EncryptedEnvelope from_raw(std::vector<std::uint64_t> cipher,
                                                  std::uint64_t checksum);

 private:
  std::vector<std::uint64_t> cipher_;
  std::uint64_t checksum_ = 0;
};

/// One wire message (as recorded by the simulated network).
struct Message {
  PartyId from = 0;
  PartyId to = 0;
  PayloadKind kind = PayloadKind::kTargetSpace;
  EncryptedEnvelope envelope;
  std::size_t wire_bytes = 0;  ///< ciphertext size (8 bytes per word)
};

// ---- payload (de)serialization helpers --------------------------------
// Flat double-vector encodings; every encoder has a matching decoder that
// validates shape and throws sap::Error on malformed input. Both sides go
// through the one wire cursor (common/wire.hpp), which decides how each
// field rides a double and refuses on encode what every decoder rejects.

/// [d, N, features column-major... , labels...]. The decoder rejects
/// non-finite feature values.
std::vector<double> encode_dataset(const linalg::Matrix& features_dxn,
                                   std::span<const int> labels);
struct DecodedDataset {
  linalg::Matrix features;  ///< d x N
  std::vector<int> labels;
};
DecodedDataset decode_dataset(std::span<const double> wire);

/// [d, R row-major..., t...] for a noiseless target space (R_t, t_t).
std::vector<double> encode_target_space(const linalg::Matrix& r, const linalg::Vector& t);
struct DecodedTargetSpace {
  linalg::Matrix r;
  linalg::Vector t;
};
DecodedTargetSpace decode_target_space(std::span<const double> wire);

/// Contribution: [nonce, d, m, features column-major..., labels...] — an
/// incremental batch of m records in the contributor's perturbed space,
/// submitted to the miner after the exchange (Contribute phase). The nonce
/// is the contributor's protocol-level identity: it binds the batch to the
/// space adaptor negotiated in the initial exchange, so the miner can unify
/// the records without learning anything new about the source.
std::vector<double> encode_contribution(std::uint64_t nonce,
                                        const linalg::Matrix& features_dxm,
                                        std::span<const int> labels);
struct DecodedContribution {
  std::uint64_t nonce = 0;
  DecodedDataset data;
};
DecodedContribution decode_contribution(std::span<const double> wire);

/// Routing notice: [receiver id, inbound count]. The coordinator tells each
/// provider where to send its perturbed data AND how many peer datasets it
/// must expect and forward — the count is what lets a receiver detect a
/// dropped exchange message instead of waiting on mail that never comes.
std::vector<double> encode_routing(PartyId receiver, std::uint32_t inbound);
struct RoutingNotice {
  PartyId receiver = 0;    ///< where to send this provider's perturbed data
  std::uint32_t inbound = 0;  ///< how many peer datasets to receive & forward
};
RoutingNotice decode_routing(std::span<const double> wire);

// ---- cross-process serving payloads -----------------------------------
// These kinds only flow in the distributed (miner daemon / party client)
// topology; the in-process SapSession exchange never emits them. Strings
// travel one printable ASCII code point per double (decoders reject
// anything outside [32, 126] or over the declared length caps — wire
// payloads are adversarial input).

/// Mining request: [name_len, name..., param_count, (key_len, key...,
/// value)...]. Name/key caps: 128 chars; at most 64 params.
std::vector<double> encode_mining_request(const std::string& job,
                                          const std::map<std::string, double>& params);
struct DecodedMiningRequest {
  std::string job;
  std::map<std::string, double> params;
};
DecodedMiningRequest decode_mining_request(std::span<const double> wire);

/// Mining response: [pool_epoch, cached, incremental, value_count,
/// values...]. Values are the job's report, forwarded verbatim.
struct WireMiningResponse {
  std::uint64_t pool_epoch = 0;
  bool model_cached = false;
  bool model_incremental = false;
  std::vector<double> values;
};
std::vector<double> encode_mining_response(const WireMiningResponse& response);
WireMiningResponse decode_mining_response(std::span<const double> wire);

/// Contribution receipt: [pool_epoch, pool_records] — the miner's ack for
/// a streamed batch. pool_epoch 0 is the NEGATIVE receipt (rejected batch;
/// an accepted append is always epoch >= 2 since set_pool is epoch 1).
std::vector<double> encode_receipt(std::uint64_t pool_epoch, std::size_t pool_records);
struct DecodedReceipt {
  std::uint64_t pool_epoch = 0;
  std::size_t pool_records = 0;
};
DecodedReceipt decode_receipt(std::span<const double> wire);

// ---- cluster serving payloads (PR 8) -----------------------------------
// The scatter-gather router (net/cluster.hpp) speaks these to sharded
// miners. All of them ride the same encrypted envelope as every other
// serving payload.

/// Typed serving refusal — what lets a router distinguish "this request is
/// wrong" (no point retrying a replica) from "this miner cannot serve it
/// right now" (fail over).
enum class ServeErrorCode : std::uint8_t {
  kBadRequest = 1,   ///< unknown job / bad params — definitive, do not retry
  kNotOwner = 2,     ///< this miner does not own the addressed shard
  kUnavailable = 3,  ///< transient (exchange pending, shard not installed)
};
std::string to_string(ServeErrorCode code);

/// Serve error: [code, message_len, message...]. Messages are truncated to
/// the wire string cap on encode.
std::vector<double> encode_serve_error(ServeErrorCode code, const std::string& message);
struct DecodedServeError {
  ServeErrorCode code = ServeErrorCode::kBadRequest;
  std::string message;
};
DecodedServeError decode_serve_error(std::span<const double> wire);

/// Partial request: [shard, req_len, mining_request..., qd, qm, queries
/// row-major qm x qd, labels...] — run `job` with `params` over one shard
/// and return the exact-merge partial blob. `queries` is the canonical eval
/// prefix the merge scores against (qm == 0 => no queries; structural
/// merges).
std::vector<double> encode_partial_request(std::size_t shard, const std::string& job,
                                           const std::map<std::string, double>& params,
                                           const data::Dataset& queries);
struct DecodedPartialRequest {
  std::size_t shard = 0;
  std::string job;
  std::map<std::string, double> params;
  data::Dataset queries;
};
DecodedPartialRequest decode_partial_request(std::span<const double> wire);

/// Partial response: [shard_epoch, value_count, blob...]. The blob is the
/// job's opaque partial; the epoch is the shard epoch it was computed at
/// (the router's per-shard watermark input).
std::vector<double> encode_partial_response(std::uint64_t shard_epoch,
                                            std::span<const double> blob);
struct DecodedPartialResponse {
  std::uint64_t shard_epoch = 0;
  std::vector<double> blob;
};
DecodedPartialResponse decode_partial_response(std::span<const double> wire);

/// Pool-slice request: [shard, max_records] (0 = all) — one shard's rows in
/// canonical (nonce, seq) order, for router-side gathers of non-mergeable
/// jobs and canonical query prefixes.
std::vector<double> encode_pool_slice_request(std::size_t shard, std::size_t max_records);
struct DecodedPoolSliceRequest {
  std::size_t shard = 0;
  std::size_t max_records = 0;
};
DecodedPoolSliceRequest decode_pool_slice_request(std::span<const double> wire);

// ---- observability payloads (PR 9) --------------------------------------
// The live stats door (DESIGN.md §12). A stats snapshot rides the same
// encrypted envelope as every serving payload; the daemon's serving door
// answers it through the one serve_payload dispatch.

/// Stats request: [version]. Version 1 is the only one defined; decoders
/// reject anything else so a future layout change is a clean break.
std::vector<double> encode_stats_request();
void decode_stats_request(std::span<const double> wire);

/// Stats response: [version,
///   n_counters, (name, value)...,
///   n_gauges, (name, value)...,
///   n_hists, (name, count, sum, max, n_buckets, (index, count)...)...,
///   n_traces, (id, op, stage_ms x 5)...].
/// Strings use the printable-ASCII-per-double convention; counts and ids
/// must be exactly representable as doubles — enforced on encode so the
/// decoder's adversarial checks mirror a real peer.
struct DecodedStats {
  obs::Snapshot snapshot;
  std::vector<obs::TraceRecord> traces;
};
std::vector<double> encode_stats_response(const obs::Snapshot& snapshot,
                                          std::span<const obs::TraceRecord> traces);
DecodedStats decode_stats_response(std::span<const double> wire);

// ---- self-healing payloads (PR 10) --------------------------------------
// The shard-snapshot resync door (DESIGN.md §13): a restarted miner asks a
// live owner for each shard it owns and installs the answer verbatim.

/// Shard-snapshot request: [shard]. The response reuses the pool-slice
/// layout (encode_pool_slice / decode_pool_slice) but with rows in ARRIVAL
/// order — the order incremental partial_fit lineage depends on — and the
/// donor's CURRENT shard epoch, which the rejoiner adopts so the router's
/// per-shard epoch floors keep holding.
std::vector<double> encode_shard_snapshot_request(std::size_t shard);
std::size_t decode_shard_snapshot_request(std::span<const double> wire);

/// Pool-slice response: [shard_epoch, d, m, features row-major m x d,
/// labels x m, (nonce, seq) x m]. m == 0 encodes an installed-but-empty
/// shard (d 0 too).
std::vector<double> encode_pool_slice(std::uint64_t shard_epoch, const data::Dataset& rows,
                                      std::span<const PoolKey> keys);
struct DecodedPoolSlice {
  std::uint64_t shard_epoch = 0;
  data::Dataset rows;
  std::vector<PoolKey> keys;
};
DecodedPoolSlice decode_pool_slice(std::span<const double> wire);

}  // namespace sap::proto

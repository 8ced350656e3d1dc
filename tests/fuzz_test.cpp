// Robustness / fuzz tests: wire payloads are adversarial input. Every
// decoder must either round-trip faithfully or throw sap::Error — never
// crash, hang, or silently accept garbage that violates its invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/wire.hpp"
#include "net/frame.hpp"
#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"
#include "protocol/jobs.hpp"
#include "protocol/message.hpp"
#include "rng/rng.hpp"

namespace {

using sap::linalg::Matrix;
using sap::rng::Engine;
namespace proto = sap::proto;

/// Apply one random mutation to a wire payload: truncate, extend, or
/// overwrite an element with a hostile value (NaN, inf, huge, negative...).
std::vector<double> mutate(std::vector<double> wire, Engine& eng) {
  const auto action = eng.uniform_index(4);
  switch (action) {
    case 0:  // truncate
      if (!wire.empty()) wire.resize(eng.uniform_index(wire.size()));
      break;
    case 1:  // extend with junk
      wire.push_back(eng.normal(0.0, 1e6));
      break;
    case 2: {  // hostile overwrite
      if (wire.empty()) break;
      static const double hostile[] = {std::nan(""),
                                       std::numeric_limits<double>::infinity(),
                                       -std::numeric_limits<double>::infinity(),
                                       -1.0,
                                       1e300,
                                       0.5,
                                       -123456789.0};
      wire[eng.uniform_index(wire.size())] = hostile[eng.uniform_index(std::size(hostile))];
      break;
    }
    default:  // swap two elements
      if (wire.size() >= 2) {
        const auto i = eng.uniform_index(wire.size());
        const auto j = eng.uniform_index(wire.size());
        std::swap(wire[i], wire[j]);
      }
  }
  return wire;
}

template <typename DecodeFn>
void fuzz_decoder(const std::vector<double>& valid_wire, DecodeFn decode, int rounds,
                  std::uint64_t seed) {
  Engine eng(seed);
  for (int round = 0; round < rounds; ++round) {
    auto wire = valid_wire;
    const auto mutations = 1 + eng.uniform_index(3);
    for (std::size_t m = 0; m < mutations; ++m) wire = mutate(std::move(wire), eng);
    try {
      decode(wire);  // accepting a benign mutation is fine
    } catch (const sap::Error&) {
      // rejecting is fine — anything but a crash/UB
    }
  }
}

TEST(Fuzz, DatasetCodecNeverCrashes) {
  Engine eng(1);
  Matrix f = Matrix::generate(4, 9, [&] { return eng.normal(); });
  const std::vector<int> labels{0, 1, 2, 0, 1, 2, 0, 1, 2};
  const auto wire = proto::encode_dataset(f, labels);
  fuzz_decoder(wire, [](const std::vector<double>& w) { (void)proto::decode_dataset(w); },
               400, 11);
}

TEST(Fuzz, DatasetCodecRejectsNonFiniteFeatures) {
  Engine eng(12);
  const Matrix f = Matrix::generate(3, 4, [&] { return eng.normal(); });
  const std::vector<int> labels{0, 1, 0, 1};
  const auto wire = proto::encode_dataset(f, labels);
  EXPECT_NO_THROW((void)proto::decode_dataset(wire));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // Every feature slot, first to last: [d, N, features..., labels...].
    for (std::size_t at = 2; at < 2 + f.size(); ++at) {
      auto poisoned = wire;
      poisoned[at] = bad;
      EXPECT_THROW((void)proto::decode_dataset(poisoned), sap::Error) << "slot " << at;
    }
    // The contribution codec inherits the check.
    EXPECT_THROW((void)proto::decode_contribution(proto::encode_contribution(
                     7, Matrix(3, 1, bad), std::vector<int>{1})),
                 sap::Error);
  }
}

TEST(Fuzz, TargetSpaceCodecNeverCrashes) {
  Engine eng(2);
  const Matrix r = Matrix::identity(5);
  const sap::linalg::Vector t(5, 0.25);
  const auto wire = proto::encode_target_space(r, t);
  fuzz_decoder(wire,
               [](const std::vector<double>& w) { (void)proto::decode_target_space(w); },
               400, 13);
}

TEST(Fuzz, RoutingCodecNeverCrashes) {
  const auto wire = proto::encode_routing(3, 1);
  fuzz_decoder(wire, [](const std::vector<double>& w) { (void)proto::decode_routing(w); },
               200, 17);
}

TEST(Fuzz, ContributionCodecNeverCrashes) {
  Engine eng(9);
  Matrix f = Matrix::generate(4, 6, [&] { return eng.normal(); });
  const std::vector<int> labels{0, 1, 2, 0, 1, 2};
  const auto wire = proto::encode_contribution(0xABCDu, f, labels);
  fuzz_decoder(wire,
               [](const std::vector<double>& w) { (void)proto::decode_contribution(w); },
               400, 29);
}

TEST(Fuzz, ContributionCodecRoundTrips) {
  Engine eng(10);
  Matrix f = Matrix::generate(3, 5, [&] { return eng.normal(); });
  const std::vector<int> labels{1, 0, 1, 0, 1};
  const auto back = proto::decode_contribution(proto::encode_contribution(77, f, labels));
  EXPECT_EQ(back.nonce, 77u);
  EXPECT_TRUE(back.data.features.approx_equal(f, 0.0));
  EXPECT_EQ(back.data.labels, labels);
  // Malformed nonces (negative, fractional, non-finite) are rejected.
  EXPECT_THROW((void)proto::decode_contribution(std::vector<double>{-1.0, 1.0, 1.0, 0.5, 0.0}),
               sap::Error);
  EXPECT_THROW((void)proto::decode_contribution(std::vector<double>{0.5, 1.0, 1.0, 0.5, 0.0}),
               sap::Error);
  EXPECT_THROW((void)proto::decode_contribution(std::vector<double>{}), sap::Error);
}

TEST(Fuzz, SpaceAdaptorCodecNeverCrashes) {
  Engine eng(3);
  const auto g_i = sap::perturb::GeometricPerturbation::random(4, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(4, 0.0, eng);
  const auto wire = sap::perturb::SpaceAdaptor::between(g_i, g_t).serialize();
  fuzz_decoder(wire,
               [](const std::vector<double>& w) {
                 (void)sap::perturb::SpaceAdaptor::deserialize(w);
               },
               400, 19);
}

TEST(Fuzz, SpaceAdaptorSerializationRoundTrips) {
  // The adaptor codec is protocol wire format (kSpaceAdaptor /
  // kAdaptorSequence payloads): a faithful round-trip is a correctness
  // requirement of the Transport seam, not just a convenience.
  Engine eng(31);
  const auto g_i = sap::perturb::GeometricPerturbation::random(5, 0.2, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(5, 0.0, eng);
  const auto adaptor = sap::perturb::SpaceAdaptor::between(g_i, g_t);
  const auto back = sap::perturb::SpaceAdaptor::deserialize(adaptor.serialize());
  EXPECT_TRUE(back.rotation().approx_equal(adaptor.rotation(), 0.0));
  EXPECT_EQ(back.translation(), adaptor.translation());
  EXPECT_EQ(back.dims(), adaptor.dims());
}

TEST(Fuzz, TruncatedAdaptorWireRejected) {
  // Every strict prefix (and short extension) of a valid adaptor payload
  // must be rejected — a half-delivered adaptor must never unify data.
  Engine eng(32);
  const auto g_i = sap::perturb::GeometricPerturbation::random(4, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(4, 0.0, eng);
  const auto wire = sap::perturb::SpaceAdaptor::between(g_i, g_t).serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<double> truncated(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)sap::perturb::SpaceAdaptor::deserialize(truncated), sap::Error)
        << "len=" << len;
  }
  for (std::size_t extra = 1; extra <= 3; ++extra) {
    auto extended = wire;
    extended.insert(extended.end(), extra, 0.0);
    EXPECT_THROW((void)sap::perturb::SpaceAdaptor::deserialize(extended), sap::Error)
        << "extra=" << extra;
  }
}

TEST(Fuzz, CorruptedAdaptorRotationRejected) {
  // Payload with the right shape but a non-orthogonal rotation block must be
  // rejected by the SpaceAdaptor constructor's orthogonality contract.
  Engine eng(6);
  const auto g_i = sap::perturb::GeometricPerturbation::random(3, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(3, 0.0, eng);
  auto wire = sap::perturb::SpaceAdaptor::between(g_i, g_t).serialize();
  wire[1] += 0.5;  // break orthogonality of R_it
  EXPECT_THROW(sap::perturb::SpaceAdaptor::deserialize(wire), sap::Error);
}

TEST(Fuzz, NonFiniteAdaptorTranslationRejected) {
  // The miner unifies a nonce's whole pool segment, and every later
  // contribution under it, through the adaptor it decodes from
  // kAdaptorSequence: a non-finite psi word would write NaN/inf into every
  // adapted row, so the adaptor itself refuses it.
  Engine eng(32);
  const auto g_i = sap::perturb::GeometricPerturbation::random(4, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(4, 0.0, eng);
  const auto adaptor = sap::perturb::SpaceAdaptor::between(g_i, g_t);
  const std::size_t d = adaptor.dims();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (std::size_t at = 0; at < d; ++at) {
      auto psi = adaptor.translation();
      psi[at] = bad;
      EXPECT_THROW(sap::perturb::SpaceAdaptor(adaptor.rotation(), psi), sap::Error)
          << "psi[" << at << "]";
      auto wire = adaptor.serialize();
      wire[1 + d * d + at] = bad;  // [d, R row-major..., psi...]
      EXPECT_THROW((void)sap::perturb::SpaceAdaptor::deserialize(wire), sap::Error)
          << "psi[" << at << "]";
    }
  }
}

TEST(Fuzz, NonFiniteTargetTranslationRejected) {
  // Every party builds G_t from the kTargetSpace wire, and its adaptor is
  // SpaceAdaptor::between(G_i, G_t): a non-finite t must stop at G_t's
  // construction, before it can become a non-finite psi.
  Engine eng(33);
  const auto g_t = sap::perturb::GeometricPerturbation::random(4, 0.0, eng);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    auto t = g_t.translation();
    t.back() = bad;
    const auto ts = proto::decode_target_space(proto::encode_target_space(g_t.rotation(), t));
    EXPECT_THROW(sap::perturb::GeometricPerturbation(ts.r, ts.t, 0.0), sap::Error);
  }
}

TEST(Fuzz, EnvelopeTamperDetected) {
  // Flipping any ciphertext bit must be caught by the checksum.
  const std::vector<double> plain{3.14, 2.71, 1.41, 0.57};
  proto::EncryptedEnvelope env(plain, 0xFEED);
  // Round-trip sanity first.
  EXPECT_EQ(env.open(0xFEED), plain);

  Engine eng(7);
  for (int trial = 0; trial < 64; ++trial) {
    proto::EncryptedEnvelope copy = env;
    auto cipher = copy.ciphertext();
    // const view — tamper through a rebuilt envelope instead: flip a bit in
    // a reconstructed ciphertext by re-encrypting modified plaintext under a
    // wrong key and checking cross-open fails.
    const std::uint64_t wrong_key = 0xFEED ^ (1ULL << eng.uniform_index(64));
    EXPECT_THROW((void)env.open(wrong_key), sap::Error);
    (void)cipher;
  }
}

TEST(Fuzz, MiningRequestCodecNeverCrashes) {
  const auto wire = proto::encode_mining_request(
      "nb-train-accuracy", {{"var-smoothing", 1e-9}, {"eval-records", 64.0}});
  fuzz_decoder(wire,
               [](const std::vector<double>& w) { (void)proto::decode_mining_request(w); },
               600, 37);
  // Round trip.
  const auto back = proto::decode_mining_request(wire);
  EXPECT_EQ(back.job, "nb-train-accuracy");
  EXPECT_EQ(back.params.size(), 2u);
  EXPECT_DOUBLE_EQ(back.params.at("eval-records"), 64.0);
  // Hostile strings: non-printable code points and absurd lengths.
  EXPECT_THROW((void)proto::decode_mining_request(std::vector<double>{2.0, 7.0, 7.0, 0.0}),
               sap::Error);
  EXPECT_THROW((void)proto::decode_mining_request(std::vector<double>{1e9, 65.0, 0.0}),
               sap::Error);
  EXPECT_THROW((void)proto::decode_mining_request(std::vector<double>{}), sap::Error);
}

TEST(Fuzz, MiningResponseCodecNeverCrashes) {
  proto::WireMiningResponse resp;
  resp.pool_epoch = 3;
  resp.model_cached = true;
  resp.values = {0.25, 0.75, -1.0};
  const auto wire = proto::encode_mining_response(resp);
  fuzz_decoder(wire,
               [](const std::vector<double>& w) { (void)proto::decode_mining_response(w); },
               400, 41);
  const auto back = proto::decode_mining_response(wire);
  EXPECT_EQ(back.pool_epoch, 3u);
  EXPECT_TRUE(back.model_cached);
  EXPECT_FALSE(back.model_incremental);
  EXPECT_EQ(back.values, resp.values);
  // A flag that is not exactly 0/1 is hostile.
  EXPECT_THROW((void)proto::decode_mining_response(std::vector<double>{1.0, 0.5, 0.0, 0.0}),
               sap::Error);
}

TEST(Fuzz, ReceiptCodecNeverCrashes) {
  const auto wire = proto::encode_receipt(5, 1234);
  fuzz_decoder(wire, [](const std::vector<double>& w) { (void)proto::decode_receipt(w); },
               200, 43);
  const auto back = proto::decode_receipt(wire);
  EXPECT_EQ(back.pool_epoch, 5u);
  EXPECT_EQ(back.pool_records, 1234u);
}

TEST(Fuzz, EncodersRefuseWhatEveryDecoderRejects) {
  // Each wire::Writer field enforces its Reader's bound, so an encoder
  // cannot emit a payload every peer would refuse; the value just inside
  // the bound still round-trips.
  const Matrix one(1, 1, 0.5);
  const auto count_max = static_cast<std::size_t>(sap::wire::kMaxCount);
  EXPECT_THROW((void)proto::encode_receipt(count_max + 1, 0), sap::Error);
  EXPECT_EQ(proto::decode_receipt(proto::encode_receipt(count_max, 0)).pool_epoch, count_max);
  EXPECT_THROW((void)proto::encode_routing(0, 1000000000u), sap::Error);
  EXPECT_THROW((void)proto::encode_dataset(one, std::vector<int>{2000000000}), sap::Error);
  EXPECT_EQ(proto::decode_dataset(proto::encode_dataset(one, std::vector<int>{-1999999999}))
                .labels.front(),
            -1999999999);
  const std::uint64_t nonce_max = sap::wire::kDoubleExactLimit - 1;
  EXPECT_THROW((void)proto::encode_contribution(nonce_max + 1, one, std::vector<int>{0}),
               sap::Error);
  EXPECT_EQ(proto::decode_contribution(
                proto::encode_contribution(nonce_max, one, std::vector<int>{0}))
                .nonce,
            nonce_max);
  EXPECT_THROW((void)proto::encode_mining_request("", {}), sap::Error);
  EXPECT_THROW((void)proto::encode_mining_request(std::string(129, 'j'), {}), sap::Error);
  EXPECT_THROW((void)proto::encode_mining_request("job\n", {}), sap::Error);
  EXPECT_THROW((void)proto::encode_mining_request("job", {{"k", std::nan("")}}), sap::Error);
  std::map<std::string, double> params;
  for (int i = 100; i < 165; ++i) params[std::to_string(i)] = 1.0;
  EXPECT_THROW((void)proto::encode_mining_request("job", params), sap::Error);
  params.erase("100");
  EXPECT_EQ(proto::decode_mining_request(proto::encode_mining_request("job", params))
                .params.size(),
            64u);
}

// ---- cluster codecs: partial requests/responses and pool slices ----------

/// A small query/slice block: 5 records x 3 features with labels.
sap::data::Dataset query_rows(std::uint64_t seed) {
  Engine eng(seed);
  Matrix f = Matrix::generate(5, 3, [&] { return eng.normal(); });
  return {"rows", std::move(f), std::vector<int>{0, 1, 2, 1, 0}};
}

TEST(Fuzz, PartialRequestCodecNeverCrashes) {
  const auto queries = query_rows(51);
  const auto wire = proto::encode_partial_request(
      2, "knn-train-accuracy", {{"k", 5.0}, {"eval-records", 64.0}}, queries);
  fuzz_decoder(wire,
               [](const std::vector<double>& w) { (void)proto::decode_partial_request(w); },
               600, 53);
  const auto back = proto::decode_partial_request(wire);
  EXPECT_EQ(back.shard, 2u);
  EXPECT_EQ(back.job, "knn-train-accuracy");
  EXPECT_EQ(back.queries.features(), queries.features());
  EXPECT_EQ(back.queries.labels(), queries.labels());
}

TEST(Fuzz, PartialResponseCodecNeverCrashes) {
  const std::vector<double> blob{5.0, 2.0, 1.0, 0.25, 7.0, 3.0, 1.0};
  const auto wire = proto::encode_partial_response(4, blob);
  fuzz_decoder(wire,
               [](const std::vector<double>& w) { (void)proto::decode_partial_response(w); },
               400, 55);
  const auto back = proto::decode_partial_response(wire);
  EXPECT_EQ(back.shard_epoch, 4u);
  EXPECT_EQ(back.blob, blob);
}

TEST(Fuzz, PoolSliceCodecNeverCrashes) {
  const auto rows = query_rows(57);
  const std::vector<proto::PoolKey> keys{{3, 0}, {3, 1}, {9, 0}, {9, 1}, {9, 2}};
  const auto wire = proto::encode_pool_slice(6, rows, keys);
  fuzz_decoder(wire, [](const std::vector<double>& w) { (void)proto::decode_pool_slice(w); },
               600, 59);
  const auto back = proto::decode_pool_slice(wire);
  EXPECT_EQ(back.shard_epoch, 6u);
  EXPECT_EQ(back.rows.features(), rows.features());
  ASSERT_EQ(back.keys.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_TRUE(back.keys[i] == keys[i]);
}

TEST(Fuzz, QueryBlocksRejectNonFiniteFeatures) {
  // Partial-request queries feed the kNN kernel, whose total order needs
  // finite distances; pool slices double as resync snapshots installed
  // straight into a live shard. Both must refuse NaN and +-Inf anywhere.
  const auto rows = query_rows(61);
  const std::size_t features = rows.size() * rows.dims();
  const auto request = proto::encode_partial_request(0, "knn-train-accuracy", {}, rows);
  const std::vector<proto::PoolKey> keys{{3, 0}, {3, 1}, {9, 0}, {9, 1}, {9, 2}};
  const auto slice = proto::encode_pool_slice(1, rows, keys);
  // Features sit just before the labels in a request, and right after
  // [epoch, d, m] in a slice.
  const std::size_t request_first = request.size() - rows.size() - features;
  const std::size_t slice_first = 3;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (std::size_t at = 0; at < features; ++at) {
      auto poisoned_request = request;
      poisoned_request[request_first + at] = bad;
      EXPECT_THROW((void)proto::decode_partial_request(poisoned_request), sap::Error)
          << "request feature " << at;
      auto poisoned_slice = slice;
      poisoned_slice[slice_first + at] = bad;
      EXPECT_THROW((void)proto::decode_pool_slice(poisoned_slice), sap::Error)
          << "slice feature " << at;
    }
  }
  // The untouched payloads still decode.
  EXPECT_NO_THROW((void)proto::decode_partial_request(request));
  EXPECT_NO_THROW((void)proto::decode_pool_slice(slice));
}

// ---- byte-level wire frames (net/frame.hpp) ------------------------------

/// One random byte-level mutation: truncate, extend, or corrupt a byte.
std::vector<std::uint8_t> mutate_bytes(std::vector<std::uint8_t> bytes, Engine& eng) {
  switch (eng.uniform_index(3)) {
    case 0:  // truncate
      if (!bytes.empty()) bytes.resize(eng.uniform_index(bytes.size()));
      break;
    case 1:  // extend with junk
      for (std::size_t i = 0, n = 1 + eng.uniform_index(16); i < n; ++i)
        bytes.push_back(static_cast<std::uint8_t>(eng.uniform_index(256)));
      break;
    default:  // corrupt one byte (hits magic/version/type/length/crc/body)
      if (!bytes.empty())
        bytes[eng.uniform_index(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + eng.uniform_index(255));
  }
  return bytes;
}

TEST(Fuzz, FrameReaderNeverCrashes) {
  // Valid two-frame stream as the seed input.
  Engine eng(47);
  sap::net::Frame data;
  data.type = sap::net::FrameType::kData;
  data.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kContribution);
  data.from = 1;
  data.to = 4;
  const std::vector<double> payload{1.0, 2.5, -3.75};
  data.body = sap::net::envelope_body(proto::EncryptedEnvelope(payload, 0x5EED));
  sap::net::Frame hello;
  hello.type = sap::net::FrameType::kHello;
  hello.body = sap::net::u32_body(2);
  std::vector<std::uint8_t> valid;
  sap::net::encode_frame(data, valid);
  sap::net::encode_frame(hello, valid);

  for (int round = 0; round < 1000; ++round) {
    auto bytes = valid;
    const auto mutations = 1 + eng.uniform_index(4);
    for (std::size_t m = 0; m < mutations; ++m) bytes = mutate_bytes(std::move(bytes), eng);
    // Feed in random chunk sizes: decoding must be identical to one-shot.
    sap::net::FrameReader reader;
    sap::net::Frame out;
    std::size_t pos = 0;
    try {
      while (pos < bytes.size()) {
        const auto chunk = std::min<std::size_t>(1 + eng.uniform_index(64),
                                                 bytes.size() - pos);
        reader.feed(bytes.data() + pos, chunk);
        pos += chunk;
        while (reader.next(out)) {
          // A surviving kData frame must still carry a well-formed envelope
          // OR be rejected — never crash.
          if (out.type == sap::net::FrameType::kData) {
            try {
              (void)sap::net::body_envelope(out.body).open(0x5EED);
            } catch (const sap::Error&) {
            }
          }
        }
      }
    } catch (const sap::Error&) {
      // Rejecting the stream is fine — anything but a crash/UB.
    }
  }
}

TEST(Fuzz, FrameRejectsWrongVersionAndOversizedLength) {
  sap::net::Frame frame;
  frame.type = sap::net::FrameType::kBye;
  std::vector<std::uint8_t> bytes;
  sap::net::encode_frame(frame, bytes);

  // Every version except the current one is rejected.
  for (int v = 0; v < 256; ++v) {
    if (v == sap::net::kFrameVersion) continue;
    auto mutated = bytes;
    mutated[4] = static_cast<std::uint8_t>(v);
    sap::net::FrameReader reader;
    reader.feed(mutated.data(), mutated.size());
    sap::net::Frame out;
    EXPECT_THROW((void)reader.next(out), sap::Error) << "version " << v;
  }

  // A length prefix beyond the cap is rejected BEFORE the body arrives —
  // a hostile peer cannot make the reader allocate unbounded memory.
  auto oversized = bytes;
  oversized[24] = 0xFF;
  oversized[25] = 0xFF;
  oversized[26] = 0xFF;
  oversized[27] = 0xFF;
  sap::net::FrameReader small_cap(/*max_body=*/1024);
  small_cap.feed(oversized.data(), sap::net::kFrameHeaderBytes);
  sap::net::Frame out;
  EXPECT_THROW((void)small_cap.next(out), sap::Error);
}

// ---- exact-merge partial blobs (protocol/jobs.cpp) -----------------------

/// A valid partial blob of one built-in mergeable job over a small
/// two-nonce shard, and that job's merge over the same query rows.
struct BlobCase {
  std::string job;
  std::vector<double> blob;
  std::function<void(std::span<const double>)> merge;
};

std::vector<BlobCase> blob_cases() {
  static const proto::JobRegistry registry = proto::JobRegistry::builtins();
  const auto rows = query_rows(71);
  const std::vector<proto::PoolKey> keys{{3, 0}, {3, 1}, {9, 0}, {9, 1}, {9, 2}};
  const auto queries = query_rows(73);
  std::vector<BlobCase> cases;
  for (const char* job :
       {"record-count", "class-histogram", "nb-train-accuracy", "knn-train-accuracy"}) {
    const proto::JobSpec& spec = registry.find(job);
    const auto resolved = spec.resolve_params({});
    cases.push_back({job, spec.partial(rows, keys, queries, resolved),
                     [&spec, resolved, queries](std::span<const double> blob) {
                       (void)spec.merge_partials({{blob.begin(), blob.end()}}, queries,
                                                 resolved);
                     }});
  }
  return cases;
}

TEST(Fuzz, PartialBlobMergesNeverCrash) {
  std::uint64_t seed = 91;
  for (const auto& c : blob_cases()) {
    SCOPED_TRACE(c.job);
    fuzz_decoder(c.blob, [&c](const std::vector<double>& w) { c.merge(w); }, 400, seed++);
  }
}

TEST(Fuzz, PartialBlobMergesRefuseLabelsBeyondTheWireBound) {
  // A blob label obeys the bound every row decoder applies (|v| < 2e9), so
  // a merge never takes a label no decoded shard row could carry. 2^31 - 1
  // still fits an int, which is all the merges used to ask.
  const std::map<std::string, std::size_t> first_label = {
      {"class-histogram", 1},     // [classes, label, ...]
      {"nb-train-accuracy", 4},   // [dims, segments, nonce, classes, label, ...]
      {"knn-train-accuracy", 6},  // [k, queries, candidates, dist, nonce, seq, label, ...]
  };
  for (const auto& c : blob_cases()) {
    const auto at = first_label.find(c.job);
    if (at == first_label.end()) continue;
    SCOPED_TRACE(c.job);
    EXPECT_NO_THROW(c.merge(c.blob));
    auto wide = c.blob;
    wide[at->second] = 2147483647.0;
    EXPECT_THROW(c.merge(wide), sap::Error);
  }
}

// ---- every double-wire reader --------------------------------------------

TEST(Fuzz, CountsAtTheTopOfTheirRangeThrowBeforeAllocating) {
  // A count field may hold up to 1e9 - 1 (an adaptor's dimension up to
  // 999999): a decoder must find the payload too short for it before it
  // sizes a matrix or a buffer by it, or a 16-value payload could ask for
  // exabytes.
  Engine eng(14);
  const Matrix f = Matrix::generate(3, 4, [&] { return eng.normal(); });
  const std::vector<int> labels{0, 1, 0, 1};
  const auto g_i = sap::perturb::GeometricPerturbation::random(3, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(3, 0.0, eng);
  const auto rows = query_rows(15);
  const std::vector<proto::PoolKey> keys{{3, 0}, {3, 1}, {9, 0}, {9, 1}, {9, 2}};
  proto::WireMiningResponse response;
  response.values = {0.5};
  struct Case {
    const char* name;
    std::vector<double> wire;
    std::size_t at;  ///< the count field
    double count;
    std::function<void(std::span<const double>)> decode;
  };
  const Case cases[] = {
      {"dataset dims", proto::encode_dataset(f, labels), 0, 999999999.0,
       [](auto w) { (void)proto::decode_dataset(w); }},
      {"dataset records", proto::encode_dataset(f, labels), 1, 999999999.0,
       [](auto w) { (void)proto::decode_dataset(w); }},
      {"target space", proto::encode_target_space(g_t.rotation(), g_t.translation()), 0,
       999999999.0, [](auto w) { (void)proto::decode_target_space(w); }},
      {"space adaptor", sap::perturb::SpaceAdaptor::between(g_i, g_t).serialize(), 0, 999999.0,
       [](auto w) { (void)sap::perturb::SpaceAdaptor::deserialize(w); }},
      {"mining response", proto::encode_mining_response(response), 3, 999999999.0,
       [](auto w) { (void)proto::decode_mining_response(w); }},
      {"partial response", proto::encode_partial_response(1, std::vector<double>{2.0}), 1,
       999999999.0, [](auto w) { (void)proto::decode_partial_response(w); }},
      {"pool slice rows", proto::encode_pool_slice(6, rows, keys), 2, 999999999.0,
       [](auto w) { (void)proto::decode_pool_slice(w); }},
      {"partial request length",
       proto::encode_partial_request(0, "knn-train-accuracy", {}, rows), 1, 999999999.0,
       [](auto w) { (void)proto::decode_partial_request(w); }},
  };
  for (const auto& c : cases) {
    auto wire = c.wire;
    wire[c.at] = c.count;
    EXPECT_THROW(c.decode(wire), sap::Error) << c.name;
  }
}

TEST(Fuzz, DecoderAcceptsOnlyExactSizes) {
  // Systematic size sweep over every payload decoder, the adaptor codec and
  // the four partial-blob merges: every strict prefix of a valid payload,
  // and every extension by 1-3 values, must throw.
  struct Case {
    std::string name;
    std::vector<double> wire;
    std::function<void(std::span<const double>)> decode;
  };
  Engine eng(8);
  const Matrix f = Matrix::generate(3, 4, [&] { return eng.normal(); });
  const std::vector<int> labels{0, 1, 0, 1};
  const auto rows = query_rows(81);
  const std::vector<proto::PoolKey> keys{{3, 0}, {3, 1}, {9, 0}, {9, 1}, {9, 2}};
  const auto g_i = sap::perturb::GeometricPerturbation::random(3, 0.1, eng);
  const auto g_t = sap::perturb::GeometricPerturbation::random(3, 0.0, eng);
  const proto::JobParams params{{"k", 3.0}, {"eval-records", 16.0}};
  proto::WireMiningResponse response;
  response.pool_epoch = 4;
  response.values = {0.5, 0.25};
  sap::obs::Snapshot snapshot;
  snapshot.counters = {{"serve.requests", 41}};
  snapshot.gauges = {{"reactor.live", 7.5}};
  snapshot.histograms = {{"engine.serve_ms", {3, 1.5, 0.75, {{4, 1}, {9, 2}}}}};
  std::vector<sap::obs::TraceRecord> traces(1);
  traces[0].id = 0xD00D000000000001ull;
  traces[0].op = "mining-request";
  traces[0].stage_ms = {0.1, 0.2, 3.5, 0.0, 0.05};

  std::vector<Case> cases = {
      {"dataset", proto::encode_dataset(f, labels),
       [](auto w) { (void)proto::decode_dataset(w); }},
      {"target space", proto::encode_target_space(g_t.rotation(), g_t.translation()),
       [](auto w) { (void)proto::decode_target_space(w); }},
      {"contribution", proto::encode_contribution(77, f, labels),
       [](auto w) { (void)proto::decode_contribution(w); }},
      {"routing", proto::encode_routing(1, 2), [](auto w) { (void)proto::decode_routing(w); }},
      {"mining request", proto::encode_mining_request("knn-train-accuracy", params),
       [](auto w) { (void)proto::decode_mining_request(w); }},
      {"mining response", proto::encode_mining_response(response),
       [](auto w) { (void)proto::decode_mining_response(w); }},
      {"receipt", proto::encode_receipt(3, 120), [](auto w) { (void)proto::decode_receipt(w); }},
      {"serve error", proto::encode_serve_error(proto::ServeErrorCode::kNotOwner, "shard 1"),
       [](auto w) { (void)proto::decode_serve_error(w); }},
      {"partial request", proto::encode_partial_request(1, "knn-train-accuracy", params, rows),
       [](auto w) { (void)proto::decode_partial_request(w); }},
      {"partial response", proto::encode_partial_response(5, std::vector<double>{1.0, 2.0}),
       [](auto w) { (void)proto::decode_partial_response(w); }},
      {"pool slice request", proto::encode_pool_slice_request(2, 64),
       [](auto w) { (void)proto::decode_pool_slice_request(w); }},
      {"shard snapshot request", proto::encode_shard_snapshot_request(3),
       [](auto w) { (void)proto::decode_shard_snapshot_request(w); }},
      {"pool slice", proto::encode_pool_slice(6, rows, keys),
       [](auto w) { (void)proto::decode_pool_slice(w); }},
      {"stats request", proto::encode_stats_request(),
       [](auto w) { proto::decode_stats_request(w); }},
      {"stats response", proto::encode_stats_response(snapshot, traces),
       [](auto w) { (void)proto::decode_stats_response(w); }},
      {"space adaptor", sap::perturb::SpaceAdaptor::between(g_i, g_t).serialize(),
       [](auto w) { (void)sap::perturb::SpaceAdaptor::deserialize(w); }},
  };
  for (auto& c : blob_cases()) cases.push_back({c.job + " merge", c.blob, c.merge});

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_NO_THROW(c.decode(c.wire));
    for (std::size_t len = 0; len <= c.wire.size() + 3; ++len) {
      if (len == c.wire.size()) continue;
      std::vector<double> w(len, 0.0);
      std::copy_n(c.wire.begin(), std::min(len, c.wire.size()), w.begin());
      EXPECT_THROW(c.decode(w), sap::Error) << "len=" << len;
    }
  }
}

}  // namespace

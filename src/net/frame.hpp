// sap::net wire format — length-prefixed, versioned, checksummed frames.
//
// A frame is the byte-level unit every sap::net connection exchanges:
//
//   offset  size  field
//   0       4     magic 0x53415046 ("SAPF", little-endian on the wire)
//   4       1     version (kFrameVersion; anything else is rejected)
//   5       1     frame type (FrameType)
//   6       1     payload kind (proto::PayloadKind for kData, 0 otherwise)
//   7       1     reserved, must be 0
//   8       4     from party id
//   12      4     to party id
//   16      8     trace id (0 = untraced; minted at the serving door and
//                 echoed on responses / propagated router -> shard, §12)
//   24      4     body length in bytes (bounded by the reader's max)
//   28      4     CRC-32 over header bytes [0, 28) + the body
//   32      ...   body
//
// kData bodies carry an EncryptedEnvelope byte-exactly: the 8-byte
// integrity word followed by the ciphertext words (little-endian u64s) —
// the door routes ciphertext it cannot open, exactly like the
// in-process network's metadata trace. Control frames (Hello/Welcome/
// Error/Bye) use small fixed bodies described at their helpers.
//
// Decoding treats every byte as adversarial: bad magic, unknown version or
// type, oversized length, truncated body, or a checksum mismatch all raise
// sap::Error without reading out of bounds (fuzzed in tests/fuzz_test.cpp
// under ASan/UBSan).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocol/message.hpp"

namespace sap::net {

constexpr std::uint32_t kFrameMagic = 0x53415046u;  // "SAPF"
constexpr std::uint8_t kFrameVersion = 2;  ///< v2 added the 8-byte trace id field
constexpr std::size_t kFrameHeaderBytes = 32;
/// Default body cap (64 MiB) — large enough for any realistic shard, small
/// enough that a hostile length prefix cannot balloon memory.
constexpr std::size_t kDefaultMaxBody = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,    ///< client -> door: claim an id (body: u32 desired id)
  kWelcome = 2,  ///< door -> client: id granted (body: u32 granted id)
  kData = 3,     ///< routed protocol message (body: envelope bytes)
  kError = 4,    ///< door -> client: refusal (body: ASCII message)
  kBye = 5,      ///< polite shutdown (empty body)
};

/// Hello body value asking the door to assign the next free id.
constexpr std::uint32_t kClaimAnyParty = 0xFFFFFFFFu;
/// First id the door auto-assigns. High base so such a client is never
/// handed a party's id (providers 0..k-1, miner k), even when it arrives
/// before that party does; ids from here up cannot be claimed by name.
constexpr std::uint32_t kFirstClientId = 1u << 20;
/// Per-connection outbound queue cap at the door: a peer that stops
/// draining costs at most this much memory before it is disconnected.
constexpr std::size_t kMaxOutqBytes = 64u << 20;

struct Frame {
  std::uint8_t version = kFrameVersion;
  FrameType type = FrameType::kData;
  std::uint8_t payload_kind = 0;  ///< proto::PayloadKind for kData
  proto::PartyId from = 0;
  proto::PartyId to = 0;
  /// Request-trace id (obs/trace.hpp): 0 = untraced. A serving door mints
  /// one for incoming zeros, echoes it on responses, and the router
  /// forwards it on the scatter frames so every hop logs the same id.
  std::uint64_t trace = 0;
  std::vector<std::uint8_t> body;
  /// LOCAL metadata, never serialized: steady-clock nanoseconds at which
  /// the receiving door finished parsing this frame (0 = unknown). The
  /// handler reads it to measure queue wait without a second wire field.
  std::uint64_t recv_steady_ns = 0;
};

/// Zero-copy decode result: `body` points into the reader's buffer and is
/// valid only until the next feed()/reset() call. Hot paths (the reactor's
/// read loop, the bench driver) parse with this and copy only the frames
/// they must hand to another thread.
struct FrameView {
  std::uint8_t version = kFrameVersion;
  FrameType type = FrameType::kData;
  std::uint8_t payload_kind = 0;
  proto::PartyId from = 0;
  proto::PartyId to = 0;
  std::uint64_t trace = 0;
  std::span<const std::uint8_t> body;
};

/// CRC-32 (IEEE 802.3, reflected) — the frame checksum.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0);

/// Serialize `frame` onto the end of `out`.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Incremental frame decoder over a byte stream. feed() buffers; next()
/// yields complete frames in order and throws sap::Error the moment the
/// stream is provably malformed (the connection must then be dropped — a
/// framing error is not recoverable mid-stream).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_body = kDefaultMaxBody) : max_body_(max_body) {}

  void feed(const std::uint8_t* data, std::size_t len);

  /// Decode the next complete frame into `out`; false when more bytes are
  /// needed. Throws sap::Error on malformed input.
  bool next(Frame& out);

  /// Zero-copy variant: `out.body` aliases the internal buffer and stays
  /// valid only until the next feed()/reset(). Same validation and
  /// exception contract as next().
  bool next_view(FrameView& out);

  /// Drop all buffered bytes and release their memory (a client clearing
  /// out a dead connection's half-received frame before it redials).
  void reset();

  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

  /// Bytes of internal buffer currently reserved. Long-lived connections
  /// must see this stabilize (the lazy compaction in feed() reuses the
  /// allocation instead of growing it per frame) — asserted over 10k
  /// sequential frames in socket_test.
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t max_body_;
};

// ---- body codecs ---------------------------------------------------------

/// Envelope -> kData body bytes (integrity word + ciphertext words, LE).
[[nodiscard]] std::vector<std::uint8_t> envelope_body(const proto::EncryptedEnvelope& env);

/// kData body bytes -> envelope; throws sap::Error unless the size is a
/// positive multiple of 8 covering the integrity word. Accepts spans so a
/// FrameView body decodes without an intermediate copy.
[[nodiscard]] proto::EncryptedEnvelope body_envelope(std::span<const std::uint8_t> body);

/// One-pass seal: `plain` under `key` straight into kData body bytes, in
/// one allocation and the envelope's own seal loop. Byte for byte
/// envelope_body(EncryptedEnvelope(plain, key)).
[[nodiscard]] std::vector<std::uint8_t> seal_body(std::span<const double> plain,
                                                  std::uint64_t key);

/// One-pass open: kData body bytes straight to the payload, with no
/// envelope in between. Returns body_envelope(body).open(key) and throws
/// the same sap::Error where that does.
[[nodiscard]] std::vector<double> open_body(std::span<const std::uint8_t> body,
                                            std::uint64_t key);

/// u32 control bodies (Hello desired id / Welcome granted id).
[[nodiscard]] std::vector<std::uint8_t> u32_body(std::uint32_t value);
[[nodiscard]] std::uint32_t body_u32(std::span<const std::uint8_t> body);

/// kError bodies (printable ASCII, truncated to 256 bytes).
[[nodiscard]] std::vector<std::uint8_t> text_body(const std::string& text);
[[nodiscard]] std::string body_text(std::span<const std::uint8_t> body);

}  // namespace sap::net

#include "net/frame.hpp"

#include <array>
#include <cstring>

#include "common/error.hpp"

namespace sap::net {
namespace {

/// Slice-by-8 tables: tables[0] is the bytewise CRC-32 table, and
/// tables[s][b] advances tables[s-1][b] by one more zero byte, so eight
/// lookups fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      tables[s][i] = (tables[s - 1][i] >> 8) ^ tables[0][tables[s - 1][i] & 0xFFu];
  return tables;
}

constexpr auto kCrcTables = make_crc_tables();

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// Little-endian store; the compiler merges the byte stores into one word.
void store_u64(std::uint8_t* p, std::uint64_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  p[4] = static_cast<std::uint8_t>(v >> 32);
  p[5] = static_cast<std::uint8_t>(v >> 40);
  p[6] = static_cast<std::uint8_t>(v >> 48);
  p[7] = static_cast<std::uint8_t>(v >> 56);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  out.resize(out.size() + 8);
  store_u64(out.data() + out.size() - 8, v);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kBye);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const std::uint32_t lo = c ^ get_u32(data + i);
    const std::uint32_t hi = get_u32(data + i + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < len; ++i) c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  SAP_REQUIRE(known_type(static_cast<std::uint8_t>(frame.type)),
              "encode_frame: unknown frame type");
  // The length prefix is 32-bit: reject instead of silently truncating into
  // a frame the peer would drop as a checksum mismatch.
  SAP_REQUIRE(frame.body.size() <= 0xFFFFFFFFu, "encode_frame: body exceeds u32 length");
  const std::size_t start = out.size();
  out.reserve(start + kFrameHeaderBytes + frame.body.size());
  put_u32(out, kFrameMagic);
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  out.push_back(frame.payload_kind);
  out.push_back(0);  // reserved
  put_u32(out, frame.from);
  put_u32(out, frame.to);
  put_u64(out, frame.trace);
  put_u32(out, static_cast<std::uint32_t>(frame.body.size()));
  // CRC over the header-so-far + body; the crc field itself is excluded.
  std::uint32_t crc = crc32(out.data() + start, 28);
  crc = crc32(frame.body.data(), frame.body.size(), crc);
  put_u32(out, crc);
  out.insert(out.end(), frame.body.begin(), frame.body.end());
}

void FrameReader::reset() {
  buf_.clear();
  buf_.shrink_to_fit();
  pos_ = 0;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t len) {
  // Compact lazily so long streams do not grow the buffer unboundedly.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10) && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameReader::next_view(FrameView& out) {
  if (buffered() < kFrameHeaderBytes) return false;
  const std::uint8_t* h = buf_.data() + pos_;
  SAP_REQUIRE(get_u32(h) == kFrameMagic, "FrameReader: bad magic (not a SAP frame)");
  SAP_REQUIRE(h[4] == kFrameVersion,
              "FrameReader: unsupported frame version " + std::to_string(h[4]));
  SAP_REQUIRE(known_type(h[5]), "FrameReader: unknown frame type");
  SAP_REQUIRE(h[7] == 0, "FrameReader: nonzero reserved byte");
  const std::size_t body_len = get_u32(h + 24);
  SAP_REQUIRE(body_len <= max_body_, "FrameReader: frame body exceeds the size cap");
  if (buffered() < kFrameHeaderBytes + body_len) return false;
  const std::uint8_t* body = h + kFrameHeaderBytes;
  std::uint32_t crc = crc32(h, 28);
  crc = crc32(body, body_len, crc);
  SAP_REQUIRE(crc == get_u32(h + 28), "FrameReader: frame checksum mismatch");

  out.version = h[4];
  out.type = static_cast<FrameType>(h[5]);
  out.payload_kind = h[6];
  out.from = get_u32(h + 8);
  out.to = get_u32(h + 12);
  out.trace = get_u64(h + 16);
  out.body = {body, body_len};
  pos_ += kFrameHeaderBytes + body_len;
  return true;
}

bool FrameReader::next(Frame& out) {
  FrameView view;
  if (!next_view(view)) return false;
  out.version = view.version;
  out.type = view.type;
  out.payload_kind = view.payload_kind;
  out.from = view.from;
  out.to = view.to;
  out.trace = view.trace;
  out.body.assign(view.body.begin(), view.body.end());
  return true;
}

std::vector<std::uint8_t> envelope_body(const proto::EncryptedEnvelope& env) {
  const auto words = env.ciphertext();
  std::vector<std::uint8_t> body(8 + words.size() * 8);
  store_u64(body.data(), env.checksum());
  for (std::size_t i = 0; i < words.size(); ++i) store_u64(body.data() + 8 + 8 * i, words[i]);
  return body;
}

proto::EncryptedEnvelope body_envelope(std::span<const std::uint8_t> body) {
  SAP_REQUIRE(body.size() >= 8 && body.size() % 8 == 0,
              "body_envelope: malformed envelope body");
  const std::uint64_t checksum = get_u64(body.data());
  std::vector<std::uint64_t> cipher(body.size() / 8 - 1);
  for (std::size_t i = 0; i < cipher.size(); ++i)
    cipher[i] = get_u64(body.data() + 8 + 8 * i);
  return proto::EncryptedEnvelope::from_raw(std::move(cipher), checksum);
}

std::vector<std::uint8_t> u32_body(std::uint32_t value) {
  std::vector<std::uint8_t> body;
  put_u32(body, value);
  return body;
}

std::uint32_t body_u32(std::span<const std::uint8_t> body) {
  SAP_REQUIRE(body.size() == 4, "body_u32: malformed control body");
  return get_u32(body.data());
}

std::vector<std::uint8_t> text_body(const std::string& text) {
  std::vector<std::uint8_t> body;
  for (std::size_t i = 0; i < text.size() && i < 256; ++i) {
    const char c = text[i];
    body.push_back((c >= 32 && c <= 126) ? static_cast<std::uint8_t>(c) : '?');
  }
  return body;
}

std::string body_text(std::span<const std::uint8_t> body) {
  std::string text;
  for (std::size_t i = 0; i < body.size() && i < 256; ++i) {
    const char c = static_cast<char>(body[i]);
    text.push_back((c >= 32 && c <= 126) ? c : '?');
  }
  return text;
}

}  // namespace sap::net

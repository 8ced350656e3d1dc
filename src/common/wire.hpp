// The double wire's one cursor.
//
// Every protocol payload, exact-merge partial blob, nonce tag and space
// adaptor travels as a flat std::vector<double>. How a value rides that wire
// (which integers fit, how a label, a string or a nonce becomes a double) is
// decided here and nowhere else: decoders read through wire::Reader and
// encoders write through wire::Writer. Payloads are adversarial input
// (DESIGN.md §7), so every Reader field throws sap::Error naming the codec
// and the field, and every Writer field enforces the bound its Reader
// applies, so an encoder cannot emit a value every peer would reject.
//
//   field            Reader accepts                      Writer refuses
//   count(max)       an integer in [0, max]              v > max
//   u64              an integer below 2^53               v >= 2^53
//   label            an integer with |v| < 2e9           |v| >= 2e9
//   flag             exactly 0.0 or 1.0                  (a bool always fits)
//   text             1..128 printable ASCII, length-     empty, longer, or a
//                    prefixed, one code point per double non-printable char
//   finite           one finite double                   non-finite
//   value, block(n)  raw doubles                         nothing
//   finite_block(n)  n finite doubles                    (written as block)
//   finish()         nothing left unread                 -
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace sap::wire {

/// count()'s default cap: every count is below 1e9.
inline constexpr std::size_t kMaxCount = 1000000000ULL - 1;
/// 2^53: every integer below it is exactly representable as a double. This
/// is the one copy of the bound (sap_lint R3 keeps it in this file).
inline constexpr std::uint64_t kDoubleExactLimit = 1ULL << 53;
/// Labels stay inside int's range with room to spare.
inline constexpr double kLabelLimit = 2e9;
/// Longest text field, in characters.
inline constexpr std::size_t kMaxText = 128;

/// Throws sap::Error "<codec>: <problem> <what>".
[[noreturn]] inline void fail(const char* codec, const char* problem, const char* what) {
  detail::raise(std::string(codec) + ": " + problem + " " + what);
}

/// Bounds-checked reads off one payload. `codec` names the decoder in every
/// error and must outlive the reader, like the viewed payload. Every `max`
/// must be below 2^53.
class Reader {
 public:
  Reader(std::span<const double> wire, const char* codec) noexcept
      : wire_(wire), codec_(codec) {}

  std::size_t count(const char* what, std::size_t max = kMaxCount) {
    const double v = next(what);
    if (!(v >= 0.0 && v <= static_cast<double>(max) && v == std::floor(v)))
      fail(codec_, "malformed", what);
    return static_cast<std::size_t>(v);
  }

  std::uint64_t u64(const char* what) {
    const double v = next(what);
    if (!(v >= 0.0 && v < static_cast<double>(kDoubleExactLimit) && v == std::floor(v)))
      fail(codec_, "malformed", what);
    return static_cast<std::uint64_t>(v);
  }

  int label(const char* what) {
    const double v = next(what);
    if (!(std::abs(v) < kLabelLimit && v == std::floor(v))) fail(codec_, "malformed", what);
    return static_cast<int>(v);
  }

  bool flag(const char* what) {
    const double v = next(what);
    if (v != 0.0 && v != 1.0) fail(codec_, "malformed", what);
    return v == 1.0;
  }

  std::string text(const char* what) {
    const std::size_t len = count(what, kMaxText);
    if (len == 0) fail(codec_, "empty", what);
    std::string out;
    out.reserve(len);
    for (const double v : block(len, what)) {
      if (!(v >= 32.0 && v <= 126.0 && v == std::floor(v)))
        fail(codec_, "hostile char in", what);
      out.push_back(static_cast<char>(v));
    }
    return out;
  }

  double finite(const char* what) {
    const double v = next(what);
    if (!std::isfinite(v)) fail(codec_, "non-finite", what);
    return v;
  }

  double value(const char* what) { return next(what); }

  /// The next n values, unchecked; a view into the payload.
  std::span<const double> block(std::size_t n, const char* what) {
    if (n > wire_.size() - pos_) fail(codec_, "truncated", what);
    const auto out = wire_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// block(n), each value finite.
  std::span<const double> finite_block(std::size_t n, const char* what) {
    const auto out = block(n, what);
    for (const double v : out)
      if (!std::isfinite(v)) fail(codec_, "non-finite", what);
    return out;
  }

  /// Everything not yet read.
  std::span<const double> rest() noexcept {
    const auto out = wire_.subspan(pos_);
    pos_ = wire_.size();
    return out;
  }

  void finish() const {
    if (pos_ != wire_.size()) fail(codec_, "trailing values after", "the payload");
  }

 private:
  double next(const char* what) {
    if (pos_ == wire_.size()) fail(codec_, "truncated", what);
    return wire_[pos_++];
  }

  std::span<const double> wire_;
  std::size_t pos_ = 0;
  const char* codec_;
};

/// Checked writes onto one payload; every field refuses what its Reader
/// counterpart would reject. `codec` names the encoder in every error.
class Writer {
 public:
  explicit Writer(const char* codec, std::size_t reserve = 0) : codec_(codec) {
    wire_.reserve(reserve);
  }

  void count(std::size_t v, const char* what, std::size_t max = kMaxCount) {
    if (v > max) fail(codec_, "out of wire range:", what);
    wire_.push_back(static_cast<double>(v));
  }

  void u64(std::uint64_t v, const char* what) {
    if (v >= kDoubleExactLimit) fail(codec_, "not double-exact:", what);
    wire_.push_back(static_cast<double>(v));
  }

  void label(int v, const char* what) {
    const auto d = static_cast<double>(v);
    if (!(std::abs(d) < kLabelLimit)) fail(codec_, "out of wire range:", what);
    wire_.push_back(d);
  }

  void flag(bool v) { wire_.push_back(v ? 1.0 : 0.0); }

  void text(std::string_view s, const char* what) {
    if (s.empty() || s.size() > kMaxText) fail(codec_, "bad length for", what);
    for (const char c : s)
      if (c < 32 || c > 126) fail(codec_, "non-printable char in", what);
    wire_.push_back(static_cast<double>(s.size()));
    for (const char c : s) wire_.push_back(static_cast<double>(c));
  }

  void finite(double v, const char* what) {
    if (!std::isfinite(v)) fail(codec_, "non-finite", what);
    wire_.push_back(v);
  }

  void value(double v) { wire_.push_back(v); }

  void block(std::span<const double> values) {
    wire_.insert(wire_.end(), values.begin(), values.end());
  }

  [[nodiscard]] std::vector<double> take() noexcept { return std::move(wire_); }

 private:
  std::vector<double> wire_;
  const char* codec_;
};

}  // namespace sap::wire

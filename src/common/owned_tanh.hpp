// The owned tanh's one-element body, inline, for the two files that compile
// it: common/owned_math.cpp (the scalar sap::math::tanh) and
// privacy/fastica_step.cpp (each step-kernel variant's tanh pass, which the
// compiler vectorizes at that variant's width). Both run these operations
// in this order, each an IEEE + − × ÷ rounded once, so every form returns
// the same bits (DESIGN.md §8).
#pragma once

#include <bit>
#include <cstdint>

namespace sap::math::detail {

inline constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/// From here on tanh(|x|) is exactly 1. The correctly rounded tanh already
/// is 1 above about 19.06; clamping also keeps expm1's scale 2^k in range.
inline constexpr double kSaturation = 22.0;

/// Below this |x| the odd series is used, above it the expm1 form.
inline constexpr double kSeriesLimit = 0x1p-4;

/// tanh(a) = a + a^3 (s1 + a^2 (s2 + ...)): the Taylor coefficients through
/// a^13. For a < 1/16 the first term left out is below 1e-19 of a.
inline constexpr double kS1 = -1.0 / 3.0;
inline constexpr double kS2 = 2.0 / 15.0;
inline constexpr double kS3 = -17.0 / 315.0;
inline constexpr double kS4 = 62.0 / 2835.0;
inline constexpr double kS5 = -1382.0 / 155925.0;
inline constexpr double kS6 = 21844.0 / 6081075.0;

/// expm1(f) = f + f^2 (e2 + f (e3 + ...)): the Taylor coefficients 1/n!
/// through f^13. For |f| <= ln2/2 the first term left out is below 2e-17
/// of |f|.
inline constexpr double kE2 = 1.0 / 2.0;
inline constexpr double kE3 = 1.0 / 6.0;
inline constexpr double kE4 = 1.0 / 24.0;
inline constexpr double kE5 = 1.0 / 120.0;
inline constexpr double kE6 = 1.0 / 720.0;
inline constexpr double kE7 = 1.0 / 5040.0;
inline constexpr double kE8 = 1.0 / 40320.0;
inline constexpr double kE9 = 1.0 / 362880.0;
inline constexpr double kE10 = 1.0 / 3628800.0;
inline constexpr double kE11 = 1.0 / 39916800.0;
inline constexpr double kE12 = 1.0 / 479001600.0;
inline constexpr double kE13 = 1.0 / 6227020800.0;

/// ln 2 = kLn2Hi + kLn2Lo, with kLn2Hi's low 21 mantissa bits zero, so
/// k * kLn2Hi is exact for every k the clamp allows (fdlibm's split).
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;

/// 1.5 * 2^52: v + kRoundShift rounds v (|v| < 2^51) to the nearest
/// integer k, held in the low mantissa bits of the sum.
inline constexpr double kRoundShift = 0x1.8p52;

/// One element, with no branch: both the series and the expm1 form are
/// evaluated, and a select picks one.
[[gnu::always_inline]] inline double tanh_element(double x) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t sign = bits & kSignBit;
  double a = std::bit_cast<double>(bits ^ sign);  // |x|
  a = kSaturation < a ? kSaturation : a;          // a NaN stays NaN

  // Near 0: the odd series.
  const double a2 = a * a;
  double s = kS6;
  s = kS5 + a2 * s;
  s = kS4 + a2 * s;
  s = kS3 + a2 * s;
  s = kS2 + a2 * s;
  s = kS1 + a2 * s;
  const double series = a + a * (a2 * s);

  // Elsewhere: t = expm1(-2a) = 2^k expm1(f) + (2^k - 1), with
  // -2a = k ln2 + f and |f| <= ln2/2, then tanh(a) = -t / (t + 2).
  const double r = -2.0 * a;
  const double shifted = r * kInvLn2 + kRoundShift;
  const double k = shifted - kRoundShift;
  const double f = (r - k * kLn2Hi) - k * kLn2Lo;
  double p = kE13;
  p = kE12 + f * p;
  p = kE11 + f * p;
  p = kE10 + f * p;
  p = kE9 + f * p;
  p = kE8 + f * p;
  p = kE7 + f * p;
  p = kE6 + f * p;
  p = kE5 + f * p;
  p = kE4 + f * p;
  p = kE3 + f * p;
  p = kE2 + f * p;
  const double expm1_f = f + (f * f) * p;
  // 2^k from k's low bits in `shifted`: k + 1023 is the biased exponent
  // (k is in [-64, 0] after the clamp).
  const double scale =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(shifted) + 1023) << 52);
  const double t = scale * expm1_f + (scale - 1.0);
  const double quotient = -t / (t + 2.0);

  const double magnitude = a < kSeriesLimit ? series : quotient;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(magnitude) | sign);
}

}  // namespace sap::math::detail

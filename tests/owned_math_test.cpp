// Tests for sap::math, the elementary functions the library owns instead of
// calling libm (common/owned_math.hpp): accuracy against the host libm over
// a fixed sweep, the properties the exchange relies on, and every FastICA
// step-kernel variant's tanh pass against the scalar form, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/owned_math.hpp"
#include "data/synthetic.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"
#include "perturb/geometric.hpp"
#include "privacy/fastica_step.hpp"
#include "rng/rng.hpp"

namespace {

using sap::linalg::Matrix;

/// The largest gap between the owned tanh and the host's std::tanh over
/// sweep(), in units in the last place, as measured against glibc 2.36 on
/// x86-64 (its default, FMA, build and its non-FMA build alike).
constexpr std::int64_t kMaxUlpFromLibm = 3;
static_assert(kMaxUlpFromLibm <= 5);

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Distance in representable doubles between two finite values.
std::int64_t ulp_gap(double a, double b) {
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

/// Non-negative inputs in ascending order: dense near 0, every double
/// within 64 of the series/expm1 switch at 1/16, [1/16, 20] in steps of
/// 1/1024, and on past saturation (exactly 1 from 22).
std::vector<double> sweep() {
  std::vector<double> xs = {0.0, std::numeric_limits<double>::denorm_min(), 0x1p-1060,
                            std::numeric_limits<double>::min(), 0x1p-600, 0x1p-60};
  for (double x = 0x1p-40; x < 0x1p-4; x *= 1.0 + 0x1p-6) xs.push_back(x);
  double below = 0x1p-4;
  for (int i = 0; i < 64; ++i) below = std::nextafter(below, 0.0);
  for (double x = below; x < 0x1.0000000000040p-4; x = std::nextafter(x, kInf))
    xs.push_back(x);
  for (double x = 0x1.0000000000040p-4; x <= 20.0; x += 0x1p-10) xs.push_back(x);
  for (double x = 20.0; x <= 40.0; x += 0x1p-6) xs.push_back(x);
  for (const double x : {710.0, 1e300, std::numeric_limits<double>::max()}) xs.push_back(x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

TEST(OwnedTanh, WithinPinnedUlpOfLibm) {
  std::int64_t worst = 0;
  double worst_x = 0.0;
  for (const double x : sweep()) {
    for (const double v : {x, -x}) {
      const std::int64_t gap = ulp_gap(sap::math::tanh(v), std::tanh(v));
      if (gap > worst) {
        worst = gap;
        worst_x = v;
      }
    }
  }
  EXPECT_LE(worst, kMaxUlpFromLibm) << "at x = " << worst_x;
  // Near 0 the series is all but exact, and tiny inputs come back as is.
  for (const double x : {0x1p-30, 0x1p-60, std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min()})
    EXPECT_EQ(sap::math::tanh(x), x);
}

TEST(OwnedTanh, OddBoundedAndNonDecreasing) {
  const std::vector<double> xs = sweep();
  double previous = -kInf;
  // Walk the negative side from -max up to -0, then the positive side.
  std::vector<double> line;
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) line.push_back(-*it);
  line.insert(line.end(), xs.begin(), xs.end());
  for (const double x : line) {
    const double t = sap::math::tanh(x);
    EXPECT_EQ(bits(sap::math::tanh(-x)), bits(t) ^ 0x8000000000000000ULL) << x;
    EXPECT_LE(std::abs(t), 1.0) << x;
    EXPECT_GE(t, previous) << x;
    previous = t;
  }
}

TEST(OwnedTanh, SignedZerosSaturationInfinitiesAndNaN) {
  EXPECT_EQ(bits(sap::math::tanh(0.0)), bits(0.0));
  EXPECT_EQ(bits(sap::math::tanh(-0.0)), bits(-0.0));
  for (const double x : {22.0, std::nextafter(22.0, kInf), 23.0, 40.0, 710.0, 1e300,
                         std::numeric_limits<double>::max(), kInf}) {
    EXPECT_EQ(sap::math::tanh(x), 1.0) << x;
    EXPECT_EQ(sap::math::tanh(-x), -1.0) << x;
  }
  // tanh(x) rounds to 1 from about 19.06 on; the owned one is 1 there too.
  EXPECT_EQ(sap::math::tanh(19.5), 1.0);
  EXPECT_LT(sap::math::tanh(18.0), 1.0);
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()})
    EXPECT_TRUE(std::isnan(sap::math::tanh(nan)));
}

/// True when a step-kernel variant's tanh pass over values[offset, offset +
/// len) leaves every element the scalar form's bits, and the elements
/// around it untouched.
void expect_span_matches_scalar(const sap::privacy::StepKernel& kernel,
                                const std::vector<double>& values, std::size_t offset,
                                std::size_t len) {
  std::vector<double> buf = values;
  kernel.tanh_pass(std::span<double>(buf.data() + offset, len));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const bool inside = i >= offset && i < offset + len;
    const double want = inside ? sap::math::tanh(values[i]) : values[i];
    EXPECT_EQ(bits(buf[i]), bits(want)) << kernel.name << ", offset " << offset << ", length "
                                        << len << ", element " << i;
  }
}

TEST(OwnedTanh, SpanFormMatchesScalarBitForBit) {
  // Every variant's tanh pass this CPU runs (vec16 always, avx2 where the CPU
  // has it), so CI checks vec16 on an AVX2 host too.
  const auto kernels = sap::privacy::supported_step_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "vec16");

  // Every length from 0 to 17, at four start offsets, over values that mix
  // both sides of the switch, saturation, signed zeros, infinities and NaN.
  std::vector<double> values;
  const double specials[] = {0.0, -0.0, 0x1p-5, -0x1.0000000000001p-4, 0.7, -3.25,
                             21.0, -22.0, 1e300, kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  sap::rng::Engine eng(41);
  for (std::size_t i = 0; i < 24; ++i)
    values.push_back(i < std::size(specials) ? specials[i] : eng.normal(0.0, 2.0));
  for (const auto& kernel : kernels)
    for (std::size_t offset = 0; offset < 4; ++offset)
      for (std::size_t len = 0; len <= 17; ++len)
        expect_span_matches_scalar(kernel, values, offset, len);

  // The serving shape's projections: W Z for a 9 x 9 orthogonal W and the
  // row-standardized, perturbed 160-record Shuttle subsample FastICA runs
  // on in LocalOptimize.
  sap::rng::Engine prep(18);
  const auto workload = sap::data::make_stream_workload("Shuttle", 4, 16, 32, 1);
  const Matrix shard = workload.shards[0].features_T();
  Matrix z = sap::perturb::GeometricPerturbation::random(9, 0.1, prep)
                 .apply(sap::linalg::gather_cols(
                            shard, prep.sample_without_replacement(shard.cols(), 160)),
                        prep);
  const sap::linalg::Vector mean = sap::linalg::row_means(z);
  const sap::linalg::Vector sd = sap::linalg::row_stddev(z);
  for (std::size_t i = 0; i < z.rows(); ++i)
    for (double& v : z.row(i)) v = (v - mean[i]) / sd[i];
  const Matrix projection = sap::linalg::random_orthogonal(9, prep) * z;
  ASSERT_EQ(projection.rows(), 9u);
  ASSERT_EQ(projection.cols(), 160u);
  for (const auto& kernel : kernels)
    for (std::size_t i = 0; i < projection.rows(); ++i) {
      const auto row = projection.row(i);
      expect_span_matches_scalar(kernel, {row.begin(), row.end()}, 0, row.size());
    }
}

}  // namespace

#include "rng/rng.hpp"

#include <cmath>
#include <numbers>
#include <random>

#include "common/error.hpp"

namespace sap::rng {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step over the state words.
inline std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1, std::uint64_t& s2,
                          std::uint64_t& s3) noexcept {
  const std::uint64_t result = rotl(s0 + s3, 23) + s0;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

}  // namespace

Engine::Engine(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; SplitMix64 cannot emit
  // four consecutive zeros, but keep the guard for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ULL;
}

Engine::result_type Engine::operator()() noexcept { return step(s_[0], s_[1], s_[2], s_[3]); }

void Engine::fill(std::span<result_type> out) noexcept {
  // The state lives in registers for the whole block.
  std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
  for (auto& word : out) word = step(s0, s1, s2, s3);
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double Engine::uniform() noexcept {
  // 53 high bits → double in [0,1) with full mantissa resolution.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Engine::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Engine::uniform_index(std::uint64_t n) {
  SAP_REQUIRE(n > 0, "uniform_index: n must be positive");
  // Lemire-style rejection for unbiased sampling.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Engine::uniform_int(std::int64_t lo, std::int64_t hi) {
  SAP_REQUIRE(lo <= hi, "uniform_int: lo must be <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Engine::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 bounded away from 0 so log() is finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Engine::normal(double mean, double sigma) {
  SAP_REQUIRE(sigma >= 0.0, "normal: sigma must be non-negative");
  return mean + sigma * normal();
}

bool Engine::bernoulli(double p) noexcept { return uniform() < p; }

std::vector<std::size_t> Engine::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<std::size_t> Engine::sample_without_replacement(std::size_t n, std::size_t k) {
  SAP_REQUIRE(k <= n, "sample_without_replacement: k must be <= n");
  // Partial Fisher–Yates over an index vector: O(n) space, O(n + k) time.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<double> Engine::dirichlet(std::size_t n, double alpha) {
  SAP_REQUIRE(alpha > 0.0, "dirichlet: alpha must be positive");
  // Gamma(alpha) via Marsaglia–Tsang (with boost for alpha < 1), normalized.
  auto gamma_draw = [this](double shape) {
    double boost = 1.0;
    if (shape < 1.0) {
      boost = std::pow(uniform() + 1e-12, 1.0 / shape);
      shape += 1.0;
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
      if (u > 1e-300 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
        return boost * d * v;
    }
  };
  std::vector<double> w(n);
  double total = 0.0;
  for (auto& v : w) {
    v = gamma_draw(alpha);
    total += v;
  }
  SAP_REQUIRE(total > 0.0, "dirichlet: degenerate sample");
  for (auto& v : w) v /= total;
  return w;
}

Engine Engine::spawn() {
  std::uint64_t child_seed = (*this)() ^ 0xA5A5A5A55A5A5A5AULL;
  return Engine(child_seed);
}

std::uint64_t entropy_word() {
  std::random_device source;
  std::uint64_t word = 0;
  for (int half = 0; half < 2; ++half) word = word << 32 | source();
  return word;
}

}  // namespace sap::rng

// Deterministic random number generation for libsap.
//
// Everything stochastic in the library (rotation sampling, noise, the SAP
// permutation, synthetic data) draws from sap::rng::Engine so that a single
// seed reproduces an entire protocol run bit-for-bit. The engine is
// xoshiro256++ (Blackman & Vigna), seeded through SplitMix64; it satisfies
// std::uniform_random_bit_generator so it composes with <algorithm>.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sap::rng {

/// xoshiro256++ pseudo-random engine with convenience distributions.
///
/// Not cryptographically secure — it models the *randomized algorithm*
/// aspects of the paper (perturbation sampling, permutation τ), not the
/// encryption layer (see proto::EncryptedEnvelope for that boundary).
class Engine {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion of `seed` (any value is fine, incl. 0).
  explicit Engine(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// The next out.size() raw outputs, in order: the words that many
  /// operator() calls return, drawn in one call (the envelope keystream).
  void fill(std::span<result_type> out) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n); requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal() noexcept;

  /// Normal with the given mean / standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Bernoulli draw.
  bool bernoulli(double p) noexcept;

  /// Random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<std::size_t> permutation(std::size_t n);

  /// k distinct indices sampled uniformly from {0,...,n-1}; requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Dirichlet(alpha,...,alpha) sample of length n — used by the skewed
  /// partitioner. Larger alpha → more uniform weights. Requires alpha > 0.
  std::vector<double> dirichlet(std::size_t n, double alpha);

  /// Independent child engine; parent and child streams do not overlap in
  /// practice (re-seeded through SplitMix64 from fresh parent output).
  Engine spawn();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// One unpredictable word from the operating system's entropy source. Not
/// for any draw a run must reproduce: it names a process instance, so that
/// identifiers one process hands out (a member's eval-prefix handles,
/// DESIGN.md §11) differ from those an earlier process at the same address
/// handed out. The one nondeterministic source in the tree (sap_lint R1).
[[nodiscard]] std::uint64_t entropy_word();

}  // namespace sap::rng

// FastICA's fixed-point step at the CPU's vector width: the three products
// one fast_ica iteration spends its time in.
//
// For the unmixing W (k x k) and the whitened records Z (k x n) a step
// computes
//   g = tanh(W Z)                          k x n, the owned sap::math::tanh
//   gprime[i] = sum over t of 1 - g(i,t)^2 k
//   gz = g Z^T                             k x k
//
// Exactness contract: each element of W Z and of g Z^T is ONE ascending
// chain over the inner index from +0.0 (`acc += a * b`), the chain gemm and
// matmul_abt_into compute; each tanh is sap::math::tanh's bits; each
// gprime[i] is one ascending chain over t from 0.0. The kernel keeps its
// output tiles in registers, one chain per vector lane, as IEEE vector mul
// and add with no fused multiply-add (the library builds with
// -ffp-contract=off and no variant enables FMA), so every variant gives the
// plain loops' bits (DESIGN.md §8, "FastICA's step at vector width").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace sap::privacy {

/// What one fast_ica call's steps read and write, held for the whole call:
/// the whitened records, a copy of their transpose made once, and the last
/// step's outputs.
class StepBuffers {
 public:
  /// Zᵀ's rows are padded with zeros to a multiple of this many values,
  /// the widest variant's vector.
  static constexpr std::size_t kPad = 4;

  /// z: the whitened records, k x n (k, n >= 1).
  explicit StepBuffers(linalg::Matrix z);

  [[nodiscard]] const linalg::Matrix& z() const noexcept { return z_; }
  /// Zᵀ, row-major: row t holds column t of Z in its first k values, then
  /// zeros up to zt_stride().
  [[nodiscard]] const double* zt() const noexcept { return zt_.data(); }
  [[nodiscard]] std::size_t zt_stride() const noexcept { return zt_stride_; }

  linalg::Matrix g;       ///< tanh(W Z), k x n
  linalg::Matrix gz;      ///< g Zᵀ, k x k
  linalg::Vector gprime;  ///< gprime[i]: 1 - g(i, t)^2 summed over t

 private:
  linalg::Matrix z_;
  std::size_t zt_stride_;
  std::vector<double> zt_;
};

/// One instantiation of the step kernel.
struct StepKernel {
  const char* name;  ///< "vec16" (16-byte vectors) or "avx2" (32-byte)
  /// tanh of every value, in place: sap::math::tanh's bits on each.
  void (*tanh_pass)(std::span<double> values);
  /// One step for the unmixing w (k x k, k = buf.z().rows()): fills buf.g,
  /// buf.gz and buf.gprime.
  void (*step)(const linalg::Matrix& w, StepBuffers& buf);
};

/// The variants this CPU can run: vec16 on every target, then avx2 on an
/// x86-64 CPU that has it.
[[nodiscard]] std::vector<StepKernel> supported_step_kernels();
/// The variant fast_ica runs: the last of supported_step_kernels(), picked
/// once per process.
[[nodiscard]] const StepKernel& step_kernel();

}  // namespace sap::privacy

#include "privacy/fastica.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "linalg/decompose.hpp"
#include "linalg/stats.hpp"
#include "privacy/fastica_step.hpp"

namespace sap::privacy {
namespace {

/// The decorrelation's k x k buffers, held for one fast_ica call.
struct DecorrelationBuffers {
  linalg::Matrix gram;      ///< W W^T
  linalg::Matrix scaled;    ///< V D^{-1/2}
  linalg::Matrix inv_sqrt;  ///< V D^{-1/2} V^T = (W W^T)^{-1/2}
};

/// Symmetric decorrelation: out <- (W W^T)^{-1/2} W, bit for bit the
/// explicit product V D^{-1/2} V^T W (DESIGN §8). The two matmul_abt
/// products are gemm's chains against the transposes. In gemm's chain for
/// V D, every term but one adds a signed zero to the +0.0 start, so the
/// column scale 0.0 + V(i,j) * (1 / sqrt(lambda_j)) is that chain's value.
void symmetric_decorrelate(const linalg::Matrix& w, DecorrelationBuffers& buf,
                           linalg::Matrix& out) {
  linalg::matmul_abt_into(w, w, buf.gram);
  const auto eig = linalg::sym_eigen(buf.gram);
  const std::size_t k = w.rows();
  for (std::size_t j = 0; j < k; ++j) {
    SAP_REQUIRE(eig.values[j] > 1e-12, "fast_ica: degenerate decorrelation");
    const double scale = 1.0 / std::sqrt(eig.values[j]);
    for (std::size_t i = 0; i < k; ++i) buf.scaled(i, j) = 0.0 + eig.vectors(i, j) * scale;
  }
  linalg::matmul_abt_into(buf.scaled, eig.vectors, buf.inv_sqrt);
  linalg::gemm(1.0, buf.inv_sqrt, w, 0.0, out);
}

}  // namespace

FastIcaResult fast_ica(const linalg::Matrix& observations, const FastIcaOptions& opts,
                       rng::Engine& eng) {
  const std::size_t d = observations.rows();
  const std::size_t n = observations.cols();
  SAP_REQUIRE(d >= 2, "fast_ica: need at least two dimensions");
  SAP_REQUIRE(n >= 8, "fast_ica: need at least eight observations");
  const std::size_t k = (opts.components == 0) ? d : std::min(opts.components, d);

  // ---- center
  linalg::Matrix x = observations;
  const linalg::Vector mean = linalg::row_means(x);
  for (std::size_t i = 0; i < d; ++i) {
    auto row = x.row(i);
    for (auto& v : row) v -= mean[i];
  }

  // ---- whiten: Z = D^{-1/2} V^T X with cov = V D V^T
  const linalg::Matrix cov = linalg::covariance_cols(x);
  const auto eig = linalg::sym_eigen(cov);
  SAP_REQUIRE(eig.values[k - 1] > 1e-12, "fast_ica: covariance too degenerate to whiten");
  linalg::Matrix whitener(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    const double scale = 1.0 / std::sqrt(eig.values[i]);
    for (std::size_t j = 0; j < d; ++j) whitener(i, j) = scale * eig.vectors(j, i);
  }
  // Z = whitener X (k x N, identity covariance), with the copy of Z^T the
  // step kernel reads, made once.
  StepBuffers steps(whitener * x);
  const StepKernel& kernel = step_kernel();

  // ---- symmetric fixed-point iteration with g = tanh, on buffers held for
  // the whole call
  DecorrelationBuffers buf{linalg::Matrix(k, k), linalg::Matrix(k, k), linalg::Matrix(k, k)};
  linalg::Matrix w(k, k);
  symmetric_decorrelate(linalg::Matrix::generate(k, k, [&] { return eng.normal(); }), buf, w);
  linalg::Matrix step(k, k);
  linalg::Matrix w_new(k, k);

  FastIcaResult result;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    // g(W Z), E[g'(W Z)] and E[g(W Z) Z^T] at the CPU's vector width, then
    // E[g(W Z) Z^T] - E[g'(W Z)] W.
    kernel.step(w, steps);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        step(i, j) = steps.gz(i, j) * inv_n - steps.gprime[i] * inv_n * w(i, j);
    symmetric_decorrelate(step, buf, w_new);

    // Convergence: rows should align with previous rows up to sign.
    double delta = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double align = std::abs(linalg::dot(w_new.row(i), w.row(i)));
      delta = std::max(delta, std::abs(1.0 - align));
    }
    std::swap(w, w_new);
    result.iterations = iter + 1;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.sources = w * steps.z();   // k x N
  result.unmixing = w * whitener;   // k x d acting on centered data
  return result;
}

}  // namespace sap::privacy

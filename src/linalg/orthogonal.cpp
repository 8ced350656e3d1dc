#include "linalg/orthogonal.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/decompose.hpp"

namespace sap::linalg {

Matrix random_orthogonal(std::size_t d, rng::Engine& eng) {
  SAP_REQUIRE(d > 0, "random_orthogonal: dimension must be positive");
  Matrix g = Matrix::generate(d, d, [&] { return eng.normal(); });
  Qr f = qr_decompose(g);
  // Stewart's sign correction: scale Q's columns by sign(diag(R)) so the
  // distribution is exactly Haar (QR alone biases toward positive diagonal).
  for (std::size_t j = 0; j < d; ++j) {
    const double sign = (f.r(j, j) >= 0.0) ? 1.0 : -1.0;
    for (std::size_t i = 0; i < d; ++i) f.q(i, j) *= sign;
  }
  return std::move(f.q);
}

Matrix random_rotation(std::size_t d, rng::Engine& eng) {
  Matrix q = random_orthogonal(d, eng);
  if (determinant(q) < 0.0) {
    // Flip one column: stays Haar on SO(d) by symmetry.
    for (std::size_t i = 0; i < d; ++i) q(i, 0) = -q(i, 0);
  }
  return q;
}

double orthogonality_defect(const Matrix& q) {
  SAP_REQUIRE(q.rows() == q.cols(), "orthogonality_defect: matrix must be square");
  const Matrix gram = q.transpose() * q;
  const Matrix eye = Matrix::identity(q.rows());
  double defect = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i)
    for (std::size_t j = 0; j < gram.cols(); ++j)
      defect = std::max(defect, std::abs(gram(i, j) - eye(i, j)));
  return defect;
}

Matrix re_orthonormalize(const Matrix& q) {
  SAP_REQUIRE(q.rows() == q.cols() && q.rows() > 0,
              "re_orthonormalize: matrix must be square");
  Qr f = qr_decompose(q);
  // Sign correction keeps the result a perturbation of the input rather than
  // an arbitrary column-sign flip of it: for near-orthogonal q, R's diagonal
  // is close to ±1 and q ≈ Q diag(sign(diag(R))).
  for (std::size_t j = 0; j < q.cols(); ++j) {
    const double sign = (f.r(j, j) >= 0.0) ? 1.0 : -1.0;
    for (std::size_t i = 0; i < q.rows(); ++i) f.q(i, j) *= sign;
  }
  return std::move(f.q);
}

Matrix procrustes_rotation(const Matrix& src, const Matrix& dst) {
  SAP_REQUIRE(src.rows() == dst.rows() && src.cols() == dst.cols(),
              "procrustes_rotation: shape mismatch");
  SAP_REQUIRE(src.cols() >= 1, "procrustes_rotation: need at least one point");
  // Checked here as well as in svd: the m < d path QR-reduces first.
  SAP_REQUIRE(all_finite(src.data()) && all_finite(dst.data()),
              "procrustes_rotation: non-finite input");
  const std::size_t d = src.rows();
  const std::size_t m = src.cols();

  if (m >= d) {
    const Matrix cross = dst * src.transpose();
    const Svd f = svd(cross);
    return f.u * f.v.transpose();
  }

  // Fewer correspondence points than dimensions (the known-input attack's
  // common case): M = dst src^T has rank <= m, so running the d x d Jacobi
  // SVD wastes almost all of its sweeps on the null space. QR-reduce both
  // point sets instead — M = Qy (Ry Rx^T) Qx^T — and decompose only the
  // m x m core. Any orthonormal completion of the null space is an optimal
  // Procrustes solution (zero singular values contribute nothing to the
  // trace objective); the trailing columns of the two full Q factors are
  // exactly such a completion, so pair them up.
  const Qr qx = qr_decompose(src);
  const Qr qy = qr_decompose(dst);
  Matrix core(m, m);
  // core = Ry_top * Rx_top^T; both tops are m x m upper triangular.
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      const std::size_t k0 = std::max(i, j);  // triangular: terms below are zero
      for (std::size_t k = k0; k < m; ++k) acc += qy.r(i, k) * qx.r(j, k);
      core(i, j) = acc;
    }
  const Svd f = svd(core);

  // R = [Qy_thin Us | Qy_rest] * [Qx_thin Vs | Qx_rest]^T.
  const Matrix u_rot = qy.q.block(0, 0, d, m) * f.u;
  const Matrix v_rot = qx.q.block(0, 0, d, m) * f.v;
  Matrix r = matmul_abt(u_rot, v_rot);
  if (d > m) {
    const Matrix rest = matmul_abt(qy.q.block(0, m, d, d - m), qx.q.block(0, m, d, d - m));
    r += rest;
  }
  return r;
}

Matrix givens(std::size_t d, std::size_t p, std::size_t q, double angle) {
  SAP_REQUIRE(p < d && q < d && p != q, "givens: invalid plane");
  Matrix g = Matrix::identity(d);
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  g(p, p) = c;
  g(q, q) = c;
  g(p, q) = -s;
  g(q, p) = s;
  return g;
}

}  // namespace sap::linalg

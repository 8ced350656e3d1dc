#include "linalg/decompose.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace sap::linalg {

// ---------------------------------------------------------------- QR

Qr qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  SAP_REQUIRE(m > 0 && n > 0, "qr_decompose: empty matrix");
  SAP_REQUIRE(all_finite(a.data()), "qr_decompose: non-finite input");

  Matrix r = a;
  Matrix q = Matrix::identity(m);

  const std::size_t steps = std::min(m == 0 ? 0 : m - 1, n);
  for (std::size_t k = 0; k < steps; ++k) {
    // Householder vector for column k below the diagonal.
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += r(i, k) * r(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;

    const double alpha = (r(k, k) >= 0.0) ? -norm_x : norm_x;
    Vector v(m - k, 0.0);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    const double vnorm = norm2(v);
    if (vnorm < 1e-300) continue;
    for (auto& x : v) x /= vnorm;

    // r := (I - 2 v v^T) r on the trailing block.
    for (std::size_t j = k; j < n; ++j) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i - k] * r(i, j);
      proj *= 2.0;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= proj * v[i - k];
    }
    // q := q (I - 2 v v^T)  (accumulate reflections on the right so that
    // q * r == a at every step).
    for (std::size_t i = 0; i < m; ++i) {
      double proj = 0.0;
      for (std::size_t j = k; j < m; ++j) proj += q(i, j) * v[j - k];
      proj *= 2.0;
      for (std::size_t j = k; j < m; ++j) q(i, j) -= proj * v[j - k];
    }
  }
  // Clean numerical dust below the diagonal of R.
  for (std::size_t i = 1; i < m; ++i)
    for (std::size_t j = 0; j < std::min(i, n); ++j) r(i, j) = 0.0;
  return {std::move(q), std::move(r)};
}

// ---------------------------------------------------------------- LU

Lu lu_decompose(const Matrix& a) {
  SAP_REQUIRE(a.rows() == a.cols(), "lu_decompose: matrix must be square");
  const std::size_t n = a.rows();
  SAP_REQUIRE(n > 0, "lu_decompose: empty matrix");
  SAP_REQUIRE(all_finite(a.data()), "lu_decompose: non-finite input");

  Lu f;
  f.lu = a;
  f.piv.resize(n);
  std::iota(f.piv.begin(), f.piv.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below row k.
    std::size_t pivot = k;
    double best = std::abs(f.lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(f.lu(i, k));
      if (mag > best) {
        best = mag;
        pivot = i;
      }
    }
    SAP_REQUIRE(best > 1e-13, "lu_decompose: matrix is singular (to working precision)");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(f.lu(k, j), f.lu(pivot, j));
      std::swap(f.piv[k], f.piv[pivot]);
      f.sign = -f.sign;
    }
    const double diag = f.lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      f.lu(i, k) /= diag;
      const double lik = f.lu(i, k);
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) f.lu(i, j) -= lik * f.lu(k, j);
    }
  }
  return f;
}

Vector lu_solve(const Lu& f, std::span<const double> b) {
  const std::size_t n = f.lu.rows();
  SAP_REQUIRE(b.size() == n, "lu_solve: rhs size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[f.piv[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= f.lu(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= f.lu(ii, j) * x[j];
    x[ii] = acc / f.lu(ii, ii);
  }
  return x;
}

Matrix lu_solve(const Lu& f, const Matrix& b) {
  SAP_REQUIRE(b.rows() == f.lu.rows(), "lu_solve: rhs row count mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector col = b.col(c);
    const Vector sol = lu_solve(f, col);
    x.set_col(c, sol);
  }
  return x;
}

Matrix inverse(const Matrix& a) {
  const Lu f = lu_decompose(a);
  return lu_solve(f, Matrix::identity(a.rows()));
}

double determinant(const Matrix& a) {
  SAP_REQUIRE(a.rows() == a.cols(), "determinant: matrix must be square");
  // Checked here too: the catch below reads any lu_decompose error as
  // "singular", and a NaN is not a zero determinant.
  SAP_REQUIRE(all_finite(a.data()), "determinant: non-finite input");
  Lu f;
  try {
    f = lu_decompose(a);
  } catch (const Error&) {
    return 0.0;  // singular
  }
  double det = static_cast<double>(f.sign);
  for (std::size_t i = 0; i < a.rows(); ++i) det *= f.lu(i, i);
  return det;
}

// ---------------------------------------------------------------- Cholesky

Matrix cholesky(const Matrix& a) {
  SAP_REQUIRE(a.rows() == a.cols(), "cholesky: matrix must be square");
  SAP_REQUIRE(all_finite(a.data()), "cholesky: non-finite input");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        SAP_REQUIRE(acc > 0.0, "cholesky: matrix is not positive definite");
        l(i, i) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  return l;
}

// ---------------------------------------------------------------- Jacobi eigen

namespace {

/// x <- c x - s y and y <- s x + c y, element by element: one plane
/// rotation applied to two contiguous rows.
void rotate_rows(double* x, double* y, std::size_t n, double c, double s) {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    const double yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

}  // namespace

SymEigen sym_eigen(const Matrix& a, double tol, int max_sweeps) {
  SAP_REQUIRE(a.rows() == a.cols(), "sym_eigen: matrix must be square");
  // A NaN passes the symmetry check below and breaks the eigenvalue sort's
  // strict weak order; an inf comes back as finite eigenvalues.
  SAP_REQUIRE(all_finite(a.data()), "sym_eigen: non-finite input");
  const std::size_t n = a.rows();
  const double* in = a.data().data();
  // Symmetric within the tolerance, one test per pair in place:
  // a(i, j) - a(j, i) is exactly -(a(j, i) - a(i, j)).
  const double sym_tol = 1e-8 * (1.0 + a.max_abs());
  bool symmetric = true;
  for (std::size_t i = 0; i < n && symmetric; ++i)
    for (std::size_t j = i + 1; j < n && symmetric; ++j)
      symmetric = std::abs(in[i * n + j] - in[j * n + i]) <= sym_tol;
  SAP_REQUIRE(symmetric, "sym_eigen: matrix must be symmetric");

  // The working copy D and the rotations' product V, held transposed (row p
  // of vt is column p of V), on the stack up to kStackDim, which covers
  // FastICA's decorrelations and whitening at the serving shape.
  constexpr std::size_t kStackDim = 16;
  std::array<double, kStackDim * kStackDim> d_stack{};
  std::array<double, kStackDim * kStackDim> vt_stack{};
  std::array<std::size_t, kStackDim> order_stack{};
  std::vector<double> heap;
  std::vector<std::size_t> order_heap;
  double* d = d_stack.data();
  double* vt = vt_stack.data();
  std::size_t* order = order_stack.data();
  if (n > kStackDim) {
    heap.resize(2 * n * n);
    d = heap.data();
    vt = heap.data() + n * n;
    order_heap.resize(n);
    order = order_heap.data();
  }
  std::copy(in, in + n * n, d);
  std::fill(vt, vt + n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) vt[i * n + i] = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off = std::max(off, std::abs(d[p * n + q]));
    double max_abs = 0.0;
    for (std::size_t i = 0; i < n * n; ++i) max_abs = std::max(max_abs, std::abs(d[i]));
    if (off <= tol * (1.0 + max_abs)) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d[p * n + q];
        if (std::abs(apq) <= 1e-300) continue;
        const double app = d[p * n + p];
        const double aqq = d[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // D J: columns p and q of D.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d[k * n + p];
          const double dkq = d[k * n + q];
          d[k * n + p] = c * dkp - s * dkq;
          d[k * n + q] = s * dkp + c * dkq;
        }
        // J^T (D J): rows p and q of D. V J: rows p and q of vt.
        rotate_rows(d + p * n, d + q * n, n, c, s);
        rotate_rows(vt + p * n, vt + q * n, n, c, s);
      }
    }
  }

  // Sort eigenpairs descending by eigenvalue.
  std::iota(order, order + n, std::size_t{0});
  std::sort(order, order + n,
            [&](std::size_t x, std::size_t y) { return d[x * n + x] > d[y * n + y]; });

  SymEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  double* vectors = out.vectors.data().data();
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j] * n + order[j]];
    const double* column = vt + order[j] * n;
    for (std::size_t i = 0; i < n; ++i) vectors[i * n + j] = column[i];
  }
  return out;
}

// ---------------------------------------------------------------- SVD

Svd svd(const Matrix& a, double tol, int max_sweeps) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  SAP_REQUIRE(m > 0 && n > 0, "svd: empty matrix");
  // A NaN would run every Jacobi sweep and come back as NaN factors.
  SAP_REQUIRE(all_finite(a.data()), "svd: non-finite input");

  if (m < n) {
    // Work on the transpose and swap factors back: A = U S V^T  <=>
    // A^T = V S U^T.
    Svd t = svd(a.transpose(), tol, max_sweeps);
    return {std::move(t.v), std::move(t.s), std::move(t.u)};
  }

  // One-sided Jacobi: orthogonalize the columns of W = A by plane rotations
  // applied on the right; accumulate them into V. The iteration runs on the
  // TRANSPOSED storage (each column of W / V is a contiguous row of wt / vt)
  // so the O(n^2) column sweeps stream cache lines instead of striding, and
  // the inner loops run on raw pointers instead of bounds-checked element
  // access. The arithmetic — expressions, accumulation order, tolerance
  // checks — is exactly the classic column-layout loop, so the factors are
  // bit-identical to it; only the traversal changed.
  Matrix wt = a.transpose();  // n x m: row j = column j of W
  Matrix vt(n, n);            // row j = column j of V
  for (std::size_t j = 0; j < n; ++j) vt(j, j) = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wp = wt.row(p).data();
        double* wq = wt.row(q).data();
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += wp[i] * wp[i];
          beta += wq[i] * wq[i];
          gamma += wp[i] * wq[i];
        }
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta) || gamma == 0.0) continue;
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = wp[i];
          const double wiq = wq[i];
          wp[i] = c * wip - s * wiq;
          wq[i] = s * wip + c * wiq;
        }
        double* vp = vt.row(p).data();
        double* vq = vt.row(q).data();
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = vp[i];
          const double viq = vq[i];
          vp[i] = c * vip - s * viq;
          vq[i] = s * vip + c * viq;
        }
      }
    }
    if (!rotated) break;
  }

  // Singular values are the column norms of W; U's columns are W normalized.
  Svd out;
  out.s.resize(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Vector norms(n);
  for (std::size_t j = 0; j < n; ++j) norms[j] = norm2(wt.row(j));
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });

  // ut rows are U's columns; built sorted, normalized in place.
  Matrix ut(n, m);
  Matrix vsorted(n, n);
  std::vector<std::size_t> null_rows;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = norms[src];
    auto dst = ut.row(j);
    if (norms[src] > 1e-300) {
      const auto wrow = wt.row(src);
      for (std::size_t i = 0; i < m; ++i) dst[i] = wrow[i] / norms[src];
    } else {
      // Null direction (rank-deficient input): completed below.
      null_rows.push_back(j);
    }
    vsorted.set_row(j, vt.row(src));
  }
  out.v = vsorted.transpose();

  // Complete null-space columns of U so its columns are always orthonormal
  // (A = U S V^T is unchanged: the completed columns multiply zero singular
  // values). Gram–Schmidt against the existing columns starting from
  // canonical basis vectors; a usable one always exists since rank < m.
  for (const std::size_t j : null_rows) {
    bool placed = false;
    for (std::size_t e = 0; e < m && !placed; ++e) {
      Vector v(m, 0.0);
      v[e] = 1.0;
      for (std::size_t c = 0; c < n; ++c) {
        if (c == j) continue;
        const auto uc = ut.row(c);
        const double proj = dot(uc, v);
        for (std::size_t i = 0; i < m; ++i) v[i] -= proj * uc[i];
      }
      const double residual = norm2(v);
      if (residual > 1e-6) {
        for (auto& x : v) x /= residual;
        ut.set_row(j, v);
        placed = true;
      }
    }
    SAP_REQUIRE(placed, "svd: failed to complete null-space basis");
  }
  out.u = ut.transpose();
  return out;
}

}  // namespace sap::linalg

// Matrix decompositions: Householder QR, partially-pivoted LU, Cholesky,
// cyclic-Jacobi symmetric eigendecomposition, one-sided-Jacobi SVD.
//
// These back the random-orthogonal sampler (QR), the adaptor algebra and
// attack models (LU solve / inverse), ICA whitening (symmetric eigen) and
// the Procrustes known-input attack (SVD). Each one rejects a NaN or an
// infinite entry with sap::Error.
#pragma once

#include "linalg/matrix.hpp"

namespace sap::linalg {

/// QR factorization A = Q R with Q m x m orthogonal, R m x n upper
/// triangular (Householder reflections).
struct Qr {
  Matrix q;  ///< m x m orthogonal
  Matrix r;  ///< m x n upper triangular
};

/// Householder QR of any m x n matrix.
Qr qr_decompose(const Matrix& a);

/// LU factorization with partial pivoting: P A = L U packed in one matrix.
struct Lu {
  Matrix lu;                     ///< L (unit diagonal, strictly lower) + U
  std::vector<std::size_t> piv;  ///< row permutation applied to A
  int sign = 1;                  ///< permutation parity (for determinant)
};

/// Partially pivoted LU; throws sap::Error on singular input.
Lu lu_decompose(const Matrix& a);

/// Solve A x = b given the LU factorization of A.
Vector lu_solve(const Lu& f, std::span<const double> b);

/// Solve A X = B column-by-column.
Matrix lu_solve(const Lu& f, const Matrix& b);

/// Inverse via LU; throws sap::Error on singular input.
Matrix inverse(const Matrix& a);

/// Determinant via LU (0.0 for singular matrices).
double determinant(const Matrix& a);

/// Cholesky factor L (lower) of a symmetric positive-definite matrix:
/// A = L L^T. Throws sap::Error if A is not positive definite.
Matrix cholesky(const Matrix& a);

/// Symmetric eigendecomposition A = V diag(values) V^T,
/// eigenvalues sorted descending. Input must be symmetric.
struct SymEigen {
  Vector values;   ///< descending
  Matrix vectors;  ///< columns are the corresponding eigenvectors
};

/// Cyclic Jacobi rotations; `tol` bounds the off-diagonal infinity norm.
SymEigen sym_eigen(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// Thin singular value decomposition A = U diag(s) V^T
/// (U: m x n, s: n, V: n x n for m >= n; computed for any shape).
struct Svd {
  Matrix u;
  Vector s;  ///< descending, non-negative
  Matrix v;
};

/// One-sided Jacobi (Hestenes) SVD.
Svd svd(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

}  // namespace sap::linalg

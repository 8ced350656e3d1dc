// Dense double-precision matrix for libsap.
//
// Row-major, value-semantic, bounds-checked through SAP_REQUIRE. This is the
// numerical substrate for the whole library: geometric perturbations
// (G(X) = RX + Psi + Delta), the space-adaptor algebra, attack models and
// classifiers all operate on sap::linalg::Matrix.
//
// Layout conventions used across the library:
//   * ML-facing code (data::Dataset, classifiers) stores records as rows
//     (N x d).
//   * Perturbation / protocol code follows the paper's algebra and treats a
//     dataset as d x N — each *column* is one record — so that G(X) = RX + ...
//     type-checks with a d x d rotation R. Matrix::transpose converts.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace sap::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer list (row by row); all rows must have
  /// equal length. Intended for tests and examples.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// rows x cols with elements drawn by `gen()` (e.g. a lambda over Engine).
  template <typename Gen>
  static Matrix generate(std::size_t rows, std::size_t cols, Gen&& gen) {
    Matrix m(rows, cols);
    for (auto& v : m.data_) v = gen();
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Element access, bounds-checked. Inline: the decompositions and ICA
  /// loop through these, and an out-of-line call per element cost more than
  /// the arithmetic it fetched for.
  double& operator()(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) [[unlikely]] out_of_range("Matrix: index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) [[unlikely]] out_of_range("Matrix: index out of range");
    return data_[r * cols_ + c];
  }

  /// Contiguous row view, bounds-checked.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    if (r >= rows_) [[unlikely]] out_of_range("Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    if (r >= rows_) [[unlikely]] out_of_range("Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  /// Column copy (rows are contiguous; columns are strided).
  [[nodiscard]] Vector col(std::size_t c) const;

  void set_row(std::size_t r, std::span<const double> values);
  void set_col(std::size_t c, std::span<const double> values);

  /// Raw storage (row-major).
  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  [[nodiscard]] Matrix transpose() const;

  /// Submatrix copy: rows [r0, r0+nr) x cols [c0, c0+nc).
  [[nodiscard]] Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const;

  /// Horizontal concatenation [A | B]; row counts must match.
  [[nodiscard]] static Matrix hcat(const Matrix& a, const Matrix& b);

  /// Vertical concatenation; column counts must match.
  [[nodiscard]] static Matrix vcat(const Matrix& a, const Matrix& b);

  // Arithmetic (dimension-checked).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s) noexcept;
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product. Routed through the blocked gemm() kernel; bit-identical
  /// to matmul_naive (see gemm() for the exactness argument).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product; x.size() must equal cols().
  [[nodiscard]] Vector matvec(std::span<const double> x) const;

  /// A^T * x without forming the transpose; x.size() must equal rows().
  [[nodiscard]] Vector matvec_transposed(std::span<const double> x) const;

  [[nodiscard]] double norm_fro() const noexcept;
  [[nodiscard]] double max_abs() const noexcept;

  /// Elementwise comparison within absolute tolerance.
  [[nodiscard]] bool approx_equal(const Matrix& other, double tol) const noexcept;

  bool operator==(const Matrix& other) const noexcept = default;

  /// Human-readable rendering (tests / debugging).
  [[nodiscard]] std::string str(int precision = 4) const;

 private:
  /// Raises sap::Error; out of line and cold so the inline accessors keep
  /// only a compare and a branch on their hot path.
  [[noreturn, gnu::cold]] static void out_of_range(const char* message);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Dense kernels -------------------------------------------------------
//
// The blocked GEMM is the library's one hot-loop kernel: perturbation
// application, space-adaptor algebra, Procrustes and ICA all reduce to it.
// Exactness contract: every output element is accumulated as a single
// left-to-right chain over ascending k, exactly like the naive ikj loop —
// cache blocking only interleaves loads/stores between panels, it never
// reassociates a chain — so gemm(1, A, B, 0, C) is bit-identical to
// matmul_naive(A, B). Tests enforce this on ragged shapes.

/// C = alpha * A * B + beta * C, blocked (register micro-kernel over
/// cache-sized k panels). C must be pre-shaped to A.rows() x B.cols() and
/// must not alias A or B (checked). When `row_bias` is non-empty (size
/// A.rows()), bias[i] is added to every element of row i in the epilogue of
/// the last k panel — the fusion hook for the perturbation translation
/// term. beta == 0 overwrites C (NaN-safe).
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c,
          std::span<const double> row_bias = {});

/// Reference product (the naive ikj triple loop). Kept as the exactness
/// baseline for gemm (linalg_test) and as micro_linalg's unblocked timing.
[[nodiscard]] Matrix matmul_naive(const Matrix& a, const Matrix& b);

/// C = A * B^T without forming the transpose: C(i,j) = dot(A.row(i),
/// B.row(j)) with the same ascending single-chain accumulation as dot(),
/// so each element is bit-identical to the explicit dot product. A is
/// m x n, B is k x n, C is m x k (pre-shaped by the caller).
void matmul_abt_into(const Matrix& a, const Matrix& b, Matrix& c);
[[nodiscard]] Matrix matmul_abt(const Matrix& a, const Matrix& b);

/// Column gather: out(:, j) = x(:, idx[j]). One strided pass per row —
/// no per-column Vector temporaries (the subsampling hot path).
[[nodiscard]] Matrix gather_cols(const Matrix& x, std::span<const std::size_t> idx);

// ---- Free vector helpers (std::vector<double> based) ----

/// Dot product; sizes must match.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> v) noexcept;

/// y += alpha * x; sizes must match.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Euclidean distance between two points.
double distance(std::span<const double> a, std::span<const double> b);

/// True when no entry is NaN or infinite.
[[nodiscard]] bool all_finite(std::span<const double> v) noexcept;

}  // namespace sap::linalg

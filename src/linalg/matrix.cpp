#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace sap::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  SAP_REQUIRE((rows == 0) == (cols == 0), "Matrix: degenerate shape (one zero dimension)");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    SAP_REQUIRE(r.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::out_of_range(const char* message) { SAP_FAIL(message); }

Vector Matrix::col(std::size_t c) const {
  SAP_REQUIRE(c < cols_, "Matrix::col: index out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  SAP_REQUIRE(r < rows_ && values.size() == cols_, "Matrix::set_row: shape mismatch");
  std::copy(values.begin(), values.end(), data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void Matrix::set_col(std::size_t c, std::span<const double> values) {
  SAP_REQUIRE(c < cols_ && values.size() == rows_, "Matrix::set_col: shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = values[r];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t.data_[c * rows_ + r] = data_[r * cols_ + c];
  return t;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) const {
  SAP_REQUIRE(r0 + nr <= rows_ && c0 + nc <= cols_, "Matrix::block: out of range");
  Matrix b(nr, nc);
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t c = 0; c < nc; ++c) b(r, c) = data_[(r0 + r) * cols_ + (c0 + c)];
  return b;
}

Matrix Matrix::hcat(const Matrix& a, const Matrix& b) {
  SAP_REQUIRE(a.rows_ == b.rows_, "Matrix::hcat: row count mismatch");
  Matrix out(a.rows_, a.cols_ + b.cols_);
  for (std::size_t r = 0; r < a.rows_; ++r) {
    auto dst = out.row(r);
    auto ra = a.row(r);
    auto rb = b.row(r);
    std::copy(ra.begin(), ra.end(), dst.begin());
    std::copy(rb.begin(), rb.end(), dst.begin() + static_cast<std::ptrdiff_t>(a.cols_));
  }
  return out;
}

Matrix Matrix::vcat(const Matrix& a, const Matrix& b) {
  SAP_REQUIRE(a.cols_ == b.cols_, "Matrix::vcat: column count mismatch");
  Matrix out(a.rows_ + b.rows_, a.cols_);
  std::copy(a.data_.begin(), a.data_.end(), out.data_.begin());
  std::copy(b.data_.begin(), b.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(a.data_.size()));
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  SAP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  SAP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  SAP_REQUIRE(a.cols_ == b.rows_, "Matrix::*: inner dimension mismatch");
  Matrix c(a.rows_, b.cols_);
  gemm(1.0, a, b, 0.0, c);
  return c;
}

Matrix matmul_naive(const Matrix& a, const Matrix& b) {
  SAP_REQUIRE(a.cols() == b.rows(), "matmul_naive: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // ikj loop order: the inner loop streams rows of both b and c. No
  // zero-skip: inputs here are dense (rotations, data), so the branch almost
  // never fires and its misprediction costs more than the FMA row it would
  // save (micro_linalg confirms).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.data().data() + i * c.cols();
    const double* arow = a.data().data() + i * a.cols();
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      const double* brow = b.data().data() + k * b.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

namespace {

// Blocking parameters. The panel kernel jams kMr rows of C through one
// streamed pass over a KC-row panel of B, so B is re-read from cache m/kMr
// times instead of m times; KC keeps the panel L1/L2-resident. The inner j
// loop has exactly the naive loop's shape (independent streaming updates),
// which every vectorizer handles, and each C element still accumulates as a
// single left-to-right chain over ascending k — the blocked product is
// bit-identical to matmul_naive.
constexpr std::size_t kMr = 4;
constexpr std::size_t kKc = 256;

/// MR-row x full-width panel update: C[i0..i0+MR) += alpha * A_panel * B_panel,
/// with `bias` (when non-null) added once after the final k of the last panel.
template <std::size_t MR>
void panel_kernel(std::size_t n, std::size_t kc, double alpha, const double* a,
                  std::size_t lda, const double* b, double* c, const double* bias) {
  for (std::size_t k = 0; k < kc; ++k) {
    const double* brow = b + k * n;
    double av[MR];
    for (std::size_t ii = 0; ii < MR; ++ii) av[ii] = alpha * a[ii * lda + k];
    for (std::size_t j = 0; j < n; ++j) {
      const double bj = brow[j];
      for (std::size_t ii = 0; ii < MR; ++ii) c[ii * n + j] += av[ii] * bj;
    }
  }
  if (bias != nullptr)
    for (std::size_t ii = 0; ii < MR; ++ii)
      for (std::size_t j = 0; j < n; ++j) c[ii * n + j] += bias[ii];
}

}  // namespace

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c,
          std::span<const double> row_bias) {
  SAP_REQUIRE(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  SAP_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm: C must be pre-shaped to A.rows() x B.cols()");
  SAP_REQUIRE(row_bias.empty() || row_bias.size() == a.rows(),
              "gemm: row_bias must have A.rows() entries");
  // C is zeroed/scaled before A and B are streamed, so aliasing would read
  // clobbered inputs silently.
  SAP_REQUIRE(&c != &a && &c != &b, "gemm: C must not alias A or B");
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();

  if (beta == 0.0) {
    std::fill(c.data().begin(), c.data().end(), 0.0);
  } else if (beta != 1.0) {
    for (auto& v : c.data()) v *= beta;
  }
  if (kk == 0 || m == 0 || n == 0) {
    if (!row_bias.empty())
      for (std::size_t i = 0; i < m; ++i)
        for (auto& v : c.row(i)) v += row_bias[i];
    return;
  }

  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* pc = c.data().data();

  for (std::size_t k0 = 0; k0 < kk; k0 += kKc) {
    const std::size_t kc = std::min(kKc, kk - k0);
    const bool last_panel = (k0 + kc == kk);
    const double* bpanel = pb + k0 * n;
    for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
      const std::size_t mr = std::min(kMr, m - i0);
      const double* atile = pa + i0 * kk + k0;
      double* ctile = pc + i0 * n;
      const double* bias =
          (last_panel && !row_bias.empty()) ? row_bias.data() + i0 : nullptr;
      switch (mr) {
        case 4: panel_kernel<4>(n, kc, alpha, atile, kk, bpanel, ctile, bias); break;
        case 3: panel_kernel<3>(n, kc, alpha, atile, kk, bpanel, ctile, bias); break;
        case 2: panel_kernel<2>(n, kc, alpha, atile, kk, bpanel, ctile, bias); break;
        default: panel_kernel<1>(n, kc, alpha, atile, kk, bpanel, ctile, bias); break;
      }
    }
  }
}

void matmul_abt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  SAP_REQUIRE(a.cols() == b.cols(), "matmul_abt: inner dimension mismatch");
  SAP_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
              "matmul_abt: C must be pre-shaped to A.rows() x B.rows()");
  const std::size_t m = a.rows();
  const std::size_t k = b.rows();
  const std::size_t n = a.cols();
  // 4 x 4 row-pair tiling: 16 independent ascending accumulation chains give
  // the ILP a single latency-bound dot() chain cannot; each chain is still
  // the plain left-to-right dot product, so elements match dot() bit-wise.
  constexpr std::size_t kTile = 4;
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t mt = std::min(kTile, m - i0);
    for (std::size_t j0 = 0; j0 < k; j0 += kTile) {
      const std::size_t nt = std::min(kTile, k - j0);
      double acc[kTile][kTile] = {};
      for (std::size_t t = 0; t < n; ++t)
        for (std::size_t ii = 0; ii < mt; ++ii) {
          const double av = a.data()[(i0 + ii) * n + t];
          for (std::size_t jj = 0; jj < nt; ++jj)
            acc[ii][jj] += av * b.data()[(j0 + jj) * n + t];
        }
      for (std::size_t ii = 0; ii < mt; ++ii)
        for (std::size_t jj = 0; jj < nt; ++jj) c(i0 + ii, j0 + jj) = acc[ii][jj];
    }
  }
}

Matrix matmul_abt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_abt_into(a, b, c);
  return c;
}

Matrix gather_cols(const Matrix& x, std::span<const std::size_t> idx) {
  SAP_REQUIRE(!idx.empty(), "gather_cols: empty index set");
  for (const std::size_t j : idx)
    SAP_REQUIRE(j < x.cols(), "gather_cols: index out of range");
  Matrix out(x.rows(), idx.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row(r);
    auto dst = out.row(r);
    for (std::size_t j = 0; j < idx.size(); ++j) dst[j] = src[idx[j]];
  }
  return out;
}

Vector Matrix::matvec(std::span<const double> x) const {
  SAP_REQUIRE(x.size() == cols_, "Matrix::matvec: size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) y[r] = dot(row(r), x);
  return y;
}

Vector Matrix::matvec_transposed(std::span<const double> x) const {
  SAP_REQUIRE(x.size() == rows_, "Matrix::matvec_transposed: size mismatch");
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) axpy(x[r], row(r), y);
  return y;
}

double Matrix::norm_fro() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const noexcept {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  return true;
}

std::string Matrix::str(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << data_[r * cols_ + c];
    }
    os << (r + 1 == rows_ ? "]]" : "]\n");
  }
  return os.str();
}

double dot(std::span<const double> a, std::span<const double> b) {
  SAP_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  SAP_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double distance(std::span<const double> a, std::span<const double> b) {
  SAP_REQUIRE(a.size() == b.size(), "distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

bool all_finite(std::span<const double> v) noexcept {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

}  // namespace sap::linalg

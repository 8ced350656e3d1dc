#include "privacy/fastica_step.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/owned_tanh.hpp"

// Built with -fno-trapping-math (CMakeLists.txt): without it GCC 12 does not
// if-convert the owned tanh's series/expm1 select, so the tanh pass stays
// scalar. The flag only lets the compiler evaluate both sides of a select;
// it permits no reassociation or contraction and changes no value.
namespace sap::privacy {
namespace {

typedef double Vec16 __attribute__((vector_size(16)));

template <typename V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

/// The largest output tile: kTileRows rows by kTileVectors vectors. Its 12
/// accumulators, one row's loads and a broadcast fill the 16 vector
/// registers of either variant.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVectors = 3;

/// v <- p[0, width): element initializers, which the compiler folds into
/// one unaligned vector load. The helpers take V by reference: a 32-byte
/// vector passed by value outside the avx2 variant would change the ABI.
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  if constexpr (kWidth<V> == 2) {
    v = V{p[0], p[1]};
  } else {
    v = V{p[0], p[1], p[2], p[3]};
  }
}

/// v <- x in every lane.
template <typename V>
[[gnu::always_inline]] inline void splat(V& v, double x) {
  if constexpr (kWidth<V> == 2) {
    v = V{x, x};
  } else {
    v = V{x, x, x, x};
  }
}

/// rows.operator()<R>(i) over row blocks [i, i + R) that cover [0, k):
/// kTileRows at a time, then the remainder, so every block's R is a
/// constant and its accumulators stay in registers.
template <typename Rows>
[[gnu::always_inline]] inline void for_row_blocks(std::size_t k, Rows&& rows) {
  std::size_t i = 0;
  for (; i + kTileRows <= k; i += kTileRows) rows.template operator()<kTileRows>(i);
  switch (k - i) {
    case 3: rows.template operator()<3>(i); break;
    case 2: rows.template operator()<2>(i); break;
    case 1: rows.template operator()<1>(i); break;
    default: break;
  }
}

/// An R x C-vector tile of g = W Z: each element is the chain
/// acc = +0.0; acc += w(r, l) * z(l, t) for l ascending, in one lane.
/// w is the tile's first row of W, z and g point at its first column.
template <typename V, std::size_t R, std::size_t C>
[[gnu::always_inline]] inline void wz_tile(const double* w, const double* z, double* g,
                                           std::size_t k, std::size_t n) {
  constexpr std::size_t kW = kWidth<V>;
  V acc[R][C] = {};
  for (std::size_t l = 0; l < k; ++l) {
    V zl[C] = {};
    for (std::size_t c = 0; c < C; ++c) load(zl[c], z + l * n + c * kW);
    for (std::size_t r = 0; r < R; ++r) {
      V wr = {};
      splat(wr, w[r * k + l]);
      for (std::size_t c = 0; c < C; ++c) acc[r][c] += wr * zl[c];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t c = 0; c < C; ++c)
      for (std::size_t e = 0; e < kW; ++e) g[r * n + c * kW + e] = acc[r][c][e];
}

/// R rows of g = W Z: whole tiles, then single vectors, then the last
/// n % width columns as scalar chains of the same form.
template <typename V, std::size_t R>
[[gnu::always_inline]] inline void wz_rows(const double* w, const double* z, double* g,
                                           std::size_t k, std::size_t n) {
  constexpr std::size_t kW = kWidth<V>;
  std::size_t t = 0;
  for (; t + kTileVectors * kW <= n; t += kTileVectors * kW)
    wz_tile<V, R, kTileVectors>(w, z + t, g + t, k, n);
  for (; t + kW <= n; t += kW) wz_tile<V, R, 1>(w, z + t, g + t, k, n);
  for (; t < n; ++t)
    for (std::size_t r = 0; r < R; ++r) {
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) acc += w[r * k + l] * z[l * n + t];
      g[r * n + t] = acc;
    }
}

/// The owned tanh over every value, a loop with no branch on the values,
/// which the compiler vectorizes at the variant's width.
[[gnu::always_inline]] inline void tanh_span(std::span<double> values) {
  for (double& v : values) v = math::detail::tanh_element(v);
}

/// gprime for R rows of g: per row, 1 - g(r, t)^2 added from 0.0 for t
/// ascending, the R chains interleaved.
template <std::size_t R>
[[gnu::always_inline]] inline void gprime_rows(const double* g, double* gprime, std::size_t n) {
  double acc[R] = {};
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t r = 0; r < R; ++r) {
      const double v = g[r * n + t];
      acc[r] += 1.0 - v * v;
    }
  for (std::size_t r = 0; r < R; ++r) gprime[r] = acc[r];
}

/// An R x C-vector tile of gz = g Zᵀ: each element is the chain
/// acc = +0.0; acc += g(r, t) * z(j, t) for t ascending, in one lane,
/// against Zᵀ's row t. g is the tile's first row, zt and gz point at its
/// first column j0; lanes at or past k run on Zᵀ's zero padding and are not
/// stored.
template <typename V, std::size_t R, std::size_t C>
[[gnu::always_inline]] inline void gz_tile(const double* g, const double* zt, double* gz,
                                           std::size_t n, std::size_t stride, std::size_t k,
                                           std::size_t j0) {
  constexpr std::size_t kW = kWidth<V>;
  V acc[R][C] = {};
  for (std::size_t t = 0; t < n; ++t) {
    V zr[C] = {};
    for (std::size_t c = 0; c < C; ++c) load(zr[c], zt + t * stride + c * kW);
    for (std::size_t r = 0; r < R; ++r) {
      V gr = {};
      splat(gr, g[r * n + t]);
      for (std::size_t c = 0; c < C; ++c) acc[r][c] += gr * zr[c];
    }
  }
  // Lanes out by constant index first, so acc never needs an address.
  double lanes[R][C * kW] = {};
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t c = 0; c < C; ++c)
      for (std::size_t e = 0; e < kW; ++e) lanes[r][c * kW + e] = acc[r][c][e];
  const std::size_t kept = std::min(C * kW, k - j0);
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t e = 0; e < kept; ++e) gz[r * k + e] = lanes[r][e];
}

/// R rows of gz = g Zᵀ: whole tiles over the ceil(k / width) vectors of
/// Zᵀ's rows, then a tile of the one or two vectors left.
template <typename V, std::size_t R>
[[gnu::always_inline]] inline void gz_rows(const double* g, const double* zt, double* gz,
                                           std::size_t n, std::size_t stride, std::size_t k) {
  constexpr std::size_t kW = kWidth<V>;
  const std::size_t vectors = (k + kW - 1) / kW;
  std::size_t v = 0;
  for (; v + kTileVectors <= vectors; v += kTileVectors)
    gz_tile<V, R, kTileVectors>(g, zt + v * kW, gz + v * kW, n, stride, k, v * kW);
  switch (vectors - v) {
    case 2: gz_tile<V, R, 2>(g, zt + v * kW, gz + v * kW, n, stride, k, v * kW); break;
    case 1: gz_tile<V, R, 1>(g, zt + v * kW, gz + v * kW, n, stride, k, v * kW); break;
    default: break;
  }
}

/// The one step body, over vectors V of 2 or 4 doubles.
template <typename V>
[[gnu::always_inline]] inline void step_body(const linalg::Matrix& w, StepBuffers& buf) {
  const std::size_t k = buf.z().rows();
  const std::size_t n = buf.z().cols();
  SAP_REQUIRE(w.rows() == k && w.cols() == k && buf.g.rows() == k && buf.g.cols() == n &&
                  buf.gz.rows() == k && buf.gz.cols() == k && buf.gprime.size() == k,
              "FastICA step: W or an output buffer does not match the records");
  const double* pw = w.data().data();
  const double* pz = buf.z().data().data();
  double* pg = buf.g.data().data();
  for_row_blocks(k, [&]<std::size_t R>(std::size_t i) {
    wz_rows<V, R>(pw + i * k, pz, pg + i * n, k, n);
  });
  tanh_span(buf.g.data());
  for_row_blocks(k, [&]<std::size_t R>(std::size_t i) {
    gprime_rows<R>(pg + i * n, buf.gprime.data() + i, n);
  });
  for_row_blocks(k, [&]<std::size_t R>(std::size_t i) {
    gz_rows<V, R>(pg + i * n, buf.zt(), buf.gz.data().data() + i * k, n, buf.zt_stride(), k);
  });
}

[[gnu::flatten]] void tanh_vec16(std::span<double> values) { tanh_span(values); }

[[gnu::flatten]] void step_vec16(const linalg::Matrix& w, StepBuffers& buf) {
  step_body<Vec16>(w, buf);
}

#if defined(__x86_64__)
typedef double Vec32 __attribute__((vector_size(32)));

__attribute__((target("avx2"), flatten)) void tanh_avx2(std::span<double> values) {
  tanh_span(values);
}

__attribute__((target("avx2"), flatten)) void step_avx2(const linalg::Matrix& w,
                                                        StepBuffers& buf) {
  step_body<Vec32>(w, buf);
}
#endif

}  // namespace

StepBuffers::StepBuffers(linalg::Matrix z)
    : g(z.rows(), z.cols()),
      gz(z.rows(), z.rows()),
      gprime(z.rows()),
      z_(std::move(z)),
      zt_stride_((z_.rows() + kPad - 1) / kPad * kPad),
      zt_(z_.cols() * zt_stride_, 0.0) {
  SAP_REQUIRE(z_.rows() > 0 && z_.cols() > 0, "StepBuffers: no records");
  for (std::size_t j = 0; j < z_.rows(); ++j) {
    const auto row = z_.row(j);
    for (std::size_t t = 0; t < row.size(); ++t) zt_[t * zt_stride_ + j] = row[t];
  }
}

std::vector<StepKernel> supported_step_kernels() {
  std::vector<StepKernel> kernels{{"vec16", tanh_vec16, step_vec16}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) kernels.push_back({"avx2", tanh_avx2, step_avx2});
#endif
  return kernels;
}

const StepKernel& step_kernel() {
  static const StepKernel picked = supported_step_kernels().back();
  return picked;
}

}  // namespace sap::privacy

#include "perturb/geometric.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/decompose.hpp"
#include "linalg/orthogonal.hpp"

namespace sap::perturb {

GeometricPerturbation::GeometricPerturbation(linalg::Matrix r, linalg::Vector t,
                                             double noise_sigma)
    : r_(std::move(r)), t_(std::move(t)), sigma_(noise_sigma) {
  SAP_REQUIRE(r_.rows() == r_.cols() && r_.rows() > 0,
              "GeometricPerturbation: R must be square and non-empty");
  SAP_REQUIRE(t_.size() == r_.rows(), "GeometricPerturbation: t size must match R");
  // R is gated by orthogonality below (which NaN fails); t has no such gate.
  SAP_REQUIRE(linalg::all_finite(t_), "GeometricPerturbation: t must be finite");
  SAP_REQUIRE(sigma_ >= 0.0, "GeometricPerturbation: sigma must be non-negative");
  SAP_REQUIRE(linalg::orthogonality_defect(r_) < 1e-8,
              "GeometricPerturbation: R must be orthogonal");
}

GeometricPerturbation GeometricPerturbation::random(std::size_t dims, double noise_sigma,
                                                    rng::Engine& eng) {
  SAP_REQUIRE(dims > 0, "GeometricPerturbation::random: dims must be positive");
  linalg::Matrix r = linalg::random_orthogonal(dims, eng);
  linalg::Vector t(dims);
  for (auto& v : t) v = eng.uniform(-1.0, 1.0);
  return {std::move(r), std::move(t), noise_sigma};
}

linalg::Matrix translation_matrix(const linalg::Vector& t, std::size_t n) {
  SAP_REQUIRE(n > 0, "translation_matrix: n must be positive");
  linalg::Matrix psi(t.size(), n);
  for (std::size_t i = 0; i < t.size(); ++i) {
    auto row = psi.row(i);
    for (auto& v : row) v = t[i];
  }
  return psi;
}

linalg::Matrix GeometricPerturbation::apply(const linalg::Matrix& x,
                                            rng::Engine& noise_eng) const {
  linalg::Matrix y;
  apply_into(x, y, noise_eng);
  return y;
}

linalg::Matrix GeometricPerturbation::apply_noiseless(const linalg::Matrix& x) const {
  linalg::Matrix y;
  apply_noiseless_into(x, y);
  return y;
}

void GeometricPerturbation::apply_into(const linalg::Matrix& x, linalg::Matrix& y,
                                       rng::Engine& noise_eng) const {
  apply_noiseless_into(x, y);
  if (sigma_ > 0.0) {
    for (auto& v : y.data()) v += noise_eng.normal(0.0, sigma_);
  }
}

void GeometricPerturbation::apply_noiseless_into(const linalg::Matrix& x,
                                                 linalg::Matrix& y) const {
  SAP_REQUIRE(x.rows() == dims(), "GeometricPerturbation::apply: X must be d x N");
  if (y.rows() != dims() || y.cols() != x.cols()) y = linalg::Matrix(dims(), x.cols());
  // One fused pass: R X accumulated by the blocked kernel, t added in its
  // epilogue (bit-identical to the naive product plus a translation pass).
  linalg::gemm(1.0, r_, x, 0.0, y, t_);
}

linalg::Matrix GeometricPerturbation::invert(const linalg::Matrix& y) const {
  SAP_REQUIRE(y.rows() == dims(), "GeometricPerturbation::invert: Y must be d x N");
  linalg::Matrix centered = y;
  for (std::size_t i = 0; i < centered.rows(); ++i) {
    auto row = centered.row(i);
    for (auto& v : row) v -= t_[i];
  }
  // R is orthogonal: R^-1 = R^T.
  return r_.transpose() * centered;
}

void GeometricPerturbation::precompose_rotation(const linalg::Matrix& g) {
  SAP_REQUIRE(g.rows() == dims() && g.cols() == dims(),
              "precompose_rotation: dimension mismatch");
  SAP_REQUIRE(linalg::orthogonality_defect(g) < 1e-8,
              "precompose_rotation: factor must be orthogonal");
  r_ = g * r_;
}

std::vector<double> GeometricPerturbation::serialize() const {
  SAP_REQUIRE(dims() > 0, "GeometricPerturbation::serialize: default-constructed");
  std::vector<double> wire;
  wire.reserve(2 + r_.size() + t_.size());
  wire.push_back(static_cast<double>(dims()));
  wire.push_back(sigma_);
  wire.insert(wire.end(), r_.data().begin(), r_.data().end());
  wire.insert(wire.end(), t_.begin(), t_.end());
  return wire;
}

GeometricPerturbation GeometricPerturbation::deserialize(std::span<const double> wire) {
  SAP_REQUIRE(wire.size() >= 2, "GeometricPerturbation::deserialize: truncated payload");
  SAP_REQUIRE(std::isfinite(wire[0]) && wire[0] > 0.0 && wire[0] < 1e6 &&
                  wire[0] == std::floor(wire[0]),
              "GeometricPerturbation::deserialize: malformed dimension field");
  const auto d = static_cast<std::size_t>(wire[0]);
  SAP_REQUIRE(wire.size() == 2 + d * d + d,
              "GeometricPerturbation::deserialize: malformed payload");
  linalg::Matrix r(d, d);
  for (std::size_t i = 0; i < d * d; ++i) r.data()[i] = wire[2 + i];
  linalg::Vector t(wire.begin() + static_cast<std::ptrdiff_t>(2 + d * d), wire.end());
  return {std::move(r), std::move(t), wire[1]};
}

}  // namespace sap::perturb

#include "perturb/space_adaptor.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/orthogonal.hpp"

namespace sap::perturb {

SpaceAdaptor::SpaceAdaptor(linalg::Matrix rotation_adaptor, linalg::Vector translation_adaptor)
    : r_(std::move(rotation_adaptor)), psi_(std::move(translation_adaptor)) {
  SAP_REQUIRE(r_.rows() == r_.cols() && r_.rows() > 0, "SpaceAdaptor: R_it must be square");
  SAP_REQUIRE(psi_.size() == r_.rows(), "SpaceAdaptor: psi size must match R_it");
  // A NaN in R_it already fails the orthogonality gate; psi has no such
  // gate, and a non-finite entry would poison every adapted row.
  SAP_REQUIRE(linalg::all_finite(psi_), "SpaceAdaptor: psi must be finite");
  SAP_REQUIRE(linalg::orthogonality_defect(r_) < 1e-7,
              "SpaceAdaptor: rotation adaptor must be orthogonal");
}

SpaceAdaptor SpaceAdaptor::between(const GeometricPerturbation& source,
                                   const GeometricPerturbation& target) {
  SAP_REQUIRE(source.dims() == target.dims(), "SpaceAdaptor::between: dimension mismatch");
  // R_i orthogonal => R_i^{-1} = R_i^T; R_it = R_t R_i^T.
  linalg::Matrix r_it = target.rotation() * source.rotation().transpose();
  // Psi_it = t_t - R_it t_i (as generating vectors).
  linalg::Vector psi = r_it.matvec(source.translation());
  for (std::size_t i = 0; i < psi.size(); ++i) psi[i] = target.translation()[i] - psi[i];
  return {std::move(r_it), std::move(psi)};
}

linalg::Matrix SpaceAdaptor::apply(const linalg::Matrix& y) const {
  SAP_REQUIRE(y.rows() == dims(), "SpaceAdaptor::apply: Y must be d x N");
  linalg::Matrix out = r_ * y;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    auto row = out.row(i);
    for (auto& v : row) v += psi_[i];
  }
  return out;
}

SpaceAdaptor SpaceAdaptor::after(const SpaceAdaptor& other) const {
  SAP_REQUIRE(dims() == other.dims(), "SpaceAdaptor::after: dimension mismatch");
  // this(other(Y)) = R1 (R2 Y + psi2) + psi1 = (R1 R2) Y + (R1 psi2 + psi1).
  linalg::Matrix r = r_ * other.r_;
  // Products of orthogonal matrices drift off O(d) linearly in chain length;
  // a long composition chain (the Contribute path reuses adaptors across
  // many batches) would eventually trip the constructor's 1e-7 gate. Snap
  // back once the defect crosses half the gate so chains of any length stay
  // comfortably inside it.
  if (linalg::orthogonality_defect(r) > 0.5e-7) r = linalg::re_orthonormalize(r);
  linalg::Vector psi = r_.matvec(other.psi_);
  for (std::size_t i = 0; i < psi.size(); ++i) psi[i] += psi_[i];
  return {std::move(r), std::move(psi)};
}

std::vector<double> SpaceAdaptor::serialize() const {
  std::vector<double> wire;
  wire.reserve(1 + r_.size() + psi_.size());
  wire.push_back(static_cast<double>(dims()));
  wire.insert(wire.end(), r_.data().begin(), r_.data().end());
  wire.insert(wire.end(), psi_.begin(), psi_.end());
  return wire;
}

SpaceAdaptor SpaceAdaptor::deserialize(std::span<const double> wire) {
  SAP_REQUIRE(!wire.empty(), "SpaceAdaptor::deserialize: empty payload");
  SAP_REQUIRE(std::isfinite(wire[0]) && wire[0] > 0.0 && wire[0] < 1e6 &&
                  wire[0] == std::floor(wire[0]),
              "SpaceAdaptor::deserialize: malformed dimension field");
  const auto d = static_cast<std::size_t>(wire[0]);
  SAP_REQUIRE(wire.size() == 1 + d * d + d,
              "SpaceAdaptor::deserialize: malformed payload");
  linalg::Matrix r(d, d);
  for (std::size_t i = 0; i < d * d; ++i) r.data()[i] = wire[1 + i];
  linalg::Vector psi(wire.begin() + static_cast<std::ptrdiff_t>(1 + d * d), wire.end());
  return {std::move(r), std::move(psi)};
}

}  // namespace sap::perturb

#include "perturb/space_adaptor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/wire.hpp"
#include "linalg/orthogonal.hpp"

namespace sap::perturb {
namespace {

/// Largest adaptor dimension the wire carries.
constexpr std::size_t kMaxWireDims = 999'999;

}  // namespace

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
  wire::Writer w("SpaceAdaptor::serialize", 1 + r_.size() + psi_.size());
  w.count(dims(), "dimension", kMaxWireDims);
  w.block(r_.data());
  w.block(psi_);
  return w.take();
}

SpaceAdaptor SpaceAdaptor::deserialize(std::span<const double> wire) {
  wire::Reader in(wire, "SpaceAdaptor::deserialize");
  const std::size_t d = in.count("dimension", kMaxWireDims);
  SAP_REQUIRE(d > 0, "SpaceAdaptor::deserialize: empty adaptor");
  const auto rotation = in.block(d * d, "rotation");
  const auto psi = in.block(d, "translation");
  in.finish();
  linalg::Matrix r(d, d);
  std::copy(rotation.begin(), rotation.end(), r.data().begin());
  return {std::move(r), linalg::Vector(psi.begin(), psi.end())};
}

}  // namespace sap::perturb

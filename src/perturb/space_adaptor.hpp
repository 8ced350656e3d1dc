// Space adaptation (paper §3).
//
// Given a source perturbation G_i : (R_i, t_i) and a target perturbation
// G_t : (R_t, t_t), the identity
//
//   Y_{i->t} = R_t R_i^{-1} Y_i + (Psi_t - R_t R_i^{-1} Psi_i) - R_t R_i^{-1} Delta_i
//
// rewrites data perturbed in space G_i into space G_t. The paper names
//   R_it   = R_t R_i^{-1}                  the rotation adaptor,
//   Psi_it = Psi_t - R_t R_i^{-1} Psi_i    the translation adaptor,
//   Delta_it = R_t R_i^{-1} Delta_i        the complementary noise,
// and uses <R_it, Psi_it> as the space adaptor: applying only the first two
// components is exactly "inheriting the noise component Delta_i from the
// original space G_i" — the receiver never needs (and never learns) Delta_i.
#pragma once

#include "perturb/geometric.hpp"

namespace sap::perturb {

/// The pair <R_it, Psi_it>; Psi_it is stored as its generating d-vector
/// (every translation matrix here is rank one: psi * 1^T).
class SpaceAdaptor {
 public:
  SpaceAdaptor() = default;

  /// R_it must be orthogonal d x d; psi_it must have d finite entries.
  SpaceAdaptor(linalg::Matrix rotation_adaptor, linalg::Vector translation_adaptor);

  /// Build the adaptor taking data perturbed by `source` into the space of
  /// `target` (dimensions must match).
  static SpaceAdaptor between(const GeometricPerturbation& source,
                              const GeometricPerturbation& target);

  [[nodiscard]] std::size_t dims() const noexcept { return r_.rows(); }
  [[nodiscard]] const linalg::Matrix& rotation() const noexcept { return r_; }
  [[nodiscard]] const linalg::Vector& translation() const noexcept { return psi_; }

  /// Y_{i->t} = R_it Y_i + Psi_it (noise inherited from the source space).
  [[nodiscard]] linalg::Matrix apply(const linalg::Matrix& y) const;

  /// Compose adaptors: (this ∘ other)(Y) == this->apply(other.apply(Y)).
  /// Adapting i->t then t->u equals adapting i->u directly. The rotation
  /// product is re-orthonormalized (QR snap-back) whenever floating-point
  /// drift exceeds half the constructor's orthogonality gate, so arbitrarily
  /// long composition chains never throw.
  [[nodiscard]] SpaceAdaptor after(const SpaceAdaptor& other) const;

  /// Flat serialization: [d, R row-major..., psi...] — the protocol's wire
  /// payload for adaptor messages.
  [[nodiscard]] std::vector<double> serialize() const;
  static SpaceAdaptor deserialize(std::span<const double> wire);

 private:
  linalg::Matrix r_;
  linalg::Vector psi_;
};

}  // namespace sap::perturb

// Geometric data perturbation G(X) = R X + Psi + Delta (paper §2).
//
//   X     d x N normalized dataset, each COLUMN one record
//   R     d x d random orthogonal ("rotation") matrix
//   Psi   d x N translation matrix, Psi = t * 1^T with t ~ U[-1,1]^d
//   Delta d x N noise matrix with i.i.d. N(0, sigma^2) entries
//
// The pair (R, t) plus the noise level sigma fully parameterizes a
// perturbation; Delta itself is freshly sampled per application unless a
// deterministic noise seed is requested (the protocol uses a common noise
// component across parties — see SpaceAdaptor).
#pragma once

#include <cstdint>
#include <optional>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace sap::perturb {

/// Parameters of one geometric perturbation G : (R, t, sigma).
class GeometricPerturbation {
 public:
  GeometricPerturbation() = default;

  /// Construct from explicit parameters. R must be square and orthogonal
  /// (checked to 1e-8); t must have R.rows() finite entries; sigma >= 0.
  GeometricPerturbation(linalg::Matrix r, linalg::Vector t, double noise_sigma);

  /// Sample a random perturbation: Haar-orthogonal R, t ~ U[-1,1]^d.
  static GeometricPerturbation random(std::size_t dims, double noise_sigma,
                                      rng::Engine& eng);

  [[nodiscard]] std::size_t dims() const noexcept { return r_.rows(); }
  [[nodiscard]] const linalg::Matrix& rotation() const noexcept { return r_; }
  [[nodiscard]] const linalg::Vector& translation() const noexcept { return t_; }
  [[nodiscard]] double noise_sigma() const noexcept { return sigma_; }

  /// Y = R X + Psi + Delta with Delta sampled from `noise_eng`
  /// (pass sigma()==0 for the noiseless variant). X is d x N.
  [[nodiscard]] linalg::Matrix apply(const linalg::Matrix& x, rng::Engine& noise_eng) const;

  /// Y = R X + Psi (no noise term regardless of sigma). Used for the target
  /// space G_t of the protocol, which the paper defines noise-free.
  [[nodiscard]] linalg::Matrix apply_noiseless(const linalg::Matrix& x) const;

  /// No-temporary variants for hot loops (the optimizer scores hundreds of
  /// candidate applications per run): write Y into a caller-owned buffer,
  /// reshaping it only when the shape changed. The translation Psi rides the
  /// GEMM epilogue instead of a second pass over Y; the Gaussian noise is
  /// added in one canonical row-major sweep — its element order IS the RNG
  /// stream contract, so apply_into(x, y, eng) is bit-identical to
  /// apply_noiseless(x) followed by a row-major noise pass.
  void apply_into(const linalg::Matrix& x, linalg::Matrix& y, rng::Engine& noise_eng) const;
  void apply_noiseless_into(const linalg::Matrix& x, linalg::Matrix& y) const;

  /// Exact inverse of the noiseless map: X = R^-1 (Y - Psi).
  /// (With noise, this recovers X + R^-1 Delta.)
  [[nodiscard]] linalg::Matrix invert(const linalg::Matrix& y) const;

  /// Replace R by G R (left-compose an extra orthogonal factor) — the
  /// optimizer's local refinement step.
  void precompose_rotation(const linalg::Matrix& g);

  /// Flat serialization [d, sigma, R row-major..., t...] so providers can
  /// persist an optimized perturbation across sessions.
  [[nodiscard]] std::vector<double> serialize() const;
  static GeometricPerturbation deserialize(std::span<const double> wire);

 private:
  linalg::Matrix r_;
  linalg::Vector t_;
  double sigma_ = 0.0;
};

/// The translation matrix Psi = t * 1^T for N records.
linalg::Matrix translation_matrix(const linalg::Vector& t, std::size_t n);

}  // namespace sap::perturb

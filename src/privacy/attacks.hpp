// Attack models against geometric perturbation (from companion paper [2],
// used by PODC'07 §2 to define the privacy guarantee rho).
//
// The privacy guarantee of a perturbation is its resilience against the
// strongest known adversary, so the evaluator is deliberately
// attacker-favorable: candidate-based attacks (naive, ICA) are scored with
// the best possible per-column alignment (max |correlation| between each
// original dimension and any candidate component), which upper-bounds what a
// real adversary — who must guess the alignment — could achieve.
//
//   * NaiveEstimationAttack  — the adversary reads the perturbed dimensions
//     directly, rescaling each to the public per-column moments. Defeated by
//     rotation mixing, but weakly-mixed rotations leak (this is what the
//     optimizer fixes).
//   * IcaReconstructionAttack — FastICA unmixing of Y; effective whenever
//     the original columns are non-Gaussian and independent.
//   * KnownInputAttack — the adversary knows m original records and their
//     perturbed images, estimates (R, t) by orthogonal Procrustes, and
//     inverts the map. Noise (Delta) is the only defense against it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "privacy/fastica.hpp"
#include "rng/rng.hpp"

namespace sap::privacy {

/// What the adversary observes and publicly knows.
struct AttackContext {
  /// Perturbed dataset Y (d x N, column = record).
  const linalg::Matrix* perturbed = nullptr;
  /// Public per-dimension moments of the original data (the paper operates
  /// on normalized datasets, so these are assumed known).
  linalg::Vector original_means;
  linalg::Vector original_stddevs;
  /// Known-input side information: record indices and their original values
  /// (d x m, aligned with known_indices). Empty for attacks that do not use it.
  std::vector<std::size_t> known_indices;
  linalg::Matrix known_originals;
};

/// Result of one attack: either a fully aligned d x N estimate of X, or a
/// pool of candidate components (k x N) that the evaluator aligns
/// attacker-favorably. An attack whose estimate IS an input matrix (the
/// naive attack reads the perturbed data directly) returns a non-owning
/// `view` instead of copying d x N doubles per evaluation; the view must
/// outlive the Reconstruction (it points into the AttackContext).
struct Reconstruction {
  enum class Kind { kAligned, kCandidatePool };
  Kind kind = Kind::kCandidatePool;
  linalg::Matrix estimate;                   ///< owned storage (empty when viewed)
  const linalg::Matrix* view = nullptr;      ///< non-owning alternative
  bool converged = false;                    ///< ICA: FastICA met its tolerance
  [[nodiscard]] const linalg::Matrix& get() const noexcept {
    return view != nullptr ? *view : estimate;
  }
};

/// Interface for adversarial reconstruction procedures.
class Attack {
 public:
  virtual ~Attack() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// May throw sap::Error when the context lacks required side information.
  [[nodiscard]] virtual Reconstruction reconstruct(const AttackContext& ctx,
                                                   rng::Engine& eng) const = 0;
};

/// Direct read-off of the perturbed dimensions.
class NaiveEstimationAttack final : public Attack {
 public:
  [[nodiscard]] std::string name() const override { return "naive"; }
  [[nodiscard]] Reconstruction reconstruct(const AttackContext& ctx,
                                           rng::Engine& eng) const override;
};

/// FastICA unmixing attack.
class IcaReconstructionAttack final : public Attack {
 public:
  explicit IcaReconstructionAttack(FastIcaOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "ica"; }
  [[nodiscard]] Reconstruction reconstruct(const AttackContext& ctx,
                                           rng::Engine& eng) const override;

 private:
  FastIcaOptions opts_;
};

/// Procrustes inversion from m known (original, perturbed) record pairs.
class KnownInputAttack final : public Attack {
 public:
  [[nodiscard]] std::string name() const override { return "known-input"; }
  [[nodiscard]] Reconstruction reconstruct(const AttackContext& ctx,
                                           rng::Engine& eng) const override;
};

/// PCA (spectral) attack: rotation is equivariant on covariance —
/// cov(Y) = R cov(X) R^T — so the principal-component projections of Y equal
/// those of X up to sign/permutation whenever the eigenvalues are distinct.
/// Unlike ICA this needs no non-Gaussian structure, only anisotropy; it is
/// the cheapest attack that defeats a bare rotation on correlated data.
class SpectralAttack final : public Attack {
 public:
  [[nodiscard]] std::string name() const override { return "spectral"; }
  [[nodiscard]] Reconstruction reconstruct(const AttackContext& ctx,
                                           rng::Engine& eng) const override;
};

}  // namespace sap::privacy

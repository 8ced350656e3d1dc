#include "privacy/attacks.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/decompose.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"

namespace sap::privacy {

Reconstruction NaiveEstimationAttack::reconstruct(const AttackContext& ctx,
                                                  rng::Engine& /*eng*/) const {
  SAP_REQUIRE(ctx.perturbed != nullptr, "naive attack: missing perturbed data");
  // The candidate pool is simply the perturbed dimensions themselves; the
  // evaluator performs the attacker-favorable per-column alignment and
  // moment rescaling. Viewed, not copied — this runs once per optimizer
  // candidate evaluation.
  Reconstruction rec;
  rec.kind = Reconstruction::Kind::kCandidatePool;
  rec.view = ctx.perturbed;
  return rec;
}

Reconstruction IcaReconstructionAttack::reconstruct(const AttackContext& ctx,
                                                    rng::Engine& eng) const {
  SAP_REQUIRE(ctx.perturbed != nullptr, "ica attack: missing perturbed data");
  FastIcaResult ica = fast_ica(*ctx.perturbed, opts_, eng);
  Reconstruction rec{Reconstruction::Kind::kCandidatePool, std::move(ica.sources)};
  rec.converged = ica.converged;
  return rec;
}

Reconstruction KnownInputAttack::reconstruct(const AttackContext& ctx,
                                             rng::Engine& /*eng*/) const {
  SAP_REQUIRE(ctx.perturbed != nullptr, "known-input attack: missing perturbed data");
  const linalg::Matrix& y = *ctx.perturbed;
  const std::size_t d = y.rows();
  const std::size_t m = ctx.known_indices.size();
  SAP_REQUIRE(m >= 2, "known-input attack: need at least two known records");
  SAP_REQUIRE(ctx.known_originals.rows() == d && ctx.known_originals.cols() == m,
              "known-input attack: known_originals must be d x m");

  // Gather the perturbed images of the known records (strided row pass, no
  // per-column temporaries; gather_cols bounds-checks the indices).
  const linalg::Matrix y_known = linalg::gather_cols(y, ctx.known_indices);

  // Center both point sets; Procrustes gives the orthogonal part, the
  // centroid difference gives the translation.
  const linalg::Vector cx = linalg::row_means(ctx.known_originals);
  const linalg::Vector cy = linalg::row_means(y_known);
  linalg::Matrix x0 = ctx.known_originals;
  linalg::Matrix y0 = y_known;
  for (std::size_t i = 0; i < d; ++i) {
    auto xr = x0.row(i);
    for (auto& v : xr) v -= cx[i];
    auto yr = y0.row(i);
    for (auto& v : yr) v -= cy[i];
  }
  const linalg::Matrix r_hat = linalg::procrustes_rotation(x0, y0);

  // x_hat = R^T (y - t_hat), with t_hat = cy - R cx.
  const linalg::Vector r_cx = r_hat.matvec(cx);
  linalg::Vector t_hat(d);
  for (std::size_t i = 0; i < d; ++i) t_hat[i] = cy[i] - r_cx[i];

  linalg::Matrix shifted = y;
  for (std::size_t i = 0; i < d; ++i) {
    auto row = shifted.row(i);
    for (auto& v : row) v -= t_hat[i];
  }
  return {Reconstruction::Kind::kAligned, r_hat.transpose() * shifted};
}

Reconstruction SpectralAttack::reconstruct(const AttackContext& ctx,
                                           rng::Engine& /*eng*/) const {
  SAP_REQUIRE(ctx.perturbed != nullptr, "spectral attack: missing perturbed data");
  const linalg::Matrix& y = *ctx.perturbed;
  SAP_REQUIRE(y.cols() >= 4, "spectral attack: need at least four records");
  const std::size_t d = y.rows();

  // Center Y and project onto the eigenvectors of its covariance. Since
  // cov(Y) = R cov(X) R^T, these projections coincide (up to sign and the
  // ordering by eigenvalue) with the principal-component projections of X;
  // the candidate-pool evaluator grants the attacker the alignment.
  linalg::Matrix centered = y;
  const linalg::Vector mean = linalg::row_means(centered);
  for (std::size_t i = 0; i < d; ++i) {
    auto row = centered.row(i);
    for (auto& v : row) v -= mean[i];
  }
  const linalg::Matrix cov = linalg::covariance_cols(centered);
  const auto eig = linalg::sym_eigen(cov);
  return {Reconstruction::Kind::kCandidatePool, eig.vectors.transpose() * centered};
}

}  // namespace sap::privacy

// Fixture: R9 — the exchange's numeric code calls the owned functions and the
// exact ones; a member that shares a libm name is not libm. Lint input only.
#include <cmath>

#include "common/owned_math.hpp"

double score(double x, const Model& m) {
  double s = sap::math::tanh(x) + math::tanh(-x);
  s += std::sqrt(x) + std::fabs(x) + std::abs(x);
  s += m.log(x) + m.stats->exp(x);
  return s;  // std::exp(x) in a comment is not a call
}

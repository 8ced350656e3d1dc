// Fixture: R9/owned-math — libm transcendentals in the exchange's numeric code.
#include <cmath>

double score(double x, double y) {
  double s = std::tanh(x);                    // line 5: R9
  s += ::exp(y) + log1p(x);                   // line 6: R9 twice
  s += std::pow(x, 2.0);                      // line 7: R9
  s += std::atan2 (y, x);                     // line 8: R9
  return s + lgammaf(static_cast<float>(x));  // line 9: R9 (float form)
}

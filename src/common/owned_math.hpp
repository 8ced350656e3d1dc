// Elementary functions the library computes itself instead of calling libm.
//
// A libm may round a transcendental differently from one build, CPU or
// version to the next (glibc picks an FMA build of expm1 by IFUNC on FMA
// CPUs), and ρ_i, the privacy guarantee, must be a property of the data,
// not of the host. Each function here is built only from IEEE + − × ÷
// (correctly rounded, never fused: the library builds with
// -ffp-contract=off) and std::bit_cast, so it returns the same bits on
// every host. DESIGN.md §8 gives the algorithm and its measured accuracy;
// sap_lint R9 keeps <cmath> transcendentals out of the exchange's attack,
// optimizer and perturbation code.
#pragma once

#include <span>

namespace sap::math {

/// Hyperbolic tangent. Odd by construction (computed on |x|, the sign bit
/// copied back), so tanh(-0) is -0; exactly ±1 for |x| >= 22 and at ±∞;
/// NaN for NaN. Within a few ulp of glibc's tanh (tests/owned_math_test.cpp
/// pins the gap over its sweep).
[[nodiscard]] double tanh(double x) noexcept;

/// tanh of every element, in place: bit for bit the scalar form on each
/// element, with no branch on the values, so the compiler vectorizes it.
void tanh_in_place(std::span<double> values) noexcept;

}  // namespace sap::math

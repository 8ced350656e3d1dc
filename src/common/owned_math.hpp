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

namespace sap::math {

/// Hyperbolic tangent. Odd by construction (computed on |x|, the sign bit
/// copied back), so tanh(-0) is -0; exactly ±1 for |x| >= 22 and at ±∞;
/// NaN for NaN. Within a few ulp of glibc's tanh (tests/owned_math_test.cpp
/// pins the gap over its sweep). Its span form is each FastICA step-kernel
/// variant's tanh pass (privacy/fastica_step.hpp), bit for bit this one on
/// every element.
[[nodiscard]] double tanh(double x) noexcept;

}  // namespace sap::math

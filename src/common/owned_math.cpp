#include "common/owned_math.hpp"

#include "common/owned_tanh.hpp"

namespace sap::math {

double tanh(double x) noexcept { return detail::tanh_element(x); }

}  // namespace sap::math

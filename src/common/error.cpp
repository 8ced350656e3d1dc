#include "common/error.hpp"

namespace sap {

std::string with_throw_site(const Error& e) {
  return std::string(e.what()) + " [" + e.where().file_name() + ':' +
         std::to_string(e.where().line()) + ']';
}

namespace detail {

void raise(const std::string& message, std::source_location where) {
  throw Error(message, where);
}

}  // namespace detail
}  // namespace sap

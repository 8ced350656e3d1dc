// Error handling primitives for libsap.
//
// All contract violations and unrecoverable runtime failures in the library
// raise sap::Error (derived from std::runtime_error) so callers can
// distinguish library failures from standard-library failures.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace sap {

/// Exception type thrown by every libsap module on contract violation or
/// unrecoverable runtime failure (singular matrix, malformed message, ...).
/// what() is the message alone: it reaches operators and, in a serve-error
/// reply, remote clients, so the throw site stays out of it.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 std::source_location where = std::source_location::current())
      : std::runtime_error(what), where_(where) {}

  /// Where the error was raised, for logs.
  [[nodiscard]] const std::source_location& where() const noexcept { return where_; }

 private:
  std::source_location where_;
};

/// `e`'s message and then its throw site, "<message> [<file>:<line>]": for
/// log lines, never for a reply or an operator's error line.
[[nodiscard]] std::string with_throw_site(const Error& e);

namespace detail {
[[noreturn]] void raise(const std::string& message,
                        std::source_location where = std::source_location::current());
}  // namespace detail

}  // namespace sap

/// Precondition / invariant check. Active in all build types: the library is
/// a security-relevant protocol implementation, so contract checks must not
/// silently disappear in Release builds.
#define SAP_REQUIRE(cond, msg)                  \
  do {                                          \
    if (!(cond)) [[unlikely]] {                 \
      ::sap::detail::raise((msg));              \
    }                                           \
  } while (false)

/// Unconditional failure with message.
#define SAP_FAIL(msg) ::sap::detail::raise((msg))

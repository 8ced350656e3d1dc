// Fixture: R3 scope check — src/common/wire.* holds the one copy of the
// double-exact wire bound. Lint input only.
#include <cstdint>

constexpr std::uint64_t kLimit = 1ULL << 53;

bool exact(double word) { return word >= 0.0 && word < 9007199254740992.0; }

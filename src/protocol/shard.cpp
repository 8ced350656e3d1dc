#include "protocol/shard.hpp"

namespace sap::proto {

std::uint64_t mix_nonce(std::uint64_t nonce) noexcept {
  // SplitMix64 finalizer (Steele et al.) — full-avalanche, branch-free.
  std::uint64_t z = nonce + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t shard_of_nonce(std::uint64_t nonce, std::size_t total,
                           ShardLayout /*layout*/) noexcept {
  if (total <= 1) return 0;
  return static_cast<std::size_t>(mix_nonce(nonce) % static_cast<std::uint64_t>(total));
}

}  // namespace sap::proto

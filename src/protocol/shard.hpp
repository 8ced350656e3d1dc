// Shard partitioning for the pooled mining data.
//
// The unified pool is partitioned by CONTRIBUTION NONCE: every record enters
// the protocol tagged with the nonce of the party that contributed it (the
// exchange's forwarded shards and the post-exchange Contribute batches both
// carry one), so the nonce is the natural unit of data placement — all of a
// nonce's records always land on the same shard, which is what makes the
// exact cross-shard merges possible (DESIGN.md §11).
//
// One hash-route layout, kHashMod, maps a nonce onto one of `total`
// shards: the nonce is mixed through a SplitMix64 finalizer (protocol
// nonces are uniform random draws, but the layout must not rely on that)
// and taken modulo total.
//
// The merge contract does not depend on the placement: merged reports are
// bit-identical whichever shard held which segment, because merging runs
// in canonical nonce order (tested across shard counts in
// tests/cluster_test.cpp).
//
// PoolKey is the canonical per-record coordinate: (nonce, seq) where seq
// numbers the nonce's records in contribution order. Sorting any set of
// records by PoolKey reproduces the canonical pool order that unify_pool
// established (segments ascending by nonce, records in arrival order within
// a segment) — the order every exact merge and every gather fallback uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>

namespace sap::proto {

/// Canonical coordinate of one pooled record: the contribution nonce that
/// brought it in, plus its position within that nonce's stream.
struct PoolKey {
  std::uint64_t nonce = 0;
  std::uint32_t seq = 0;

  friend bool operator<(const PoolKey& a, const PoolKey& b) {
    return std::tie(a.nonce, a.seq) < std::tie(b.nonce, b.seq);
  }
  friend bool operator==(const PoolKey& a, const PoolKey& b) {
    return a.nonce == b.nonce && a.seq == b.seq;
  }
};

/// How nonces map onto shards (see file comment).
enum class ShardLayout : std::uint8_t {
  kHashMod = 0,
};

/// SplitMix64 finalizer — the nonce mix of the layout.
[[nodiscard]] std::uint64_t mix_nonce(std::uint64_t nonce) noexcept;

/// Owning shard of `nonce` under `layout`; total must be >= 1.
[[nodiscard]] std::size_t shard_of_nonce(std::uint64_t nonce, std::size_t total,
                                         ShardLayout layout) noexcept;

}  // namespace sap::proto

// sap::net::fault — seeded, deterministic fault injection at the socket
// boundary (DESIGN.md §13).
//
// The chaos discipline mirrors the repo's bit-identity discipline: a fault
// run must be *reproducible*, so every injected fault comes from a pure
// decision stream. Decision #n is SplitMix64(seed, n) — a pure function of
// the installed plan's seed — and each socket-level decision point consumes
// exactly one index. Which operation consumes index n depends on thread
// interleaving, but the decision *stream* (and therefore the distribution
// and parameters of every fault) is identical for identical seeds, and a
// single-threaded client replaying the same request sequence sees the exact
// same fault schedule (tests/fault_test.cpp pins this; bench/chaos_soak.cpp
// enforces it by exit code).
//
// Zero-overhead when disabled, mirroring obs::set_enabled: every hook in
// socket.cpp is gated on one relaxed atomic load, and the library never
// installs a plan on its own — only SAP_FAULT / --fault / tests do.
//
// Fault kinds (all at the socket boundary, so every layer above — framing
// CRC, envelope decrypt, deadlines, retries, breakers — is exercised as
// deployed, not via mocks):
//
//   drop      write swallowed entirely (peer's read deadline fires)
//   delay     operation delayed by a bounded deterministic amount
//   partial   write split: prefix sent now, remainder sent after a pause
//   truncate  write prefix sent, remainder silently discarded
//   corrupt   one byte flipped in flight (frame CRC catches it)
//   reset     connection torn down mid-operation / connect refused
//   accept    accepted connection dropped before handshake
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace sap::net::fault {

enum class Kind : int {
  kNone = 0,
  kDrop = 1,
  kDelay = 2,
  kPartialWrite = 3,
  kTruncate = 4,
  kCorrupt = 5,
  kReset = 6,
  kRefuseAccept = 7,
};
inline constexpr int kKindCount = 8;

/// Stable lowercase name for a kind ("drop", "delay", ... / "none").
[[nodiscard]] const char* kind_name(Kind kind) noexcept;

/// Per-kind injection probabilities plus the seed that makes the schedule
/// deterministic. Parsed from `SAP_FAULT` / `--fault` specs of the form
/// "seed=7,drop=0.05,corrupt=0.02,delay=0.1,delay_ms=8".
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop = 0.0;           ///< write swallowed
  double delay = 0.0;          ///< read/write delayed
  double partial = 0.0;        ///< write split with a pause
  double truncate = 0.0;       ///< write prefix only, rest discarded
  double corrupt = 0.0;        ///< one byte flipped (read or write side)
  double reset = 0.0;          ///< connection reset / connect refused
  double refuse_accept = 0.0;  ///< accepted connection dropped
  int delay_ms = 5;            ///< max injected delay per kDelay/kPartialWrite

  /// Parse a comma-separated spec; keys are the field names above plus
  /// "rate=<p>" as shorthand for drop=corrupt=reset=p/3. Unknown keys,
  /// malformed numbers, or probabilities outside [0,1] throw sap::Error.
  static FaultPlan parse(const std::string& spec);

  /// Canonical round-trippable spec string (only non-zero fields).
  [[nodiscard]] std::string to_string() const;
};

/// Global fault switch: one relaxed load, false unless a plan is installed.
[[nodiscard]] bool enabled() noexcept;

/// Install a plan and enable injection. Resets the decision counter, the
/// per-kind stats, and the trace, so schedules are comparable across runs.
void install(const FaultPlan& plan);

/// Disable injection (hooks return to the one-load no-op path).
void uninstall() noexcept;

/// Install from the SAP_FAULT environment variable if set and non-empty;
/// returns whether a plan was installed. Malformed specs throw.
bool install_from_env();

/// Copy of the active plan (meaningful only while enabled()).
[[nodiscard]] FaultPlan plan();

/// Decision #index for `seed`: a pure SplitMix64-style mix. The entire
/// fault schedule derives from this stream — exposed so tests and
/// bench/chaos_soak.cpp can assert seed-purity without a socket in sight.
[[nodiscard]] std::uint64_t decision_word(std::uint64_t seed, std::uint64_t index) noexcept;

/// One write-site decision. kNone means "no fault, proceed normally".
struct WriteFault {
  Kind kind = Kind::kNone;
  int delay_ms = 0;              ///< kDelay / kPartialWrite pause
  std::size_t keep = 0;          ///< kPartialWrite / kTruncate prefix length
  std::size_t corrupt_at = 0;    ///< kCorrupt byte offset
  std::uint8_t corrupt_mask = 1; ///< kCorrupt XOR mask (never 0)
};

/// One read-site decision (kDelay, kCorrupt, or kReset-as-spurious-close).
struct ReadFault {
  Kind kind = Kind::kNone;
  int delay_ms = 0;
  std::size_t corrupt_at = 0;
  std::uint8_t corrupt_mask = 1;
};

/// Draw the next decision for a write of `len` bytes. Consumes one index.
[[nodiscard]] WriteFault next_write_fault(std::size_t len);
/// Draw the next decision for a read that returned `len` bytes.
[[nodiscard]] ReadFault next_read_fault(std::size_t len);
/// Draw the next connect decision; true = refuse the connection attempt.
[[nodiscard]] bool next_connect_fault();
/// Draw the next accept decision; true = drop the accepted connection.
[[nodiscard]] bool next_accept_fault();

/// Injection accounting since the last install().
struct Stats {
  std::uint64_t decisions = 0;  ///< decision indices consumed
  std::array<std::uint64_t, kKindCount> injected{};  ///< by Kind, [kNone] unused
  [[nodiscard]] std::uint64_t total_injected() const noexcept;
};
[[nodiscard]] Stats stats();

/// Chaos visibility for a stats door: while injection is enabled, add
/// fault.decisions, fault.injected and one fault.injected.<kind> counter
/// per kind to `snap`, so an operator reading surprising retry counters
/// can tell deliberate chaos from a sick network. Adds nothing otherwise.
void export_stats(obs::Snapshot& snap);

/// Bounded trace of injected faults as (decision index, kind), oldest
/// first, capacity-limited; single-threaded runs replaying the same ops
/// against the same seed get byte-identical traces.
[[nodiscard]] std::vector<std::pair<std::uint64_t, Kind>> trace();

}  // namespace sap::net::fault

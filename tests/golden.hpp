// Pinned golden values for the deterministic optimizer baseline.
//
// The per-candidate seed-derivation scheme (optimizer.hpp, DESIGN.md §8) is
// THE baseline every deployment must reproduce bit-for-bit: the same seed
// must give the same perturbations whether candidates are scored on 0, 2 or
// 8 threads, in one process or across a TCP daemon. These constants freeze
// that baseline so an accidental re-ordering of RNG draws (a new draw in
// the candidate loop, a reordered spawn) fails loudly instead of silently
// re-keying every deployment.
//
// This header is the ONE place goldens live; re-pin here (and say so in the
// PR) whenever the derivation scheme deliberately changes.
//
// Within one binary the suite asserts exact equality (thread-count
// invariance). The pins use kGoldenTolerance, which absorbs last-bit
// differences in how a compiler lowers the same arithmetic. It cannot
// absorb a change of libm or CPU in what the exchange still takes from the
// host libm: rng::Engine::normal's Box-Muller log, sin and cos (glibc 2.36
// resolves them to FMA builds by IFUNC on FMA CPUs). One ulp on a few draws
// can make the optimizer pick another G, moving an ICA-scored rho by
// hundredths (ROADMAP item 16(a)). FastICA's tanh is owned
// (common/owned_math.hpp), so it no longer depends on the host.
#pragma once

#include <cstdint>

namespace sap::testing {

/// |measured - pinned| tolerance for cross-compiler golden checks.
inline constexpr double kGoldenTolerance = 1e-7;

/// optimize_perturbation on normalized Wine (data seed 5), Engine(99),
/// candidates=6, refine_steps=3, max_eval_records=100, naive+known(4).
inline constexpr double kGoldenWineBestRho = 0.79431834031577186;

/// Same options on normalized Iris (data seed 7), Engine(17).
inline constexpr double kGoldenIrisBestRho = 0.63135623673444197;

/// optimize_perturbation on normalized Shuttle (data seed 1), Engine(777),
/// net::serving_session_options(0.1, 1).optimizer: the serving suite, whose
/// ICA attack runs FastICA inside every evaluation. Re-pinned from
/// 0.77638611137794078 when FastICA's tanh moved from libm to the owned
/// tanh: its capped runs do not converge, so an ulp-level change in tanh
/// changes their sources and here the G the optimizer picks.
inline constexpr double kGoldenServingShuttleBestRho = 0.76693210394165834;

/// SapSession over provider_split("Iris", 3, 4242) shards with
/// SapOptions::fast() + seed 4242: party 0's locally optimized rho_i.
inline constexpr double kGoldenSessionParty0Rho = 0.54116241632763151;

/// The same session's message trace: FNV-1a over every entry's (from, to,
/// kind, wire_bytes), 13 messages. Integer metadata only, so no tolerance.
inline constexpr std::uint64_t kGoldenSessionTraceDigest = 0x707584EE4AA06918ULL;

}  // namespace sap::testing

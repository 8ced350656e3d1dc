// sap_lint process-level tests.
//
// Runs the built linter (SAP_LINT_PATH, injected by CMake like SAP_CLI_PATH)
// against the in-repo fixture corpus (SAP_LINT_FIXTURES =
// tests/lint_fixtures): one violating and one conforming input per rule
// R1–R9, plus suppression handling. Assertions are on EXACT file:line and
// rule tags, so the diagnostics the tree relies on can never silently drift.
//
// The repo itself is linted by the separate `sap_lint` CTest entry (the tool
// run over ${CMAKE_SOURCE_DIR}), not here — these tests pin the tool's
// behavior, that one pins the tree's cleanliness.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

/// Run a command, capture all stdout/stderr, return the raw wait status.
int run_command(const std::string& command, std::string& output) {
  output.clear();
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return -1;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) output += buf;
  return pclose(pipe);
}

int exit_code(int wait_status) {
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

std::string lint_path() { return SAP_LINT_PATH; }
std::string fixtures() { return SAP_LINT_FIXTURES; }

struct LintRun {
  int exit = -1;
  std::string output;
  std::vector<std::string> diagnostics;  ///< the `file:line: error:` lines
};

/// Lint `target` (a fixture-relative path, or "" for the whole fixture set
/// named by `tree`).
LintRun lint(const std::string& tree, const std::string& target = "") {
  LintRun run;
  const std::string arg =
      fixtures() + "/" + tree + (target.empty() ? "" : "/" + target);
  run.exit = exit_code(run_command(lint_path() + " " + arg, run.output));
  std::size_t pos = 0;
  while (pos < run.output.size()) {
    std::size_t end = run.output.find('\n', pos);
    if (end == std::string::npos) end = run.output.size();
    const std::string line = run.output.substr(pos, end - pos);
    if (line.find(": error: ") != std::string::npos) run.diagnostics.push_back(line);
    pos = end + 1;
  }
  return run;
}

/// True when some diagnostic is anchored at exactly `file:line` and carries
/// rule tag `[tag]`.
bool has_diag(const LintRun& run, const std::string& file, int line,
              const std::string& tag) {
  const std::string anchor = file + ":" + std::to_string(line) + ": error: [" + tag + "]";
  for (const std::string& d : run.diagnostics)
    if (d.find(anchor) != std::string::npos) return true;
  return false;
}

// ---- whole-tree runs -----------------------------------------------------

TEST(SapLint, ConformingTreeIsClean) {
  const LintRun run = lint("conforming");
  EXPECT_EQ(run.exit, 0) << run.output;
  EXPECT_TRUE(run.diagnostics.empty()) << run.output;
}

TEST(SapLint, ViolatingTreeFailsWithEveryRuleRepresented) {
  const LintRun run = lint("violating");
  EXPECT_EQ(run.exit, 1) << run.output;
  for (const char* tag : {"R1/rng-discipline", "R2/determinism", "R3/codec-safety",
                          "R4/raii-locking", "R5/bench-hygiene", "R6/obs-purity",
                          "R7/bounded-retry", "R8/isa-confinement", "R9/owned-math",
                          "suppression"}) {
    bool seen = false;
    for (const std::string& d : run.diagnostics)
      if (d.find(std::string("[") + tag + "]") != std::string::npos) seen = true;
    EXPECT_TRUE(seen) << "no diagnostic tagged [" << tag << "]\n" << run.output;
  }
}

TEST(SapLint, MissingPathIsUsageError) {
  std::string output;
  const int status =
      exit_code(run_command(lint_path() + " /no/such/path/anywhere", output));
  EXPECT_EQ(status, 2) << output;
}

// ---- R1: rng discipline --------------------------------------------------

TEST(SapLint, R1FlagsEveryForbiddenRngUseWithExactLines) {
  const std::string file = "src/app/uses_rand.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 5u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 7, "R1/rng-discipline")) << run.output;   // random_device
  EXPECT_TRUE(has_diag(run, file, 8, "R1/rng-discipline")) << run.output;   // srand
  EXPECT_TRUE(has_diag(run, file, 9, "R1/rng-discipline")) << run.output;   // mt19937
  EXPECT_TRUE(has_diag(run, file, 10, "R1/rng-discipline")) << run.output;  // clock seed
  EXPECT_TRUE(has_diag(run, file, 11, "R1/rng-discipline")) << run.output;  // std::rand
}

TEST(SapLint, R1PermitsEntropySourcesInsideRngSubsystem) {
  const LintRun run = lint("conforming", "src/rng/uses_random_device.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R2: determinism -----------------------------------------------------

TEST(SapLint, R2BansUnorderedContainersInProtocol) {
  const std::string file = "src/protocol/uses_unordered.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_TRUE(has_diag(run, file, 5, "R2/determinism")) << run.output;  // signature use
}

TEST(SapLint, R2FlagsIterationOverUnorderedElsewhere) {
  const std::string file = "src/app/iterates_unordered.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 1u) << run.output;  // declaration itself is fine
  EXPECT_TRUE(has_diag(run, file, 9, "R2/determinism")) << run.output;
}

TEST(SapLint, R2PermitsLookupsAndSortedSnapshots) {
  const LintRun run = lint("conforming", "src/app/ordered_iteration.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

TEST(SapLint, R2BansUnorderedContainersOnShardMergePaths) {
  // Outside src/protocol and src/net, but the file references ShardRouter —
  // the cluster extension applies the strict ban to the whole file.
  const std::string file = "bench/merge_unordered_tally.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 1u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 12, "R2/determinism")) << run.output;
}

TEST(SapLint, R2PermitsOrderedContainersOnShardMergePaths) {
  const LintRun run = lint("conforming", "bench/merge_sorted_tally.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R3: codec safety ----------------------------------------------------

TEST(SapLint, R3FlagsByteReinterpretationOutsideCodec) {
  const std::string file = "src/app/copies_bytes.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 2u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 7, "R3/codec-safety")) << run.output;  // memcpy
  EXPECT_TRUE(has_diag(run, file, 8, "R3/codec-safety")) << run.output;  // reinterpret_cast
}

TEST(SapLint, R3PermitsCodecBoundaryFiles) {
  const LintRun run = lint("conforming", "src/net/frame.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

TEST(SapLint, R3FlagsTheDoubleExactBoundOutsideTheMessageCodec) {
  const std::string file = "src/net/spells_the_bound.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 2u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 5, "R3/codec-safety")) << run.output;  // 9007199254740992
  EXPECT_TRUE(has_diag(run, file, 6, "R3/codec-safety")) << run.output;  // << 53
}

TEST(SapLint, R3PermitsTheDoubleExactBoundInTheMessageCodec) {
  // The bound's one home is the wire cursor every codec reads through.
  const LintRun run = lint("conforming", "src/common/wire.hpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R4: RAII locking ----------------------------------------------------

TEST(SapLint, R4FlagsBareLockCallsAndRawStdMutex) {
  const std::string file = "src/app/bare_lock.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 3u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 5, "R4/raii-locking")) << run.output;   // raw std::mutex
  EXPECT_TRUE(has_diag(run, file, 9, "R4/raii-locking")) << run.output;   // .lock()
  EXPECT_TRUE(has_diag(run, file, 11, "R4/raii-locking")) << run.output;  // .unlock()
}

TEST(SapLint, R4PermitsRaiiGuards) {
  const LintRun run = lint("conforming", "src/app/raii_lock.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R5: bench hygiene ---------------------------------------------------

TEST(SapLint, R5FlagsRogueBenchEmitters) {
  const std::string file = "bench/rogue_emitter.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_TRUE(has_diag(run, file, 3, "R5/bench-hygiene")) << run.output;  // <fstream>
  EXPECT_TRUE(has_diag(run, file, 6, "R5/bench-hygiene")) << run.output;  // ofstream
}

TEST(SapLint, R5PermitsBenchUtilItself) {
  const LintRun run = lint("conforming", "bench/bench_util.hpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R6: obs purity ------------------------------------------------------

TEST(SapLint, R6FlagsObsAndTimersInsideNumericKernels) {
  const std::string file = "src/optimize/instrumented_kernel.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 3u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 3, "R6/obs-purity")) << run.output;  // obs include
  EXPECT_TRUE(has_diag(run, file, 7, "R6/obs-purity")) << run.output;  // Stopwatch
  EXPECT_TRUE(has_diag(run, file, 8, "R6/obs-purity")) << run.output;  // sap::obs use
}

TEST(SapLint, R6PermitsStageBoundaryInstrumentation) {
  // The same Stopwatch + histogram record is FINE in src/net — stages are
  // where measurement belongs.
  const LintRun run = lint("conforming", "src/net/stage_timed.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

TEST(SapLint, R6PermitsPureKernels) {
  const LintRun run = lint("conforming", "src/classify/pure_kernel.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R7: bounded retry ---------------------------------------------------

TEST(SapLint, R7FlagsUnboundedRequestLoops) {
  const std::string file = "src/net/unbounded_probe.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 1u) << run.output;
  // Anchored at the loop header — that is the line the bound belongs on.
  EXPECT_TRUE(has_diag(run, file, 11, "R7/bounded-retry")) << run.output;
}

TEST(SapLint, R7PermitsBudgetAndDeadlineBoundedLoops) {
  const LintRun run = lint("conforming", "src/net/bounded_probe.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
}

// ---- R8: ISA confinement -------------------------------------------------

TEST(SapLint, R8FlagsIsaCodeOutsideTheLaneKernel) {
  // The same code in another directory, and in the step kernel's neighbour:
  // the rule allows two files, not their directories.
  for (const std::string file : {"src/linalg/stray_isa.cpp", "src/privacy/fastica.cpp"}) {
    const LintRun run = lint("violating", file);
    EXPECT_EQ(run.exit, 1) << run.output;
    EXPECT_EQ(run.diagnostics.size(), 3u) << run.output;
    EXPECT_TRUE(has_diag(run, file, 2, "R8/isa-confinement")) << run.output;  // <immintrin.h>
    EXPECT_TRUE(has_diag(run, file, 4, "R8/isa-confinement")) << run.output;  // target attribute
    EXPECT_TRUE(has_diag(run, file, 8, "R8/isa-confinement")) << run.output;  // cpu dispatch
  }
}

TEST(SapLint, R8PermitsTheLaneKernel) {
  // The kNN lane kernel and the FastICA step kernel, each in its one file.
  for (const char* file : {"src/classify/nearest.cpp", "src/privacy/fastica_step.cpp"}) {
    const LintRun run = lint("conforming", file);
    EXPECT_EQ(run.exit, 0) << run.output;
  }
}

// ---- R9: owned math ------------------------------------------------------

TEST(SapLint, R9FlagsLibmTranscendentalsInTheExchangeKernels) {
  const std::string file = "src/privacy/libm_calls.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 6u) << run.output;
  EXPECT_TRUE(has_diag(run, file, 5, "R9/owned-math")) << run.output;  // std::tanh
  EXPECT_TRUE(has_diag(run, file, 6, "R9/owned-math")) << run.output;  // ::exp, log1p
  EXPECT_TRUE(has_diag(run, file, 7, "R9/owned-math")) << run.output;  // std::pow
  EXPECT_TRUE(has_diag(run, file, 8, "R9/owned-math")) << run.output;  // std::atan2 (
  EXPECT_TRUE(has_diag(run, file, 9, "R9/owned-math")) << run.output;  // lgammaf
}

TEST(SapLint, R9PermitsOwnedMathExactCallsAndOtherDirectories) {
  const LintRun run = lint("conforming", "src/privacy/owned_math_calls.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
  // std::exp in src/classify: serving-side code is outside the rule.
  const LintRun serving = lint("conforming", "src/classify/pure_kernel.cpp");
  EXPECT_EQ(serving.exit, 0) << serving.output;
}

// ---- suppressions --------------------------------------------------------

TEST(SapLint, ReasonedSuppressionsWaiveFindings) {
  const LintRun run = lint("conforming", "src/app/suppressed_codec.cpp");
  EXPECT_EQ(run.exit, 0) << run.output;
  EXPECT_TRUE(run.diagnostics.empty()) << run.output;
}

TEST(SapLint, UnjustifiedSuppressionIsFlaggedAndWaivesNothing) {
  const std::string file = "src/app/bad_suppression.cpp";
  const LintRun run = lint("violating", file);
  EXPECT_EQ(run.exit, 1) << run.output;
  EXPECT_EQ(run.diagnostics.size(), 4u) << run.output;
  // allow() without `-- reason` is its own diagnostic, and the R3 finding
  // it tried to waive still fires on the next code line.
  EXPECT_TRUE(has_diag(run, file, 7, "suppression")) << run.output;
  EXPECT_TRUE(has_diag(run, file, 8, "R3/codec-safety")) << run.output;
  // A reasoned allow() naming a rule that does not exist: flagged, and the
  // real finding on that line still fires.
  EXPECT_TRUE(has_diag(run, file, 12, "suppression")) << run.output;
  EXPECT_TRUE(has_diag(run, file, 12, "R3/codec-safety")) << run.output;
}

// ---- the repo itself must be clean ---------------------------------------

TEST(SapLint, RepositoryTreeIsClean) {
  std::string output;
  const int status =
      exit_code(run_command(lint_path() + " " + SAP_LINT_REPO_ROOT, output));
  EXPECT_EQ(status, 0) << output;
}

}  // namespace

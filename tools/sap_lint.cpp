// sap-lint — the project-invariant static analyzer (DESIGN.md §9).
//
// Clang's -Wthread-safety proves lock discipline; this tool enforces the
// invariants a general-purpose compiler cannot know about, because they are
// properties of THIS protocol: the RNG draw-order determinism contract
// (DESIGN.md §8), canonical ordering of everything that feeds pool digests
// or serialized output, and the frame-decode trust boundary (§7).
//
//   R1/rng-discipline   no std::rand/srand/random_device, no std:: engines,
//                       and no chrono/time-seeded engines outside src/rng/
//                       — every random draw must flow through sap::rng so
//                       draw order stays the determinism contract.
//   R2/determinism      no unordered associative containers in src/protocol/
//                       or src/net/ (iteration order would leak into reports
//                       and wire bytes); elsewhere, no range-for over a
//                       container declared unordered in the same file.
//   R3/codec-safety     memcpy/memmove/reinterpret_cast confined to the
//                       checked codec helpers (src/net/frame.*,
//                       src/net/socket.*) — everything else uses typed,
//                       bounds-checked accessors. The double-exact wire
//                       bound 2^53 (the literal 9007199254740992 or a shift
//                       by 53) is written only in src/common/wire.*, the
//                       one wire cursor; everything else reads and writes
//                       through its wire::Reader / wire::Writer.
//   R4/raii-locking     no bare .lock()/.unlock() on a declared mutex (RAII
//                       guards only), and no raw std::mutex /
//                       std::condition_variable outside src/common/ — use
//                       sap::Mutex/sap::CondVar so the Clang thread-safety
//                       analysis sees every lock.
//   R5/bench-hygiene    bench/ translation units do not open output files
//                       themselves (ofstream/fopen/FILE) — every
//                       BENCH_*.json goes through bench_util's emitters so
//                       the schema and run metadata stay uniform.
//   R6/obs-purity       the RNG-disciplined numeric kernels (src/linalg,
//                       src/perturb, src/optimize, src/classify,
//                       src/privacy, src/rng) never touch sap::obs and
//                       never read timers (Stopwatch/steady_now_ns) —
//                       observability is pure measurement, recorded at
//                       serving-stage boundaries (DESIGN.md §12), so
//                       metrics on/off can never perturb a job report.
//   R7/bounded-retry    an unconditional loop (`for (;;)`, `while (true)`)
//                       that issues high-level requests (connect / transact /
//                       mine_* / contribute_wire / pool_slice /
//                       shard_snapshot / .stats) must carry an attempt
//                       budget or deadline — a peer that never answers must
//                       not hang the caller forever (DESIGN.md §13). Raw
//                       syscall EINTR loops and frame-drain loops are out of
//                       scope: the rule keys on the client-facing ops.
//   R8/isa-confinement  `__attribute__((target ...))` (and `gnu::target`),
//                       `__builtin_cpu_supports` and <immintrin.h> appear
//                       only in src/classify/nearest.cpp and
//                       src/privacy/fastica_step.cpp — the kNN lane kernel's
//                       and the FastICA step kernel's AVX2 variants and
//                       runtime dispatch are the one ISA-specific code, and
//                       the per-ISA exactness argument (DESIGN.md §8) covers
//                       only them.
//   R9/owned-math       no <cmath> transcendental calls (exp, expm1, log*,
//                       pow, the trigonometric and hyperbolic functions and
//                       their inverses, erf*, *gamma, cbrt, hypot) in
//                       src/privacy, src/optimize or src/perturb — a libm
//                       may round them differently per build, CPU or
//                       version, and the exchange's privacy scores must not
//                       move with the host; call sap::math (common/
//                       owned_math.hpp) instead. sqrt and fabs are exact.
//
// Suppressions: a finding is waived by a comment on the same line (or a
// comment-only line directly above the offending statement):
//
//     // sap-lint: allow(R3) -- parsing the packed header the kernel gave us
//     // sap-lint: allow(codec-safety, rng-discipline) -- <reason>
//
// The reason after `--` is mandatory; an allow() without one is itself a
// diagnostic ("suppression"), so every waiver in the tree carries a written
// justification. Rules are named by id (R1..R9) or slug.
//
// Usage:  sap_lint [path]...
//   * a directory containing src/tools/bench scans those subtrees (the
//     repository root is the normal invocation, and what CTest registers);
//   * any other directory is scanned recursively as-is;
//   * a file argument is linted directly (what tests/lint_test.cpp does).
// Exit code: 0 clean, 1 violations found, 2 usage/IO error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---- rules ---------------------------------------------------------------

struct RuleInfo {
  const char* id;    ///< R1..R9
  const char* slug;  ///< human-readable name, accepted in allow() too
};

constexpr RuleInfo kRules[] = {
    {"R1", "rng-discipline"}, {"R2", "determinism"},   {"R3", "codec-safety"},
    {"R4", "raii-locking"},   {"R5", "bench-hygiene"}, {"R6", "obs-purity"},
    {"R7", "bounded-retry"},  {"R8", "isa-confinement"}, {"R9", "owned-math"},
};

/// Canonical id for an allow() argument ("R3" or "codec-safety"); empty when
/// the name matches no rule.
std::string canonical_rule(const std::string& name) {
  for (const RuleInfo& r : kRules)
    if (name == r.id || name == r.slug) return r.id;
  return {};
}

const char* rule_slug(const std::string& id) {
  for (const RuleInfo& r : kRules)
    if (id == r.id) return r.slug;
  return "?";
}

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;  ///< "R1".."R9" or "suppression"
  std::string message;
};

// ---- source scanning -----------------------------------------------------

/// One scanned file: per-line code text with comments and the CONTENTS of
/// string/char literals blanked out (line numbers preserved), plus per-line
/// comment text (where suppressions live).
struct ScannedFile {
  std::string path;
  std::vector<std::string> code;     ///< [0] unused; 1-based like diagnostics
  std::vector<std::string> comment;  ///< comment text per line
};

ScannedFile scan_source(const std::string& path, const std::string& text) {
  ScannedFile out;
  out.path = path;
  out.code.emplace_back();
  out.comment.emplace_back();

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  std::string code_line, comment_line;

  const auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comment.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
    if (state == State::kLineComment) state = State::kCode;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                               text[i - 1] != '_'))) {
          state = State::kRawString;
          raw_delim.clear();
          std::size_t j = i + 2;
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          i = j;  // at '(' (or end)
          code_line += "\"\"";
        } else if (c == '"') {
          if (code_line.find("#include") != std::string::npos) {
            // Keep include paths verbatim — path-scoped rules (R6) need to
            // see WHICH header a kernel pulls in, and an include path is
            // structure, not user string data.
            code_line += c;
            while (i + 1 < text.size() && text[i + 1] != '"' && text[i + 1] != '\n')
              code_line += text[++i];
            if (i + 1 < text.size() && text[i + 1] == '"') code_line += text[++i];
          } else {
            state = State::kString;
            code_line += "\"\"";  // keep a token boundary, drop the contents
          }
        } else if (c == '\'' && (i == 0 || !std::isdigit(static_cast<unsigned char>(
                                               text[i - 1])))) {
          // skip char literals but not C++14 digit separators (1'000'000)
          state = State::kChar;
          code_line += "' '";
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += ' ';  // token separator where the comment was
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped char (a '\n' escape cannot appear raw)
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          state = State::kCode;
          i += close.size() - 1;
        }
        break;
      }
    }
  }
  flush_line();  // last (possibly newline-less) line
  return out;
}

// ---- token helpers -------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Position of `word` in `line` as a whole identifier, or npos.
std::size_t find_word(const std::string& line, const std::string& word,
                      std::size_t from = 0) {
  for (std::size_t pos = line.find(word, from); pos != std::string::npos;
       pos = line.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

bool has_word(const std::string& line, const std::string& word) {
  return find_word(line, word) != std::string::npos;
}

/// True when `code` writes out 2^53: the literal 9007199254740992 or a
/// left shift by 53 (integer suffixes allowed, `<< 530` is not one).
bool spells_double_exact_bound(const std::string& code) {
  if (code.find("9007199254740992") != std::string::npos) return true;
  for (std::size_t pos = code.find("<<"); pos != std::string::npos;
       pos = code.find("<<", pos + 2)) {
    std::size_t p = pos + 2;
    while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
    if (code.compare(p, 2, "53") != 0) continue;
    std::size_t end = p + 2;
    while (end < code.size() && (std::tolower(static_cast<unsigned char>(code[end])) == 'u' ||
                                 std::tolower(static_cast<unsigned char>(code[end])) == 'l'))
      ++end;
    if (end >= code.size() || !ident_char(code[end])) return true;
  }
  return false;
}

/// True when the identifier at `pos` is qualified as std:: (possibly ::std::).
bool std_qualified(const std::string& line, std::size_t pos) {
  std::size_t p = pos;
  while (p > 0 && std::isspace(static_cast<unsigned char>(line[p - 1]))) --p;
  return p >= 5 && line.compare(p - 5, 5, "std::") == 0;
}

/// Identifier ending immediately before `pos` (receiver of a member call).
std::string ident_before(const std::string& line, std::size_t pos) {
  std::size_t end = pos;
  std::size_t begin = end;
  while (begin > 0 && ident_char(line[begin - 1])) --begin;
  return line.substr(begin, end - begin);
}

/// First identifier at or after `pos` (skipping whitespace); empty if none.
std::string ident_after(const std::string& line, std::size_t pos) {
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
  std::size_t end = pos;
  while (end < line.size() && ident_char(line[end])) ++end;
  if (end == pos || std::isdigit(static_cast<unsigned char>(line[pos]))) return {};
  return line.substr(pos, end - pos);
}

// ---- path scoping --------------------------------------------------------

std::string normalized(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

/// True when `path` lies under directory `dir` ("src/rng") at any depth —
/// fixture trees mirror the repo layout, so substring scoping covers both
/// the real scan and tests/lint_fixtures/*.
bool in_dir(const std::string& path, const std::string& dir) {
  const std::string p = normalized(path);
  return p.rfind(dir + "/", 0) == 0 || p.find("/" + dir + "/") != std::string::npos;
}

bool path_has_prefix(const std::string& path, const std::string& stem) {
  const std::string p = normalized(path);
  return p.rfind(stem, 0) == 0 || p.find("/" + stem) != std::string::npos;
}

// ---- suppressions --------------------------------------------------------

struct Suppression {
  std::set<std::string> rules;  ///< canonical ids
  bool valid = false;           ///< carries a nonempty `-- reason`
  std::string bad_name;         ///< first unknown rule name, if any
};

/// Parse a suppression directive (tag, rule list, `--` reason) out of a
/// comment. Returns false when the comment carries no directive.
bool parse_suppression(const std::string& comment, Suppression& out) {
  const std::size_t tag = comment.find("sap-lint:");
  if (tag == std::string::npos) return false;
  const std::size_t allow = comment.find("allow(", tag);
  if (allow == std::string::npos) return false;
  const std::size_t open = allow + 5;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return false;

  std::string names = comment.substr(open + 1, close - open - 1);
  std::stringstream ss(names);
  std::string name;
  while (std::getline(ss, name, ',')) {
    const auto b = name.find_first_not_of(" \t");
    const auto e = name.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    name = name.substr(b, e - b + 1);
    const std::string id = canonical_rule(name);
    if (id.empty() && out.bad_name.empty()) out.bad_name = name;
    if (!id.empty()) out.rules.insert(id);
  }
  const std::size_t dashes = comment.find("--", close);
  if (dashes != std::string::npos) {
    const std::string reason = comment.substr(dashes + 2);
    out.valid = reason.find_first_not_of(" \t") != std::string::npos;
  }
  return true;
}

bool blank(const std::string& s) {
  return s.find_first_not_of(" \t") == std::string::npos;
}

/// Per-line suppression sets: a comment-only allow() covers the next line
/// that has code; a trailing allow() covers its own line.
std::vector<std::set<std::string>> resolve_suppressions(const ScannedFile& f,
                                                        std::vector<Diagnostic>& diags) {
  std::vector<std::set<std::string>> active(f.code.size());
  for (std::size_t line = 1; line < f.code.size(); ++line) {
    Suppression s;
    if (!parse_suppression(f.comment[line], s)) continue;
    if (!s.bad_name.empty())
      diags.push_back({f.path, line, "suppression",
                       "allow() names unknown rule '" + s.bad_name + "'"});
    if (!s.valid) {
      diags.push_back({f.path, line, "suppression",
                       "allow() without a written reason — append `-- <why>`"});
      continue;  // an unjustified waiver waives nothing
    }
    std::size_t target = line;
    if (blank(f.code[line])) {  // comment-only line: cover the next code line
      target = line + 1;
      while (target < f.code.size() && blank(f.code[target])) ++target;
    }
    if (target < active.size())
      active[target].insert(s.rules.begin(), s.rules.end());
  }
  return active;
}

// ---- the rules -----------------------------------------------------------

class Linter {
 public:
  explicit Linter(std::vector<Diagnostic>& diags) : diags_(diags) {}

  void lint(const ScannedFile& f) {
    suppressed_ = resolve_suppressions(f, diags_);
    collect_declared_names(f);
    for (std::size_t line = 1; line < f.code.size(); ++line) {
      const std::string& code = f.code[line];
      if (blank(code)) continue;
      rule_rng(f, line, code);
      rule_determinism(f, line, code);
      rule_codec(f, line, code);
      rule_raii(f, line, code);
      rule_bench(f, line, code);
      rule_obs(f, line, code);
      rule_isa(f, line, code);
      rule_owned_math(f, line, code);
    }
    rule_retry(f);  // loop-shaped, so it scans the whole file itself
  }

 private:
  void report(const ScannedFile& f, std::size_t line, const char* rule,
              const std::string& message) {
    if (line < suppressed_.size() && suppressed_[line].count(rule)) return;
    diags_.push_back({f.path, line, rule, message});
  }

  /// Declared mutex variable names (R4) and unordered-container variable
  /// names (R2) in this file.
  void collect_declared_names(const ScannedFile& f) {
    mutexes_.clear();
    unordered_vars_.clear();
    // Shard-merge adjacency (R2, cluster extension): any file whose CODE
    // references merge_partials or ShardRouter (substring on purpose —
    // ShardRouterOptions counts) handles per-shard results whose merge must
    // be bit-identical across shard counts, so the strict unordered ban
    // applies wherever the file lives (bench drivers and tools included).
    merge_adjacent_ = false;
    for (std::size_t line = 1; line < f.code.size(); ++line)
      if (f.code[line].find("merge_partials") != std::string::npos ||
          f.code[line].find("ShardRouter") != std::string::npos)
        merge_adjacent_ = true;
    static const std::vector<std::string> kMutexTypes = {
        "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
        "shared_mutex", "Mutex"};
    for (std::size_t line = 1; line < f.code.size(); ++line) {
      const std::string& code = f.code[line];
      for (const std::string& type : kMutexTypes) {
        for (std::size_t pos = find_word(code, type); pos != std::string::npos;
             pos = find_word(code, type, pos + 1)) {
          // A declaration only when the type token is followed by an
          // identifier ("Mutex m_;"), not by '<', '>', '(', ')', '&', ...
          const std::string name = ident_after(code, pos + type.size());
          if (!name.empty() && name != "const" && name != "mutable")
            mutexes_.insert(name);
        }
      }
      const std::size_t u = code.find("unordered_");
      if (u != std::string::npos) {
        // Take the identifier after the closing '>' of the template args.
        std::size_t p = code.find('<', u);
        int depth = 0;
        while (p != std::string::npos && p < code.size()) {
          if (code[p] == '<') ++depth;
          if (code[p] == '>' && --depth == 0) break;
          ++p;
        }
        if (p != std::string::npos && p < code.size()) {
          const std::string name = ident_after(code, p + 1);
          if (!name.empty()) unordered_vars_.insert(name);
        }
      }
    }
  }

  // R1 — every random draw flows through sap::rng (DESIGN.md §8).
  void rule_rng(const ScannedFile& f, std::size_t line, const std::string& code) {
    if (in_dir(f.path, "src/rng")) {
      // The rng subsystem itself may wrap whatever source it chooses — but
      // never a wall clock: a chrono-derived seed breaks run-to-run
      // reproducibility everywhere at once.
      check_chrono_seed(f, line, code);
      return;
    }
    check_chrono_seed(f, line, code);
    if (has_word(code, "random_device"))
      report(f, line, "R1",
             "std::random_device is nondeterministic — derive seeds from protocol "
             "nonces via sap::rng");
    if (has_word(code, "srand") || has_word(code, "rand_r"))
      report(f, line, "R1", "C rand()/srand() is banned — use sap::rng::Engine");
    const std::size_t rp = find_word(code, "rand");
    if (rp != std::string::npos && std_qualified(code, rp))
      report(f, line, "R1", "std::rand is banned — use sap::rng::Engine");
    static const std::vector<std::string> kEngines = {
        "mt19937",      "mt19937_64",   "minstd_rand", "minstd_rand0",
        "ranlux24",     "ranlux48",     "knuth_b",     "default_random_engine"};
    for (const std::string& engine : kEngines)
      if (has_word(code, engine))
        report(f, line, "R1",
               "std::" + engine + " outside src/rng/ — draw-order determinism "
               "requires every engine to be a sap::rng::Engine derived from the "
               "session seed");
  }

  void check_chrono_seed(const ScannedFile& f, std::size_t line,
                         const std::string& code) {
    const bool seeds = code.find(".seed(") != std::string::npos ||
                       code.find("seed =") != std::string::npos ||
                       code.find("seed(") != std::string::npos;
    const bool clocky = code.find("::now") != std::string::npos ||
                        (find_word(code, "time") != std::string::npos &&
                         code.find("time(") != std::string::npos);
    if (seeds && clocky)
      report(f, line, "R1",
             "clock-derived seed — seeds must be deterministic functions of the "
             "session seed / protocol nonces");
  }

  // R2 — iteration order must never leak into reports or wire bytes.
  void rule_determinism(const ScannedFile& f, std::size_t line,
                        const std::string& code) {
    static const std::vector<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    const bool wire_adjacent =
        in_dir(f.path, "src/protocol") || in_dir(f.path, "src/net");
    if (wire_adjacent || merge_adjacent_) {
      for (const std::string& type : kUnordered)
        if (has_word(code, type))
          report(f, line, "R2",
                 "std::" + type +
                     (wire_adjacent
                          ? " in a digest/wire-adjacent subsystem — use an "
                            "ordered container (or a sorted snapshot) so output "
                            "never depends on hash order"
                          : " in a file on the shard-merge path (it mentions "
                            "merge_partials / ShardRouter) — merged reports must "
                            "be bit-identical across shard counts, so use an "
                            "ordered container (or a sorted snapshot)"));
      return;
    }
    // Elsewhere: flag range-for over a variable this file declared unordered.
    const std::size_t fo = find_word(code, "for");
    if (fo == std::string::npos) return;
    const std::size_t colon = code.find(':', fo);
    if (colon == std::string::npos) return;
    const std::string range = ident_after(code, colon + 1);
    if (!range.empty() && unordered_vars_.count(range))
      report(f, line, "R2",
             "iterating unordered container '" + range + "' — order is "
             "hash-seed-dependent; sort a snapshot first");
  }

  // R3 — byte reinterpretation stays inside the checked codec helpers, and
  // the double-exact wire bound inside the wire cursor.
  void rule_codec(const ScannedFile& f, std::size_t line, const std::string& code) {
    if (!path_has_prefix(f.path, "src/common/wire.") && spells_double_exact_bound(code))
      report(f, line, "R3",
             "the double-exact bound 2^53 outside src/common/wire.* — read and write "
             "through wire::Reader / wire::Writer so the bound lives in one place");
    if (path_has_prefix(f.path, "src/net/frame.") ||
        path_has_prefix(f.path, "src/net/socket."))
      return;
    for (const char* fn : {"memcpy", "memmove"})
      if (has_word(code, fn))
        report(f, line, "R3",
               std::string(fn) + " outside the codec boundary — route byte access "
               "through net/frame or net/socket helpers");
    if (has_word(code, "reinterpret_cast"))
      report(f, line, "R3",
             "reinterpret_cast outside the codec boundary — adversarial bytes may "
             "only be reinterpreted inside net/frame / net/socket");
  }

  // R4 — locks are RAII-held and visible to the thread-safety analysis.
  void rule_raii(const ScannedFile& f, std::size_t line, const std::string& code) {
    for (const char* call : {".lock()", "->lock()", ".unlock()", "->unlock()"}) {
      for (std::size_t pos = code.find(call); pos != std::string::npos;
           pos = code.find(call, pos + 1)) {
        const std::string receiver = ident_before(code, pos);
        if (mutexes_.count(receiver))
          report(f, line, "R4",
                 "bare " + std::string(call + (call[0] == '.' ? 1 : 2)) + " on mutex '" +
                     receiver + "' — hold locks via sap::MutexLock (RAII)");
      }
    }
    if (in_dir(f.path, "src/common")) return;  // where the wrappers live
    const std::size_t mp = find_word(code, "mutex");
    if (mp != std::string::npos && std_qualified(code, mp))
      report(f, line, "R4",
             "raw std::mutex — use sap::Mutex (common/mutex.hpp) so Clang's "
             "-Wthread-safety sees the capability");
    const std::size_t cp = find_word(code, "condition_variable");
    const std::size_t cpa = find_word(code, "condition_variable_any");
    if ((cp != std::string::npos && std_qualified(code, cp)) ||
        (cpa != std::string::npos && std_qualified(code, cpa)))
      report(f, line, "R4",
             "raw std::condition_variable — use sap::CondVar (common/mutex.hpp)");
  }

  // R5 — one JSON emitter, one schema.
  void rule_bench(const ScannedFile& f, std::size_t line, const std::string& code) {
    if (!in_dir(f.path, "bench")) return;
    if (path_has_prefix(f.path, "bench/bench_util.")) return;
    for (const char* api : {"ofstream", "fstream", "fopen", "freopen"})
      if (has_word(code, api))
        report(f, line, "R5",
               std::string(api) + " in a bench — emit results through "
               "bench_util (emit_table/write_json) so every BENCH_*.json "
               "shares schema and run metadata");
  }

  // R6 — observability never reaches into the numeric kernels: no sap::obs
  // use, no obs header includes, and no timers — a kernel that times or
  // counts itself couples its output (via branches on elapsed time, or the
  // temptation to) to the metrics switch, and the bit-identity contract
  // (metrics on/off, DESIGN.md §12) forbids exactly that. Timing happens at
  // serving-stage boundaries in src/net and src/protocol.
  void rule_obs(const ScannedFile& f, std::size_t line, const std::string& code) {
    static const std::vector<std::string> kKernelDirs = {
        "src/linalg", "src/perturb", "src/optimize",
        "src/classify", "src/privacy", "src/rng"};
    bool kernel = false;
    for (const std::string& dir : kKernelDirs)
      if (in_dir(f.path, dir)) kernel = true;
    if (!kernel) return;
    for (std::size_t pos = code.find("obs::"); pos != std::string::npos;
         pos = code.find("obs::", pos + 1)) {
      if (pos == 0 || !ident_char(code[pos - 1])) {
        report(f, line, "R6",
               "sap::obs use inside a numeric kernel — observability is pure "
               "measurement; record metrics at serving-stage boundaries "
               "(src/net, src/protocol), never in the math");
        break;
      }
    }
    if (code.find("#include") != std::string::npos &&
        code.find("obs/") != std::string::npos)
      report(f, line, "R6",
             "obs header included by a numeric kernel — the kernels must stay "
             "measurement-free so metrics on/off cannot perturb a job report");
    if (has_word(code, "Stopwatch") || has_word(code, "steady_now_ns"))
      report(f, line, "R6",
             "timer inside a numeric kernel — time requests at stage boundaries "
             "(decode/queue/serve/merge/write), not inside the computation");
  }

  /// True when the line gives a function an ISA target:
  /// `__attribute__((target(...)))` in any spacing, its `__target__` and
  /// `target_clones` forms, or `[[gnu::target(...)]]`.
  static bool isa_target_attribute(const std::string& code) {
    for (std::size_t pos = find_word(code, "__attribute__"); pos != std::string::npos;
         pos = find_word(code, "__attribute__", pos + 1)) {
      std::size_t p = pos + std::string("__attribute__").size();
      while (p < code.size() &&
             (code[p] == '(' || std::isspace(static_cast<unsigned char>(code[p]))))
        ++p;
      const std::string name = ident_after(code, p);
      if (name == "target" || name == "__target__" || name == "target_clones") return true;
    }
    return code.find("gnu::target") != std::string::npos;
  }

  /// The two vector kernels whose variants and dispatch the per-ISA
  /// exactness argument (DESIGN.md §8) covers, each in one file.
  static bool isa_kernel_file(const std::string& path) {
    return path_has_prefix(path, "src/classify/nearest.cpp") ||
           path_has_prefix(path, "src/privacy/fastica_step.cpp");
  }

  // R8 — the kNN lane kernel and the FastICA step kernel are the only
  // ISA-specific code (DESIGN.md §8).
  void rule_isa(const ScannedFile& f, std::size_t line, const std::string& code) {
    if (isa_kernel_file(f.path)) return;
    if (isa_target_attribute(code))
      report(f, line, "R8",
             "ISA target attribute outside the vector kernels (src/classify/nearest.cpp, "
             "src/privacy/fastica_step.cpp) — their variants are the only ISA-specific "
             "code, each with its own bit-identity argument");
    if (has_word(code, "__builtin_cpu_supports"))
      report(f, line, "R8",
             "CPU feature dispatch outside the vector kernels (src/classify/nearest.cpp, "
             "src/privacy/fastica_step.cpp) — each kernel picks its variant once, there");
    if (code.find("#include") != std::string::npos &&
        code.find("immintrin.h") != std::string::npos)
      report(f, line, "R8",
             "<immintrin.h> outside the vector kernels (src/classify/nearest.cpp, "
             "src/privacy/fastica_step.cpp) — vector code is theirs, written with "
             "generic vectors");
  }

  /// The <cmath> transcendentals R9 keeps out of the exchange's kernels,
  /// by their double names; the f/l-suffixed forms count too.
  static bool libm_transcendental(const std::string& name) {
    static const std::set<std::string> kNames = {
        "exp",  "exp2", "expm1", "log",   "log2",  "log10",  "log1p",  "logb",
        "pow",  "sin",  "cos",   "tan",   "asin",  "acos",   "atan",   "atan2",
        "sinh", "cosh", "tanh",  "asinh", "acosh", "atanh",  "erf",    "erfc",
        "cbrt", "hypot", "tgamma", "lgamma"};
    if (kNames.contains(name)) return true;
    const char last = name.empty() ? '\0' : name.back();
    return (last == 'f' || last == 'l') && kNames.contains(name.substr(0, name.size() - 1));
  }

  // R9 — the exchange's attack, optimizer and perturbation code computes the
  // same bits on every host: no libm transcendental there (DESIGN.md §8).
  // A call is flagged when it is std::-qualified, ::-qualified or bare; a
  // member call or one qualified by another namespace (math::tanh) is not.
  void rule_owned_math(const ScannedFile& f, std::size_t line, const std::string& code) {
    if (!in_dir(f.path, "src/privacy") && !in_dir(f.path, "src/optimize") &&
        !in_dir(f.path, "src/perturb"))
      return;
    for (std::size_t pos = 0; pos < code.size();) {
      if (!ident_char(code[pos])) {
        ++pos;
        continue;
      }
      std::size_t end = pos;
      while (end < code.size() && ident_char(code[end])) ++end;
      const std::string name = code.substr(pos, end - pos);
      std::size_t after = end;
      while (after < code.size() && std::isspace(static_cast<unsigned char>(code[after])))
        ++after;
      if (after < code.size() && code[after] == '(' && libm_transcendental(name)) {
        std::size_t before = pos;
        while (before > 0 && std::isspace(static_cast<unsigned char>(code[before - 1])))
          --before;
        const bool member =
            (before >= 1 && code[before - 1] == '.') ||
            (before >= 2 && code.compare(before - 2, 2, "->") == 0);
        bool other_namespace = false;
        if (before >= 2 && code.compare(before - 2, 2, "::") == 0) {
          const std::string qualifier = ident_before(code, before - 2);
          other_namespace = !qualifier.empty() && qualifier != "std";
        }
        if (!member && !other_namespace)
          report(f, line, "R9",
                 "libm " + name + "() in the exchange's numeric code — its last bits "
                 "depend on the host's libm; call the owned sap::math function "
                 "(common/owned_math.hpp)");
      }
      pos = end;
    }
  }

  // ---- R7 helpers --------------------------------------------------------

  /// True when the line opens an unconditional loop: `for (;;)` or
  /// `while (true)` / `while (1)`, whitespace-insensitive.
  static bool infinite_loop_header(const std::string& code) {
    const auto at_after_ws = [&](std::size_t p) {
      while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
      return p;
    };
    std::size_t fo = find_word(code, "for");
    if (fo != std::string::npos) {
      std::size_t p = at_after_ws(fo + 3);
      if (p < code.size() && code[p] == '(') {
        p = at_after_ws(p + 1);
        if (p < code.size() && code[p] == ';') {
          p = at_after_ws(p + 1);
          if (p < code.size() && code[p] == ';') {
            p = at_after_ws(p + 1);
            if (p < code.size() && code[p] == ')') return true;
          }
        }
      }
    }
    std::size_t wh = find_word(code, "while");
    if (wh != std::string::npos) {
      std::size_t p = at_after_ws(wh + 5);
      if (p < code.size() && code[p] == '(') {
        p = at_after_ws(p + 1);
        if (code.compare(p, 4, "true") == 0 || code.compare(p, 1, "1") == 0) {
          p = at_after_ws(p + (code[p] == 't' ? 4 : 1));
          if (p < code.size() && code[p] == ')') return true;
        }
      }
    }
    return false;
  }

  /// True when the line issues a high-level request: a client connect or
  /// one of the serving-door ops. `::connect(` alone (the raw syscall, whose
  /// EINTR handling legitimately loops) does not count — only `.connect(`
  /// and `TcpSocket::connect(`.
  static bool request_op(const std::string& code) {
    if (code.find(".connect(") != std::string::npos ||
        code.find("TcpSocket::connect(") != std::string::npos ||
        code.find(".stats(") != std::string::npos)
      return true;
    static const std::vector<std::string> kOps = {
        "transact",        "transact_idempotent", "mine_named", "mine_partial",
        "contribute_wire", "pool_slice",          "shard_snapshot"};
    for (const std::string& op : kOps) {
      const std::size_t pos = find_word(code, op);
      if (pos == std::string::npos) continue;
      std::size_t p = pos + op.size();
      while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
      if (p < code.size() && code[p] == '(') return true;
    }
    return false;
  }

  /// True when the line mentions a bound: an attempt budget, a deadline, or
  /// a remaining-token check (substring on purpose — `retry_deadline_ms`
  /// and `attempts_left` both count).
  static bool retry_bound_token(const std::string& code) {
    for (const char* token :
         {"attempt", "budget", "deadline", "remaining", "retries", "tries"})
      if (code.find(token) != std::string::npos) return true;
    return false;
  }

  // R7 — a retry loop without a budget or deadline spins forever against a
  // dead peer; every unconditional loop that issues requests must carry one.
  void rule_retry(const ScannedFile& f) {
    struct OpenLoop {
      std::size_t header_line;
      int depth_at_entry;
      bool entered = false;
      bool has_op = false;
      bool has_bound = false;
    };
    std::vector<OpenLoop> loops;
    int depth = 0;
    for (std::size_t line = 1; line < f.code.size(); ++line) {
      const std::string& code = f.code[line];
      if (infinite_loop_header(code)) loops.push_back({line, depth});
      if (!loops.empty()) {
        if (retry_bound_token(code))
          for (OpenLoop& l : loops) l.has_bound = true;
        if (request_op(code))
          for (OpenLoop& l : loops) l.has_op = true;
      }
      for (const char c : code) {
        if (c == '{') {
          ++depth;
          for (OpenLoop& l : loops)
            if (!l.entered && depth == l.depth_at_entry + 1) l.entered = true;
        } else if (c == '}') {
          --depth;
          for (std::size_t k = loops.size(); k-- > 0;) {
            if (!loops[k].entered || depth != loops[k].depth_at_entry) continue;
            if (loops[k].has_op && !loops[k].has_bound)
              report(f, loops[k].header_line, "R7",
                     "unbounded retry loop issuing requests — bound it with an "
                     "attempt budget or deadline (a dead peer must exhaust the "
                     "caller's patience, not its lifetime)");
            loops.erase(loops.begin() + k);
          }
        }
      }
    }
  }

  std::vector<Diagnostic>& diags_;
  std::vector<std::set<std::string>> suppressed_;
  std::set<std::string> mutexes_;
  std::set<std::string> unordered_vars_;
  bool merge_adjacent_ = false;
};

// ---- driver --------------------------------------------------------------

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

void collect_dir(const fs::path& dir, std::vector<fs::path>& files) {
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file() && lintable(entry.path())) files.push_back(entry.path());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) roots.emplace_back(argv[i]);
  if (roots.empty()) roots.emplace_back(".");

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else if (fs::is_directory(root, ec)) {
      bool repo_shape = false;
      for (const char* sub : {"src", "tools", "bench"}) {
        const fs::path subdir = root / sub;
        if (fs::is_directory(subdir, ec)) {
          repo_shape = true;
          collect_dir(subdir, files);
        }
      }
      if (!repo_shape) collect_dir(root, files);
    } else {
      std::cerr << "sap_lint: no such file or directory: " << root.string() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Diagnostic> diags;
  Linter linter(diags);
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "sap_lint: cannot read " << file.string() << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    linter.lint(scan_source(file.generic_string(), text.str()));
  }

  std::stable_sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    return a.line < b.line;
  });
  for (const Diagnostic& d : diags) {
    const std::string tag =
        d.rule == "suppression" ? d.rule : d.rule + "/" + rule_slug(d.rule);
    std::cout << d.file << ":" << d.line << ": error: [" << tag << "] " << d.message
              << "\n";
  }
  std::cerr << "sap_lint: " << files.size() << " file(s), " << diags.size()
            << " violation(s)\n";
  return diags.empty() ? 0 : 1;
}

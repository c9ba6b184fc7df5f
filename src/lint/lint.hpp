#pragma once

// Project-specific static analysis: the determinism-contract linter.
//
// Every byte-determinism guarantee in docs/ARCHITECTURE.md — chain-0
// bit-compat, byte-identical sweep/shard/schedd artifacts, Rng
// stream-identity, wall-clock-free traces — used to be enforced by prose
// and reviewer vigilance only.  This library turns the documented
// invariants into lexical pattern rules over translation units, run by the
// `dagsched-lint` CLI (tools/lint_main.cpp), the `lint_repo` CTest and the
// CI lint job.  Seven checks:
//
//   wall-clock     steady_clock / system_clock / high_resolution_clock /
//                  std::random_device / ::rand / ::srand / gettimeofday /
//                  clock_gettime anywhere in linted code.  Wall time and
//                  host entropy are the canonical nondeterminism sources;
//                  the two sanctioned uses (the gsa wall budget and the
//                  service elapsed_ms field) carry suppressions.
//   unordered-iter range-for or .begin()/.cbegin() iteration over a
//                  std::unordered_map / std::unordered_set inside
//                  serialization / summary / hash paths.  Hash iteration
//                  order is libstdc++-version- and seed-dependent, so a
//                  loop like `for (auto& kv : map_) json.key(kv.first)`
//                  silently breaks byte-identical artifacts.
//   rng-stream     direct dagsched::Rng construction (or reseeding
//                  assignment) outside the Rng::stream seams.  Each
//                  subsystem derives its stream from an explicit seed via
//                  Rng::stream; ad-hoc construction risks correlated or
//                  host-dependent streams.
//   float-format   std::to_string on a floating value, default ostream <<
//                  of a floating value, or a printf-family %e/%f/%g
//                  conversion inside writer paths.  Doubles in artifacts
//                  must route through the fixed-decimal, locale-
//                  independent util/json + format_fixed renderers.
//   bare-assert    `assert(` in linted code.  The repo keeps asserts
//                  active in Release (DAGSCHED_KEEP_ASSERTS), so an assert
//                  is a Release-kept invariant and the convention is
//                  require()/ensure() (util/require.hpp) with a message;
//                  the sanctioned hot-path bounds checks carry
//                  suppressions explaining their perf contract.
//   locale-number  a call to strtod / strtof / strtold / atof /
//                  std::stod / std::stof / std::stold in linted code.
//                  They take the decimal point
//                  from LC_NUMERIC, so "0.5" stops parsing at the '.'
//                  under a comma locale; numbers are read through
//                  parse_real / parse_int64 (util/string_util), which use
//                  std::from_chars and keep strtod's grammar.
//   ready-scan     a `.ready_tasks()` / `->ready_tasks()` call in a
//                  scheduling policy (src/sched/).  Reading the whole
//                  ready set every epoch is O(n^2) over a workflow-scale
//                  run; policies keep a ReadyIndex fed from
//                  EpochContext::newly_ready() (sched/policy.hpp).  The
//                  policies whose rule needs the whole set carry
//                  suppressions.
//
// Suppression syntax (same line as the finding or the line directly
// above):
//
//   // LINT-ALLOW(<check>): <reason>
//
// A suppression with an unknown check name, an empty reason, or no
// matching finding is itself a finding (check name "lint-allow"), so
// stale or lazy annotations cannot accumulate.
//
// The "translation unit" model is deliberately shallow: a file's tokens
// plus the declaration tables (unordered containers, floating variables)
// of the project headers it directly #includes.  That is enough for every
// rule above to be reliable on this codebase without dragging in a real
// C++ frontend; genuinely ambiguous constructs (e.g. a function returning
// Rng by value declared outside util/rng) are what LINT-ALLOW is for.

#include <string>
#include <vector>

namespace dagsched::lint {

/// One linter diagnostic.  `check` is the rule name (or "lint-allow" for
/// suppression hygiene findings).
struct Finding {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
};

/// A parsed `// LINT-ALLOW(check): reason` directive.
struct AllowDirective {
  int line = 0;
  std::string check;
  std::string reason;
  bool used = false;
};

struct LintOptions {
  /// Checks to run; empty means all of known_checks().
  std::vector<std::string> checks;

  /// Path fragments selecting the writer paths for float-format.  A file
  /// is in scope when its (slash-normalized) path contains any fragment;
  /// an empty fragment matches everything (used by the fixture tests).
  std::vector<std::string> writer_paths;

  /// Path fragments selecting the serialization/summary/hash paths for
  /// unordered-iter.
  std::vector<std::string> ordered_paths;

  /// Path fragments selecting the scheduling-policy sources for
  /// ready-scan.  Every path is in scope unless narrowed (default_options
  /// narrows it to the policies under src/sched/).
  std::vector<std::string> policy_paths = {""};

  /// Roots against which `#include "..."` lines are resolved (in addition
  /// to the including file's own directory).
  std::vector<std::string> include_roots;
};

/// The default configuration the CLI and the lint_repo gate run with:
/// all checks, the repo's writer/serialization path lists.
LintOptions default_options();

/// Names of all checks, in reporting order.
const std::vector<std::string>& known_checks();

/// Lints one in-memory source (include ingestion uses options.include_roots
/// and the directory part of `path`).  Findings are sorted by line, then
/// check name.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const LintOptions& options);

/// Loads and lints a file.  Throws std::runtime_error when unreadable.
std::vector<Finding> lint_file(const std::string& path,
                               const LintOptions& options);

/// One line per finding: "<file>:<line>: [<check>] <message>\n".
std::string format_findings(const std::vector<Finding>& findings);

}  // namespace dagsched::lint

// ckat-lint: project-specific static analysis for the CKAT tree.
//
// A dependency-free (std-only) multi-pass analyzer. A lexer/tokenizer
// layer (model.hpp) builds a per-translation-unit model -- classes,
// fields, mutex/atomic members, function bodies with lock-acquisition
// sites -- and cross-TU passes (concurrency.hpp) check it; the
// remaining rules run on comment-stripped lines:
//
//   ckat-determinism      no rand()/srand(), time(nullptr), random_device,
//                         unseeded mt19937 or wall-clock (system_clock)
//                         reads inside the deterministic model directories
//                         (src/core, src/nn, src/graph, src/baselines).
//   ckat-env-registry     getenv() only inside src/util/env.hpp, every
//                         "CKAT_*" string literal registered there, and
//                         registry <-> README runtime-configuration table
//                         consistent in both directions.
//   ckat-metric-registry  no string-literal metric names at
//                         .counter()/.gauge()/.histogram() call sites in
//                         src/; names come from obs/metric_names.hpp.
//   ckat-relaxed-atomic   memory_order_relaxed only in the allowlisted
//                         hot-path files (see lint.cpp) or under NOLINT.
//   ckat-lock-order       the global lock-order graph (nested
//                         acquisitions, including through uniquely-
//                         resolved calls) must be acyclic; cycles are
//                         potential deadlocks.
//   ckat-mutex-guard      every access to a member annotated
//                         "// guarded by <m>" happens while <m> is held
//                         (positional dataflow over lock scopes);
//                         ctors/dtors and *_locked helpers are exempt.
//   ckat-relaxed-publish  a relaxed atomic load must not gate access to
//                         plain members it cannot publish.
//   ckat-budget-drop      src/serve code holding a deadline budget
//                         forwards it into score*/handle* callees.
//   ckat-detached-thread  no std::thread::detach().
//   ckat-include-guard    headers start with #pragma once (or #ifndef).
//   ckat-using-namespace  no using-namespace directives in headers.
//   ckat-nolint-reason    every NOLINT(ckat-*) carries a ": reason".
//   ckat-trace-context    start_trace() only at the gateway admission
//                         edge (src/serve/gateway.cpp); downstream code
//                         forwards the request's TraceContext instead
//                         of re-rooting a new trace.
//   ckat-train-determinism  training-engine sources avoid atomic float
//                         accumulators, hardware_concurrency() and
//                         unordered reductions.
//   ckat-openmp           no OpenMP in any linted file (#pragma omp,
//                         <omp.h>, omp_* calls): util::WorkerPool is
//                         the one parallel runtime.
//
// Suppression: `// NOLINT(ckat-rule): reason` on the offending line or
// `// NOLINTNEXTLINE(ckat-rule): reason` on the line above. The reason
// string is mandatory; a bare ckat NOLINT is itself a diagnostic.
//
// Matching runs on comment-stripped, string-blanked text (a lexer pass
// tracks //, /*...*/, string and char literals across lines), so code in
// comments or messages cannot trip rules; the env-registry rule
// additionally sees the extracted string-literal contents.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ckat::lint {

enum class Severity { kWarning, kError };

struct Diagnostic {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

struct LintOptions {
  /// Project root used for the registry cross-checks (README.md and
  /// src/util/env.hpp). Empty = skip those checks (fixture mode).
  std::string root;
};

/// One rule's id/severity/description, for --list-rules and tests.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* description;
};

[[nodiscard]] const std::vector<RuleInfo>& rule_catalogue();

/// Runs every rule over `files` (paths to readable sources). Diagnostics
/// come back sorted by (file, line, rule). Unreadable files produce a
/// "ckat-io" error diagnostic rather than aborting the run.
[[nodiscard]] std::vector<Diagnostic> run_lint(
    const std::vector<std::string>& files, const LintOptions& options);

/// Renders "file:line: severity: [rule] message".
[[nodiscard]] std::string render(const Diagnostic& diagnostic);

/// Machine-readable outputs for CI: a flat JSON document, and SARIF
/// 2.1.0 (GitHub code-scanning annotations).
[[nodiscard]] std::string render_json(const std::vector<Diagnostic>& diags);
[[nodiscard]] std::string render_sarif(const std::vector<Diagnostic>& diags);

/// --self-check: every catalogue rule is paired with a firing fixture
/// and a silent fixture under `fixtures_dir`, and both behave. Failures
/// are appended to `report`; returns true when the catalogue and the
/// fixture set are in sync.
[[nodiscard]] bool self_check(const std::string& fixtures_dir,
                              std::string& report);

}  // namespace ckat::lint

// Drives the ckat_lint binary against the fixtures under
// tests/tools/fixtures: for every rule, one deliberately violating
// source (asserting the exact rule id fires) and one clean counterpart
// (asserting a zero exit). Paths are injected by CMake:
//   CKAT_LINT_BIN      -- $<TARGET_FILE:ckat_lint>
//   CKAT_LINT_FIXTURES -- absolute path of the fixtures directory
//   CKAT_REPO_ROOT     -- absolute path of the repository checkout
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <regex>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult run_lint(const std::string& args) {
  const std::string command =
      std::string("\"") + CKAT_LINT_BIN + "\" " + args + " 2>/dev/null";
  LintResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& relative) {
  return std::string(CKAT_LINT_FIXTURES) + "/" + relative;
}

/// Rule ids appearing in the output, with multiplicity.
std::map<std::string, int> rule_counts(const std::string& output) {
  std::map<std::string, int> counts;
  static const std::regex id("\\[(ckat-[a-z-]+)\\]");
  for (auto it = std::sregex_iterator(output.begin(), output.end(), id);
       it != std::sregex_iterator(); ++it) {
    counts[(*it)[1].str()]++;
  }
  return counts;
}

/// Asserts the violating fixture produces diagnostics for exactly
/// `rule` (and nothing else), and that its clean sibling is silent.
void expect_rule_pair(const std::string& bad, const std::string& clean,
                      const std::string& rule) {
  const LintResult violating = run_lint("\"" + fixture(bad) + "\"");
  EXPECT_EQ(violating.exit_code, 1) << bad << "\n" << violating.output;
  const auto counts = rule_counts(violating.output);
  ASSERT_EQ(counts.size(), 1u) << bad << "\n" << violating.output;
  EXPECT_EQ(counts.begin()->first, rule) << violating.output;

  const LintResult ok = run_lint("\"" + fixture(clean) + "\"");
  EXPECT_EQ(ok.exit_code, 0) << clean << "\n" << ok.output;
  EXPECT_TRUE(ok.output.empty()) << ok.output;
}

TEST(CkatLint, DeterminismRule) {
  expect_rule_pair("src/core/determinism_bad.cpp",
                   "src/core/determinism_clean.cpp", "ckat-determinism");
  // Every banned construct in the fixture is reported individually:
  // srand, rand, time(nullptr), random_device, unseeded mt19937,
  // system_clock, clock().
  const LintResult r =
      run_lint("\"" + fixture("src/core/determinism_bad.cpp") + "\"");
  EXPECT_EQ(rule_counts(r.output)["ckat-determinism"], 7) << r.output;
}

TEST(CkatLint, EnvRegistryGetenvRule) {
  expect_rule_pair("src/serve/env_bad.cpp", "src/serve/env_clean.cpp",
                   "ckat-env-registry");
}

TEST(CkatLint, MetricRegistryRule) {
  expect_rule_pair("src/serve/metric_bad.cpp", "src/serve/metric_clean.cpp",
                   "ckat-metric-registry");
  const LintResult r =
      run_lint("\"" + fixture("src/serve/metric_bad.cpp") + "\"");
  EXPECT_EQ(rule_counts(r.output)["ckat-metric-registry"], 2) << r.output;
}

TEST(CkatLint, RelaxedAtomicRule) {
  // The clean sibling is the identical fetch_add under src/obs/, which
  // is on the allowlist.
  expect_rule_pair("src/serve/relaxed_bad.cpp", "src/obs/relaxed_clean.cpp",
                   "ckat-relaxed-atomic");
}

TEST(CkatLint, DetachedThreadRule) {
  expect_rule_pair("detach_bad.cpp", "detach_clean.cpp",
                   "ckat-detached-thread");
}

TEST(CkatLint, TrainDeterminismRule) {
  // Each banned construct reports individually: atomic<float>,
  // atomic<double>, hardware_concurrency() and the reduction clause.
  // The pragma carrying that clause reports under ckat-openmp.
  const LintResult r =
      run_lint("\"" + fixture("src/core/trainer_bad.cpp") + "\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  auto counts = rule_counts(r.output);
  EXPECT_EQ(counts.size(), 2u) << r.output;
  EXPECT_EQ(counts["ckat-train-determinism"], 4) << r.output;
  EXPECT_EQ(counts["ckat-openmp"], 1) << r.output;

  const LintResult ok =
      run_lint("\"" + fixture("src/core/trainer_clean.cpp") + "\"");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_TRUE(ok.output.empty()) << ok.output;
}

TEST(CkatLint, OpenMpRule) {
  expect_rule_pair("openmp_bad.cpp", "openmp_clean.cpp", "ckat-openmp");
  // <omp.h> in both include spellings, the pragma and the runtime call.
  const LintResult r = run_lint("\"" + fixture("openmp_bad.cpp") + "\"");
  EXPECT_EQ(rule_counts(r.output)["ckat-openmp"], 4) << r.output;
}

TEST(CkatLint, MutexGuardRule) {
  expect_rule_pair("src/serve/mutex_bad.cpp", "src/serve/mutex_clean.cpp",
                   "ckat-mutex-guard");
  // The dataflow pass proves the lock is not held at the access --
  // reported as an error (the old co-occurrence heuristic was a
  // warning).
  const LintResult r =
      run_lint("\"" + fixture("src/serve/mutex_bad.cpp") + "\"");
  EXPECT_NE(r.output.find("error: [ckat-mutex-guard]"), std::string::npos)
      << r.output;
  // Exempt contexts -- in-class constructors and `*_locked` helpers
  // (caller holds the mutex by contract) -- stay silent.
  const LintResult exempt =
      run_lint("\"" + fixture("src/serve/mutex_exempt_clean.cpp") + "\"");
  EXPECT_EQ(exempt.exit_code, 0) << exempt.output;
  EXPECT_TRUE(exempt.output.empty()) << exempt.output;
}

TEST(CkatLint, MutexGuardRuleShardReplicaPattern) {
  // The shard router's replica idiom: an atomic health flag readable
  // lock-free next to mutex-guarded state it publishes. Dereferencing
  // the guarded store on the lock-free fast path fires; the disciplined
  // version (locks + `*_locked` helpers + atomic-only fast path) is
  // silent.
  expect_rule_pair("src/serve/shard_mutex_bad.cpp",
                   "src/serve/shard_mutex_clean.cpp", "ckat-mutex-guard");
}

TEST(CkatLint, LockOrderRule) {
  expect_rule_pair("src/serve/lock_order_bad.cpp",
                   "src/serve/lock_order_clean.cpp", "ckat-lock-order");
  // The diagnostic names the full cycle and both acquisition sites.
  const LintResult r =
      run_lint("\"" + fixture("src/serve/lock_order_bad.cpp") + "\"");
  EXPECT_NE(r.output.find("potential deadlock"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("FixtureRouter::router_mutex_ -> "
                          "FixtureRouter::replica_mutex_"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("FixtureRouter::replica_mutex_ -> "
                          "FixtureRouter::router_mutex_"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("rebalance"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("record_failure"), std::string::npos) << r.output;
}

TEST(CkatLint, RelaxedPublishRule) {
  // Both fixtures live under src/obs/ (relaxed itself allowlisted
  // there), so the publication misuse is the only thing that can fire.
  expect_rule_pair("src/obs/relaxed_publish_bad.cpp",
                   "src/obs/relaxed_publish_clean.cpp",
                   "ckat-relaxed-publish");
  const LintResult r =
      run_lint("\"" + fixture("src/obs/relaxed_publish_bad.cpp") + "\"");
  EXPECT_NE(r.output.find("'ready_'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'snapshot_'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'rows_'"), std::string::npos) << r.output;
}

TEST(CkatLint, BudgetDropRule) {
  expect_rule_pair("src/serve/budget_drop_bad.cpp",
                   "src/serve/budget_drop_clean.cpp", "ckat-budget-drop");
  const LintResult r =
      run_lint("\"" + fixture("src/serve/budget_drop_bad.cpp") + "\"");
  EXPECT_NE(r.output.find("score_candidates"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("budget_us"), std::string::npos) << r.output;
}

TEST(CkatLint, IncludeGuardRule) {
  expect_rule_pair("include_guard_bad.hpp", "include_guard_clean.hpp",
                   "ckat-include-guard");
}

TEST(CkatLint, UsingNamespaceRule) {
  expect_rule_pair("using_namespace_bad.hpp", "using_namespace_clean.hpp",
                   "ckat-using-namespace");
}

TEST(CkatLint, TraceContextRule) {
  expect_rule_pair("src/serve/trace_root_bad.cpp",
                   "src/serve/trace_root_clean.cpp", "ckat-trace-context");
}

TEST(CkatLint, NolintWithoutReasonFlaggedAndNotSuppressing) {
  const LintResult r =
      run_lint("\"" + fixture("nolint_missing_reason.cpp") + "\"");
  EXPECT_EQ(r.exit_code, 1);
  const auto counts = rule_counts(r.output);
  EXPECT_EQ(counts.at("ckat-nolint-reason"), 1) << r.output;
  // The bare NOLINT does not count as a suppression either.
  EXPECT_EQ(counts.at("ckat-detached-thread"), 1) << r.output;
}

TEST(CkatLint, NolintWithReasonSuppresses) {
  const LintResult r = run_lint("\"" + fixture("nolint_with_reason.cpp") + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(CkatLint, EnvRegistryCrossChecksBothDirections) {
  const LintResult r = run_lint("--root \"" + fixture("envroot") + "\" \"" +
                                fixture("envroot/src/core/uses_env.cpp") +
                                "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(rule_counts(r.output)["ckat-env-registry"], 3) << r.output;
  // Registered but undocumented.
  // NOLINTNEXTLINE(ckat-env-registry): fixture-registry variable name asserted in the lint output
  EXPECT_NE(r.output.find("CKAT_BETA"), std::string::npos) << r.output;
  // Documented but unregistered.
  // NOLINTNEXTLINE(ckat-env-registry): fixture-registry variable name asserted in the lint output
  EXPECT_NE(r.output.find("CKAT_GAMMA"), std::string::npos) << r.output;
  // Referenced in a literal but unknown to the registry.
  // NOLINTNEXTLINE(ckat-env-registry): fixture-registry variable name asserted in the lint output
  EXPECT_NE(r.output.find("CKAT_DELTA"), std::string::npos) << r.output;
}

TEST(CkatLint, EnvRegistryConsistentRootIsClean) {
  const LintResult r =
      run_lint("--root \"" + fixture("envroot_clean") + "\" \"" +
               fixture("envroot_clean/src/core/uses_env.cpp") + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CkatLint, ListRulesCoversCatalogue) {
  LintResult r;
  {
    const std::string command =
        std::string("\"") + CKAT_LINT_BIN + "\" --list-rules";
    FILE* pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
      r.output.append(buffer, n);
    }
    r.exit_code = WEXITSTATUS(pclose(pipe));
  }
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"ckat-determinism", "ckat-env-registry", "ckat-metric-registry",
        "ckat-relaxed-atomic", "ckat-lock-order", "ckat-mutex-guard",
        "ckat-relaxed-publish", "ckat-budget-drop", "ckat-detached-thread",
        "ckat-include-guard", "ckat-using-namespace", "ckat-nolint-reason",
        "ckat-trace-context", "ckat-train-determinism", "ckat-openmp"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << "missing " << rule;
  }
}

TEST(CkatLint, JsonFormat) {
  const LintResult r = run_lint("--format=json \"" +
                                fixture("src/serve/mutex_bad.cpp") + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"rule\":\"ckat-mutex-guard\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"severity\":\"error\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"errors\":1"), std::string::npos) << r.output;
  // Human rendering is replaced, not duplicated.
  EXPECT_EQ(r.output.find("error: ["), std::string::npos) << r.output;
}

TEST(CkatLint, SarifFormat) {
  const LintResult r = run_lint("--format=sarif \"" +
                                fixture("src/serve/lock_order_bad.cpp") +
                                "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"version\":\"2.1.0\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ruleId\":\"ckat-lock-order\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"startLine\""), std::string::npos) << r.output;
  // The driver advertises its rule catalogue.
  EXPECT_NE(r.output.find("\"id\":\"ckat-budget-drop\""), std::string::npos)
      << r.output;
}

TEST(CkatLint, SelfCheckPasses) {
  const std::string root = CKAT_REPO_ROOT;
  const LintResult r = run_lint("--root \"" + root + "\" --self-check");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CkatLint, RepoTreeIsLintClean) {
  // The acceptance bar: the analyzer over the real tree (registry
  // cross-checks included via --root) reports nothing.
  const std::string root = CKAT_REPO_ROOT;
  std::string args = "--root \"" + root + "\"";
  for (const char* tree : {"src", "tests", "bench", "tools", "examples"}) {
    args += " \"" + root + "/" + tree + "\"";
  }
  const LintResult r = run_lint(args);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(CkatLint, UnreadableFileIsReportedNotSkipped) {
  const LintResult r = run_lint("\"" + fixture("does_not_exist.cpp") + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[ckat-io]"), std::string::npos) << r.output;
}

}  // namespace

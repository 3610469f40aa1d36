#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "concurrency.hpp"
#include "model.hpp"

namespace ckat::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule catalogue and per-rule configuration
// ---------------------------------------------------------------------------

constexpr const char* kDeterminism = "ckat-determinism";
constexpr const char* kEnvRegistry = "ckat-env-registry";
constexpr const char* kMetricRegistry = "ckat-metric-registry";
constexpr const char* kRelaxedAtomic = "ckat-relaxed-atomic";
constexpr const char* kDetachedThread = "ckat-detached-thread";
constexpr const char* kIncludeGuard = "ckat-include-guard";
constexpr const char* kUsingNamespace = "ckat-using-namespace";
constexpr const char* kNolintReason = "ckat-nolint-reason";
constexpr const char* kTraceContext = "ckat-trace-context";
constexpr const char* kTrainDeterminism = "ckat-train-determinism";
constexpr const char* kOpenMp = "ckat-openmp";
constexpr const char* kIo = "ckat-io";

/// Directories whose code must be bit-reproducible: all randomness flows
/// from util::Rng and all timing from util::Timer (steady_clock).
constexpr const char* kDeterministicDirs[] = {"src/core/", "src/nn/",
                                              "src/graph/", "src/baselines/"};

/// Files allowed to use memory_order_relaxed without a per-line NOLINT.
/// Keep this list short and justified; everything else suppresses with
/// `// NOLINT(ckat-relaxed-atomic): <reason>`.
constexpr const char* kRelaxedAllowlist[] = {
    // Metrics hot path: counters are summed at export time, never used
    // to order other memory operations.
    "src/obs/",
    // Log level / warn-once flags: monotonic configuration reads.
    "src/util/logging.cpp",
    // Gateway conservation counters: documented in gateway.hpp ("summed,
    // never compared across each other mid-flight").
    "src/serve/gateway.cpp",
    // Shard-router conservation counters and round-robin cursors: same
    // contract as the gateway's (summed/snapshot-read, never used to
    // order other memory); replica health publication uses acq/rel.
    "src/serve/shard.cpp",
};

/// "CKAT_*" tokens that are legitimately not runtime environment
/// variables (contract macros, build-time CMake options, the registry's
/// own macro name).
const std::set<std::string>& builtin_ckat_tokens() {
  static const std::set<std::string> tokens = {
      "CKAT_ASSERT",   "CKAT_CHECK_INVARIANT", "CKAT_VALIDATE",
      "CKAT_SANITIZE", "CKAT_ENV_REGISTRY",
  };
  return tokens;
}

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h") ||
         path.ends_with(".hh");
}

bool path_contains(const std::string& path, const char* fragment) {
  return path.find(fragment) != std::string::npos;
}

bool in_deterministic_dir(const std::string& path) {
  for (const char* dir : kDeterministicDirs) {
    if (path_contains(path, dir)) return true;
  }
  return false;
}

bool in_relaxed_allowlist(const std::string& path) {
  for (const char* entry : kRelaxedAllowlist) {
    if (path_contains(path, entry)) return true;
  }
  return false;
}

/// Training-engine sources: the files that carry the "bit-identical at
/// every thread count" contract (DESIGN.md section 16).
bool is_training_file(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.find("train") != std::string::npos ||
         base.find("optim") != std::string::npos ||
         base.find("gradcheck") != std::string::npos;
}

// ---------------------------------------------------------------------------
// NOLINT suppressions
// ---------------------------------------------------------------------------

struct Suppression {
  std::size_t target_line = 0;   // line the suppression applies to
  std::size_t comment_line = 0;  // line the comment sits on
  std::set<std::string> rules;
  bool has_reason = false;
};

void trim(std::string& s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.erase(s.begin());
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
}

std::vector<Suppression> collect_suppressions(const SourceFile& file) {
  std::vector<Suppression> out;
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& line = file.raw[li];
    for (const char* marker : {"NOLINTNEXTLINE(", "NOLINT("}) {
      std::size_t pos = line.find(marker);
      if (pos == std::string::npos) continue;
      // "NOLINT(" also matches inside "NOLINTNEXTLINE(" -- skip the dup.
      if (std::string(marker) == "NOLINT(" && pos >= 8 &&
          line.compare(pos - 8, 8, "NEXTLINE") == 0) {
        continue;
      }
      const std::size_t open = pos + std::string(marker).size() - 1;
      const std::size_t close = line.find(')', open);
      if (close == std::string::npos) continue;
      Suppression sup;
      sup.comment_line = li + 1;
      sup.target_line =
          std::string(marker) == "NOLINTNEXTLINE(" ? li + 2 : li + 1;
      std::string rules = line.substr(open + 1, close - open - 1);
      std::istringstream items(rules);
      std::string item;
      bool any_ckat = false;
      // Only concrete rule ids count: prose naming the syntax itself
      // ("NOLINT(ckat-*)") is not a suppression.
      static const std::regex rule_id("ckat-[a-z0-9]+(-[a-z0-9]+)*");
      while (std::getline(items, item, ',')) {
        trim(item);
        if (std::regex_match(item, rule_id)) any_ckat = true;
        sup.rules.insert(item);
      }
      if (!any_ckat) continue;  // clang-tidy suppressions are not ours
      std::string rest = line.substr(close + 1);
      trim(rest);
      sup.has_reason = rest.size() > 1 && rest.front() == ':';
      out.push_back(std::move(sup));
      break;  // one suppression comment per line
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cross-file context: env registry, README table
// ---------------------------------------------------------------------------

struct EnvRegistryEntry {
  std::size_t line = 0;
};

struct Context {
  bool have_registry = false;
  std::map<std::string, EnvRegistryEntry> env_vars;  // name -> decl line
  std::string env_hpp_path;
  std::string readme_path;
};

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const LintOptions& options) : options_(options) {}

  std::vector<Diagnostic> run(const std::vector<std::string>& paths) {
    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const std::string& path : paths) {
      files.push_back(load_source(path));
      if (!files.back().readable) {
        add(path, 0, kIo, Severity::kError, "cannot read file");
      }
    }
    if (!options_.root.empty()) load_registry();
    if (ctx_.have_registry) check_registry_vs_readme();
    for (const SourceFile& file : files) {
      if (file.readable) analyze(file);
    }

    // Cross-TU concurrency passes over the whole model; suppressions
    // apply at whichever file/line a diagnostic lands on.
    const Model model = build_model(files);
    std::vector<Diagnostic> global;
    check_lock_order(model, global);
    check_guarded_fields(model, global);
    check_relaxed_publish(model, global);
    check_budget_drop(model, global);
    for (Diagnostic& diag : global) {
      if (!suppressed(diag)) diags_.push_back(std::move(diag));
    }

    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    return std::move(diags_);
  }

 private:
  void add(std::string file, std::size_t line, std::string rule,
           Severity severity, std::string message) {
    diags_.push_back(
        {std::move(file), line, std::move(rule), severity, std::move(message)});
  }

  bool suppressed(const Diagnostic& diag) const {
    const auto it = suppressions_.find(diag.file);
    if (it == suppressions_.end()) return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [&](const Suppression& sup) {
                         return sup.has_reason &&
                                sup.target_line == diag.line &&
                                sup.rules.count(diag.rule) > 0;
                       });
  }

  // -- registry loading -----------------------------------------------------

  void load_registry() {
    ctx_.env_hpp_path = options_.root + "/src/util/env.hpp";
    ctx_.readme_path = options_.root + "/README.md";
    SourceFile env_hpp = load_source(ctx_.env_hpp_path);
    if (!env_hpp.readable) {
      add(ctx_.env_hpp_path, 0, kIo, Severity::kError,
          "cannot read the env-var registry");
      return;
    }
    static const std::regex row("^\\s*X\\((CKAT_[A-Z0-9_]+)");
    for (std::size_t li = 0; li < env_hpp.raw.size(); ++li) {
      std::smatch m;
      if (std::regex_search(env_hpp.raw[li], m, row)) {
        ctx_.env_vars[m[1].str()] = EnvRegistryEntry{li + 1};
      }
    }
    ctx_.have_registry = true;
  }

  /// Both directions: every registered variable documented in the
  /// README's runtime-configuration table, every table row registered.
  void check_registry_vs_readme() {
    SourceFile readme = load_source(ctx_.readme_path);
    if (!readme.readable) {
      add(ctx_.readme_path, 0, kIo, Severity::kError, "cannot read README");
      return;
    }
    std::map<std::string, std::size_t> documented;  // var -> line
    bool in_section = false;
    static const std::regex cell("`(CKAT_[A-Z0-9_]+)`");
    for (std::size_t li = 0; li < readme.raw.size(); ++li) {
      const std::string& line = readme.raw[li];
      if (line.find("Runtime configuration") != std::string::npos &&
          line.rfind("#", 0) == 0) {
        in_section = true;
        continue;
      }
      if (in_section && (line.rfind("## ", 0) == 0 || line.rfind("# ", 0) == 0)) {
        in_section = false;
      }
      if (!in_section || line.rfind("|", 0) != 0) continue;
      std::smatch m;
      if (std::regex_search(line, m, cell)) {
        documented.emplace(m[1].str(), li + 1);
      }
    }
    for (const auto& [name, entry] : ctx_.env_vars) {
      if (!documented.count(name)) {
        add(ctx_.env_hpp_path, entry.line, kEnvRegistry, Severity::kError,
            "registered variable " + name +
                " is missing from the README runtime-configuration table");
      }
    }
    for (const auto& [name, line] : documented) {
      if (!ctx_.env_vars.count(name)) {
        add(ctx_.readme_path, line, kEnvRegistry, Severity::kError,
            "README documents " + name +
                " but it is not registered in src/util/env.hpp");
      }
    }
  }

  // -- per-file analysis ----------------------------------------------------

  void analyze(const SourceFile& file) {
    const std::vector<Suppression>& suppressions =
        suppressions_.emplace(file.path, collect_suppressions(file))
            .first->second;
    std::vector<Diagnostic> candidates;
    const auto candidate = [&](std::size_t line, const char* rule,
                               Severity severity, std::string message) {
      candidates.push_back(
          {file.path, line, rule, severity, std::move(message)});
    };

    if (in_deterministic_dir(file.path)) check_determinism(file, candidate);
    if (in_deterministic_dir(file.path) && is_training_file(file.path)) {
      check_train_determinism(file, candidate);
    }
    check_openmp(file, candidate);
    check_env(file, candidate);
    if (path_contains(file.path, "src/") &&
        !file.path.ends_with("metric_names.hpp")) {
      check_metrics(file, candidate);
    }
    if (path_contains(file.path, "src/") && !in_relaxed_allowlist(file.path)) {
      check_relaxed(file, candidate);
    }
    check_detached(file, candidate);
    if (path_contains(file.path, "src/") &&
        !path_contains(file.path, "src/obs/") &&
        !file.path.ends_with("src/serve/gateway.cpp")) {
      check_trace_context(file, candidate);
    }
    if (is_header(file.path)) {
      check_include_guard(file, candidate);
      check_using_namespace(file, candidate);
    }

    // Apply suppressions; a reason-less ckat NOLINT never suppresses and
    // is flagged itself.
    for (const Suppression& sup : suppressions) {
      if (!sup.has_reason) {
        add(file.path, sup.comment_line, kNolintReason, Severity::kError,
            "NOLINT of a ckat rule requires a reason: "
            "// NOLINT(ckat-...): <why this site is exempt>");
      }
    }
    for (Diagnostic& diag : candidates) {
      if (!suppressed(diag)) diags_.push_back(std::move(diag));
    }
  }

  template <typename Emit>
  void check_determinism(const SourceFile& file, const Emit& candidate) {
    struct Pattern {
      std::regex regex;
      const char* what;
      const char* fix;
    };
    static const std::vector<Pattern> patterns = {
        {std::regex("\\bs?rand\\s*\\("), "rand()/srand()",
         "use util::Rng seeded from the experiment seed"},
        {std::regex("\\btime\\s*\\(\\s*(nullptr|NULL|0)\\s*\\)"),
         "time(nullptr)", "derive timestamps outside the model layer"},
        {std::regex("\\brandom_device\\b"), "std::random_device",
         "use util::Rng; hardware entropy breaks bit-reproducibility"},
        {std::regex("\\bmt19937(_64)?\\s+[A-Za-z_]\\w*\\s*(;|\\{\\s*\\})"),
         "unseeded std::mt19937",
         "seed explicitly, or use util::Rng"},
        {std::regex("\\bsystem_clock\\b"), "wall-clock read (system_clock)",
         "use util::Timer / steady_clock; wall time is not reproducible"},
        {std::regex("\\bgettimeofday\\b"), "wall-clock read (gettimeofday)",
         "use util::Timer / steady_clock"},
        {std::regex("\\bclock\\s*\\(\\s*\\)"), "clock()",
         "use util::Timer / steady_clock"},
    };
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      for (const Pattern& p : patterns) {
        if (std::regex_search(file.code[li], p.regex)) {
          candidate(li + 1, kDeterminism, Severity::kError,
                    std::string(p.what) +
                        " in a deterministic directory; " + p.fix);
        }
      }
    }
  }

  /// Training-engine sources carry a stronger contract than plain
  /// determinism: the result must be bit-identical at every thread
  /// count. That forbids whole construct classes, not just entropy --
  /// atomic floating-point accumulators (commit order varies),
  /// hardware_concurrency() (partitions must come from configuration,
  /// never from the host), and unordered reductions (combining trees).
  /// Slot-ordered serial reductions are the sanctioned shape (DESIGN.md
  /// section 16).
  template <typename Emit>
  void check_train_determinism(const SourceFile& file, const Emit& candidate) {
    struct Pattern {
      std::regex regex;
      const char* what;
      const char* fix;
    };
    static const std::vector<Pattern> patterns = {
        {std::regex("\\batomic\\s*<\\s*(float|double|long\\s+double)\\b"),
         "atomic floating-point accumulator",
         "accumulate per slot and reduce serially in slot order"},
        {std::regex("\\bhardware_concurrency\\s*\\("),
         "hardware_concurrency() in training code",
         "take the worker count from CkatConfig / CKAT_TRAIN_THREADS; the "
         "slot partition must not depend on the host"},
        {std::regex("\\breduction\\s*\\(\\s*[+*&|^]"),
         "OpenMP-style unordered reduction",
         "reduce serially in slot order"},
    };
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      for (const Pattern& p : patterns) {
        if (std::regex_search(file.code[li], p.regex)) {
          candidate(li + 1, kTrainDeterminism, Severity::kError,
                    std::string(p.what) +
                        " breaks bit-identical-across-threads training; " +
                        p.fix);
        }
      }
    }
  }

  /// util::WorkerPool is the one data-parallel runtime (DESIGN.md
  /// section 16): OpenMP teams spin-wait and collapse when processes
  /// share CPUs, and ThreadSanitizer cannot see through libgomp.
  template <typename Emit>
  void check_openmp(const SourceFile& file, const Emit& candidate) {
    static const std::regex pragma("#\\s*pragma\\s+omp\\b");
    static const std::regex angle_include("#\\s*include\\s*<\\s*omp\\.h\\s*>");
    static const std::regex quote_include("#\\s*include\\s*\"");
    static const std::regex call("\\bomp_[A-Za-z_0-9]+\\s*\\(");
    const auto report = [&](std::size_t line, const char* what) {
      candidate(line, kOpenMp, Severity::kError,
                std::string(what) +
                    "; use util::WorkerPool::for_chunks, the one parallel "
                    "runtime");
    };
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      if (std::regex_search(file.code[li], pragma)) {
        report(li + 1, "OpenMP pragma");
      }
      if (std::regex_search(file.code[li], angle_include)) {
        report(li + 1, "<omp.h> include");
      }
      if (std::regex_search(file.code[li], call)) {
        report(li + 1, "OpenMP runtime call");
      }
    }
    for (const StringLiteral& literal : file.strings) {
      if (literal.text == "omp.h" &&
          std::regex_search(file.code[literal.line - 1], quote_include)) {
        report(literal.line, "<omp.h> include");
      }
    }
  }

  template <typename Emit>
  void check_env(const SourceFile& file, const Emit& candidate) {
    static const std::regex getenv_call("\\bgetenv\\s*\\(");
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      if (std::regex_search(file.code[li], getenv_call)) {
        candidate(li + 1, kEnvRegistry, Severity::kError,
                  "direct getenv(); read the environment through "
                  "util::env_raw() (src/util/env.hpp)");
      }
    }
    if (!ctx_.have_registry) return;
    // env.hpp declares the registry tokens; don't flag the declarations.
    if (file.path == ctx_.env_hpp_path ||
        file.path.ends_with("src/util/env.hpp")) {
      return;
    }
    static const std::regex token("CKAT_[A-Z0-9_]+");
    for (const StringLiteral& literal : file.strings) {
      for (auto it = std::sregex_iterator(literal.text.begin(),
                                          literal.text.end(), token);
           it != std::sregex_iterator(); ++it) {
        const std::string name = it->str();
        if (ctx_.env_vars.count(name) || builtin_ckat_tokens().count(name)) {
          continue;
        }
        candidate(literal.line, kEnvRegistry, Severity::kError,
                  "string literal references unregistered variable " + name +
                      "; add it to CKAT_ENV_REGISTRY in src/util/env.hpp "
                      "and the README table");
      }
    }
  }

  template <typename Emit>
  void check_metrics(const SourceFile& file, const Emit& candidate) {
    static const std::regex call(
        "[.>]\\s*(counter|gauge|histogram)\\s*\\(\\s*\"");
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      std::smatch m;
      if (std::regex_search(file.code[li], m, call)) {
        candidate(li + 1, kMetricRegistry, Severity::kError,
                  "ad-hoc metric name literal at a ." + m[1].str() +
                      "() call; declare the series name in "
                      "obs/metric_names.hpp and reference the constant");
      }
    }
  }

  template <typename Emit>
  void check_relaxed(const SourceFile& file, const Emit& candidate) {
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      if (file.code[li].find("memory_order_relaxed") != std::string::npos) {
        candidate(li + 1, kRelaxedAtomic, Severity::kError,
                  "memory_order_relaxed outside the allowlisted hot-path "
                  "files; use acquire/release (or add a NOLINT with the "
                  "reason the relaxed ordering is safe)");
      }
    }
  }

  template <typename Emit>
  void check_detached(const SourceFile& file, const Emit& candidate) {
    static const std::regex detach("\\.\\s*detach\\s*\\(\\s*\\)");
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      if (std::regex_search(file.code[li], detach)) {
        candidate(li + 1, kDetachedThread, Severity::kError,
                  "detached thread; join explicitly (shutdown must be able "
                  "to drain every worker)");
      }
    }
  }

  /// Trace lineage: only the serving gateway (the admission edge of the
  /// process) may mint a new trace with start_trace(). Everywhere else a
  /// worker must forward the TraceContext it was handed — re-rooting
  /// severs the per-request span tree that the flight recorder and the
  /// exemplars rely on.
  template <typename Emit>
  void check_trace_context(const SourceFile& file, const Emit& candidate) {
    static const std::regex mint("\\bstart_trace\\s*\\(");
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      if (std::regex_search(file.code[li], mint)) {
        candidate(li + 1, kTraceContext, Severity::kError,
                  "start_trace() outside the gateway admission path; "
                  "forward the request's TraceContext (TraceSpan(name, "
                  "ctx) / trace_event(name, ctx, ...)) instead of "
                  "re-rooting a new trace");
      }
    }
  }

  template <typename Emit>
  void check_include_guard(const SourceFile& file, const Emit& candidate) {
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      std::string line = file.code[li];
      trim(line);
      if (line.empty()) continue;
      if (line.rfind("#pragma once", 0) == 0 || line.rfind("#ifndef", 0) == 0) {
        return;
      }
      candidate(li + 1, kIncludeGuard, Severity::kError,
                "header does not start with #pragma once (or an #ifndef "
                "include guard)");
      return;
    }
  }

  template <typename Emit>
  void check_using_namespace(const SourceFile& file, const Emit& candidate) {
    static const std::regex directive("^\\s*using\\s+namespace\\b");
    for (std::size_t li = 0; li < file.code.size(); ++li) {
      if (std::regex_search(file.code[li], directive)) {
        candidate(li + 1, kUsingNamespace, Severity::kError,
                  "using-namespace directive in a header leaks into every "
                  "includer; qualify names instead");
      }
    }
  }

  LintOptions options_;
  Context ctx_;
  std::map<std::string, std::vector<Suppression>> suppressions_;
  std::vector<Diagnostic> diags_;
};

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> catalogue = {
      {kDeterminism, Severity::kError,
       "no rand()/time(nullptr)/random_device/unseeded mt19937/wall-clock "
       "in src/core, src/nn, src/graph, src/baselines"},
      {kEnvRegistry, Severity::kError,
       "getenv only via src/util/env.hpp; CKAT_* literals registered and "
       "documented in the README table (both directions)"},
      {kMetricRegistry, Severity::kError,
       "metric series names come from obs/metric_names.hpp, not call-site "
       "literals"},
      {kRelaxedAtomic, Severity::kError,
       "memory_order_relaxed only in allowlisted files or under a "
       "reasoned NOLINT"},
      {kLockOrderRule, Severity::kError,
       "the global lock-order graph (nested acquisitions, including "
       "through uniquely-resolved calls) is acyclic; a cycle is a "
       "potential deadlock"},
      {kMutexGuardRule, Severity::kError,
       "every access to a member annotated '// guarded by <m>' happens "
       "while <m> is held (lock-scope dataflow); ctors/dtors and "
       "*_locked helpers are exempt"},
      {kRelaxedPublishRule, Severity::kError,
       "a memory_order_relaxed load must not gate access to plain "
       "members it cannot publish; pair acquire/release or hold the "
       "guarding mutex"},
      {kBudgetDropRule, Severity::kError,
       "src/serve code that receives a deadline budget forwards it into "
       "score*/handle* callees instead of dropping it"},
      {kDetachedThread, Severity::kError, "no detached threads"},
      {kIncludeGuard, Severity::kError,
       "headers start with #pragma once or an #ifndef guard"},
      {kUsingNamespace, Severity::kError, "no using-namespace in headers"},
      {kNolintReason, Severity::kError,
       "every NOLINT(ckat-*) carries ': <reason>'"},
      {kTraceContext, Severity::kError,
       "start_trace() only at the gateway admission edge; downstream "
       "code forwards the request's TraceContext instead of re-rooting"},
      {kTrainDeterminism, Severity::kError,
       "training-engine sources (train*/optim*/gradcheck* under the "
       "deterministic dirs) avoid atomic float accumulators, "
       "hardware_concurrency() and unordered reductions; results must be "
       "bit-identical at every thread count"},
      {kOpenMp, Severity::kError,
       "no OpenMP anywhere (#pragma omp, <omp.h>, omp_* calls); "
       "util::WorkerPool is the one parallel runtime"},
  };
  return catalogue;
}

std::vector<Diagnostic> run_lint(const std::vector<std::string>& files,
                                 const LintOptions& options) {
  return Analyzer(options).run(files);
}

std::string render(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": " +
         severity_name(diagnostic.severity) + ": [" + diagnostic.rule + "] " +
         diagnostic.message;
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::ostringstream out;
  out << "{\"diagnostics\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    (d.severity == Severity::kError ? errors : warnings)++;
    if (i != 0) out << ",";
    out << "{\"file\":\"" << json_escape(d.file) << "\",\"line\":" << d.line
        << ",\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
        << severity_name(d.severity) << "\",\"message\":\""
        << json_escape(d.message) << "\"}";
  }
  out << "],\"errors\":" << errors << ",\"warnings\":" << warnings << "}";
  return out.str();
}

std::string render_sarif(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  out << "{\"$schema\":"
         "\"https://json.schemastore.org/sarif-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
         "\"name\":\"ckat_lint\",\"rules\":[";
  const std::vector<RuleInfo>& rules = rule_catalogue();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i != 0) out << ",";
    out << "{\"id\":\"" << json_escape(rules[i].id)
        << "\",\"shortDescription\":{\"text\":\""
        << json_escape(rules[i].description) << "\"}}";
  }
  out << "]}},\"results\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) out << ",";
    out << "{\"ruleId\":\"" << json_escape(d.rule) << "\",\"level\":\""
        << severity_name(d.severity) << "\",\"message\":{\"text\":\""
        << json_escape(d.message) << "\"},\"locations\":[{"
        << "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\""
        << json_escape(d.file) << "\"},\"region\":{\"startLine\":"
        << std::max<std::size_t>(d.line, 1) << "}}}]}";
  }
  out << "]}]}";
  return out.str();
}

// ---------------------------------------------------------------------------
// --self-check: catalogue <-> fixture manifest
// ---------------------------------------------------------------------------

namespace {

struct SelfCheckEntry {
  const char* rule;
  const char* bad;    // fixture that must fire `rule`
  const char* clean;  // fixture that must produce zero diagnostics
};

/// One firing + one silent fixture per rule. ckat-io is special-cased
/// below (its "fixture" is a path that must not exist).
constexpr SelfCheckEntry kSelfCheckManifest[] = {
    {"ckat-determinism", "src/core/determinism_bad.cpp",
     "src/core/determinism_clean.cpp"},
    {"ckat-env-registry", "src/serve/env_bad.cpp", "src/serve/env_clean.cpp"},
    {"ckat-metric-registry", "src/serve/metric_bad.cpp",
     "src/serve/metric_clean.cpp"},
    {"ckat-relaxed-atomic", "src/serve/relaxed_bad.cpp",
     "src/obs/relaxed_clean.cpp"},
    {"ckat-lock-order", "src/serve/lock_order_bad.cpp",
     "src/serve/lock_order_clean.cpp"},
    {"ckat-mutex-guard", "src/serve/mutex_bad.cpp",
     "src/serve/mutex_clean.cpp"},
    {"ckat-relaxed-publish", "src/obs/relaxed_publish_bad.cpp",
     "src/obs/relaxed_publish_clean.cpp"},
    {"ckat-budget-drop", "src/serve/budget_drop_bad.cpp",
     "src/serve/budget_drop_clean.cpp"},
    {"ckat-detached-thread", "detach_bad.cpp", "detach_clean.cpp"},
    {"ckat-include-guard", "include_guard_bad.hpp",
     "include_guard_clean.hpp"},
    {"ckat-using-namespace", "using_namespace_bad.hpp",
     "using_namespace_clean.hpp"},
    {"ckat-nolint-reason", "nolint_missing_reason.cpp",
     "nolint_with_reason.cpp"},
    {"ckat-trace-context", "src/serve/trace_root_bad.cpp",
     "src/serve/trace_root_clean.cpp"},
    {"ckat-train-determinism", "src/core/trainer_bad.cpp",
     "src/core/trainer_clean.cpp"},
    {"ckat-openmp", "openmp_bad.cpp", "openmp_clean.cpp"},
};

}  // namespace

bool self_check(const std::string& fixtures_dir, std::string& report) {
  bool ok = true;
  const auto fail = [&](const std::string& message) {
    ok = false;
    report += "self-check: " + message + "\n";
  };
  std::set<std::string> covered;
  for (const SelfCheckEntry& entry : kSelfCheckManifest) {
    covered.insert(entry.rule);
    const std::string bad = fixtures_dir + "/" + entry.bad;
    const std::vector<Diagnostic> bad_diags = run_lint({bad}, {});
    const bool fired = std::any_of(
        bad_diags.begin(), bad_diags.end(),
        [&](const Diagnostic& d) { return d.rule == entry.rule; });
    if (!fired) {
      fail(bad + " does not fire " + entry.rule);
    }
    for (const Diagnostic& d : bad_diags) {
      if (d.rule == kIo) fail(bad + " is unreadable");
    }
    const std::string clean = fixtures_dir + "/" + entry.clean;
    const std::vector<Diagnostic> clean_diags = run_lint({clean}, {});
    for (const Diagnostic& d : clean_diags) {
      fail(clean + " is not clean: " + render(d));
    }
  }
  // ckat-io: an unreadable input is reported, not skipped.
  {
    covered.insert(kIo);
    const std::string missing = fixtures_dir + "/__ckat_lint_missing__.cpp";
    const std::vector<Diagnostic> diags = run_lint({missing}, {});
    const bool fired =
        std::any_of(diags.begin(), diags.end(),
                    [](const Diagnostic& d) { return d.rule == kIo; });
    if (!fired) fail("missing-file probe did not fire ckat-io");
  }
  for (const RuleInfo& rule : rule_catalogue()) {
    if (covered.count(rule.id) == 0) {
      fail(std::string("catalogue rule ") + rule.id +
           " has no fixture in the self-check manifest");
    }
  }
  for (const SelfCheckEntry& entry : kSelfCheckManifest) {
    const bool known = std::any_of(
        rule_catalogue().begin(), rule_catalogue().end(),
        [&](const RuleInfo& rule) {
          return std::string(rule.id) == entry.rule;
        });
    if (!known) {
      fail(std::string("manifest rule ") + entry.rule +
           " is not in the catalogue");
    }
  }
  return ok;
}

}  // namespace ckat::lint

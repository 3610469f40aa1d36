// Benchmark workloads: runs one workload in this process and prints one
// JSON object with its end-to-end metrics, per-layer metrics and the
// outcome of every correctness gate.
//
//   perfbench_workloads --workload train_ooi|portal_zipf|refresh_under_load
//                    --seed N --seconds S --workdir DIR
//                    [--recall-target R] [--expected-recall X]
//
// perfbench/run.py builds this binary, pins the thread knobs in the
// environment, and turns the JSON into the benchmark's result line.
// Every module is measured from outside: this program times calls to
// public functions, reads the obs registry, and — when CKAT_TRACE_FILE
// is set — reads the spans the program already writes, plus spans it
// wraps around each public call (bench.*).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/ckat.hpp"
#include "eval/evaluator.hpp"
#include "eval/metrics.hpp"
#include "facility/dataset.hpp"
#include "facility/model.hpp"
#include "facility/scale.hpp"
#include "facility/stream.hpp"
#include "facility/users.hpp"
#include "graph/interactions.hpp"
#include "nn/kernels.hpp"
#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/gateway.hpp"
#include "serve/refresh.hpp"
#include "serve/shard.hpp"
#include "serve/swap.hpp"
#include "stats.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace {

using namespace ckat;
using Clock = std::chrono::steady_clock;
namespace names = obs::metric_names;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- settings

/// Thread settings every workload pins; run.py exports the same values
/// and this program refuses to run when the environment disagrees.
struct Threads {
  int train = 1;
  int serve = 1;
  int eval = 1;
  int shards = 4;
  int replicas = 2;
  int clients = 1;
  bool trains = false;  // train threads busy during the measurement
  bool serves = false;  // gateway workers busy during the measurement

  /// Threads computing at once: program threads plus benchmark clients.
  [[nodiscard]] int busy() const {
    return (trains ? train : 0) + (serves ? serve : 0) + clients;
  }
};

Threads threads_for(const std::string& workload) {
  if (workload == "train_ooi") return {1, 1, 1, 4, 2, 0, true, false};
  if (workload == "portal_zipf") return {1, 1, 1, 4, 2, 1, false, true};
  return {1, 1, 1, 4, 2, 1, true, true};  // refresh_under_load
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir = ".";
  double recall_target = -1.0;  // train_ooi: required
  double expected_recall = -1.0;  // < 0: not checked (recording mode)
  int train_threads = 0;          // > 0 overrides train_ooi's 4 (recording)
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--workdir") a.workdir = value;
    else if (key == "--recall-target") a.recall_target = std::stod(value);
    else if (key == "--expected-recall") a.expected_recall = std::stod(value);
    else if (key == "--train-threads") a.train_threads = std::stoi(value);
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload != "train_ooi" && a.workload != "portal_zipf" &&
      a.workload != "refresh_under_load") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (a.workload == "train_ooi" && a.recall_target <= 0.0) {
    throw std::invalid_argument("train_ooi needs --recall-target");
  }
  return a;
}

/// Empty when the build and environment are fit to measure.
std::string hygiene_problem(const Threads& t) {
#ifndef NDEBUG
  return "assertions are enabled: benchmark a Release build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build: benchmark a plain Release build";
#endif
#ifdef CKAT_VALIDATE
  return "CKAT_VALIDATE build: benchmark a plain Release build";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type ") + PERFBENCH_BUILD_TYPE + " is not Release";
  }
  const std::pair<const char*, int> expected[] = {
      {"CKAT_TRAIN_THREADS", t.train},  {"CKAT_SERVE_THREADS", t.serve},
      {"CKAT_EVAL_THREADS", t.eval},    {"OMP_NUM_THREADS", 1},
      {"CKAT_SHARD_COUNT", t.shards},   {"CKAT_SHARD_REPLICAS", t.replicas},
  };
  for (const auto& [name, value] : expected) {
    const char* env = util::env_registered(name)
                          ? util::env_raw(name)
                          : std::getenv(name);  // NOLINT(ckat-env-registry): OpenMP's own variable
    if (env == nullptr || std::string(env) != std::to_string(value)) {
      return std::string(name) + " must be " + std::to_string(value);
    }
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (t.busy() > nproc) {
    return "workload runs " + std::to_string(t.busy()) + " threads at once, host has " +
           std::to_string(nproc);
  }
  return {};
}

// --------------------------------------------------------------- placement

/// Where the serving pair (closed-loop client and gateway worker) runs
/// and where everything else (training) runs. The pair shares one CPU, so each
/// request hands off by a local context switch instead of waking an idle
/// virtual CPU, whose wake-up delay on a shared host is set by the
/// other tenants, not by the program.
struct Placement {
  std::vector<int> serving;  // the last allowed CPU
  std::vector<int> rest;     // every other allowed CPU (all, if only one)
};

Placement placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  if (allowed.empty()) throw std::runtime_error("no CPU allowed");
  Placement p;
  p.serving = {allowed.back()};
  p.rest = allowed.size() > 1 ? std::vector<int>(allowed.begin(), allowed.end() - 1) : allowed;
  return p;
}

/// Restricts the calling thread (and the threads it starts from now on)
/// to `cpus`.
void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out;
}

const char* isa_name(nn::GemmIsa isa) {
  switch (isa) {
    case nn::GemmIsa::kScalar: return "scalar";
    case nn::GemmIsa::kSse2: return "sse2";
    case nn::GemmIsa::kAvx2: return "avx2";
    default: return "auto";
  }
}

// ------------------------------------------------------------------ result

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  double cost_per_op_s = 0.0;  // the workload's main timing, for overhead
  std::string placement = "unpinned";  // CPUs the threads were restricted to
  std::uint64_t latency_samples = 0;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// -------------------------------------------------------------- host usage

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other tenants while this machine
/// wanted to run (steal).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t field = 0;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice)
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double steal_between(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / static_cast<double>(total);
}

/// Wall time and host steal share since construction.
struct Stopwatch {
  Clock::time_point t0 = Clock::now();
  CpuTicks c0 = cpu_ticks();
  [[nodiscard]] double seconds() const { return seconds_since(t0); }
  [[nodiscard]] double steal() const { return steal_between(c0, cpu_ticks()); }
};

/// Timing samples, each tagged with the host steal share while it was
/// taken; reported as perfbench::quiet_mean.
struct Timed {
  std::vector<double> values;
  std::vector<double> steal;
  void add(double value, double stolen) {
    values.push_back(value);
    steal.push_back(stolen);
  }
  void add(const Stopwatch& sw) { add(sw.seconds(), sw.steal()); }
  [[nodiscard]] double center() const {
    return perfbench::quiet_mean(values, steal);
  }
};

/// Samples the host steal share once per client window, aligned to the
/// clients' time origin, on a thread of its own (asleep between
/// samples).
class StealSampler {
 public:
  StealSampler(Clock::time_point origin, double window_s)
      : origin_(origin), window_s_(window_s), thread_([this] { run(); }) {}
  ~StealSampler() { finish(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stops sampling; returns the steal share of every finished window.
  std::vector<double> finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return per_window_;
  }

 private:
  void run() {
    CpuTicks previous = cpu_ticks();
    for (int k = 1;; ++k) {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto due = origin_ + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(k * window_s_));
      if (cv_.wait_until(lock, due, [this] { return stop_; })) return;
      const CpuTicks now = cpu_ticks();
      per_window_.push_back(steal_between(previous, now));
      previous = now;
    }
  }

  Clock::time_point origin_;
  double window_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;               // guarded by mutex_
  std::vector<double> per_window_;  // written by the thread until joined
  std::thread thread_;
};

struct HostSample {
  double cpu_s = 0.0;
  long involuntary = 0;
  CpuTicks ticks;
};

HostSample host_sample() {
  HostSample h;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  h.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  h.involuntary = usage.ru_nivcsw;
  h.ticks = cpu_ticks();
  return h;
}

void record_host(Result& r, const HostSample& before, std::uint64_t ops) {
  const HostSample after = host_sample();
  const double cpu = after.cpu_s - before.cpu_s;
  r.layer["host.cpu_s"] = cpu;
  r.layer["host.cpu_per_op_ms"] = ops == 0 ? 0.0 : 1e3 * cpu / static_cast<double>(ops);
  r.layer["host.involuntary_ctx_switches"] =
      static_cast<double>(after.involuntary - before.involuntary);
  r.layer["host.steal_fraction"] = steal_between(before.ticks, after.ticks);
  std::ifstream load("/proc/loadavg");
  double load1 = 0.0;
  load >> load1;
  r.layer["host.loadavg"] = load1;
}

/// Peak resident memory since start or the last reset_peak_rss()
/// (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Restarts the peak at the current resident size, so each repetition
/// of a workload reports its own peak.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------- registry

/// All label sets of one histogram name, merged.
perfbench::HistSnapshot registry_hist(const std::string& name) {
  const obs::JsonValue doc = obs::MetricsRegistry::global().to_json();
  perfbench::HistSnapshot merged;
  const obs::JsonValue* hists = doc.find("histograms");
  if (hists == nullptr) return merged;
  for (const auto& [key, value] : hists->as_object()) {
    (void)value;
    if (key != name && key.rfind(name + "{", 0) != 0) continue;
    obs::LabelSet labels;
    const auto open = key.find('{');
    if (open != std::string::npos) {
      // name{k="v",k2="v2"} -> label set
      std::string body = key.substr(open + 1, key.size() - open - 2);
      std::stringstream ss(body);
      std::string part;
      while (std::getline(ss, part, ',')) {
        const auto eq = part.find('=');
        labels.emplace_back(part.substr(0, eq),
                            part.substr(eq + 2, part.size() - eq - 3));
      }
    }
    merged = perfbench::merge(
        merged, perfbench::snapshot(
                    obs::MetricsRegistry::global().histogram(name, labels)));
  }
  return merged;
}

double registry_counter_total(const std::string& name) {
  const obs::JsonValue doc = obs::MetricsRegistry::global().to_json();
  double total = 0.0;
  if (const obs::JsonValue* counters = doc.find("counters")) {
    for (const auto& [key, value] : counters->as_object()) {
      if (key == name || key.rfind(name + "{", 0) == 0) total += value.as_number();
    }
  }
  return total;
}

// ------------------------------------------------------------------- trace

/// Per-layer numbers read back from the CKAT_TRACE_FILE spans.
void read_trace(Result& r, const std::string& path, double epochs) {
  obs::flush_trace();
  std::ifstream in(path);
  struct Span {
    std::string name;
    std::uint64_t id, parent, start, dur;
  };
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const obs::JsonValue v = obs::json_parse(line);
    if (v.at("cat").as_string() != "span") continue;
    spans.push_back({v.at("name").as_string(), v.at("id").as_uint64(),
                     v.at("parent").as_uint64(), v.at("start_us").as_uint64(),
                     v.at("dur_us").as_uint64()});
  }
  std::map<std::uint64_t, std::vector<perfbench::Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.start + s.dur});
  }
  std::vector<double> cf, kg, eval;
  double propagate_self_us = 0.0;
  for (const Span& s : spans) {
    if (s.name == "eval.topk") eval.push_back(1e-6 * static_cast<double>(s.dur));
    if (s.name == "ckat.cf_phase") cf.push_back(1e-6 * static_cast<double>(s.dur));
    if (s.name == "ckat.kg_phase") kg.push_back(1e-6 * static_cast<double>(s.dur));
    if (s.name == "ckat.propagate") {
      const auto it = children.find(s.id);
      propagate_self_us += static_cast<double>(perfbench::self_time_us(
          {s.start, s.start + s.dur},
          it == children.end() ? std::vector<perfbench::Interval>{} : it->second));
    }
  }
  r.layer["core.cf_phase_s"] = cf.empty() ? 0.0 : perfbench::median(cf);
  r.layer["core.kg_phase_s"] = kg.empty() ? 0.0 : perfbench::median(kg);
  r.layer["core.propagate_self_s"] =
      epochs <= 0.0 ? 0.0 : 1e-6 * propagate_self_us / epochs;
  r.layer["obs.trace_spans"] = static_cast<double>(spans.size());
  // Evaluations the benchmark cannot time from outside (the refresh
  // guardrail runs inside ingest()) are read from the program's span.
  if (!r.layer.contains("eval.topk_s") && !eval.empty()) {
    r.layer["eval.topk_s"] = perfbench::median(eval);
  }
}

// ------------------------------------------------------------ latency util

struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t n = 0;
};

LatencySummary summarize(std::vector<double> ms) {
  LatencySummary s;
  s.n = ms.size();
  if (ms.empty()) return s;
  std::sort(ms.begin(), ms.end());
  s.p50_ms = perfbench::percentile_sorted(ms, 50.0);
  s.p99_ms = perfbench::percentile_sorted(ms, 99.0);
  return s;
}

/// p99 needs at least ten samples beyond it.
void require_p99(Result& r, std::size_t n, const char* what) {
  if (perfbench::samples_beyond(n, 99.0) < 10.0) {
    r.fail(std::string(what) + ": " + std::to_string(n) +
           " samples are too few for a p99 with 10 beyond");
  }
}

// =============================================================== train_ooi

constexpr int kTrainEpochCap = 5;
constexpr int kTrainSetupsPerRound = 3;
/// Recommendation-probe passes over every user per round, taken in
/// groups of kProbeGroup: 40 / 5 x 520 users = 4,160 samples per round,
/// 41 beyond the p99.
constexpr int kProbePasses = 40;
constexpr int kProbeGroup = 5;
constexpr std::uint64_t kTrainDatasetSeed = 42;

struct TrainSetup {
  std::unique_ptr<facility::FacilityDataset> dataset;
  std::unique_ptr<graph::CollaborativeKg> ckg;
  std::unique_ptr<core::CkatModel> model;
  double dataset_s = 0.0, ckg_s = 0.0, model_s = 0.0;
};

TrainSetup train_setup(std::uint64_t dataset_seed, std::uint64_t model_seed, int threads) {
  TrainSetup s;
  auto t0 = Clock::now();
  s.dataset = std::make_unique<facility::FacilityDataset>(
      facility::make_ooi_dataset(dataset_seed, facility::DatasetScale::kPaper));
  s.dataset_s = seconds_since(t0);
  t0 = Clock::now();
  s.ckg = std::make_unique<graph::CollaborativeKg>(s.dataset->build_default_ckg());
  s.ckg_s = seconds_since(t0);
  t0 = Clock::now();
  core::CkatConfig config;  // paper defaults: dim 64, layers 64/32/16
  config.epochs = 1;
  config.seed = model_seed;
  config.train_threads = threads;
  s.model = std::make_unique<core::CkatModel>(*s.ckg, s.dataset->split().train, config);
  s.model_s = seconds_since(t0);
  return s;
}

Result run_train_ooi(const Args& args, const Threads& threads) {
  Result r;
  // The paper's Table-I dataset and model seed, whatever --seed says:
  // other datasets or model seeds move recall@20 at the cap by up to
  // 0.05 and the epoch the target is reached by one, which would make
  // time_to_quality_s a property of the seed instead of the program.
  // --seed orders the recommendation probe below.
  const std::uint64_t dataset_seed = kTrainDatasetSeed;
  const std::uint64_t model_seed = core::CkatConfig{}.seed;
  eval::EvalConfig eval_config;
  eval_config.k = 20;
  eval_config.threads = threads.eval;

  Timed setup, epoch_s, cycle_s, ttq_s, rec_p50, rec_p99;
  std::vector<double> dataset_s, ckg_s, model_s, eval_s, peak_mb;
  std::size_t rec_samples = 0;
  double recall_at_cap = -1.0;
  double epochs_run = 0.0;
  const auto cf_before = perfbench::snapshot(
      obs::MetricsRegistry::global().histogram(names::kTrainCfStepSeconds));
  const auto kg_before = perfbench::snapshot(
      obs::MetricsRegistry::global().histogram(names::kTrainKgStepSeconds));
  const auto score_before = registry_hist(names::kEvalScoreSeconds);
  util::Rng order_rng(args.seed);

  // Whole training rounds, each from a fresh set-up, until the time
  // budget is spent (at least two, so every median has two samples).
  const auto run_start = Clock::now();
  const HostSample host_before = host_sample();
  int rounds = 0;
  while (rounds < 2 || seconds_since(run_start) < args.seconds) {
    ++rounds;
    reset_peak_rss();
    // Several fresh set-ups per round (one is too short to time
    // steadily); the last one is trained.
    TrainSetup s;
    for (int k = 0; k < kTrainSetupsPerRound; ++k) {
      s.model.reset();  // the model refers into the dataset and CKG
      s.ckg.reset();
      const Stopwatch sw;
      s = train_setup(dataset_seed, model_seed, threads.train);
      setup.add(sw);
      dataset_s.push_back(s.dataset_s);
      ckg_s.push_back(s.ckg_s);
      model_s.push_back(s.model_s);
    }

    const Stopwatch round;
    double ttq = -1.0;
    double recall = 0.0;
    for (int epoch = 1; epoch <= kTrainEpochCap; ++epoch) {
      ++r.attempted;
      const Stopwatch cycle;
      {
        obs::TraceSpan span(epoch == 1 ? "bench.fit" : "bench.refresh_fit");
        if (epoch == 1) s.model->fit();
        else s.model->refresh_fit(1);
      }
      epoch_s.add(cycle);
      const auto v0 = Clock::now();
      eval::TopKMetrics m;
      {
        obs::TraceSpan span("bench.evaluate_topk");
        m = eval::evaluate_topk(*s.model, s.dataset->split(), eval_config);
      }
      eval_s.push_back(seconds_since(v0));
      if (epoch > 1) cycle_s.add(cycle);
      epochs_run += 1.0;
      if (!std::isfinite(m.recall) || m.n_users == 0) {
        r.fail("epoch " + std::to_string(epoch) + ": evaluation produced no recall");
      }
      if (ttq < 0.0 && m.recall >= args.recall_target) {
        ttq = round.seconds();  // includes every evaluation so far
        ttq_s.add(ttq, round.steal());
      }
      recall = m.recall;
    }
    if (ttq < 0.0) {
      r.fail("recall@20 " + std::to_string(recall) + " never reached target " +
             std::to_string(args.recall_target));
    }
    if (recall_at_cap >= 0.0 && recall != recall_at_cap) {
      r.fail("rounds disagree on recall@20 at the cap");
    }
    recall_at_cap = recall;

    // What a portal user sees from the trained model: one top-20
    // recommendation (full-row score + top-k) per user, every user
    // kProbePasses times in seeded orders. The work is the same for
    // every user, so a single timing's tail is the host's: on a virtual
    // machine a timer interrupt lands in about one 0.08 ms call in fifty
    // and adds tens of microseconds, and under hypervisor steal more
    // calls are stretched. Each sample is therefore a user's median over
    // kProbeGroup passes; it moves only if most timings in its group were
    // interrupted.
    std::vector<float> row(s.model->n_items());
    std::vector<std::uint32_t> order(s.model->n_users());
    std::iota(order.begin(), order.end(), 0U);
    std::vector<double> rec_ms;
    std::vector<std::array<double, kProbeGroup>> group(s.model->n_users());
    const Stopwatch probe;
    for (int pass = 0; pass < kProbePasses; ++pass) {
      order_rng.shuffle(order);
      for (const std::uint32_t u : order) {
        const auto q0 = Clock::now();
        s.model->score_items(u, row);
        const std::vector<std::uint32_t> top = eval::top_k_indices(row, 20);
        group[u][pass % kProbeGroup] = 1e3 * seconds_since(q0);
        if (top.size() != 20) r.fail("recommendation shorter than 20 items");
      }
      if (pass % kProbeGroup == kProbeGroup - 1) {
        for (std::array<double, kProbeGroup>& g : group) {
          std::nth_element(g.begin(), g.begin() + kProbeGroup / 2, g.end());
          rec_ms.push_back(g[kProbeGroup / 2]);
        }
      }
    }
    const double stolen = probe.steal();
    const LatencySummary lat = summarize(std::move(rec_ms));
    require_p99(r, lat.n, "train_ooi recommendation latency");
    rec_samples += lat.n;
    rec_p50.add(lat.p50_ms, stolen);
    rec_p99.add(lat.p99_ms, stolen);
    peak_mb.push_back(peak_rss_mb());
  }
  r.e2e["peak_rss_mb"] = perfbench::median(peak_mb);

  if (args.expected_recall >= 0.0 &&
      std::fabs(recall_at_cap - args.expected_recall) > 1e-8) {
    r.fail("recall@20 at the cap " + std::to_string(recall_at_cap) +
           " differs from the value recorded for this seed " +
           std::to_string(args.expected_recall));
  }

  r.e2e["setup_s"] = setup.center();
  r.e2e["epoch_s"] = epoch_s.center();
  r.e2e["time_to_quality_s"] = ttq_s.values.empty() ? 0.0 : ttq_s.center();
  r.e2e["recall_at_20"] = recall_at_cap;
  r.e2e["refresh_cycle_s"] = cycle_s.center();
  r.e2e["throughput_per_s"] = 1.0 / r.e2e["epoch_s"];
  r.e2e["latency_p50_ms"] = rec_p50.center();
  r.e2e["latency_p99_ms"] = rec_p99.center();
  r.latency_samples = rec_samples;
  r.cost_per_op_s = r.e2e["epoch_s"];

  r.layer["setup.dataset_s"] = perfbench::median(dataset_s);
  r.layer["setup.ckg_s"] = perfbench::median(ckg_s);
  r.layer["setup.model_init_s"] = perfbench::median(model_s);
  r.layer["eval.topk_s"] = perfbench::median(eval_s);
  const auto cf = perfbench::delta(
      perfbench::snapshot(obs::MetricsRegistry::global().histogram(names::kTrainCfStepSeconds)),
      cf_before);
  const auto kg = perfbench::delta(
      perfbench::snapshot(obs::MetricsRegistry::global().histogram(names::kTrainKgStepSeconds)),
      kg_before);
  r.layer["core.cf_step_ms.p50"] = 1e3 * cf.quantile(0.5);
  r.layer["core.kg_step_ms.p50"] = 1e3 * kg.quantile(0.5);
  const auto score = registry_hist(names::kEvalScoreSeconds);
  r.layer["eval.score_block_ms.p50"] =
      1e3 * perfbench::delta(score, score_before).quantile(0.5);
  r.layer["train.rounds"] = rounds;
  record_host(r, host_before, static_cast<std::uint64_t>(epochs_run));
  r.layer["epochs"] = epochs_run;
  return r;
}

// ============================================================= portal_zipf

constexpr std::size_t kPortalSetups = 31;
constexpr std::size_t kSampleEvery = 64;
constexpr std::size_t kTopK = 20;

struct PortalSetup {
  std::unique_ptr<facility::ScaleTier> tier;
  std::shared_ptr<serve::ShardRouter> router;
  std::unique_ptr<serve::ServeGateway> gateway;
  std::string dir;
  double tier_s = 0.0, catalog_s = 0.0, router_s = 0.0, first_answer_s = 0.0;
};

serve::ScoreResult submit_one(serve::ServeGateway& gateway, std::uint32_t user) {
  serve::ScoreRequest request;
  request.user = user;
  return gateway.submit(std::move(request)).get();
}

PortalSetup portal_setup(const Args& args, const Threads& threads, std::size_t index) {
  PortalSetup s;
  const auto start = Clock::now();
  auto t0 = Clock::now();
  facility::ScaleTierParams params;
  params.seed = 0x5CA1AB1EULL ^ (args.seed * 0x9E3779B97F4A7C15ULL);
  s.tier = std::make_unique<facility::ScaleTier>(params);
  s.tier_s = seconds_since(t0);

  s.dir = args.workdir + "/catalog" + std::to_string(index);
  std::filesystem::remove_all(s.dir);
  std::filesystem::create_directories(s.dir);
  const facility::ScaleTier& tier = *s.tier;
  t0 = Clock::now();
  {
    obs::TraceSpan span("bench.write_catalog");
    serve::ShardRouter::write_catalog(
        s.dir, static_cast<std::size_t>(threads.shards),
        static_cast<std::size_t>(threads.replicas), tier.n_items(), tier.dim(),
        [&tier](std::uint32_t item, std::span<float> out) { tier.item_vector(item, out); });
  }
  s.catalog_s = seconds_since(t0);

  t0 = Clock::now();
  serve::ShardRouterConfig router_config = serve::ShardRouterConfig::from_env();
  router_config.n_shards = threads.shards;
  router_config.replicas = threads.replicas;
  {
    obs::TraceSpan span("bench.router_open");
    s.router = std::make_shared<serve::ShardRouter>(
        s.dir, tier.n_users(), tier.n_items(), tier.dim(),
        [&tier](std::uint32_t user, std::span<float> out) { tier.user_vector(user, out); },
        router_config);
  }
  s.router_s = seconds_since(t0);

  serve::GatewayConfig gateway_config = serve::GatewayConfig::from_env();
  gateway_config.threads = threads.serve;
  gateway_config.queue_depth = 64;
  gateway_config.default_deadline_ms = 0.0;  // closed loop: nothing expires
  s.gateway = std::make_unique<serve::ServeGateway>(s.router, gateway_config);

  // Warm-up: the first answer ends the cold start; a few hundred more
  // fault in every shard page and settle the hedge estimates.
  util::Rng warm_rng(args.seed ^ 0xC0FFEEULL);
  submit_one(*s.gateway, tier.sample_user(warm_rng));
  s.first_answer_s = seconds_since(start);
  for (int i = 0; i < 511; ++i) submit_one(*s.gateway, tier.sample_user(warm_rng));
  return s;
}

/// One answered request as its client saw it. Floats keep the log of a
/// whole run to a few MiB, so it does not dominate peak_rss_mb.
struct Answer {
  float t_s = 0.0F;  // completion, seconds since the client's stream began
  float client_ms = 0.0F;
  float queue_ms = 0.0F;
  float total_ms = 0.0F;
};

/// What one closed-loop client recorded. Clients of one `group` share
/// their time origin, so their answers merge into one windowed stream.
struct ClientLog {
  int group = 0;
  double span_s = 0.0;  // how long the client sent requests
  std::vector<Answer> answers;
  std::vector<std::uint32_t> users;  // every request's user
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> samples;
  std::vector<std::string> errors;
  std::uint64_t failed = 0;
  std::uint64_t answer_bytes = 0;
  double coverage_sum = 0.0;

  ClientLog(int group_id, std::size_t expected) : group(group_id) {
    answers.reserve(expected);
    users.reserve(expected);
  }
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(why));
  }
  void answer(double t_s, double client_ms, const serve::ScoreResult& result) {
    answers.push_back({static_cast<float>(t_s), static_cast<float>(client_ms),
                       static_cast<float>(result.queue_ms), static_cast<float>(result.total_ms)});
    answer_bytes += result.scores.size() * sizeof(float);
    coverage_sum += result.coverage;
  }
};

/// Requests a client can send in `seconds` (generous), to size its log.
std::size_t expected_requests(double seconds) {
  return static_cast<std::size_t>(seconds * 30000.0) + 1024;
}

/// Width of the windows the client-side end-to-end metrics are taken
/// over: each is a median over windows, so a burst of host contention
/// moves a few windows, not the result.
constexpr double kWindowS = 1.0;

struct ServingSummary {
  LatencySummary client, queue, service, handoff;  // over all answers
  Timed rate, p50, p99;            // one sample per complete window
  double window_throughput = 0.0;  // centers over complete windows
  double window_p50_ms = 0.0;
  double window_p99_ms = 0.0;
  std::size_t n_windows = 0;
  std::size_t quiet_windows = 0;  // windows with no stolen CPU time
  std::size_t min_window_samples = 0;
  std::uint64_t sent = 0, answered = 0, repeats = 0, answer_bytes = 0;
  double coverage_sum = 0.0;
};

/// Folds client logs into `r` (attempted, failed, errors) and
/// summarizes their latencies: service = answer - queue time inside
/// the gateway, handoff = client time - gateway total.
ServingSummary fold_logs(Result& r, const std::vector<ClientLog>& logs, std::size_t n_users,
                         const std::map<int, std::vector<double>>& window_steal) {
  ServingSummary s;
  std::vector<double> client, queue, service, handoff;
  std::vector<bool> seen(n_users);
  std::map<int, std::pair<double, std::vector<std::pair<double, double>>>> streams;
  for (const ClientLog& log : logs) {
    s.sent += log.users.size();
    s.answered += log.answers.size();
    s.answer_bytes += log.answer_bytes;
    s.coverage_sum += log.coverage_sum;
    r.attempted += log.users.size();
    r.failed += log.failed;
    for (const std::string& e : log.errors) r.errors.push_back(e);
    auto [it, fresh] = streams.try_emplace(log.group, log.span_s,
                                           std::vector<std::pair<double, double>>{});
    if (!fresh) it->second.first = std::min(it->second.first, log.span_s);
    for (const Answer& a : log.answers) {
      client.push_back(a.client_ms);
      queue.push_back(a.queue_ms);
      service.push_back(a.total_ms - a.queue_ms);
      handoff.push_back(a.client_ms - a.total_ms);
      it->second.second.emplace_back(a.t_s, a.client_ms);
    }
    for (const std::uint32_t u : log.users) {
      if (seen[u]) ++s.repeats;
      seen[u] = true;
    }
  }
  Timed& rate = s.rate;
  Timed& p50 = s.p50;
  Timed& p99 = s.p99;
  s.min_window_samples = std::numeric_limits<std::size_t>::max();
  for (auto& [group, stream] : streams) {
    const auto steal = window_steal.find(group);
    std::size_t k = 0;
    for (std::vector<double>& w : perfbench::windows(stream.second, kWindowS, stream.first)) {
      // A window the sampler did not see counts as noisy.
      const double stolen = steal != window_steal.end() && k < steal->second.size()
                                ? steal->second[k]
                                : 1.0;
      ++k;
      s.min_window_samples = std::min(s.min_window_samples, w.size());
      if (w.empty()) continue;
      const LatencySummary ws = summarize(std::move(w));
      rate.add(static_cast<double>(ws.n) / kWindowS, stolen);
      p50.add(ws.p50_ms, stolen);
      p99.add(ws.p99_ms, stolen);
      if (stolen == 0.0) ++s.quiet_windows;
    }
  }
  s.n_windows = rate.values.size();
  if (s.n_windows == 0 || p50.values.empty()) {
    s.min_window_samples = 0;
  } else {
    s.window_throughput = rate.center();
    s.window_p50_ms = p50.center();
    s.window_p99_ms = p99.center();
  }
  s.client = summarize(std::move(client));
  s.queue = summarize(std::move(queue));
  s.service = summarize(std::move(service));
  s.handoff = summarize(std::move(handoff));
  return s;
}

/// One summary of several folded parts (episodes): the window samples
/// of all parts, counts summed, and per answer class the median of the
/// parts' percentiles.
ServingSummary combine(const std::vector<ServingSummary>& parts) {
  ServingSummary s;
  s.min_window_samples = std::numeric_limits<std::size_t>::max();
  std::vector<double> pct[4][2];
  for (const ServingSummary& p : parts) {
    for (const auto& [into, from] :
         {std::pair{&s.rate, &p.rate}, std::pair{&s.p50, &p.p50}, std::pair{&s.p99, &p.p99}}) {
      into->values.insert(into->values.end(), from->values.begin(), from->values.end());
      into->steal.insert(into->steal.end(), from->steal.begin(), from->steal.end());
    }
    s.n_windows += p.n_windows;
    s.quiet_windows += p.quiet_windows;
    s.min_window_samples = std::min(s.min_window_samples, p.min_window_samples);
    s.sent += p.sent;
    s.answered += p.answered;
    s.repeats += p.repeats;
    s.answer_bytes += p.answer_bytes;
    s.coverage_sum += p.coverage_sum;
    const LatencySummary* classes[4] = {&p.client, &p.queue, &p.service, &p.handoff};
    for (int c = 0; c < 4; ++c) {
      if (classes[c]->n == 0) continue;
      pct[c][0].push_back(classes[c]->p50_ms);
      pct[c][1].push_back(classes[c]->p99_ms);
    }
  }
  LatencySummary* classes[4] = {&s.client, &s.queue, &s.service, &s.handoff};
  for (int c = 0; c < 4; ++c) {
    if (pct[c][0].empty()) continue;
    classes[c]->p50_ms = perfbench::median(pct[c][0]);
    classes[c]->p99_ms = perfbench::median(pct[c][1]);
  }
  s.client.n = s.answered;
  if (s.n_windows == 0 || s.p50.values.empty()) {
    s.min_window_samples = 0;
  } else {
    s.window_throughput = s.rate.center();
    s.window_p50_ms = s.p50.center();
    s.window_p99_ms = s.p99.center();
  }
  return s;
}

/// Client-side end-to-end metrics: centers (Timed::center) over complete
/// windows, each window's p99 resting on at least ten samples beyond it.
void record_client_metrics(Result& r, const ServingSummary& s, const char* workload) {
  if (s.n_windows < 3) {
    r.fail(std::string(workload) + ": fewer than 3 complete " +
           std::to_string(kWindowS) + "-second windows");
  }
  require_p99(r, s.min_window_samples, workload);
  r.e2e["throughput_per_s"] = s.window_throughput;
  r.e2e["latency_p50_ms"] = s.window_p50_ms;
  r.e2e["latency_p99_ms"] = s.window_p99_ms;
  r.latency_samples = s.client.n;
  r.layer["client.windows"] = static_cast<double>(s.n_windows);
  r.layer["client.quiet_windows"] = static_cast<double>(s.quiet_windows);
  r.layer["client.min_window_samples"] = static_cast<double>(s.min_window_samples);
  r.layer["client.overall_p99_ms"] = s.client.p99_ms;
}

/// The gateway-side per-layer metrics both serving workloads report.
void record_gateway_layers(Result& r, const ServingSummary& s) {
  r.layer["gateway.queue_ms.p50"] = s.queue.p50_ms;
  r.layer["gateway.queue_ms.p99"] = s.queue.p99_ms;
  r.layer["gateway.service_ms.p50"] = s.service.p50_ms;
  r.layer["gateway.service_ms.p99"] = s.service.p99_ms;
  r.layer["gateway.handoff_ms.p50"] = s.handoff.p50_ms;
  r.layer["workload.repeat_user_fraction"] =
      s.sent == 0 ? 0.0 : static_cast<double>(s.repeats) / static_cast<double>(s.sent);
}

Result run_portal_zipf(const Args& args, const Threads& threads) {
  Result r;
  // Everything, set-up included, on the serving CPU: the client, the
  // gateway worker and the router's probe thread all start from here.
  const Placement where = placement();
  pin_this_thread(where.serving);
  r.placement = "serving " + cpu_list(where.serving);
  Timed setup, first_s, republish_s;
  std::vector<double> tier_s, catalog_s, router_s;
  PortalSetup live;
  for (std::size_t i = 0; i < kPortalSetups; ++i) {
    const Stopwatch sw;
    PortalSetup s = portal_setup(args, threads, i);
    const double stolen = sw.steal();
    setup.add(sw.seconds(), stolen);
    tier_s.push_back(s.tier_s);
    catalog_s.push_back(s.catalog_s);
    router_s.push_back(s.router_s);
    first_s.add(s.first_answer_s, stolen);
    republish_s.add(s.catalog_s + s.router_s, stolen);
    if (i + 1 < kPortalSetups) {
      s.gateway->shutdown();
      s.gateway.reset();
      s.router.reset();
      std::filesystem::remove_all(s.dir);
    } else {
      live = std::move(s);
    }
  }
  // Counters from here on cover only the measured traffic.
  serve::ServeGateway& gateway = *live.gateway;
  const facility::ScaleTier& tier = *live.tier;
  const serve::GatewayStats gw_before = gateway.stats();
  const serve::ShardRouterStats rt_before = live.router->stats();
  const auto replica_before = registry_hist(names::kShardReplicaLatencySeconds);
  const std::uint64_t version = live.router->model_version();
  const std::size_t n_items = tier.n_items();

  std::vector<ClientLog> logs;
  for (int c = 0; c < threads.clients; ++c) logs.emplace_back(0, expected_requests(args.seconds));
  std::atomic<bool> stop{false};
  const HostSample host_before = host_sample();
  const auto start = Clock::now();
  StealSampler steal_sampler(start, kWindowS);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < logs.size(); ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        util::Rng rng(args.seed * 1000003ULL + c + 1);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint32_t user = tier.sample_user(rng);
          serve::ScoreRequest request;
          request.user = user;
          const auto t0 = Clock::now();
          serve::ScoreResult result;
          {
            obs::TraceSpan span("bench.request");
            result = gateway.submit(std::move(request)).get();
          }
          const double ms = 1e3 * seconds_since(t0);
          log.users.push_back(user);
          if (result.status != serve::RequestStatus::kServed) {
            log.fail(std::string("status ") + serve::to_string(result.status));
          } else if (result.scores.size() != n_items) {
            log.fail("row width " + std::to_string(result.scores.size()));
          } else if (result.model_version != version) {
            log.fail("model version " + std::to_string(result.model_version));
          } else if (result.coverage != 1.0) {
            log.fail("coverage " + std::to_string(result.coverage));
          } else {
            log.answer(seconds_since(start), ms, result);
            if (log.users.size() % kSampleEvery == 1) {
              log.samples.emplace_back(user, perfbench::answer_topk(result.scores, kTopK));
            }
          }
        }
        log.span_s = seconds_since(start);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
    stop.store(true);
  }
  const double elapsed = seconds_since(start);
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  const serve::GatewayStats gw_mid = gateway.stats();
  const serve::ShardRouterStats rt_after = live.router->stats();
  const auto replica_after = registry_hist(names::kShardReplicaLatencySeconds);
  gateway.shutdown();
  const serve::GatewayStats gw_after = gateway.stats();

  const ServingSummary sum = fold_logs(r, logs, tier.n_users(), {{0, steal_sampler.finish()}});
  const std::uint64_t answered = sum.answered;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> samples;
  for (ClientLog& log : logs) {
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
  }

  // Exactness gate on the fixed sample: exact double-precision scores.
  std::vector<float> uv(tier.dim());
  std::vector<std::vector<float>> items(n_items, std::vector<float>(tier.dim()));
  for (std::uint32_t i = 0; i < n_items; ++i) tier.item_vector(i, items[i]);
  std::vector<double> reference(n_items);
  double agreement = 0.0;
  for (const auto& [user, top] : samples) {
    tier.user_vector(user, uv);
    for (std::uint32_t i = 0; i < n_items; ++i) {
      double dot = 0.0;
      for (std::size_t d = 0; d < uv.size(); ++d) {
        dot += static_cast<double>(uv[d]) * static_cast<double>(items[i][d]);
      }
      reference[i] = dot;
    }
    const std::string bad = perfbench::check_topk(top, reference, kTopK);
    agreement += perfbench::topk_agreement(top, reference, kTopK);
    if (!bad.empty()) r.fail("user " + std::to_string(user) + ": " + bad);
  }
  if (samples.empty()) r.fail("no answers sampled for the exactness check");

  // Conservation overall, and the measured window's counts against
  // what the clients saw.
  if (const std::string bad = perfbench::check_gateway_conservation(gw_after); !bad.empty()) {
    r.fail(bad);
  }
  const std::uint64_t window_submitted = gw_mid.submitted - gw_before.submitted;
  const std::uint64_t window_served = gw_mid.served - gw_before.served;
  if (window_submitted != r.attempted || window_served != answered) {
    r.fail("gateway counted " + std::to_string(window_submitted) + " submitted / " +
           std::to_string(window_served) + " served, clients saw " +
           std::to_string(r.attempted) + " / " + std::to_string(answered));
  }
  if (const std::string bad = perfbench::check_router_conservation(rt_after); !bad.empty()) {
    r.fail(bad);
  }

  record_client_metrics(r, sum, "portal_zipf");
  r.e2e["setup_s"] = setup.center();
  r.e2e["epoch_s"] = 1024.0 / sum.window_throughput;  // one "epoch" = 1024 requests
  r.e2e["time_to_quality_s"] = first_s.center();
  r.e2e["recall_at_20"] = samples.empty() ? 0.0 : agreement / static_cast<double>(samples.size());
  r.e2e["refresh_cycle_s"] = republish_s.center();
  r.cost_per_op_s = elapsed / static_cast<double>(std::max<std::uint64_t>(answered, 1));

  r.layer["setup.dataset_s"] = perfbench::median(tier_s);
  r.layer["setup.catalog_write_s"] = perfbench::median(catalog_s);
  r.layer["setup.router_open_s"] = perfbench::median(router_s);
  record_gateway_layers(r, sum);
  r.layer["gateway.queue_high_water"] = static_cast<double>(gw_after.queue_high_water);
  r.layer["gateway.sheds"] = static_cast<double>(gw_after.shed_total());
  const auto replica = perfbench::delta(replica_after, replica_before);
  r.layer["shard.replica_ms.p50"] = 1e3 * replica.quantile(0.5);
  r.layer["shard.replica_ms.p99"] = 1e3 * replica.quantile(0.99);
  const double routed = static_cast<double>(rt_after.requests - rt_before.requests);
  r.layer["shard.hedges_per_1k"] =
      routed == 0 ? 0.0 : 1e3 * static_cast<double>(rt_after.hedges - rt_before.hedges) / routed;
  r.layer["shard.failovers_per_1k"] =
      routed == 0 ? 0.0
                  : 1e3 * static_cast<double>(rt_after.failovers - rt_before.failovers) / routed;
  r.layer["shard.coverage_mean"] =
      answered == 0 ? 0.0 : sum.coverage_sum / static_cast<double>(answered);
  r.layer["shard.answer_bytes"] =
      answered == 0 ? 0.0 : static_cast<double>(sum.answer_bytes) / static_cast<double>(answered);
  r.layer["portal.samples_checked"] = static_cast<double>(samples.size());
  record_host(r, host_before, answered);

  live.gateway.reset();
  live.router.reset();
  std::filesystem::remove_all(live.dir);
  return r;
}

// ====================================================== refresh_under_load

constexpr std::size_t kRefreshWindows = 4;

struct RefreshInputs {
  std::unique_ptr<facility::FacilityModel> model;
  std::unique_ptr<facility::UserPopulation> users;
  std::unique_ptr<facility::FacilityStream> stream;
  std::unique_ptr<graph::InteractionSplit> split;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> uug;
  std::vector<graph::KnowledgeSource> sources;
  std::vector<facility::StreamWindow> windows;
};

/// The paper's OOI facility and users (the Table-I dataset seed) replayed
/// as a stream. Fixed for every --seed, like train_ooi's dataset: other
/// facilities move the guardrail recall and the graph each window grows
/// by, so the figures would follow the seed instead of the program.
RefreshInputs refresh_inputs() {
  RefreshInputs in;
  util::Rng root(kTrainDatasetSeed);
  util::Rng model_rng = root.fork(1);
  util::Rng user_rng = root.fork(2);
  util::Rng split_rng = root.fork(3);
  in.model = std::make_unique<facility::FacilityModel>(facility::make_ooi_model(model_rng));
  facility::PopulationParams pop{.n_users = 520,
                                 .n_cities = 48,
                                 .n_organizations = 14,
                                 .city_profile_adoption = 0.88,
                                 .city_size_zipf = 0.9};
  in.users = std::make_unique<facility::UserPopulation>(*in.model, pop, user_rng);
  facility::TraceParams trace{.total_queries = 60000,
                              .region_affinity = 0.38,
                              .type_affinity = 0.65,
                              .user_activity_zipf = 0.85,
                              .object_popularity_zipf = 0.8};
  facility::StreamParams stream{};
  stream.n_windows = kRefreshWindows;
  stream.queries_per_window = 1500;
  stream.bootstrap_queries = 12000;
  stream.seed = root.fork(4)();
  in.stream = std::make_unique<facility::FacilityStream>(*in.model, *in.users, trace, stream);
  graph::InteractionSet all(in.stream->active_users(), in.stream->active_items());
  for (const facility::QueryRecord& q : in.stream->bootstrap_queries()) all.add(q.user, q.object);
  all.finalize();
  in.split = std::make_unique<graph::InteractionSplit>(
      graph::split_interactions(all, 0.8, split_rng));
  in.uug = in.stream->bootstrap_user_pairs(10);
  in.sources = in.stream->bootstrap_sources();
  for (std::size_t w = 0; w < kRefreshWindows; ++w) in.windows.push_back(in.stream->stream_window());
  return in;
}

Result run_refresh_under_load(const Args& args, const Threads& threads) {
  Result r;
  // Training (bootstrap, ingest and their worker pools) on every CPU but
  // the serving one; the gateway worker and the client on that one.
  const Placement where = placement();
  pin_this_thread(where.rest);
  r.placement = "serving " + cpu_list(where.serving) + ", training " + cpu_list(where.rest);
  Timed setup, cycle_s, epoch_s, ttq_s;
  std::vector<double> bootstrap_s, fit_s, other_s, peak_mb;
  // Each episode's client log is folded when the episode ends and then
  // freed, so the logs do not accumulate into later episodes' peak RSS.
  std::vector<ServingSummary> served;  // one per episode
  std::uint64_t queue_high_water = 0, sheds = 0;
  double recall = -1.0;
  double epochs_total = 0.0;
  const auto torn_before = registry_counter_total(names::kSwapTornReadRetriesTotal);
  const auto rollbacks_before = registry_counter_total(names::kRefreshRollbacksTotal);
  perfbench::HistSnapshot cf_steps, kg_steps, score_blocks;
  auto& registry = obs::MetricsRegistry::global();
  auto window_of = [&](const char* name, const perfbench::HistSnapshot& before) {
    return perfbench::delta(perfbench::snapshot(registry.histogram(name)), before);
  };

  // Whole episodes (set-up, then every window ingested under load)
  // until the time budget is spent; at least two.
  const HostSample host_before = host_sample();
  const auto run_start = Clock::now();
  int episode = 0;
  while (episode < 2 || seconds_since(run_start) < args.seconds) {
    ++episode;
    reset_peak_rss();
    // Set-up: the stream (bootstrap corpus and its windows), bootstrap()
    // and the gateway.
    const Stopwatch setup_sw;
    RefreshInputs in = refresh_inputs();
    auto handle = std::make_shared<serve::ModelHandle>();
    serve::RefreshConfig config;
    config.model.train_threads = threads.train;
    config.model.epochs = 3;
    config.epochs = 1;
    config.guardrail_eps = 0.05;
    config.eval_k = 20;
    config.checkpoint_path = args.workdir + "/refresh.ckpt";
    config.ckg_options.sources = {facility::kSourceLoc, facility::kSourceDkg};
    serve::OnlineRefresher refresher(handle, std::move(*in.split), in.uug, in.sources, config);
    const auto b0 = Clock::now();
    const serve::RefreshOutcome boot = refresher.bootstrap();
    bootstrap_s.push_back(seconds_since(b0));
    if (boot.status != serve::RefreshOutcome::Status::kPublished) {
      throw std::runtime_error("bootstrap did not publish: " + boot.error);
    }
    std::map<std::uint64_t, std::size_t> published{{boot.version, refresher.serving_items()}};
    serve::GatewayConfig gateway_config = serve::GatewayConfig::from_env();
    gateway_config.threads = threads.serve;
    gateway_config.queue_depth = 64;
    gateway_config.default_deadline_ms = 0.0;  // closed loop: nothing expires
    pin_this_thread(where.serving);  // the gateway's worker starts here
    serve::ServeGateway gateway(handle, gateway_config);
    pin_this_thread(where.rest);
    const auto n_boot_users = static_cast<std::uint32_t>(refresher.serving_users());
    setup.add(setup_sw);

    // One closed-loop client, users uniform over the bootstrap users
    // (valid in every later generation: ids only grow).
    std::atomic<bool> stop{false};
    ClientLog log(episode, expected_requests(args.seconds));
    std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> answers;  // (version, width)
    const auto origin = Clock::now();
    StealSampler steal_sampler(origin, kWindowS);
    std::jthread client([&] {
      pin_this_thread(where.serving);
      util::Rng rng(args.seed * 7919ULL + static_cast<std::uint64_t>(episode));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto user = static_cast<std::uint32_t>(rng.uniform_index(n_boot_users));
        serve::ScoreRequest request;
        request.user = user;
        const auto t0 = Clock::now();
        serve::ScoreResult result;
        {
          obs::TraceSpan span("bench.request");
          result = gateway.submit(std::move(request)).get();
        }
        const double ms = 1e3 * seconds_since(t0);
        log.users.push_back(user);
        if (result.status != serve::RequestStatus::kServed) {
          log.fail(std::string("status ") + serve::to_string(result.status));
          continue;
        }
        ++answers[{result.model_version, result.scores.size()}];
        log.answer(seconds_since(origin), ms, result);
      }
      log.span_s = seconds_since(origin);
    });

    const Stopwatch episode_sw;
    double episode_ingest = 0.0;
    serve::RefreshOutcome last;
    for (const facility::StreamWindow& window : in.windows) {
      ++r.attempted;
      const auto fit_before = perfbench::snapshot(registry.histogram(names::kRefreshFitSeconds));
      const auto epoch_before = perfbench::snapshot(registry.histogram(names::kTrainEpochSeconds));
      const auto cf_before = perfbench::snapshot(registry.histogram(names::kTrainCfStepSeconds));
      const auto kg_before = perfbench::snapshot(registry.histogram(names::kTrainKgStepSeconds));
      const auto score_before = registry_hist(names::kEvalScoreSeconds);
      const Stopwatch sw;
      {
        obs::TraceSpan span("bench.ingest");
        last = refresher.ingest(window.delta);
      }
      const double ingest = sw.seconds();
      const double stolen = sw.steal();
      // Per-window deltas of the registry histograms, merged over windows.
      const auto fit = window_of(names::kRefreshFitSeconds, fit_before);
      const auto epochs = window_of(names::kTrainEpochSeconds, epoch_before);
      cf_steps = perfbench::merge(cf_steps, window_of(names::kTrainCfStepSeconds, cf_before));
      kg_steps = perfbench::merge(kg_steps, window_of(names::kTrainKgStepSeconds, kg_before));
      score_blocks = perfbench::merge(
          score_blocks, perfbench::delta(registry_hist(names::kEvalScoreSeconds), score_before));
      cycle_s.add(ingest, stolen);
      fit_s.push_back(fit.sum);
      other_s.push_back(ingest - fit.sum);
      if (epochs.count() > 0) epoch_s.add(epochs.mean(), stolen);
      epochs_total += static_cast<double>(epochs.count());
      episode_ingest += ingest;
      if (last.status != serve::RefreshOutcome::Status::kPublished) {
        r.fail(std::string("window ") + std::to_string(window.index) + " did not publish: " +
               serve::to_string(last.status) + " " + last.error);
        continue;
      }
      published[last.version] = refresher.serving_items();
    }
    stop.store(true);
    client.join();
    const std::vector<double> window_steal = steal_sampler.finish();
    gateway.shutdown();
    ttq_s.add(episode_ingest, episode_sw.steal());

    // Every answer came from a published version at that version's
    // width, and the gateway's per-version lanes match what was seen.
    std::map<std::uint64_t, std::uint64_t> served_by_version;
    for (const auto& [key, count] : answers) {
      serve::ScoreResult seen;
      seen.status = serve::RequestStatus::kServed;
      seen.model_version = key.first;
      seen.scores.assign(key.second, 0.0F);
      if (const std::string bad = perfbench::check_versioned_answer(seen, published);
          !bad.empty()) {
        r.fail(bad);
      }
      served_by_version[key.first] += count;
    }
    const serve::GatewayStats stats = gateway.stats();
    if (const std::string bad = perfbench::check_gateway_conservation(stats); !bad.empty()) {
      r.fail(bad);
    }
    if (const std::string bad = perfbench::check_version_lanes(stats, served_by_version);
        !bad.empty()) {
      r.fail(bad);
    }
    if (stats.submitted != log.users.size()) {
      r.fail("gateway submitted count differs from requests sent");
    }
    queue_high_water = std::max<std::uint64_t>(queue_high_water, stats.queue_high_water);
    sheds += stats.shed_total();
    if (recall >= 0.0 && last.candidate_recall != recall) {
      r.fail("episodes disagree on the last generation's recall");
    }
    recall = last.candidate_recall;
    peak_mb.push_back(peak_rss_mb());
    std::vector<ClientLog> episode_log;
    episode_log.push_back(std::move(log));
    served.push_back(fold_logs(r, episode_log, n_boot_users, {{episode, window_steal}}));
  }
  r.e2e["peak_rss_mb"] = perfbench::median(peak_mb);

  const ServingSummary sum = combine(served);
  record_client_metrics(r, sum, "refresh_under_load");
  r.e2e["setup_s"] = setup.center();
  r.e2e["refresh_cycle_s"] = cycle_s.center();
  r.e2e["time_to_quality_s"] = ttq_s.center();
  r.e2e["epoch_s"] = epoch_s.values.empty() ? 0.0 : epoch_s.center();
  r.e2e["recall_at_20"] = recall;
  r.cost_per_op_s = r.e2e["refresh_cycle_s"];

  r.layer["setup.bootstrap_s"] = perfbench::median(bootstrap_s);
  r.layer["refresh.fit_s"] = perfbench::median(fit_s);
  r.layer["refresh.other_s"] = perfbench::median(other_s);
  r.layer["swap.torn_read_retries"] =
      registry_counter_total(names::kSwapTornReadRetriesTotal) - torn_before;
  r.layer["refresh.rollbacks"] =
      registry_counter_total(names::kRefreshRollbacksTotal) - rollbacks_before;
  r.layer["core.cf_step_ms.p50"] = 1e3 * cf_steps.quantile(0.5);
  r.layer["core.kg_step_ms.p50"] = 1e3 * kg_steps.quantile(0.5);
  r.layer["eval.score_block_ms.p50"] = 1e3 * score_blocks.quantile(0.5);
  record_gateway_layers(r, sum);
  r.layer["gateway.queue_high_water"] = static_cast<double>(queue_high_water);
  r.layer["gateway.sheds"] = static_cast<double>(sheds);
  r.layer["refresh.episodes"] = episode;
  r.layer["epochs"] = epochs_total;
  record_host(r, host_before, sum.answered);
  return r;
}

// ==================================================================== main

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 2;
  }
  Threads threads = threads_for(args.workload);
  if (args.train_threads > 0) threads.train = args.train_threads;
  if (const std::string problem = hygiene_problem(threads); !problem.empty()) {
    std::fprintf(stderr, "perfbench_workloads: refusing to run: %s\n", problem.c_str());
    return 3;
  }
  std::filesystem::create_directories(args.workdir);
  const char* trace_env = util::env_raw("CKAT_TRACE_FILE");
  const std::string trace_file = trace_env == nullptr ? "" : trace_env;

  Result r;
  try {
    if (args.workload == "train_ooi") r = run_train_ooi(args, threads);
    else if (args.workload == "portal_zipf") r = run_portal_zipf(args, threads);
    else r = run_refresh_under_load(args, threads);
    if (!trace_file.empty()) read_trace(r, trace_file, r.layer["epochs"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (!r.e2e.contains("peak_rss_mb")) r.e2e["peak_rss_mb"] = peak_rss_mb();
  r.e2e["success_fraction"] =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted);

  std::string out = "{\"workload\":" + json_string(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"latency_samples\":" + std::to_string(r.latency_samples) +
                    ",\"cost_per_op_s\":" + json_number(r.cost_per_op_s) + ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? "," : "") + json_string(r.errors[i]);
  }
  out += "],\"host\":{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"gemm_isa\":" + json_string(isa_name(nn::active_gemm_isa())) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"threads\":{\"train\":" + std::to_string(threads.train) +
         ",\"serve\":" + std::to_string(threads.serve) +
         ",\"eval\":" + std::to_string(threads.eval) +
         ",\"shards\":" + std::to_string(threads.shards) +
         ",\"replicas\":" + std::to_string(threads.replicas) +
         ",\"clients\":" + std::to_string(threads.clients) + ",\"omp\":1}" +
         ",\"placement\":" + json_string(r.placement) + "}";
  for (const auto* section : {&r.e2e, &r.layer}) {
    out += section == &r.e2e ? ",\"e2e\":{" : ",\"layer\":{";
    bool first = true;
    for (const auto& [name, value] : *section) {
      out += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
      first = false;
    }
    out += "}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

// Observability harness (extension): demonstrates that one run report
// accounts for everything PR 1's fault harness can throw at the system.
//
// Default mode trains a small CKAT with a NaN loss injected mid-run
// (forcing a checkpoint rollback), then serves through a
// ResilientRecommender chain with every CKAT request stalling past the
// deadline (forcing circuit transitions and fallbacks), and finally
// prints ONE JSON run report to stdout in which every injected fault,
// circuit transition and rollback appears as a counted metric -- the
// harness re-parses its own report and exits non-zero if any expected
// signal is missing, so CI can use it as an end-to-end telemetry smoke
// test. Set CKAT_TRACE_FILE (or --trace=PATH) to also capture the span
// tree (fit -> epoch -> cf/kg phase -> propagate) and the fault/circuit
// events as JSONL.
//
// --overhead instead measures the cost of the always-on instrumentation:
// it alternates fit() runs with telemetry enabled and disabled
// (CKAT_OBS=0 equivalent) on identical models and prints the relative
// wall-clock delta; DESIGN.md section 7 records the measured numbers
// (< 2% is the acceptance bar).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/bprmf.hpp"
#include "bench/bench_common.hpp"
#include "core/ckat.hpp"
#include "eval/evaluator.hpp"
#include "eval/experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/popularity.hpp"
#include "serve/resilient.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace {

using namespace ckat;

/// CF batches per epoch, via a zero-probability counting schedule (same
/// trick as ext_fault_tolerance) so the NaN can be aimed at a specific
/// epoch without hard-coding dataset geometry.
std::uint64_t probe_cf_batches(const graph::CollaborativeKg& ckg,
                               const graph::InteractionSplit& split,
                               core::CkatConfig config) {
  config.epochs = 1;
  config.checkpoint_every = 0;
  config.checkpoint_path.clear();
  core::CkatModel probe(ckg, split.train, config);
  util::FaultScope counter(util::fault_points::kNanLoss,
                           util::FaultSpec{.every = 1, .probability = 0.0});
  probe.fit();
  return util::FaultInjector::instance().hits(util::fault_points::kNanLoss);
}

/// Looks up a counter total in the report's metrics section, summing
/// every series whose key starts with `name` (labels included).
double counter_total(const obs::JsonValue& report, const std::string& name) {
  const obs::JsonValue* counters = report.at("metrics").find("counters");
  if (counters == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& [key, value] : counters->as_object()) {
    if (key.rfind(name, 0) == 0) total += value.as_number();
  }
  return total;
}

int run_report_mode(const std::string& facility,
                    const facility::FacilityDataset& dataset,
                    core::CkatConfig config) {
  const auto ckg = bench::default_ckg(dataset);
  const auto& split = dataset.split();
  // The rollback leg needs the NaN to land after at least one durable
  // checkpoint and before the final epoch.
  config.epochs = std::max(config.epochs, 4);
  const std::string ckpt = (std::filesystem::temp_directory_path() /
                            ("ckat_obs_bench_" + facility + ".ckpt"))
                               .string();
  config.checkpoint_every = 1;
  config.checkpoint_path = ckpt;

  obs::RunReport report("ext_observability:" + facility);
  report.set_note("facility", facility);
  report.set_note("epochs", static_cast<double>(config.epochs));
  report.set_note("seed", static_cast<double>(config.seed));

  // --- Training under an injected NaN: fit() must roll back and finish.
  const std::uint64_t cf_batches = probe_cf_batches(ckg, split, config);
  const int nan_epoch = 2;  // 0-based epoch whose CF phase goes NaN
  CKAT_LOG_INFO("[%s] training with NaN injected in epoch %d", facility.c_str(),
                nan_epoch + 1);
  core::CkatModel ckat(ckg, split.train, config);
  {
    util::FaultScope nan_guard(
        util::fault_points::kNanLoss,
        util::FaultSpec{.after = static_cast<std::uint64_t>(nan_epoch) *
                                     cf_batches});
    ckat.fit();
  }
  report.set_note("injected_nan_epoch", static_cast<double>(nan_epoch + 1));
  report.set_note("rollbacks", static_cast<double>(ckat.rollback_count()));

  // --- Serving with every CKAT request stalling past the deadline.
  CKAT_LOG_INFO("[%s] training fallback tier (BPRMF)", facility.c_str());
  baselines::BprmfConfig mf_config;
  mf_config.epochs = util::scaled_epochs(mf_config.epochs);
  baselines::BprmfModel bprmf(split.train, mf_config);
  bprmf.fit();
  serve::PopularityRecommender popularity(split.train);

  serve::ResilientConfig serve_config;
  serve_config.deadline_ms = 250.0;
  serve_config.failure_threshold = 3;
  serve_config.retry_after = 64;
  serve::ResilientRecommender serving({&ckat, &bprmf, &popularity},
                                      serve_config);

  const auto healthy = eval::evaluate_topk(serving, split);
  report.add_eval("serving_healthy", healthy.recall, healthy.ndcg,
                  healthy.n_users);
  {
    util::FaultScope stall(
        std::string(util::fault_points::kScoreTimeout) + ":" + ckat.name(),
        util::FaultSpec{.every = 1});
    const auto degraded = eval::evaluate_topk(serving, split);
    report.add_eval("serving_degraded", degraded.recall, degraded.ndcg,
                    degraded.n_users);
  }
  report.add_section("serving", serve::health_to_json(serving.snapshot()));

  report.capture_metrics();
  obs::flush_trace();

  const std::string doc = report.to_json_string();
  std::printf("%s\n", doc.c_str());

  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".prev");

  // --- Self-check: re-parse the printed document and verify that every
  // injected failure mode shows up as a counted signal.
  const obs::JsonValue parsed = obs::json_parse(doc);
  struct Check {
    const char* what;
    bool ok;
  };
  const Check checks[] = {
      {"injected NaN fault counted (ckat_fault_fired_total{point=ckat.nan_loss})",
       counter_total(parsed, "ckat_fault_fired_total{point=\"ckat.nan_loss\"}") >= 1.0},
      {"injected stall fault counted (ckat_fault_fired_total{point=serve.score_timeout:...})",
       counter_total(parsed,
                     "ckat_fault_fired_total{point=\"serve.score_timeout") >= 1.0},
      {"rollback counted (ckat_train_rollbacks_total)",
       counter_total(parsed, "ckat_train_rollbacks_total") >= 1.0},
      {"circuit transition counted (ckat_serve_circuit_transitions_total)",
       counter_total(parsed, "ckat_serve_circuit_transitions_total") >= 1.0},
      {"checkpoint writes counted (ckat_train_checkpoint_writes_total)",
       counter_total(parsed, "ckat_train_checkpoint_writes_total") >= 1.0},
      {"serving section reports a fallback activation",
       parsed.at("serving").at("fallback_activations").as_number() >= 1.0},
      {"degraded tier recorded a last_error",
       !parsed.at("serving").at("tiers").as_array()[0].at("last_error")
            .as_string().empty()},
  };
  bool all_ok = true;
  for (const Check& check : checks) {
    if (!check.ok) {
      std::fprintf(stderr, "ext_observability: MISSING %s\n", check.what);
      all_ok = false;
    }
  }
  std::fprintf(stderr, all_ok ? "ext_observability: OK (%zu checks)\n"
                              : "ext_observability: FAILED\n",
               sizeof(checks) / sizeof(checks[0]));
  return all_ok ? 0 : 1;
}

int run_overhead_mode(const std::string& facility,
                      const facility::FacilityDataset& dataset,
                      core::CkatConfig config, int reps) {
  const auto ckg = bench::default_ckg(dataset);
  const auto& split = dataset.split();
  config.checkpoint_every = 0;
  config.checkpoint_path.clear();

  // One untimed fit first: the initial run pays one-off costs (page
  // faults, worker-pool thread spawn) that would otherwise bias
  // whichever side goes first.
  {
    core::CkatModel warmup(ckg, split.train, config);
    warmup.fit();
  }

  // Alternate disabled/enabled fits on freshly constructed models (same
  // seed => identical work) so thermal/cache drift hits both sides.
  double seconds_on = 0.0, seconds_off = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool enabled : {false, true}) {
      obs::set_telemetry_enabled(enabled);
      core::CkatModel model(ckg, split.train, config);
      util::Timer timer;
      model.fit();
      (enabled ? seconds_on : seconds_off) += timer.seconds();
    }
  }
  obs::set_telemetry_enabled(true);

  const double overhead_pct =
      100.0 * (seconds_on - seconds_off) / seconds_off;
  std::printf(
      "fit() wall clock over %d reps (%s, %d epochs):\n"
      "  telemetry off: %.3fs\n"
      "  telemetry on:  %.3fs\n"
      "  overhead:      %+.2f%%\n",
      reps, facility.c_str(), config.epochs, seconds_off, seconds_on,
      overhead_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto datasets = bench::load_datasets(args);
  // One facility, one report: default OOI unless the flag picks GAGE.
  const auto& [facility, dataset] = datasets.front();

  if (const std::string trace = args.get_string("trace", "");
      !trace.empty()) {
    obs::set_trace_file(trace);
  }

  core::CkatConfig config = eval::default_ckat_config(dataset->n_items());
  config.epochs = util::scaled_epochs(config.epochs);

  if (args.has("overhead")) {
    return run_overhead_mode(facility, *dataset, config,
                             static_cast<int>(args.get_int("reps", 3)));
  }
  return run_report_mode(facility, *dataset, config);
}

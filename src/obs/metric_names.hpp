// Central registry of every metric series name the library emits.
//
// Call sites resolve registry handles by these constants instead of
// ad-hoc string literals: ckat-lint (rule ckat-metric-registry) rejects a
// literal first argument to .counter()/.gauge()/.histogram() anywhere in
// src/ so a name can only be introduced here — one place to scan for the
// full telemetry surface (DESIGN.md section 7 documents the semantics),
// one place a rename has to touch, and no silent near-duplicate series
// ("ckat_gateway_request_total" vs "..._requests_total") from a typo at
// a call site. Label *values* remain free-form at the call site; only
// series names are registered.
#pragma once

namespace ckat::obs::metric_names {

// Fault injection (src/util/fault.cpp), labeled {point}.
inline constexpr const char* kFaultFiredTotal = "ckat_fault_fired_total";

// CKAT training loop (src/core/ckat.cpp).
inline constexpr const char* kTrainCfStepSeconds = "ckat_train_cf_step_seconds";
inline constexpr const char* kTrainKgStepSeconds = "ckat_train_kg_step_seconds";
inline constexpr const char* kTrainEpochSeconds = "ckat_train_epoch_seconds";
inline constexpr const char* kTrainLastCfLoss = "ckat_train_last_cf_loss";
inline constexpr const char* kTrainLastKgLoss = "ckat_train_last_kg_loss";
inline constexpr const char* kTrainEpochsCompleted =
    "ckat_train_epochs_completed";
inline constexpr const char* kTrainLrScale = "ckat_train_lr_scale";
inline constexpr const char* kTrainCheckpointWritesTotal =
    "ckat_train_checkpoint_writes_total";
inline constexpr const char* kTrainCheckpointWriteFailuresTotal =
    "ckat_train_checkpoint_write_failures_total";
inline constexpr const char* kTrainRollbacksTotal = "ckat_train_rollbacks_total";
inline constexpr const char* kTrainNonfiniteEpochsTotal =
    "ckat_train_nonfinite_epochs_total";

// Evaluator scoring latency (src/eval/evaluator.cpp), labeled {model}.
// One observation per score_batch block in the batched engine (one per
// user in evaluate_topk_serial).
inline constexpr const char* kEvalScoreSeconds = "ckat_eval_score_seconds";
// Users excluded from the top-K evaluation population, labeled {model,
// reason}: reason="no_test_items" (nothing held out for the user) or
// "outside_mask" (every test item falls outside candidate_items). Makes
// the recall/ndcg denominator auditable against the raw user count.
inline constexpr const char* kEvalUsersSkippedTotal =
    "ckat_eval_users_skipped_total";

// Degraded-mode serving chain (src/serve/resilient.cpp), labeled {tier}
// (+ {to} for circuit transitions).
inline constexpr const char* kServeTierLatencySeconds =
    "ckat_serve_tier_latency_seconds";
inline constexpr const char* kServeCircuitTransitionsTotal =
    "ckat_serve_circuit_transitions_total";

// Serving gateway (src/serve/gateway.cpp), labeled {outcome}.
inline constexpr const char* kGatewayRequestsTotal =
    "ckat_gateway_requests_total";
inline constexpr const char* kGatewayQueueSeconds = "ckat_gateway_queue_seconds";
inline constexpr const char* kGatewayServedSeconds =
    "ckat_gateway_served_seconds";
inline constexpr const char* kGatewayQueueHighWater =
    "ckat_gateway_queue_high_water";

// Atomic model hot-swap (src/serve/swap.cpp).
inline constexpr const char* kSwapPublishesTotal = "ckat_swap_publishes_total";
inline constexpr const char* kSwapTornReadRetriesTotal =
    "ckat_swap_torn_read_retries_total";
inline constexpr const char* kSwapModelVersion = "ckat_swap_model_version";

// Online refresh cycles (src/serve/refresh.cpp). Deltas labeled
// {outcome}: published | rejected_bad_delta | rejected_guardrail |
// publish_failed; rollbacks labeled {reason}: guardrail | publish_fail.
inline constexpr const char* kRefreshIngestDeltasTotal =
    "ckat_refresh_ingest_deltas_total";
inline constexpr const char* kRefreshPublishesTotal =
    "ckat_refresh_publishes_total";
inline constexpr const char* kRefreshRollbacksTotal =
    "ckat_refresh_rollbacks_total";
inline constexpr const char* kRefreshFitSeconds = "ckat_refresh_fit_seconds";

// Trace sink housekeeping (src/obs/trace.cpp): CKAT_TRACE_MAX_MB
// rotations of the JSONL file, and request traces discarded by the
// CKAT_TRACE_SAMPLE tail sampler.
inline constexpr const char* kTraceRotationsTotal =
    "ckat_trace_rotations_total";
inline constexpr const char* kTraceSampledOutTotal =
    "ckat_trace_sampled_out_total";

// Anomaly flight recorder (src/obs/flight.cpp), labeled {anomaly}:
// dumps written, and dumps suppressed by the per-kind cooldown.
inline constexpr const char* kFlightDumpsTotal = "ckat_flight_dumps_total";
inline constexpr const char* kFlightSuppressedTotal =
    "ckat_flight_suppressed_total";

// Sharded serving (src/serve/shard.cpp). Shard-level outcomes labeled
// {shard, outcome=ok|failed}; replica events labeled {shard, replica}.
inline constexpr const char* kShardRequestsTotal = "ckat_shard_requests_total";
inline constexpr const char* kShardHedgesTotal = "ckat_shard_hedges_total";
inline constexpr const char* kShardFailoversTotal =
    "ckat_shard_failovers_total";
inline constexpr const char* kShardReplicaFailuresTotal =
    "ckat_shard_replica_failures_total";
inline constexpr const char* kShardReplicaTripsTotal =
    "ckat_shard_replica_trips_total";
inline constexpr const char* kShardReplicaRecoveriesTotal =
    "ckat_shard_replica_recoveries_total";
inline constexpr const char* kShardReplicasHealthy =
    "ckat_shard_replicas_healthy";
inline constexpr const char* kShardReplicaLatencySeconds =
    "ckat_shard_replica_latency_seconds";
// Router-level coverage fraction of each answered request (1.0 = every
// shard contributed its slice); the gateway also counts partial answers
// under ckat_gateway_requests_total{outcome="served_partial"}.
inline constexpr const char* kShardCoverage = "ckat_shard_coverage";

// SLO burn-rate engine (src/obs/slo.cpp). Burn rates labeled
// {slo, window=fast|slow}; alert state/edges labeled {slo}.
inline constexpr const char* kSloBurnRate = "ckat_slo_burn_rate";
inline constexpr const char* kSloAlertActive = "ckat_slo_alert_active";
inline constexpr const char* kSloAlertsTotal = "ckat_slo_alerts_total";

}  // namespace ckat::obs::metric_names

// Scoped tracing: RAII spans with parent/child nesting plus instant
// events, buffered per thread and flushed as JSON Lines.
//
// A span covers one lexical scope (`TraceSpan span("ckat.epoch");`).
// Spans started while another span is open on the same thread record it
// as their parent, so a whole fit() -> epoch -> cf_phase -> propagate
// call tree is reconstructable from the ids alone. Events are
// zero-duration marks (fault fired, circuit opened, rollback) that
// attach to whatever span is open when they happen.
//
// Cross-thread requests use an explicit TraceContext (trace id + parent
// span id): the request owner mints one with start_trace(), carries it
// across the queue, and the worker adopts it by constructing a
// TraceSpan from the context. Adopted spans join the worker thread's
// open-span stack, so everything instrumented below them (tier walk,
// ranker blocks, events) inherits the trace id with no further
// plumbing. finish_trace() closes the request for tail-based sampling:
// with CKAT_TRACE_SAMPLE=N > 1 armed, traces flagged kKeep
// (slow/error/shed) are always written while the rest keep only a
// deterministic 1-in-N; with sampling disarmed (the default) every
// record is written as it completes.
//
// Output goes to the file named by CKAT_TRACE_FILE (read once at first
// use) or set programmatically with set_trace_file(); with no sink
// configured and the flight recorder (obs/flight.hpp) disarmed, or with
// telemetry disabled, a TraceSpan does no work -- not even a clock read
// -- so always-on instrumentation is free in the default build.
// Completed records accumulate in a per-thread buffer and are appended
// to the sink under one mutex when the buffer fills, when the thread
// exits, or on flush_trace(). CKAT_TRACE_MAX_MB caps the sink file:
// when the cap is reached the file rotates once to `<path>.1` and
// restarts, so unattended soaks cannot fill the disk.
//
// Line schema (one JSON object per line):
//   {"cat":"span","name":...,"id":N,"parent":N|0,"thread":N,
//    "start_us":N,"dur_us":N,"trace":N,"attrs":{...}}
//   {"cat":"event","name":...,"id":N,"parent":N|0,"thread":N,
//    "ts_us":N,"trace":N,"attrs":{...}}
// ("trace" only when the record belongs to a request trace, "attrs"
// only when non-empty.) Timestamps are microseconds on the
// process-local steady clock (same epoch for every thread), so spans
// and events order globally.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ckat::obs {

using TraceAttrs = std::vector<std::pair<std::string, std::string>>;

/// One completed span or event, as written to the JSONL sink. Public so
/// the flight recorder (obs/flight.hpp) can buffer and re-emit records.
struct TraceRecord {
  bool is_span = false;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;  // 0 = not part of a request trace
  std::uint64_t thread = 0;
  std::uint64_t start_us = 0;  // ts_us for events
  std::uint64_t dur_us = 0;
  std::string name;
  TraceAttrs attrs;
};

/// Renders one record as its JSONL line (no trailing newline).
[[nodiscard]] std::string format_trace_record(const TraceRecord& record);

/// Explicit cross-thread lineage: which request trace a span belongs to
/// and which span to attach under. Cheap to copy; safe to send across
/// queues. A default-constructed context is inactive.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// Tail-sampling verdict for finish_trace().
enum class TraceVerdict : std::uint8_t {
  kNormal = 0,  // subject to CKAT_TRACE_SAMPLE 1-in-N sampling
  kKeep = 1,    // slow / error / shed: always written
};

/// Mints a new request trace and registers it with the tail sampler.
/// Returns an inactive context when tracing is disabled. Only the
/// request admission path (the gateway) may mint traces; everything
/// downstream forwards the context (enforced by ckat-trace-context).
[[nodiscard]] TraceContext start_trace();

/// Closes a request trace: with sampling armed, decides whether its
/// buffered records are written (kKeep, or the trace sampled in) or
/// dropped. Exactly-once per started trace; no-op for inactive
/// contexts. Records completing after the finish follow the same
/// verdict.
void finish_trace(const TraceContext& context, TraceVerdict verdict);

/// Context of the innermost span open on the calling thread (inactive
/// when none is open or tracing is disabled). Use to forward lineage
/// into pool jobs and threads you start yourself (e.g. ranker blocks).
[[nodiscard]] TraceContext current_trace_context() noexcept;

/// Routes trace output to `path` (empty disables the file sink).
/// Replaces any sink configured via CKAT_TRACE_FILE; flushes pending
/// records of the calling thread first. The file is truncated on first
/// write.
void set_trace_file(const std::string& path);

/// Size cap for the trace file in bytes (0 = unlimited); overrides
/// CKAT_TRACE_MAX_MB. Test hook -- production configures megabytes via
/// the environment.
void set_trace_max_bytes(std::uint64_t bytes);

/// Tail-sampling rate: keep 1-in-`n` non-kKeep traces (0 and 1 both
/// mean "keep everything"). Overrides CKAT_TRACE_SAMPLE.
void set_trace_sample(std::uint64_t n);

/// True when records are being captured: telemetry is enabled AND (a
/// file sink is configured OR the flight recorder is armed).
[[nodiscard]] bool trace_enabled() noexcept;

/// Appends the calling thread's buffered records to the sink and
/// fflushes it. Other threads' buffers flush on their own schedule;
/// call this from the thread that traced (benches and tests are
/// single-threaded at flush points).
void flush_trace();

/// Microseconds on the shared process-local steady clock (the trace
/// timebase). For cross-thread measurements like queue-wait spans.
[[nodiscard]] std::uint64_t trace_now_us() noexcept;

/// Records an instant event under the currently open span (if any).
void trace_event(std::string_view name, TraceAttrs attrs = {});

/// Records an instant event under an explicit cross-thread parent.
void trace_event(std::string_view name, const TraceContext& parent,
                 TraceAttrs attrs = {});

/// Emits an already-measured span under an explicit parent — for spans
/// whose start and end live on different threads (e.g. queue wait:
/// started at admission, ended at dequeue). `start_us`/`end_us` are
/// trace_now_us() timestamps. No-op when tracing is disabled or the
/// parent context is inactive.
void trace_emit_span(std::string_view name, const TraceContext& parent,
                     std::uint64_t start_us, std::uint64_t end_us,
                     TraceAttrs attrs = {});

class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) : TraceSpan(name, TraceAttrs{}) {}
  TraceSpan(std::string_view name, TraceAttrs attrs);
  /// Adopts a cross-thread context: the span attaches under
  /// `parent.parent_span` in trace `parent.trace_id` instead of the
  /// thread-local stack top (falls back to thread-local parentage when
  /// the context is inactive). Joins the open-span stack either way.
  TraceSpan(std::string_view name, const TraceContext& parent,
            TraceAttrs attrs = {});
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches/overwrites an attribute on a live span (no-op when
  /// tracing was disabled at construction).
  void add_attr(std::string_view key, std::string_view value);

  /// Span id (0 when tracing was disabled at construction).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Context for handing lineage to another thread: children adopt
  /// this span as their parent within its trace.
  [[nodiscard]] TraceContext context() const noexcept {
    return TraceContext{trace_id_, id_};
  }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t start_us_ = 0;
  std::string name_;
  TraceAttrs attrs_;
};

}  // namespace ckat::obs

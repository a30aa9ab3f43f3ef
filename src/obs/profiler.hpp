// Cross-layer virtual-time span profiler.
//
// The paper's method (Section 3) is instrumentation: trace every request and
// decompose checkpoint time into gather/scatter vs. file access vs. metadata
// overhead.  This module provides the span layer that decomposition rests
// on: every simulated processor carries a stack of RAII spans —
//
//     OBS_SPAN("two_phase.exchange", sim::TimeCategory::kComm);
//
// — whose start/end timestamps come from the proc's *virtual* clock, so the
// recorded profile is bit-reproducible across runs.  A span additionally
// snapshots the proc's ProcStats at entry and exit, which yields an exact
// cpu/comm/io decomposition of the time spent inside it (the declared
// category is the span's *intent*; the deltas are the measured truth).
// Spans nest across layers: enzo backend phase -> mpi::io collective ->
// two-phase window / sieve / write-behind flush -> pfs request -> net
// transfer.
//
// Recording is opt-in: a Collector is attach()ed around an Engine::run, and
// when none is attached (or the caller is not a simulated proc) a Span is a
// no-op costing one pointer load.  The engine serialises proc execution, so
// the Collector needs no locking.
//
// Exporters live next door: trace_export.hpp renders Chrome trace-event /
// Perfetto JSON, report.hpp the paper-style phase-breakdown tables, and the
// embedded MetricsRegistry (registry.hpp) outlives per-layer counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"

namespace paramrio::obs {

/// Spans reuse the engine's time taxonomy so category rollups are directly
/// comparable with sim::ProcStats.
using sim::TimeCategory;

const char* to_string(TimeCategory cat);

/// One finished span.  `depth` is the nesting level on its rank's stack
/// (0 = top level).  The cpu/comm/io deltas are inclusive — they cover the
/// span's children too; subtract child deltas for exclusive attribution.
struct SpanRecord {
  int rank = -1;
  int depth = 0;
  std::string name;
  TimeCategory category = TimeCategory::kCpu;
  /// Recorded while the proc was in deferred (in-flight) mode: timestamps
  /// come from the shadow clock, so the span can overlap the rank's
  /// synchronous spans.  Exporters draw these on a separate per-rank track.
  bool async = false;
  double t_start = 0.0;
  double t_end = 0.0;
  double cpu_dt = 0.0;
  double comm_dt = 0.0;
  double io_dt = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  double duration() const { return t_end - t_start; }
};

/// A timestamped counter observation (buffer fill levels, window sizes);
/// exported as a Perfetto counter track.
struct CounterSample {
  int rank = -1;
  double time = 0.0;
  std::string name;
  double value = 0.0;
};

/// What a rank was waiting *on* during a blame-relevant interval.  These are
/// the wait-for edges the critical-path engine subtracts from the span
/// layer's coarse cpu/comm/io categories.
enum class WaitKind : int {
  kRecvWait = 0,     ///< receiver idle until a message's arrival time
  kServerQueue = 1,  ///< request queued behind other work at an I/O server
  kTokenWait = 2,    ///< GPFS-style write-token acquisition
  kRetryBackoff = 3, ///< fault-retry exponential backoff on the virtual clock
  kSettleWait = 4,   ///< deferred (in-flight) I/O settling at a sync point
  kDrainWait = 5,    ///< staging-tier drain completion blocking the caller
};

const char* to_string(WaitKind kind);

/// One wait-for interval on a rank's *real* clock.  [t_start, t_end) lies
/// inside time the span layer accounted as comm (kRecvWait) or io (all
/// others); CriticalPath re-attributes the overlap.
struct WaitRecord {
  int rank = -1;
  WaitKind kind = WaitKind::kRecvWait;
  double t_start = 0.0;
  double t_end = 0.0;

  double duration() const { return t_end - t_start; }
};

/// Collects spans and counter samples for one (or more) Engine::runs, and
/// owns the run-level MetricsRegistry.  Attach with obs::attach() before
/// the run; the collector must outlive everything that records into it.
class Collector {
 public:
  Collector() = default;
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // ---- recording (called by Span / instrumented layers) -----------------

  void begin_span(sim::Proc& proc, const char* name, TimeCategory cat);
  /// Close the innermost open span of `proc`'s rank.  Throws LogicError if
  /// its stack is empty (unbalanced instrumentation).
  void end_span(sim::Proc& proc);
  /// Attach a counter to the innermost open span of `proc`'s rank; no-op
  /// when no span is open (so helpers can be called from uninstrumented
  /// paths).
  void span_counter(sim::Proc& proc, const char* name, std::uint64_t value);
  void sample(sim::Proc& proc, const char* name, double value);

  // ---- detail telemetry (gauges / histograms / wait edges) --------------

  /// Detail mode gates everything below: gauges, latency histograms and
  /// wait records are captured only when enabled.  Off by default so a
  /// plain Collector's registry and trace stay byte-identical to the
  /// pre-detail era (nonzero-only discipline, test-enforced).
  void set_detail(bool on) { detail_ = on; }
  bool detail() const { return detail_; }

  /// Append a gauge point on the entity timeline (no-op unless detail).
  void gauge(const std::string& track, double time, double value,
             bool integer);

  /// Record a latency sample into the named histogram (no-op unless detail).
  void latency(const std::string& name, double seconds);

  /// Record a wait-for interval for `proc` (no-op unless detail; intervals
  /// recorded while the proc is deferred are dropped — the shadow clock
  /// charges no ProcStats, so there is nothing to re-attribute).
  void record_wait(sim::Proc& proc, WaitKind kind, double t_start,
                   double t_end);

  // ---- inspection -------------------------------------------------------

  /// Finished spans in completion order (deterministic under the engine).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<CounterSample>& samples() const { return samples_; }

  /// True when every begun span has ended on every rank.
  bool balanced() const;
  /// Names of still-open spans of `rank`, outermost first (unbalanced-span
  /// diagnosis).
  std::vector<std::string> open_spans(int rank) const;
  /// Highest rank seen recording, plus one (0 when nothing recorded).
  int ranks() const { return static_cast<int>(stacks_.size()); }

  const std::vector<WaitRecord>& waits() const { return waits_; }
  const Timeline& timeline() const { return timeline_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Fold detail telemetry into the registry: each histogram becomes a
  /// "hist:<name>" scope (nonzero buckets + exact percentiles), each
  /// timeline track a "timeline:<track>" summary scope (samples + peak).
  /// Empty histograms/tracks export nothing, so a clean run adds no scopes.
  void export_detail();

  /// Drop spans and samples (the registry survives; use registry().clear()).
  void clear_events();

 private:
  std::vector<std::vector<SpanRecord>> stacks_;  ///< open spans, per rank
  std::vector<SpanRecord> spans_;
  std::vector<CounterSample> samples_;
  std::vector<WaitRecord> waits_;
  Timeline timeline_;
  std::map<std::string, Histogram> histograms_;
  MetricsRegistry registry_;
  bool detail_ = false;
};

/// Attach `c` as the process-wide collector (nullptr detaches).  Call
/// outside Engine::run — proc threads read the pointer without locking.
void attach(Collector* c);
void detach();
Collector* collector();

/// RAII attach/detach of the process-wide collector, so a run that throws
/// leaves none attached.  nullptr is a no-op (an optional collector needs
/// no branch at the call site).
class Attach {
 public:
  explicit Attach(Collector* c) : c_(c) {
    if (c_ != nullptr) attach(c_);
  }
  ~Attach() {
    if (c_ != nullptr) detach();
  }
  Attach(const Attach&) = delete;
  Attach& operator=(const Attach&) = delete;

 private:
  Collector* c_;
};

/// RAII span: records into the attached collector while the calling thread
/// is a simulated proc; otherwise free of side effects.
class Span {
 public:
  Span(const char* name, TimeCategory cat) {
    Collector* c = collector();
    if (c != nullptr && sim::in_simulation()) {
      proc_ = &sim::current_proc();
      collector_ = c;
      collector_->begin_span(*proc_, name, cat);
    }
  }
  ~Span() {
    if (collector_ != nullptr) collector_->end_span(*proc_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tag the span with a named value (bytes moved, windows, transfers).
  void counter(const char* name, std::uint64_t value) {
    if (collector_ != nullptr) collector_->span_counter(*proc_, name, value);
  }
  bool active() const { return collector_ != nullptr; }

 private:
  Collector* collector_ = nullptr;
  sim::Proc* proc_ = nullptr;
};

/// Tag the innermost open span of the calling proc (no-op when inactive).
void span_counter(const char* name, std::uint64_t value);

/// Record a counter sample (no-op when inactive).
void counter_sample(const char* name, double value);

/// True when a collector is attached with detail mode on — the cheap guard
/// instrumented hot paths test before computing gauge values.
bool detail();

/// Append a double-valued gauge point at the calling proc's current virtual
/// time (no-op unless detail and on a simulated proc).
void gauge(const std::string& track, double value);

/// Append an integer-valued gauge point (queue depths, request counts).
void gauge_int(const std::string& track, std::uint64_t value);

/// Record a latency sample in virtual seconds (no-op unless detail).
void latency_sample(const std::string& name, double seconds);

/// Record a wait-for interval [t_start, t_end) on the calling proc's real
/// clock (no-op unless detail; dropped when t_end <= t_start or the proc is
/// in deferred mode).
void record_wait(WaitKind kind, double t_start, double t_end);

#define PARAMRIO_OBS_CONCAT2(a, b) a##b
#define PARAMRIO_OBS_CONCAT(a, b) PARAMRIO_OBS_CONCAT2(a, b)

/// Anonymous scope span: OBS_SPAN("phase.name", sim::TimeCategory::kIo);
#define OBS_SPAN(name, cat) \
  ::paramrio::obs::Span PARAMRIO_OBS_CONCAT(obs_span_, __LINE__)(name, cat)

}  // namespace paramrio::obs

// Work handed to an asynchronous agent (a DMA engine, an I/O servicing
// thread, a burst-buffer drain): the one home of every overlapping layer's
// in-flight bookkeeping — MPI-IO requests, pipelined two-phase windows,
// split collectives, read prefetch, query prefetch and async drains.
//
//     obs::Deferral defer(proc, "mpiio.iwrite");  // shadow clock from here
//     write_the_bytes();                          // data moves now
//     obs::InFlight op = defer.finish();          // {issued, completion}
//     ...                                         // caller work hides it
//     obs::settle(op, obs::WaitKind::kSettleWait);
//
// A Deferral runs its scope on the proc's shadow clock
// (sim::Proc::begin_deferred / end_deferred): bytes move at issue, time
// accrues in flight.  The async span it optionally opens ends on the shadow
// clock before the deferral does, so the span covers the operation's real
// in-flight duration on the trace's async track.
#pragma once

#include <algorithm>
#include <optional>

#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace paramrio::obs {

/// One in-flight operation: issued at `issued` on the real clock, done at
/// `completion` on the virtual clock.
struct InFlight {
  double issued = 0.0;
  double completion = 0.0;

  /// Widen to also cover `o`: a horizon over several operations.
  void cover(const InFlight& o) {
    issued = std::min(issued, o.issued);
    completion = std::max(completion, o.completion);
  }
};

/// RAII deferral scope.  The proc runs on its shadow clock until finish(),
/// or until the destructor when the scope unwinds (a retry budget exhausted
/// mid-flight), so the proc is never left deferred.  Stack only.
class Deferral {
 public:
  /// Enter deferred mode; with `span`, also open an async I/O span.
  explicit Deferral(sim::Proc& proc, const char* span = nullptr)
      : proc_(proc), issued_(proc.now()) {
    proc_.begin_deferred();
    if (span != nullptr) span_.emplace(span, TimeCategory::kIo);
  }
  ~Deferral() {
    span_.reset();
    if (!finished_) proc_.end_deferred();
  }
  Deferral(const Deferral&) = delete;
  Deferral& operator=(const Deferral&) = delete;

  /// End the span at the completion, leave deferred mode and return the
  /// operation.
  InFlight finish() {
    span_.reset();
    finished_ = true;
    return InFlight{issued_, proc_.end_deferred()};
  }

 private:
  sim::Proc& proc_;
  double issued_;
  std::optional<Span> span_;
  bool finished_ = false;
};

/// Settle `op` on the calling proc: record the stall still left as a `kind`
/// wait, move the clock to the completion (charged as I/O) and return the
/// time the caller's work hid, min(completion, now) - issued, clamped at 0.
inline double settle(const InFlight& op, WaitKind kind) {
  sim::Proc& proc = sim::current_proc();
  const double now = proc.now();
  record_wait(kind, now, op.completion);
  proc.clock_at_least(op.completion, TimeCategory::kIo);
  return std::max(0.0, std::min(op.completion, now) - op.issued);
}

}  // namespace paramrio::obs

// Retry/backoff and the resume loop shared by every layer that moves file
// bytes: pfs (for serial libraries like the HDF4 writer), mpi::io::File, the
// query service and the staging tier.  Each layer only decides how long one
// Retry budget lives.
//
// Delays are *virtual-clock* seconds: a retrying rank charges the backoff to
// its simulated processor via sim::Proc::advance, so retries cost virtual
// time exactly like a real blocked I/O call would, and runs stay
// bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"

namespace paramrio::fault {

struct RetryPolicy {
  /// Re-attempts after the first failure; 0 disables retrying (transient
  /// errors propagate to the caller unchanged).
  int max_retries = 0;
  /// Delay before the first re-attempt, in virtual seconds.
  double backoff_base = 500e-6;
  /// Multiplier applied per further attempt (exponential backoff).
  double backoff_factor = 2.0;
  /// Ceiling on a single delay, in virtual seconds.
  double backoff_max = 0.1;
  /// Record every backoff delay in RetryStats::delay_log (tests).
  bool log_delays = false;

  bool enabled() const { return max_retries > 0; }
};

/// Backoff delay before re-attempt `attempt` (0-based), capped at
/// backoff_max.  Pure: monotone non-decreasing in `attempt` for any policy
/// with backoff_factor >= 1 — the property the retry tests pin down.
double backoff_delay(const RetryPolicy& policy, int attempt);

/// One logged backoff: which retried operation (the Retry's `op`, a per-File
/// serial in mpi::io) and how long it slept on the virtual clock.
struct RetryDelay {
  std::uint64_t op = 0;
  double seconds = 0.0;
};

/// Counters a retrying layer accumulates (e.g. in mpi::io::FileStats).
struct RetryStats {
  std::uint64_t retries = 0;              ///< re-attempts performed
  std::uint64_t transient_errors = 0;     ///< TransientIoError observed
  std::uint64_t short_writes = 0;         ///< writes that landed short
  std::uint64_t short_reads = 0;          ///< reads that returned short
  std::uint64_t write_verifications = 0;  ///< full short-write read-backs
  double backoff_seconds = 0.0;           ///< total virtual backoff slept
  std::vector<RetryDelay> delay_log;      ///< filled when log_delays is set
};

/// Compact rendering for the hints key ("r4,b0.0005,f2,m0.1"); "r0" when
/// retrying is disabled.
std::string retry_key(const RetryPolicy& policy);

/// The diagnosed IoError of a transfer that stopped moving bytes.
[[noreturn]] void throw_stalled(std::string_view what, std::uint64_t done,
                                std::uint64_t n);

/// The resume loop: `step(done)` moves bytes from position `done` of an
/// `n`-byte transfer and returns how many it moved; a short step is
/// continued where it stopped.  The step runs at least once, so a zero-byte
/// transfer still issues its request.  A step that moves nothing of a
/// nonempty remainder is a diagnosed IoError naming `what`, not a spin.
/// Without a Retry, transient errors propagate from the step unchanged.
template <typename Step>
void transfer(std::uint64_t n, std::string_view what, Step&& step) {
  std::uint64_t done = 0;
  do {
    const std::uint64_t moved = step(done);
    if (moved == 0 && n > 0) throw_stalled(what, done, n);
    done += moved;
  } while (done < n);
}

/// One retry budget of `policy`, drawn on by one operation (`op` labels its
/// logged delays).  A caller sets the budget's scope by how long it keeps
/// the Retry: per call, per operation or per resumed step.
class Retry {
 public:
  Retry(const RetryPolicy& policy, RetryStats& stats, std::uint64_t op = 0)
      : policy_(policy), stats_(stats), op_(op) {}

  /// Count a transient failure.  While the budget lasts, charge the next
  /// backoff to the calling proc's virtual clock as I/O time and a
  /// retry-backoff wait, and return true; false once it is spent.
  bool backoff();

  /// Run `f`, absorbing each TransientIoError while backoff() allows; an
  /// exhausted budget rethrows the last error.
  template <typename F>
  decltype(auto) call(F&& f) {
    for (;;) {
      try {
        return f();
      } catch (const TransientIoError&) {
        if (!backoff()) throw;
      }
    }
  }

  /// fault::transfer with every step run through call(): progress costs no
  /// budget, transient errors do.
  template <typename Step>
  void transfer(std::uint64_t n, std::string_view what, Step&& step) {
    fault::transfer(n, what, [&](std::uint64_t done) {
      return call([&] { return step(done); });
    });
  }

 private:
  const RetryPolicy& policy_;
  RetryStats& stats_;
  std::uint64_t op_;
  int attempt_ = 0;
};

}  // namespace paramrio::fault

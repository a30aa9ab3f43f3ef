#include "fault/retry.hpp"

#include <algorithm>
#include <sstream>

#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace paramrio::fault {

double backoff_delay(const RetryPolicy& policy, int attempt) {
  double d = policy.backoff_base;
  for (int i = 0; i < attempt; ++i) {
    d *= policy.backoff_factor;
    if (d >= policy.backoff_max) break;
  }
  return std::clamp(d, 0.0, policy.backoff_max);
}

std::string retry_key(const RetryPolicy& policy) {
  if (!policy.enabled()) return "r0";
  std::ostringstream os;
  os << "r" << policy.max_retries << ",b" << policy.backoff_base << ",f"
     << policy.backoff_factor << ",m" << policy.backoff_max
     // ",v1": short-write verification, once optional; kept so registry
     // scope names stay stable.
     << ",v1";
  return os.str();
}

void throw_stalled(std::string_view what, std::uint64_t done,
                   std::uint64_t n) {
  throw IoError(std::string(what) + ": transfer stalled at byte " +
                std::to_string(done) + " of " + std::to_string(n) +
                " (a step moved no bytes)");
}

bool Retry::backoff() {
  stats_.transient_errors += 1;
  if (attempt_ >= policy_.max_retries) return false;
  const double delay = backoff_delay(policy_, attempt_);
  attempt_ += 1;
  stats_.retries += 1;
  stats_.backoff_seconds += delay;
  if (policy_.log_delays) stats_.delay_log.push_back({op_, delay});
  if (sim::in_simulation()) {
    sim::Proc& proc = sim::current_proc();
    obs::record_wait(obs::WaitKind::kRetryBackoff, proc.now(),
                     proc.now() + delay);
    proc.advance(delay, sim::TimeCategory::kIo);
  }
  return true;
}

}  // namespace paramrio::fault

#include "check/io_checker.hpp"

#include <algorithm>
#include <sstream>

namespace paramrio::check {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kLint: return "lint";
  }
  return "?";
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kWriteConflict: return "write-conflict";
    case Kind::kHole: return "hole";
    case Kind::kPaddingGap: return "padding-gap";
    case Kind::kReadBeforeWrite: return "read-before-write";
    case Kind::kSmallRequest: return "small-request";
    case Kind::kUnalignedRequest: return "unaligned-request";
    case Kind::kFdLeak: return "fd-leak";
    case Kind::kDoubleClose: return "double-close";
    case Kind::kWriteReadOnly: return "write-read-only";
    case Kind::kUnknownFd: return "unknown-fd";
  }
  return "?";
}

Severity severity_of(Kind kind) {
  switch (kind) {
    case Kind::kSmallRequest:
    case Kind::kUnalignedRequest:
    case Kind::kPaddingGap:
      return Severity::kLint;
    case Kind::kFdLeak:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

std::string Diagnostic::format() const {
  std::ostringstream os;
  os << "[" << to_string(severity) << "] " << to_string(kind) << " " << path;
  if (length > 0) {
    os << " [" << offset << ", " << offset + length << ")";
  }
  if (!ranks.empty()) {
    os << " rank";
    if (ranks.size() > 1) os << "s";
    os << " ";
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (i > 0) os << ",";
      os << ranks[i];
    }
  }
  if (!phase.empty()) os << " phase '" << phase << "'";
  os << ": " << message;
  return os.str();
}

std::uint64_t CheckReport::count(Kind kind) const {
  auto it = counts.find(kind);
  return it == counts.end() ? 0 : it->second;
}

namespace {
constexpr Kind kAllKinds[] = {
    Kind::kWriteConflict,  Kind::kHole,        Kind::kPaddingGap,
    Kind::kReadBeforeWrite,
    Kind::kSmallRequest,   Kind::kUnalignedRequest,
    Kind::kFdLeak,         Kind::kDoubleClose, Kind::kWriteReadOnly,
    Kind::kUnknownFd,
};

std::uint64_t count_severity(const CheckReport& r, Severity severity) {
  std::uint64_t n = 0;
  for (Kind k : kAllKinds) {
    if (severity_of(k) == severity) n += r.count(k);
  }
  return n;
}
}  // namespace

std::uint64_t CheckReport::errors() const {
  return count_severity(*this, Severity::kError);
}
std::uint64_t CheckReport::warnings() const {
  return count_severity(*this, Severity::kWarning);
}
std::uint64_t CheckReport::lints() const {
  return count_severity(*this, Severity::kLint);
}

std::string CheckReport::format() const {
  std::ostringstream os;
  os << "I/O correctness audit — " << label << "\n";
  os << "  events analyzed: " << events_analyzed << " (" << data_requests
     << " data requests)\n";
  for (Kind k : kAllKinds) {
    std::uint64_t n = count(k);
    os << "  " << to_string(k);
    for (std::size_t pad = std::string(to_string(k)).size(); pad < 18; ++pad) {
      os << ' ';
    }
    os << n;
    if (n > 0) os << "  (" << to_string(severity_of(k)) << ")";
    os << "\n";
  }
  os << "  verdict: " << (clean() ? "CLEAN" : "NOT CLEAN") << " ("
     << errors() << " errors, " << warnings() << " warnings, " << lints()
     << " lints)\n";
  if (!diagnostics.empty()) {
    os << "  diagnostics";
    std::uint64_t total = 0;
    for (const auto& [k, n] : counts) total += n;
    if (total > diagnostics.size()) {
      os << " (first " << diagnostics.size() << " of " << total << ")";
    }
    os << ":\n";
    for (const Diagnostic& d : diagnostics) {
      os << "    " << d.format() << "\n";
    }
  }
  return os.str();
}

namespace {

/// Merged half-open intervals, offset -> end.
using Intervals = std::map<std::uint64_t, std::uint64_t>;

void interval_insert(Intervals& iv, std::uint64_t lo, std::uint64_t hi) {
  auto it = iv.upper_bound(lo);
  if (it != iv.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->second);
      it = iv.erase(prev);
    }
  }
  while (it != iv.end() && it->first <= hi) {
    hi = std::max(hi, it->second);
    it = iv.erase(it);
  }
  iv[lo] = hi;
}

/// First sub-range of [lo, hi) not covered by iv; false if fully covered.
bool first_uncovered(const Intervals& iv, std::uint64_t lo, std::uint64_t hi,
                     std::uint64_t* gap_lo, std::uint64_t* gap_hi) {
  std::uint64_t pos = lo;
  auto it = iv.upper_bound(pos);
  if (it != iv.begin()) {
    auto prev = std::prev(it);
    if (prev->second > pos) pos = prev->second;
  }
  if (pos >= hi) return false;
  *gap_lo = pos;
  *gap_hi = hi;
  if (it != iv.end() && it->first < hi) *gap_hi = it->first;
  return true;
}

/// Last-writer-wins ownership map for conflict detection: offset -> (end,
/// rank).  Entries never overlap.
using Ownership = std::map<std::uint64_t, std::pair<std::uint64_t, int>>;

struct FileState {
  bool created = false;  ///< trace saw an OpenMode::kCreate for this path
  Intervals written;     ///< union of writes since creation
  Ownership owners;      ///< current-phase per-rank write ownership
};

struct FdState {
  std::string path;
  bool writable = false;
  int open_rank = -1;
  bool closed = false;
  /// First seen mid-trace (no open event) — opened before tracing started,
  /// so writability is unknown and leak reporting would be guesswork.
  bool implicit = false;
};

class Analyzer {
 public:
  Analyzer(const CheckOptions& options, const stor::ObjectStore* store)
      : options_(options), store_(store) {
    report_.label = options.label;
  }

  CheckReport run(std::span<const trace::IoEvent> events,
                  std::span<const trace::PhaseMark> phases) {
    std::size_t next_phase = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (next_phase < phases.size() &&
             phases[next_phase].first_event <= i) {
        start_phase(phases[next_phase].name);
        ++next_phase;
      }
      step(events[i]);
    }
    finish();
    report_.events_analyzed = events.size();
    return std::move(report_);
  }

 private:
  void start_phase(const std::string& name) {
    phase_ = name;
    // Conflicts are scoped per phase: a restart overwriting the previous
    // dump's bytes is a new generation, not a race.
    for (auto& [path, fs] : files_) fs.owners.clear();
  }

  void emit(Kind kind, const std::string& path, std::vector<int> ranks,
            std::uint64_t offset, std::uint64_t length,
            const std::string& message) {
    std::uint64_t& n = report_.counts[kind];
    n += 1;
    if (n > options_.max_diagnostics_per_kind) return;
    Diagnostic d;
    d.severity = severity_of(kind);
    d.kind = kind;
    d.path = path;
    d.phase = phase_;
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    d.ranks = std::move(ranks);
    d.offset = offset;
    d.length = length;
    d.message = message;
    report_.diagnostics.push_back(std::move(d));
  }

  void step(const trace::IoEvent& e) {
    switch (e.op) {
      case trace::IoOp::kOpen: return step_open(e);
      case trace::IoOp::kClose: return step_close(e);
      case trace::IoOp::kRead:
      case trace::IoOp::kWrite: return step_data(e);
    }
  }

  void step_open(const trace::IoEvent& e) {
    if (e.fd >= 0) {
      FdState st;
      st.path = e.path;
      st.writable = e.mode != pfs::OpenMode::kRead;
      st.open_rank = e.rank;
      fds_[e.fd] = st;
    }
    if (e.mode == pfs::OpenMode::kCreate) {
      FileState& f = files_[e.path];
      f.created = true;
      // Truncation starts a new file generation.
      f.written.clear();
      f.owners.clear();
    }
  }

  void step_close(const trace::IoEvent& e) {
    if (e.fd < 0) return;
    auto it = fds_.find(e.fd);
    if (it == fds_.end()) {
      // Descriptor opened before tracing started: record it closed so a
      // later use is still flagged, but the close itself is legitimate.
      FdState& st = fds_[e.fd];
      st.path = e.path;
      st.open_rank = e.rank;
      st.implicit = true;
      st.closed = true;
      return;
    }
    if (it->second.closed) {
      emit(Kind::kDoubleClose, e.path, {e.rank}, 0, 0,
           "close of fd " + std::to_string(e.fd) +
               " that was already closed");
      return;
    }
    it->second.closed = true;
  }

  void step_data(const trace::IoEvent& e) {
    report_.data_requests += 1;
    check_fd(e);
    check_alignment(e);
    if (e.bytes == 0) return;
    FileState& f = files_[e.path];
    if (e.is_write) {
      check_conflict(f, e);
      interval_insert(f.written, e.offset, e.offset + e.bytes);
    } else if (f.created) {
      std::uint64_t glo = 0, ghi = 0;
      if (first_uncovered(f.written, e.offset, e.offset + e.bytes, &glo,
                          &ghi)) {
        emit(Kind::kReadBeforeWrite, e.path, {e.rank}, glo, ghi - glo,
             "read touches bytes never written since the file was created "
             "(restart would consume zero-fill)");
      }
    }
  }

  void check_fd(const trace::IoEvent& e) {
    if (e.fd < 0) return;  // hand-built trace without descriptors
    auto it = fds_.find(e.fd);
    if (it == fds_.end()) {
      // First use of a descriptor opened before tracing started: adopt it
      // with unknown (assumed-writable) mode rather than crying wolf.
      FdState& st = fds_[e.fd];
      st.path = e.path;
      st.writable = true;
      st.open_rank = e.rank;
      st.implicit = true;
      return;
    }
    if (it->second.closed) {
      emit(Kind::kUnknownFd, e.path, {e.rank}, e.offset, e.bytes,
           "data request on fd " + std::to_string(e.fd) + " after close");
      return;
    }
    if (e.is_write && !it->second.writable) {
      emit(Kind::kWriteReadOnly, e.path, {e.rank}, e.offset, e.bytes,
           "write through read-only fd " + std::to_string(e.fd));
    }
  }

  void check_alignment(const trace::IoEvent& e) {
    std::uint64_t stripe = options_.stripe_size;
    if (stripe == 0 || e.bytes == 0) return;
    if (e.bytes < stripe) {
      emit(Kind::kSmallRequest, e.path, {e.rank}, e.offset, e.bytes,
           "request smaller than the " + std::to_string(stripe) +
               "-byte stripe unit pays full per-request server cost");
    }
    std::uint64_t first_stripe = e.offset / stripe;
    std::uint64_t last_stripe = (e.offset + e.bytes - 1) / stripe;
    if (e.offset % stripe != 0 && last_stripe > first_stripe) {
      emit(Kind::kUnalignedRequest, e.path, {e.rank}, e.offset, e.bytes,
           "unaligned request straddles a stripe boundary (touches " +
               std::to_string(last_stripe - first_stripe + 1) +
               " stripes, read-modify-write on the edges)");
    }
  }

  void check_conflict(FileState& f, const trace::IoEvent& e) {
    std::uint64_t lo = e.offset, hi = e.offset + e.bytes;
    Ownership& own = f.owners;
    // Report overlaps with ranges another rank wrote this phase, then make
    // this rank the owner of [lo, hi) (last writer wins), preserving the
    // non-overlapped remainders of older entries.
    std::vector<std::pair<std::uint64_t, std::pair<std::uint64_t, int>>>
        remainders;
    auto it = own.upper_bound(lo);
    if (it != own.begin()) --it;
    while (it != own.end() && it->first < hi) {
      std::uint64_t olo = it->first, ohi = it->second.first;
      int orank = it->second.second;
      if (ohi <= lo) {
        ++it;
        continue;
      }
      if (orank != e.rank) {
        std::uint64_t clo = std::max(lo, olo), chi = std::min(hi, ohi);
        emit(Kind::kWriteConflict, e.path, {orank, e.rank}, clo, chi - clo,
             "ranks " + std::to_string(orank) + " and " +
                 std::to_string(e.rank) +
                 " both wrote this range in the same phase (unordered "
                 "overlapping writes: final bytes depend on timing)");
      }
      if (olo < lo) remainders.push_back({olo, {lo, orank}});
      if (ohi > hi) remainders.push_back({hi, {ohi, orank}});
      it = own.erase(it);
    }
    for (const auto& r : remainders) own[r.first] = r.second;
    // Merge with an adjacent/overlapping same-rank neighbour on the left so
    // sequential writers keep a single entry.
    auto left = own.lower_bound(lo);
    if (left != own.begin()) {
      auto prev = std::prev(left);
      if (prev->second.second == e.rank && prev->second.first >= lo) {
        lo = prev->first;
        hi = std::max(hi, prev->second.first);
        own.erase(prev);
      }
    }
    own[lo] = {hi, e.rank};
  }

  void finish() {
    // Descriptor leaks (implicit fds predate the trace; their lifetime is
    // not ours to judge).
    for (const auto& [fd, st] : fds_) {
      if (st.closed || st.implicit) continue;
      emit(Kind::kFdLeak, st.path, {st.open_rank}, 0, 0,
           "fd " + std::to_string(fd) + " still open at end of trace");
    }
    // Holes: compare each created file's written union against its final
    // extent.  The store (when given) supplies the authoritative extent so a
    // file longer than its furthest traced write — e.g. truncated metadata —
    // is caught too.
    for (const auto& [path, f] : files_) {
      if (!f.created) continue;  // pre-existing contents unknown
      if (store_ != nullptr && !store_->exists(path)) continue;  // removed
      std::uint64_t extent = 0;
      if (!f.written.empty()) extent = std::prev(f.written.end())->second;
      if (store_ != nullptr) extent = store_->size(path);
      std::uint64_t pos = 0;
      for (const auto& [lo, hi] : f.written) {
        if (lo > pos && pos < extent) {
          std::uint64_t ghi = std::min(lo, extent);
          // Self-describing formats leave deliberate unwritten padding
          // between header and aligned data regions (netCDF
          // data_alignment); a short gap ending on an 8-byte boundary is a
          // padding lint, not a torn checkpoint.
          bool padding = options_.padding_alignment > 0 &&
                         ghi - pos < options_.padding_alignment &&
                         ghi % 8 == 0;
          if (padding) {
            emit(Kind::kPaddingGap, path, {}, pos, ghi - pos,
                 "unwritten aligned gap (format padding between header and "
                 "data regions)");
          } else {
            emit(Kind::kHole, path, {}, pos, ghi - pos,
                 "no write ever covered this range inside the file's extent "
                 "(incomplete checkpoint)");
          }
        }
        pos = std::max(pos, hi);
      }
      if (pos < extent) {
        emit(Kind::kHole, path, {}, pos, extent - pos,
             "file extends past the furthest traced write "
             "(truncated/short dump)");
      }
    }
  }

  CheckOptions options_;
  const stor::ObjectStore* store_;
  CheckReport report_;
  std::string phase_;
  std::map<std::string, FileState> files_;
  std::map<int, FdState> fds_;
};

}  // namespace

CheckReport analyze_trace(std::span<const trace::IoEvent> events,
                          const CheckOptions& options,
                          const stor::ObjectStore* store,
                          std::span<const trace::PhaseMark> phases) {
  return Analyzer(options, store).run(events, phases);
}

CheckReport analyze_trace(const trace::IoTracer& tracer,
                          const CheckOptions& options,
                          const stor::ObjectStore* store) {
  return analyze_trace(tracer.events(), options, store, tracer.phases());
}

}  // namespace paramrio::check

#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace paramrio::obs {

const PhaseStats* Report::phase(const std::string& name) const {
  for (const PhaseStats& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::uint64_t Report::counter_sum(const std::string& prefix,
                                  const std::string& counter) const {
  std::uint64_t sum = 0;
  for (const PhaseStats& p : phases) {
    if (p.name.compare(0, prefix.size(), prefix) != 0) continue;
    auto it = p.counters.find(counter);
    if (it != p.counters.end()) sum += it->second;
  }
  return sum;
}

double Report::time_sum(const std::string& prefix) const {
  double sum = 0.0;
  for (const PhaseStats& p : phases) {
    if (p.name.compare(0, prefix.size(), prefix) == 0) sum += p.total_time;
  }
  return sum;
}

Report build_report(const Collector& c, int min_depth, int max_depth) {
  Report r;

  std::map<std::string, PhaseStats> phases;
  // Per-phase, per-rank inclusive totals, to compute max_time.
  std::map<std::string, std::map<int, double>> rank_time;
  std::map<int, RankBreakdown> ranks;

  for (const SpanRecord& s : c.spans()) {
    // Async (in-flight) spans overlap the rank's own time; they are not
    // part of its wall total.
    if (s.depth == 0 && !s.async) {
      RankBreakdown& rb = ranks[s.rank];
      rb.rank = s.rank;
      rb.total_time += s.duration();
      rb.cpu_time += s.cpu_dt;
      rb.comm_time += s.comm_dt;
      rb.io_time += s.io_dt;
    }
    if (s.depth < min_depth || s.depth > max_depth) continue;
    PhaseStats& p = phases[s.name];
    if (p.calls == 0) {
      p.name = s.name;
      p.category = s.category;
    }
    p.calls += 1;
    p.total_time += s.duration();
    p.cpu_time += s.cpu_dt;
    p.comm_time += s.comm_dt;
    p.io_time += s.io_dt;
    for (const auto& [name, value] : s.counters) p.counters[name] += value;
    rank_time[s.name][s.rank] += s.duration();
  }

  for (auto& [name, p] : phases) {
    for (const auto& [rank, t] : rank_time[name]) {
      p.max_time = std::max(p.max_time, t);
    }
    r.phases.push_back(std::move(p));
  }
  for (auto& [rank, rb] : ranks) r.ranks.push_back(rb);
  return r;
}

namespace {

std::string fmt_time(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%10.4f", seconds);
  return buf;
}

std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

void write_report(const Report& r, std::ostream& os) {
  os << "== per-rank time decomposition (top-level spans) ==\n";
  os << "  rank      total        cpu       comm         io    io-frac\n";
  double tot = 0.0, cpu = 0.0, comm = 0.0, io = 0.0;
  for (const RankBreakdown& rb : r.ranks) {
    char head[16];
    std::snprintf(head, sizeof head, "  %4d", rb.rank);
    os << head << fmt_time(rb.total_time) << " " << fmt_time(rb.cpu_time)
       << " " << fmt_time(rb.comm_time) << " " << fmt_time(rb.io_time)
       << "    " << fmt_pct(rb.io_fraction()) << "\n";
    tot += rb.total_time;
    cpu += rb.cpu_time;
    comm += rb.comm_time;
    io += rb.io_time;
  }
  if (!r.ranks.empty()) {
    os << "   all" << fmt_time(tot) << " " << fmt_time(cpu) << " "
       << fmt_time(comm) << " " << fmt_time(io) << "    "
       << fmt_pct(tot > 0.0 ? io / tot : 0.0) << "\n";
  }

  os << "\n== phase breakdown ==\n";
  os << "  phase                         calls      total        cpu"
     << "       comm         io\n";
  for (const PhaseStats& p : r.phases) {
    char head[48];
    std::snprintf(head, sizeof head, "  %-28s %6llu", p.name.c_str(),
                  static_cast<unsigned long long>(p.calls));
    os << head << " " << fmt_time(p.total_time) << " " << fmt_time(p.cpu_time)
       << " " << fmt_time(p.comm_time) << " " << fmt_time(p.io_time) << "\n";
    for (const auto& [name, value] : p.counters) {
      os << "      " << name << " = " << value << "\n";
    }
  }
}

std::string report_text(const Report& r) {
  std::ostringstream os;
  write_report(r, os);
  return os.str();
}

}  // namespace paramrio::obs

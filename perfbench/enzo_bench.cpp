// ENZO checkpoint and query benchmark: one workload per process.
//
//   enzo_bench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//              [--passes <k>]
//
// Workloads (all AMR64; pass p of a run simulates the universe with
// SimulationConfig::seed = universe_seed(--seed, p)):
//   ckpt_mpiio_gpfs_p128  SP-2/GPFS, 128 ranks, MPI-IO backend: a closed loop
//                         of generations (evolve, dump under a fresh name,
//                         cold restart, verify).
//   ckpt_hdf4_gpfs_p128   the same loop with the serial HDF4 backend (rank 0
//                         gathers and writes); never enters mpi::io.
//   query_pvfs_r32        Chiba PVFS/Ethernet: one HDF5-layout generation is
//                         committed through CheckpointSeries, then 32 reader
//                         ranks issue seeded query streams in a closed loop.
//
// Every run uses the fiber engine, so all ranks share one OS thread.  Host
// time is taken at phase boundaries: every rank calls Phases::mark(), and the
// last rank to arrive — while every other rank is parked in the barrier —
// reads the host clock (process CPU time, see host_now) and snapshots the
// shared counters.  Output checks
// (restart digests, oracle-compared query answers) run between marks, outside
// every timed interval.
//
// A run makes several passes (per workload; --passes overrides), each on its
// own universe: a setup (Testbed construction through the warm-up, the
// setup_s sample) and then a timed closed loop of at least CkptWorkload::gens
// generations or kQueryVirtualRounds rounds that lasts --seconds / passes.
// Virtual metrics come from that fixed number of iterations per pass, so they
// do not depend on host speed; host metrics come from every iteration.
// Spreading a run over several universes keeps the run-to-run spread of the
// metrics down: dump and restart costs follow the universe's subgrid count.
//
// With --trace 1 an obs::Collector is attached in detail mode for the timed
// loop, which then runs exactly the fixed number of iterations; the per-layer
// numbers (span self-times, blame fractions, mpi-io file stats) are read from
// it.
//
// The last line of stdout is one JSON object with every metric, its unit,
// clock and sample count (perfbench/run.py turns it into the final report).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/dump_common.hpp"
#include "enzo/simulation.hpp"
#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "platform/machine.hpp"
#include "query/service.hpp"
#include "stats.hpp"

using namespace paramrio;
using perfbench::Digest;

namespace {

/// Host clock: CPU seconds of this process.  The fiber engine runs every
/// rank on one thread, so on an idle machine this equals elapsed time; unlike
/// elapsed time it leaves out time the machine gave to other processes.
double host_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int passes = 0;  ///< 0: the workload's own count
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--passes") {
      o.passes = std::max(1, std::stoi(v));
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  return o;
}

// ---- result ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "host", "virtual" or "count"
  std::size_t samples = 0;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, bool> stress;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

std::string json_metrics(const std::map<std::string, Metric>& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, x] : m) {
    if (!first) os << ", ";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x.value);
    os << "\"" << name << "\": {\"value\": " << buf << ", \"unit\": \""
       << x.unit << "\", \"clock\": \"" << x.clock
       << "\", \"samples\": " << x.samples << "}";
  }
  os << "}";
  return os.str();
}

// ---- phase boundaries -----------------------------------------------------

/// Shared counters at one phase boundary.
struct Snapshot {
  double host = 0.0;  ///< host clock when the last rank arrived
  double vt = 0.0;    ///< rank 0's virtual clock after the barrier
  std::vector<sim::ProcStats> procs;
  net::NetworkCounters net;
  std::vector<std::uint64_t> server_bytes;
  std::vector<std::uint64_t> server_requests;
  std::uint64_t fs_cache_hit_bytes = 0;
};

/// What happened between two snapshots.
struct Delta {
  double host = 0.0;
  double vt = 0.0;
  double cpu_sum = 0.0, cpu_max = 0.0;
  double comm_sum = 0.0, comm_max = 0.0;
  double io_sum = 0.0, io_max = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t io_requests = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  net::NetworkCounters net;
  std::vector<std::uint64_t> server_bytes;
  std::vector<std::uint64_t> server_requests;
  std::uint64_t fs_cache_hit_bytes = 0;
};

Delta operator-(const Snapshot& b, const Snapshot& a) {
  Delta d;
  d.host = b.host - a.host;
  d.vt = b.vt - a.vt;
  for (std::size_t r = 0; r < b.procs.size(); ++r) {
    const sim::ProcStats& x = b.procs[r];
    const sim::ProcStats& y = a.procs[r];
    const double cpu = x.cpu_time - y.cpu_time;
    const double comm = x.comm_time - y.comm_time;
    const double io = x.io_time - y.io_time;
    d.cpu_sum += cpu;
    d.comm_sum += comm;
    d.io_sum += io;
    d.cpu_max = std::max(d.cpu_max, cpu);
    d.comm_max = std::max(d.comm_max, comm);
    d.io_max = std::max(d.io_max, io);
    d.messages += x.messages_sent - y.messages_sent;
    d.io_requests += x.io_requests - y.io_requests;
    d.bytes_read += x.io_bytes_read - y.io_bytes_read;
    d.bytes_written += x.io_bytes_written - y.io_bytes_written;
  }
  d.net.messages = b.net.messages - a.net.messages;
  d.net.bytes = b.net.bytes - a.net.bytes;
  d.net.wire_transfers = b.net.wire_transfers - a.net.wire_transfers;
  d.net.wire_bytes = b.net.wire_bytes - a.net.wire_bytes;
  for (std::size_t s = 0; s < b.server_bytes.size(); ++s) {
    d.server_bytes.push_back(b.server_bytes[s] - a.server_bytes[s]);
    d.server_requests.push_back(b.server_requests[s] - a.server_requests[s]);
  }
  d.fs_cache_hit_bytes = b.fs_cache_hit_bytes - a.fs_cache_hit_bytes;
  return d;
}

class Phases {
 public:
  Phases(platform::Testbed& tb, int nprocs)
      : tb_(tb), nprocs_(nprocs), procs_(static_cast<std::size_t>(nprocs)) {
    striped_ = dynamic_cast<pfs::StripedFs*>(&tb.fs());
  }

  /// Collective.  Snapshots the shared counters once every rank has
  /// arrived, runs `at_last` (host-only work: no rank is running), then
  /// barriers.  Returns the snapshot on rank 0, an empty one elsewhere.
  Snapshot mark(mpi::Comm& c, const std::function<void()>& at_last = {}) {
    procs_[static_cast<std::size_t>(c.rank())] = c.proc().stats();
    if (++arrived_ == nprocs_) {
      arrived_ = 0;
      take();
      if (at_last) at_last();
    }
    c.barrier();
    if (c.rank() != 0) return {};
    snap_.vt = c.proc().now();
    return snap_;
  }

  int io_servers() const {
    return striped_ != nullptr ? striped_->params().n_io_nodes : 0;
  }

 private:
  void take() {
    snap_.host = host_now();
    snap_.procs = procs_;
    snap_.net = tb_.runtime().network().counters();
    snap_.fs_cache_hit_bytes = tb_.fs().cache_hits();
    snap_.server_bytes.clear();
    snap_.server_requests.clear();
    for (int s = 0; s < io_servers(); ++s) {
      snap_.server_bytes.push_back(striped_->io_node(s).bytes_moved());
      snap_.server_requests.push_back(striped_->io_node(s).requests());
    }
  }

  platform::Testbed& tb_;
  pfs::StripedFs* striped_ = nullptr;
  int nprocs_;
  int arrived_ = 0;
  std::vector<sim::ProcStats> procs_;
  Snapshot snap_;
};

/// Per-rank slots written by each rank and read by whichever rank closes
/// the next phase (the fiber engine runs one rank at a time).
template <typename T>
struct Slots {
  explicit Slots(int n) : v(static_cast<std::size_t>(n)) {}
  T& operator[](int r) { return v[static_cast<std::size_t>(r)]; }
  std::vector<T> v;
};

Digest total(const Slots<Digest>& s) {
  Digest d;
  for (const Digest& x : s.v) d += x;
  return d;
}

/// All ranks must run on one OS thread (the fiber engine).
struct ThreadCheck {
  explicit ThreadCheck(int n) : ids(n) {}
  void note(int rank) { ids[rank] = std::this_thread::get_id(); }
  bool single() const {
    for (const auto& id : ids.v) {
      if (id != ids.v.front()) return false;
    }
    return true;
  }
  Slots<std::thread::id> ids;
};

/// Detaches the collector on every exit path.
struct CollectorGuard {
  ~CollectorGuard() { detach(); }
  void attach(obs::Collector* c) {
    obs::attach(c);
    attached = true;
  }
  void detach() {
    if (attached) obs::detach();
    attached = false;
  }
  bool attached = false;
};

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// The universe of pass `pass` of a run with seed `seed`.
std::uint64_t universe_seed(std::uint64_t seed, int pass) {
  return perfbench::mix(seed * 64 + static_cast<std::uint64_t>(pass));
}

enzo::SimulationConfig amr64(std::uint64_t universe) {
  enzo::SimulationConfig cfg =
      enzo::SimulationConfig::for_size(enzo::ProblemSize::kAmr64);
  cfg.seed = universe;
  return cfg;
}

/// Application payload of one dump: root fields, particles, subgrid fields.
std::uint64_t payload_bytes(const enzo::SimulationState& s,
                            std::uint64_t n_particles) {
  std::uint64_t bytes = static_cast<std::uint64_t>(amr::kNumBaryonFields) *
                        s.config.root_cells() * sizeof(float);
  bytes += enzo::particle_payload_bytes(n_particles);
  for (const auto& g : s.hierarchy.grids()) {
    if (g.level > 0) {
      bytes += static_cast<std::uint64_t>(amr::kNumBaryonFields) *
               g.cell_count() * sizeof(float);
    }
  }
  return bytes;
}

// ---- per-layer helpers ----------------------------------------------------

void put(std::map<std::string, Metric>& m, const std::string& name,
         double value, const std::string& unit, const std::string& clock,
         std::size_t samples) {
  m[name] = Metric{value, unit, clock, samples};
}

/// Per-layer numbers read from the collector after a traced timed loop of
/// `iters` iterations.
void collector_layers(const obs::Collector& col, double iters, Result& out) {
  const auto times = perfbench::span_times(col.spans());
  const char* spans[] = {
      "two_phase.pattern_exchange", "two_phase.exchange", "two_phase.comm",
      "two_phase.io", "net.send", "net.recv", "hdf4.gather", "query.plan",
      "query.cache", "query.io"};
  for (const char* name : spans) {
    const auto it = times.find(name);
    const perfbench::SpanTimes t =
        it == times.end() ? perfbench::SpanTimes{} : it->second;
    const std::string prefix = std::string("span.") + name;
    put(out.layer, prefix + ".self_vs", t.self / iters, "s", "virtual",
        static_cast<std::size_t>(iters));
    put(out.layer, prefix + ".total_vs", t.total / iters, "s", "virtual",
        static_cast<std::size_t>(iters));
  }

  std::uint64_t collective = 0, windows = 0, straddle = 0;
  for (const auto& [scope, s] : col.registry().scopes()) {
    if (scope.rfind("file:", 0) != 0) continue;
    auto get = [&](const char* k) {
      const auto it = s.counters.find(k);
      return it == s.counters.end() ? std::uint64_t{0} : it->second;
    };
    collective += get("collective_ops");
    windows += get("two_phase_windows");
    straddle += get("cb_straddle_windows");
  }
  const auto n = static_cast<std::size_t>(iters);
  put(out.layer, "mpi.io.collective_ops", static_cast<double>(collective) / iters,
      "count", "count", n);
  put(out.layer, "mpi.io.two_phase_windows",
      static_cast<double>(windows) / iters, "count", "count", n);
  put(out.layer, "mpi.io.cb_straddle_windows",
      static_cast<double>(straddle) / iters, "count", "count", n);

  const std::pair<const char*, const char*> roots[] = {
      {"dump", "dump"}, {"restart_read", "restart"}};
  for (const auto& [root, label] : roots) {
    const obs::BlameReport b = obs::build_blame(col, root);
    double sum = 0.0;
    for (double x : b.blame) sum += x;
    for (int k = 0; k < obs::kBlameCategories; ++k) {
      const double frac = sum > 0.0 ? b.blame[static_cast<std::size_t>(k)] / sum
                                    : 0.0;
      std::string cat = obs::to_string(static_cast<obs::BlameCategory>(k));
      std::replace(cat.begin(), cat.end(), '.', '_');
      put(out.layer, std::string("blame.") + label + "." + cat + "_frac", frac,
          "ratio", "virtual", static_cast<std::size_t>(b.nranks));
    }
  }
}

/// Layer metrics of the I/O path from phase deltas, at most one write and
/// one read per iteration (ckpt: the dump and the restart; query: no write,
/// the serving round is the read).
void io_path_layers(const std::vector<Delta>& writes,
                    const std::vector<Delta>& reads, double payload_per_iter,
                    Result& out) {
  const std::size_t n = std::max(writes.size(), reads.size());
  auto avg = [&](const std::vector<Delta>& v, auto field) {
    std::vector<double> xs;
    for (const Delta& d : v) xs.push_back(static_cast<double>(field(d)));
    return perfbench::mean(xs);
  };
  const std::pair<const char*, const std::vector<Delta>*> phases[] = {
      {"write", &writes}, {"read", &reads}};
  for (const auto& [label, v] : phases) {
    const std::string p = label;
    const std::size_t k = v->size();
    put(out.layer, "sim.cpu_vs." + p + "_sum",
        avg(*v, [](const Delta& d) { return d.cpu_sum; }), "s", "virtual", k);
    put(out.layer, "sim.cpu_vs." + p + "_max",
        avg(*v, [](const Delta& d) { return d.cpu_max; }), "s", "virtual", k);
    put(out.layer, "sim.comm_vs." + p + "_sum",
        avg(*v, [](const Delta& d) { return d.comm_sum; }), "s", "virtual", k);
    put(out.layer, "sim.comm_vs." + p + "_max",
        avg(*v, [](const Delta& d) { return d.comm_max; }), "s", "virtual", k);
    put(out.layer, "sim.io_vs." + p + "_sum",
        avg(*v, [](const Delta& d) { return d.io_sum; }), "s", "virtual", k);
    put(out.layer, "sim.io_vs." + p + "_max",
        avg(*v, [](const Delta& d) { return d.io_max; }), "s", "virtual", k);
  }

  std::vector<Delta> both = writes;
  both.insert(both.end(), reads.begin(), reads.end());
  const double iters = static_cast<double>(std::max<std::size_t>(n, 1));
  auto sum = [&](auto field) {
    double s = 0.0;
    for (const Delta& d : both) s += static_cast<double>(field(d));
    return s;
  };
  const double host = sum([](const Delta& d) { return d.host; });
  const double msgs = sum([](const Delta& d) { return d.net.messages; });
  const double reqs = sum([](const Delta& d) { return d.io_requests; });
  put(out.layer, "sim.host_us_per_msg", msgs > 0 ? 1e6 * host / msgs : 0.0,
      "us", "host", n);
  put(out.layer, "sim.host_us_per_io_req", reqs > 0 ? 1e6 * host / reqs : 0.0,
      "us", "host", n);
  put(out.layer, "net.messages", msgs / iters, "count", "count", n);
  put(out.layer, "net.bytes",
      sum([](const Delta& d) { return d.net.bytes; }) / iters, "B", "count", n);
  put(out.layer, "net.wire_bytes",
      sum([](const Delta& d) { return d.net.wire_bytes; }) / iters, "B",
      "count", n);
  put(out.layer, "pfs.requests", reqs / iters, "count", "count", n);
  const double written =
      sum([](const Delta& d) { return d.bytes_written; }) / iters;
  const double read = sum([](const Delta& d) { return d.bytes_read; }) / iters;
  put(out.layer, "pfs.bytes_written", written, "B", "count", n);
  put(out.layer, "pfs.bytes_read", read, "B", "count", n);
  put(out.layer, "pfs.cache_hit_bytes",
      sum([](const Delta& d) { return d.fs_cache_hit_bytes; }) / iters, "B",
      "count", n);
  put(out.layer, "pfs.useful_ratio",
      written + read > 0 ? payload_per_iter / (written + read) : 0.0, "ratio",
      "count", n);

  std::vector<double> sb, sr;
  for (const Delta& d : both) {
    sb.resize(std::max(sb.size(), d.server_bytes.size()));
    sr.resize(sb.size());
    for (std::size_t s = 0; s < d.server_bytes.size(); ++s) {
      sb[s] += static_cast<double>(d.server_bytes[s]) / iters;
      sr[s] += static_cast<double>(d.server_requests[s]) / iters;
    }
  }
  for (std::size_t s = 0; s < sb.size(); ++s) {
    put(out.layer, "pfs.server" + std::to_string(s) + ".bytes", sb[s], "B",
        "count", n);
    put(out.layer, "pfs.server" + std::to_string(s) + ".requests", sr[s],
        "count", "count", n);
  }
  auto imbalance = [](const std::vector<double>& v) {
    const double m = perfbench::mean(v);
    return m > 0 ? *std::max_element(v.begin(), v.end()) / m : 0.0;
  };
  put(out.layer, "pfs.server_bytes_imbalance", sb.empty() ? 0.0 : imbalance(sb),
      "ratio", "count", n);
  put(out.layer, "pfs.server_requests_imbalance",
      sr.empty() ? 0.0 : imbalance(sr), "ratio", "count", n);
}

/// Host-clock setup metrics shared by every workload.
struct SetupTimes {
  std::vector<double> setup, testbed, init;
};

void put_setup(const SetupTimes& s, Result& out) {
  put(out.e2e, "setup_s", perfbench::median(s.setup), "s", "host",
      s.setup.size());
  put(out.layer, "platform.testbed_host_s", perfbench::median(s.testbed), "s",
      "host", s.testbed.size());
  put(out.layer, "enzo.init_host_s", perfbench::median(s.init), "s", "host",
      s.init.size());
}

/// The per-iteration end-to-end metrics, each the mean over passes of the
/// pass's median, except read_p99_vs: the tail needs every pass's samples
/// pooled (1000 of them for a p99).
void put_per_iteration(const perfbench::PerPass& cycle,
                       const perfbench::PerPass& dump_h,
                       const perfbench::PerPass& restart_h,
                       const perfbench::PerPass& dump_v,
                       const perfbench::PerPass& restart_v,
                       const perfbench::PerPass& read_latency,
                       const perfbench::PerPass& read_mbps, Result& out) {
  auto e2e = [&](const char* name, const perfbench::PerPass& x,
                 const char* unit, const char* clock) {
    put(out.e2e, name, x.mean_of_medians(), unit, clock, x.samples());
  };
  e2e("cycle_host_s", cycle, "s", "host");
  e2e("dump_host_s", dump_h, "s", "host");
  e2e("restart_host_s", restart_h, "s", "host");
  e2e("dump_write_vs", dump_v, "s", "virtual");
  e2e("restart_read_vs", restart_v, "s", "virtual");
  e2e("read_p50_vs", read_latency, "s", "virtual");
  e2e("read_agg_MBps", read_mbps, "MB/s", "virtual");
  const std::vector<double> lat = read_latency.pooled();
  const double tail = perfbench::tail_percentile(lat.size());
  put(out.e2e, "read_p99_vs", perfbench::quantile(lat, tail / 100.0), "s",
      "virtual", lat.size());
  put(out.layer, "bench.read_tail_percentile", tail, "pct", "count",
      lat.size());
}

// ---- checkpoint workloads -------------------------------------------------

enum class CkptBackend { kMpiIo, kHdf4 };

struct CkptWorkload {
  platform::Machine machine;
  int nprocs = 128;
  CkptBackend backend = CkptBackend::kMpiIo;
  /// Passes per run and timed generations per pass whose virtual metrics
  /// are reported.  passes x gens x 128 restart latencies give the p99 its
  /// 1000 samples.  MPI-IO generations cost ~3 s of host time and vary
  /// little between universes; HDF4 ones cost ~0.6 s and vary more.
  int passes = 3;
  int gens = 3;
};

struct GenRecord {
  int pass = 0;
  bool counted = false;  ///< among the first `gens` of its pass
  Delta evolve, dump, restart;
  std::vector<double> restart_latency;  ///< per rank, virtual s
  std::uint64_t payload = 0;
  std::uint64_t grids = 0;
};

void run_ckpt(const Options& o, const CkptWorkload& w, Result& out) {
  const int P = w.nprocs;
  SetupTimes setup;
  std::vector<GenRecord> gens;
  obs::Collector collector;
  collector.set_detail(true);
  CollectorGuard guard;

  const int passes = o.passes > 0 ? o.passes : w.passes;
  for (int pass = 0; pass < passes; ++pass) {
    const enzo::SimulationConfig cfg = amr64(universe_seed(o.seed, pass));
    const double t_setup = host_now();
    platform::Testbed tb(w.machine, P, 0, sim::SchedBackend::kFibers);
    setup.testbed.push_back(host_now() - t_setup);
    Phases ph(tb, P);
    ThreadCheck threads(P);
    Slots<Digest> before(P), after(P);
    Slots<double> latency(P);
    Slots<std::uint64_t> particles(P);
    bool stop = false;
    double t_loop = 0.0;
    int done = 0;  // timed generations of this pass

    tb.runtime().run([&](mpi::Comm& c) {
      const int r = c.rank();
      threads.note(r);
      std::unique_ptr<enzo::IoBackend> be;
      if (w.backend == CkptBackend::kMpiIo) {
        be = std::make_unique<enzo::MpiIoBackend>(tb.fs(), mpi::io::Hints{});
      } else {
        be = std::make_unique<enzo::Hdf4SerialBackend>(tb.fs());
      }
      enzo::EnzoSimulation sim(c, cfg);
      const Snapshot s0 = ph.mark(c);
      sim.initialize_from_universe();
      const Snapshot s1 = ph.mark(c);
      if (r == 0) setup.init.push_back(s1.host - s0.host);
      sim.evolve_cycle();

      // One generation: evolve, dump under a fresh name, cold restart into
      // a fresh state, verify.  Returns the record on rank 0.
      auto generation = [&](int g, bool timed) {
        GenRecord rec;
        const std::string base = "ckpt_" + std::to_string(1000000 + g);
        const Snapshot a = ph.mark(c);
        sim.evolve_cycle();
        const Snapshot b = ph.mark(c);
        before[r] = perfbench::digest(sim.state(), r);
        particles[r] = sim.state().my_particles.size();
        const Snapshot d0 = ph.mark(c);
        {
          OBS_SPAN("dump", sim::TimeCategory::kIo);
          be->write_dump(c, sim.state(), base);
        }
        const Snapshot d1 = ph.mark(c, [&] { tb.fs().drop_caches(); });
        std::optional<enzo::EnzoSimulation> fresh(std::in_place, c, cfg);
        const Snapshot r0 = ph.mark(c);
        const double t0 = c.proc().now();
        {
          OBS_SPAN("restart_read", sim::TimeCategory::kIo);
          be->read_restart(c, fresh->state(), base);
        }
        latency[r] = c.proc().now() - t0;
        const Snapshot r1 = ph.mark(c);
        after[r] = perfbench::digest(fresh->state(), r);
        fresh.reset();
        ph.mark(c, [&] {
          ++out.attempted;
          if (!(total(before) == total(after))) {
            out.fail("generation " + std::to_string(g) +
                     ": restarted state differs from the dumped state");
          }
          for (const std::string& f : tb.fs().store().list()) {
            if (f.rfind(base, 0) == 0) tb.fs().remove(f);
          }
          if (timed) {
            ++done;
            stop = done >= w.gens &&
                   (o.trace || host_now() - t_loop >= o.seconds / passes);
          }
        });
        if (r == 0) {
          rec.pass = pass;
          rec.counted = done <= w.gens;
          rec.evolve = b - a;
          rec.dump = d1 - d0;
          rec.restart = r1 - r0;
          rec.restart_latency = latency.v;
          std::uint64_t n = 0;
          for (std::uint64_t x : particles.v) n += x;
          rec.payload = payload_bytes(sim.state(), n);
          rec.grids = sim.state().hierarchy.grid_count();
        }
        return rec;
      };

      generation(0, false);  // warm-up: counted in setup_s
      ph.mark(c, [&] {
        setup.setup.push_back(host_now() - t_setup);
        if (o.trace) guard.attach(&collector);
        t_loop = host_now();
      });
      for (int g = 1; !stop; ++g) {
        GenRecord rec = generation(g, true);
        if (r == 0) gens.push_back(std::move(rec));
      }
    });
    if (!threads.single()) throw std::runtime_error("ranks ran on >1 thread");
  }
  guard.detach();

  // ---- end-to-end ----
  put_setup(setup, out);
  perfbench::PerPass cycle, dump_h, restart_h, dump_v, restart_v, lat, mbps;
  for (const GenRecord& g : gens) {
    cycle.add(g.pass, g.evolve.host + g.dump.host + g.restart.host);
    dump_h.add(g.pass, g.dump.host);
    restart_h.add(g.pass, g.restart.host);
    if (g.counted) {
      dump_v.add(g.pass, g.dump.vt);
      restart_v.add(g.pass, g.restart.vt);
      for (double x : g.restart_latency) lat.add(g.pass, x);
      mbps.add(g.pass, static_cast<double>(g.payload) / 1e6 / g.restart.vt);
    }
  }
  put_per_iteration(cycle, dump_h, restart_h, dump_v, restart_v, lat, mbps,
                    out);

  // ---- per-layer ----
  perfbench::PerPass evolve_h;
  std::vector<double> grids, payloads;
  std::vector<Delta> writes, reads;
  for (const GenRecord& g : gens) {
    evolve_h.add(g.pass, g.evolve.host);
    if (g.counted) {
      grids.push_back(static_cast<double>(g.grids));
      payloads.push_back(static_cast<double>(g.payload));
      writes.push_back(g.dump);
      reads.push_back(g.restart);
    }
  }
  put(out.layer, "enzo.evolve_host_s", evolve_h.mean_of_medians(), "s",
      "host", evolve_h.samples());
  put(out.layer, "enzo.write_dump_host_s", dump_h.mean_of_medians(), "s",
      "host", dump_h.samples());
  put(out.layer, "enzo.read_restart_host_s", restart_h.mean_of_medians(),
      "s", "host", restart_h.samples());
  put(out.layer, "enzo.grids", perfbench::mean(grids), "count", "count",
      grids.size());
  put(out.layer, "enzo.payload_bytes", perfbench::mean(payloads), "B",
      "count", payloads.size());
  io_path_layers(writes, reads, 2.0 * perfbench::mean(payloads), out);
  if (o.trace) {
    collector_layers(collector, static_cast<double>(gens.size()), out);
    const double io_share =
        (dump_h.mean_of_medians() + restart_h.mean_of_medians()) /
        cycle.mean_of_medians();
    put(out.layer, "bench.io_host_share", io_share, "ratio", "host",
        cycle.samples());
    if (w.backend == CkptBackend::kMpiIo) {
      out.stress["io_share_of_cycle_at_least_0.75"] = io_share >= 0.75;
    } else {
      out.stress["hdf4_has_no_two_phase_windows"] =
          out.layer["mpi.io.two_phase_windows"].value == 0.0;
    }
  }
}

// ---- query workload -------------------------------------------------------

constexpr int kReaders = 32;
constexpr int kQueriesPerRound = 32;
/// Timed rounds per pass whose virtual metrics are reported (32 readers x
/// ~29 data-bearing queries per round: more than 1000 latencies per pass),
/// and passes per run: the commit dump and restore vary most between
/// universes.
constexpr int kQueryVirtualRounds = 16;
constexpr int kQueryPasses = 5;
constexpr std::uint64_t kCacheCapacity = 4 * MiB;
constexpr std::uint64_t kSieveBlock = 64 * KiB;
constexpr int kHotSlices = 8;

struct Query {
  enum class Kind { kSlice, kSubVolume, kParticles, kMetadata } kind;
  query::SubVolumeRequest req;
  std::uint64_t id_lo = 0;
  std::uint64_t id_hi = 0;
};

/// Reader `rank`'s queries for `round`: hot z-slices of the root density
/// shared by every reader, sub-volumes of the reader's private slab (one
/// field, a quarter of the z range), particle ID windows and metadata
/// lookups.
std::vector<Query> query_stream(std::uint64_t seed, int rank, int round,
                                const query::GenerationIndex& ix) {
  const auto& names = amr::baryon_field_names();
  const std::uint64_t n = ix.field(0, names[0]).dims[0];
  // One slice in each of kHotSlices consecutive sieve blocks from a seeded
  // start, so the hot set covers as many I/O servers in every universe.
  const std::uint64_t per_block = kSieveBlock / (n * n * sizeof(float));
  const std::uint64_t blocks = n / per_block;
  const std::uint64_t h = perfbench::mix(seed ^ 0x4807);
  std::vector<std::uint64_t> hot_z;
  for (int i = 0; i < kHotSlices; ++i) {
    const std::uint64_t block = (h + static_cast<std::uint64_t>(i)) % blocks;
    hot_z.push_back(block * per_block + (h >> 32) % per_block);
  }

  Rng rng(perfbench::mix(perfbench::mix(seed) ^
                         static_cast<std::uint64_t>(rank) * 1000003 ^
                         static_cast<std::uint64_t>(round)));
  const std::string& mine = names[static_cast<std::size_t>(rank) % names.size()];
  const std::uint64_t slab = n / 4;
  const std::uint64_t z0 = (static_cast<std::uint64_t>(rank) / names.size()) %
                           4 * slab;
  const std::uint64_t width = 256;
  std::vector<Query> qs;
  for (int i = 0; i < kQueriesPerRound; ++i) {
    const std::uint64_t pick = rng.next_below(10);
    Query q{};
    if (pick < 2) {
      q.kind = Query::Kind::kSlice;
      q.req = {0, names[0], {hot_z[rng.next_below(kHotSlices)], 0, 0},
               {1, n, n}};
    } else if (pick < 7) {
      q.kind = Query::Kind::kSubVolume;
      const std::array<std::uint64_t, 3> count{4, n / 2, n / 2};
      q.req = {0, mine,
               {z0 + rng.next_below(slab - count[0] + 1),
                rng.next_below(n - count[1] + 1),
                rng.next_below(n - count[2] + 1)},
               count};
    } else if (pick < 9) {
      q.kind = Query::Kind::kParticles;
      const std::uint64_t span = ix.id_max - ix.id_min;
      q.id_lo = ix.id_min + rng.next_below(span > width ? span - width : 1);
      q.id_hi = q.id_lo + width - 1;
    } else {
      q.kind = Query::Kind::kMetadata;
    }
    qs.push_back(q);
  }
  return qs;
}

/// Untimed oracle over the stored bytes of the served generation.
class Oracle {
 public:
  Oracle(const stor::ObjectStore& store, const query::GenerationIndex& ix)
      : ix_(ix) {
    for (const auto& [name, e] : ix.fields.at(0)) {
      std::vector<std::byte> raw(e.bytes);
      store.read_at(e.path, e.offset, raw);
      std::vector<float>& cells = fields_[name];
      cells.resize(e.bytes / sizeof(float));
      std::memcpy(cells.data(), raw.data(), raw.size());
    }
    const std::uint64_t np = ix.meta.n_particles;
    for (const query::ParticleExtent& pe : ix.particles) {
      std::vector<std::byte> raw(np * pe.elem_size);
      store.read_at(pe.path, pe.offset, raw);
      arrays_.push_back(std::move(raw));
    }
    if (np > 0) {
      ids_.resize(np);
      std::memcpy(ids_.data(), arrays_[0].data(), np * sizeof(std::int64_t));
    }
  }

  std::vector<float> extract(const query::SubVolumeRequest& q) const {
    const query::FieldExtent& e = ix_.field(q.grid_id, q.field);
    const std::vector<float>& cells = fields_.at(q.field);
    std::vector<float> out;
    out.reserve(q.count[0] * q.count[1] * q.count[2]);
    for (std::uint64_t z = 0; z < q.count[0]; ++z) {
      for (std::uint64_t y = 0; y < q.count[1]; ++y) {
        const std::uint64_t row =
            ((q.start[0] + z) * e.dims[1] + q.start[1] + y) * e.dims[2] +
            q.start[2];
        out.insert(out.end(), cells.begin() + static_cast<std::ptrdiff_t>(row),
                   cells.begin() +
                       static_cast<std::ptrdiff_t>(row + q.count[2]));
      }
    }
    return out;
  }

  amr::ParticleSet particles(std::uint64_t lo, std::uint64_t hi) const {
    amr::ParticleSet set;
    const auto first =
        std::lower_bound(ids_.begin(), ids_.end(),
                         static_cast<std::int64_t>(lo)) -
        ids_.begin();
    const auto last =
        std::upper_bound(ids_.begin(), ids_.end(),
                         static_cast<std::int64_t>(hi)) -
        ids_.begin();
    const std::size_t count = static_cast<std::size_t>(last - first);
    set.resize(count);
    if (count == 0) return set;
    for (std::size_t a = 0; a < ix_.particles.size(); ++a) {
      const std::uint64_t elem = ix_.particles[a].elem_size;
      enzo::particle_array_from_bytes(
          set, a, count,
          arrays_[a].data() + static_cast<std::size_t>(first) * elem);
    }
    return set;
  }

 private:
  const query::GenerationIndex& ix_;
  std::map<std::string, std::vector<float>> fields_;
  std::vector<std::vector<std::byte>> arrays_;
  std::vector<std::int64_t> ids_;
};

struct Answer {
  const Query* q = nullptr;
  std::vector<float> cells;
  amr::ParticleSet particles;
  enzo::DumpMeta meta;
};

struct RoundRecord {
  int pass = 0;
  bool counted = false;  ///< among the first kQueryVirtualRounds of its pass
  Delta serve;
  std::vector<double> latency;  ///< data-bearing queries, virtual s
  std::uint64_t payload = 0;
  std::uint64_t fetched = 0;
  std::uint64_t demand_fetches = 0, shared_waits = 0, planned_runs = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
};

struct ServiceCounters {
  std::uint64_t payload, fetched, demand, waits, runs, hits, misses, evictions;
  explicit ServiceCounters(const query::Service& s)
      : payload(s.payload_bytes()),
        fetched(s.fetched_bytes()),
        demand(s.demand_fetches()),
        waits(s.shared_fetch_waits()),
        runs(s.planned_runs()),
        hits(s.cache().hits()),
        misses(s.cache().misses()),
        evictions(s.cache().evictions()) {}
};

void run_query(const Options& o, Result& out) {
  const int P = kReaders;
  SetupTimes setup;
  perfbench::PerPass dump_h, restart_h, dump_v, restart_v;
  std::vector<double> open_h;
  std::vector<RoundRecord> rounds;
  obs::Collector collector;
  collector.set_detail(true);
  CollectorGuard guard;

  const int passes = o.passes > 0 ? o.passes : kQueryPasses;
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t universe = universe_seed(o.seed, pass);
    const enzo::SimulationConfig cfg = amr64(universe);
    const double t_setup = host_now();
    platform::Testbed tb(platform::chiba_pvfs_ethernet(), P, 0,
                         sim::SchedBackend::kFibers);
    setup.testbed.push_back(host_now() - t_setup);
    query::Service::Params qp;
    qp.hints.ds_buffer_size = kSieveBlock;
    qp.cache_capacity = kCacheCapacity;
    query::Service svc(tb.fs(), "qseries", qp);
    Phases ph(tb, P);
    ThreadCheck threads(P);
    Slots<Digest> before(P), after(P);
    Slots<std::vector<double>> query_lat(P);
    Slots<std::vector<Answer>> answers(P);
    Slots<std::vector<Query>> streams(P);
    std::unique_ptr<Oracle> oracle;
    enzo::DumpMeta dumped;  // what metadata lookups must return
    std::optional<ServiceCounters> svc0;  // at the open of the round
    RoundRecord pending;
    bool stop = false;
    double t_loop = 0.0;
    int done = 0;  // timed rounds of this pass

    tb.runtime().run([&](mpi::Comm& c) {
      const int r = c.rank();
      threads.note(r);
      enzo::Hdf5ParallelBackend be(tb.fs(), hdf5::FileConfig{});
      enzo::EnzoSimulation sim(c, cfg);
      const Snapshot s0 = ph.mark(c);
      sim.initialize_from_universe();
      const Snapshot s1 = ph.mark(c);
      if (r == 0) setup.init.push_back(s1.host - s0.host);
      sim.evolve_cycle();

      // Commit generation 0, then restore it cold and verify it.
      enzo::CheckpointSeries series(be, tb.fs(), "qseries");
      before[r] = perfbench::digest(sim.state(), r);
      const Snapshot d0 = ph.mark(c);
      series.dump(c, sim.state(), 0);
      const Snapshot d1 = ph.mark(c, [&] { tb.fs().drop_caches(); });
      std::optional<enzo::EnzoSimulation> fresh(std::in_place, c, cfg);
      const Snapshot r0 = ph.mark(c);
      series.restore_latest(c, fresh->state(), 0);
      const Snapshot r1 = ph.mark(c, [&] { tb.fs().drop_caches(); });
      after[r] = perfbench::digest(fresh->state(), r);
      fresh.reset();
      const Snapshot o0 = ph.mark(c, [&] {
        ++out.attempted;
        if (!(total(before) == total(after))) {
          out.fail("restored generation differs from the committed dump");
        }
      });
      const query::GenerationIndex& ix = svc.open_generation(0);
      const Snapshot o1 = ph.mark(c, [&] {
        oracle = std::make_unique<Oracle>(tb.fs().store(), ix);
        dumped.cycle = sim.state().cycle;
        dumped.time = sim.state().time;
        dumped.hierarchy = sim.state().hierarchy;
        std::uint64_t np = 0;
        for (const Digest& d : before.v) np += d.n_particles;
        dumped.n_particles = np;
      });
      if (r == 0) {
        dump_h.add(pass, d1.host - d0.host);
        restart_h.add(pass, r1.host - r0.host);
        open_h.push_back(o1.host - o0.host);
        dump_v.add(pass, d1.vt - d0.vt);
        restart_v.add(pass, r1.vt - r0.vt);
      }

      // One closed-loop round: every reader issues its stream back to back.
      // Answers are checked after the closing mark, outside the timed span.
      auto round = [&](int k, bool timed) {
        streams[r] = query_stream(universe, r, k, ix);
        std::vector<Answer>& mine = answers[r];
        std::vector<double>& lat = query_lat[r];
        mine.clear();
        lat.clear();
        const Snapshot a = ph.mark(c, [&] { svc0.emplace(svc); });
        for (const Query& q : streams[r]) {
          Answer ans;
          ans.q = &q;
          const double t = c.proc().now();
          switch (q.kind) {
            case Query::Kind::kSlice:
            case Query::Kind::kSubVolume:
              ans.cells = svc.extract(0, q.req);
              break;
            case Query::Kind::kParticles:
              ans.particles = svc.particles(0, q.id_lo, q.id_hi);
              break;
            case Query::Kind::kMetadata:
              ans.meta = svc.metadata(0);
              break;
          }
          if (q.kind != Query::Kind::kMetadata) {
            lat.push_back(c.proc().now() - t);
          }
          mine.push_back(std::move(ans));
        }
        const Snapshot b = ph.mark(c, [&] {
          const ServiceCounters c1(svc);
          pending = RoundRecord{};
          pending.payload = c1.payload - svc0->payload;
          pending.fetched = c1.fetched - svc0->fetched;
          pending.demand_fetches = c1.demand - svc0->demand;
          pending.shared_waits = c1.waits - svc0->waits;
          pending.planned_runs = c1.runs - svc0->runs;
          pending.cache_hits = c1.hits - svc0->hits;
          pending.cache_misses = c1.misses - svc0->misses;
          pending.evictions = c1.evictions - svc0->evictions;
          for (const auto& v : query_lat.v) {
            pending.latency.insert(pending.latency.end(), v.begin(), v.end());
          }
        });
        for (const Answer& ans : mine) {
          bool ok = true;
          switch (ans.q->kind) {
            case Query::Kind::kSlice:
            case Query::Kind::kSubVolume:
              ok = ans.cells == oracle->extract(ans.q->req);
              break;
            case Query::Kind::kParticles:
              ok = ans.particles ==
                   oracle->particles(ans.q->id_lo, ans.q->id_hi);
              break;
            case Query::Kind::kMetadata:
              ok = ans.meta.cycle == dumped.cycle &&
                   ans.meta.time == dumped.time &&
                   ans.meta.n_particles == dumped.n_particles &&
                   ans.meta.hierarchy.grids() == dumped.hierarchy.grids();
              break;
          }
          ++out.attempted;
          if (!ok) {
            out.fail("reader " + std::to_string(r) + " round " +
                     std::to_string(k) + ": answer differs from the oracle");
          }
        }
        ph.mark(c, [&] {
          if (timed) {
            ++done;
            stop = done >= kQueryVirtualRounds &&
                   (o.trace || host_now() - t_loop >= o.seconds / passes);
          }
        });
        if (r == 0 && timed) {
          RoundRecord rec = pending;
          rec.pass = pass;
          rec.counted = done <= kQueryVirtualRounds;
          rec.serve = b - a;
          rounds.push_back(std::move(rec));
        }
      };

      round(0, false);  // warm-up: counted in setup_s
      ph.mark(c, [&] {
        setup.setup.push_back(host_now() - t_setup);
        if (o.trace) guard.attach(&collector);
        t_loop = host_now();
      });
      for (int k = 1; !stop; ++k) round(k, true);
    });
    if (!threads.single()) throw std::runtime_error("ranks ran on >1 thread");
  }
  guard.detach();

  // ---- end-to-end ----
  put_setup(setup, out);
  perfbench::PerPass cycle, lat, mbps;
  std::vector<const RoundRecord*> counted;
  for (const RoundRecord& x : rounds) {
    cycle.add(x.pass, x.serve.host);
    if (x.counted) {
      counted.push_back(&x);
      for (double l : x.latency) lat.add(x.pass, l);
      mbps.add(x.pass, static_cast<double>(x.payload) / 1e6 / x.serve.vt);
    }
  }
  put_per_iteration(cycle, dump_h, restart_h, dump_v, restart_v, lat, mbps,
                    out);

  // ---- per-layer ----
  std::vector<Delta> serves;
  RoundRecord sum;
  const std::size_t nv = counted.size();
  for (const RoundRecord* p : counted) {
    const RoundRecord& x = *p;
    serves.push_back(x.serve);
    sum.payload += x.payload;
    sum.fetched += x.fetched;
    sum.demand_fetches += x.demand_fetches;
    sum.shared_waits += x.shared_waits;
    sum.planned_runs += x.planned_runs;
    sum.cache_hits += x.cache_hits;
    sum.cache_misses += x.cache_misses;
    sum.evictions += x.evictions;
  }
  const double n = static_cast<double>(std::max<std::size_t>(nv, 1));
  put(out.layer, "query.open_generation_host_s", perfbench::median(open_h),
      "s", "host", open_h.size());
  put(out.layer, "query.demand_fetches",
      static_cast<double>(sum.demand_fetches) / n, "count", "count", nv);
  put(out.layer, "query.shared_fetch_waits",
      static_cast<double>(sum.shared_waits) / n, "count", "count", nv);
  const double lookups = static_cast<double>(sum.cache_hits + sum.cache_misses);
  put(out.layer, "query.cache_hit_ratio",
      lookups > 0 ? static_cast<double>(sum.cache_hits) / lookups : 0.0,
      "ratio", "count", nv);
  put(out.layer, "query.cache_evictions",
      static_cast<double>(sum.evictions) / n, "count", "count", nv);
  put(out.layer, "query.fetch_amplification",
      sum.payload > 0 ? static_cast<double>(sum.fetched) /
                            static_cast<double>(sum.payload)
                      : 0.0,
      "ratio", "count", nv);
  put(out.layer, "query.planned_runs",
      static_cast<double>(sum.planned_runs) / n, "count", "count", nv);
  put(out.layer, "query.serve_host_s", cycle.mean_of_medians(), "s", "host",
      cycle.samples());
  io_path_layers({}, serves, static_cast<double>(sum.payload) / n, out);
  if (o.trace) {
    collector_layers(collector, static_cast<double>(rounds.size()), out);
    std::uint64_t written = 0;
    for (const RoundRecord& x : rounds) written += x.serve.bytes_written;
    out.stress["serving_writes_no_bytes"] = written == 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Result out;
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "enzo_bench: %s\n", e.what());
    return 2;
  }
  sim::Engine::Options eo;
  eo.backend = sim::SchedBackend::kFibers;
  const bool fibers = eo.effective_backend() == sim::SchedBackend::kFibers;
  if (!fibers) {
    std::fprintf(stderr, "enzo_bench: the fiber engine is required\n");
    return 2;
  }

  const std::map<std::string, CkptWorkload> ckpt = {
      {"ckpt_mpiio_gpfs_p128",
       {platform::sp2_gpfs(), 128, CkptBackend::kMpiIo, 2, 4}},
      {"ckpt_hdf4_gpfs_p128",
       {platform::sp2_gpfs(), 128, CkptBackend::kHdf4, 4, 3}},
  };
  if (o.workload != "query_pvfs_r32" && ckpt.count(o.workload) == 0) {
    std::fprintf(stderr, "enzo_bench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }

  bool threw = false;
  try {
    if (o.workload == "query_pvfs_r32") {
      run_query(o, out);
    } else {
      run_ckpt(o, ckpt.at(o.workload), out);
    }
  } catch (const std::exception& e) {
    threw = true;
    ++out.attempted;
    out.fail(std::string("exception: ") + e.what());
  }
  put(out.e2e, "peak_rss_mib", static_cast<double>(peak_rss_kib()) / 1024.0,
      "MiB", "host", 1);
  put(out.layer, "bench.failed_ops_frac",
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0,
      "ratio", "count", out.attempted);

  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "enzo_bench: FAILED %s\n", e.c_str());
  }
  std::ostringstream js;
  js << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"engine\": \"fibers\", \"threw\": " << (threw ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"stress\": {";
  bool first = true;
  for (const auto& [name, ok] : out.stress) {
    js << (first ? "" : ", ") << "\"" << name << "\": " << (ok ? "true" : "false");
    first = false;
  }
  js << "}, \"e2e\": " << json_metrics(out.e2e)
     << ", \"layer\": " << json_metrics(out.layer) << "}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}

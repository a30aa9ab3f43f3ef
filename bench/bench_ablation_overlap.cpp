// Ablation — overlapped I/O (Hints::overlap): split-collective baryon-field
// writes, pipelined double-buffered two-phase windows, nonblocking particle
// and subgrid writes, and the restart read prefetcher.
//
// The same ENZO checkpoint dump + restart read runs twice per platform —
// overlap off (the synchronous 2002 baseline) and overlap on — through the
// MPI-IO backend.  Overlap must strictly reduce the dump write time on every
// platform, the dump image must be byte-identical (overlap reorders *time*,
// never *content*), the check::analyze_trace audit must stay clean, and the
// overlap-on profile must actually contain concurrent comm and async-io
// spans on aggregator ranks — the mechanism, not just the effect.
//
//   $ ./bench/bench_ablation_overlap            # AMR64, 16 procs
//   $ ./bench/bench_ablation_overlap --tiny     # 16^3, 8 procs (CI smoke)
//   $ ./bench/bench_ablation_overlap --trace f  # Perfetto trace of the last
//                                               # overlap-on run
//   $ ./bench/bench_ablation_overlap --json f   # machine-readable rows
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/io_checker.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"
#include "obs/trace_export.hpp"
#include "pfs/striped_fs.hpp"
#include "platform/machine.hpp"

using namespace paramrio;

namespace {

struct Outcome {
  bench::IoResult io;
  std::uint64_t checksum = 0;
  std::uint64_t checker_errors = 0;
  std::uint64_t checker_warnings = 0;
  std::string report;
  std::uint64_t overlap_windows = 0;
  std::uint64_t prefetch_hits = 0;
  double overlap_saved = 0.0;
  /// Ranks on which an async io span ran concurrently with a sync comm span.
  int concurrent_ranks = 0;
};

/// FNV-1a over every stored object (names and contents; the store iterates
/// in sorted name order, so equal dumps hash equal).
std::uint64_t store_checksum(const stor::ObjectStore& store) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  };
  for (const std::string& name : store.list()) {
    mix(name.data(), name.size());
    std::vector<std::byte> bytes(store.size(name));
    store.read_at(name, 0, bytes);
    mix(bytes.data(), bytes.size());
  }
  return h;
}

/// Count ranks whose profile shows an async (in-flight) io span overlapping
/// a synchronous comm span in virtual time — the signature of pipelined
/// two-phase windows on aggregator ranks.
int concurrent_comm_io_ranks(const obs::Collector& col) {
  int n = 0, max_rank = -1;
  for (const obs::SpanRecord& s : col.spans()) max_rank = std::max(max_rank, s.rank);
  for (int r = 0; r <= max_rank; ++r) {
    bool found = false;
    for (const obs::SpanRecord& a : col.spans()) {
      if (a.rank != r || !a.async || a.category != sim::TimeCategory::kIo)
        continue;
      for (const obs::SpanRecord& b : col.spans()) {
        if (b.rank != r || b.async ||
            b.category != sim::TimeCategory::kComm) {
          continue;
        }
        if (a.t_start < b.t_end && b.t_start < a.t_end) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (found) ++n;
  }
  return n;
}

Outcome run_dump(const platform::Machine& machine, bool tiny, bool overlap,
                 obs::Collector* col) {
  const int nprocs = tiny ? 8 : 16;
  platform::Testbed tb(machine, nprocs);

  check::CheckOptions copts;
  copts.label = std::string(machine.name) + (overlap ? " overlap" : " sync");
  if (machine.fs_kind == platform::FsKind::kStriped) {
    copts.stripe_size = machine.striped_fs.stripe_size;
  }
  copts.padding_alignment = 4096;
  trace::IoTracer tracer;
  tb.fs().attach_observer(&tracer);

  mpi::io::Hints hints;
  hints.overlap = overlap;
  // Several windows per collective so the pipeline has something to hide.
  hints.cb_buffer_size = tiny ? 8 * KiB : 256 * KiB;

  enzo::SimulationConfig config;
  if (tiny) {
    config.root_dims = {16, 16, 16};
    config.particles_per_cell = 0.25;
    config.compute_per_cell = 0.0;
  } else {
    config = enzo::SimulationConfig::for_size(enzo::ProblemSize::kAmr64);
  }

  Outcome out;
  obs::Attach collector_scope(col);
  tb.runtime().run([&](mpi::Comm& comm) {
    enzo::MpiIoBackend backend(tb.fs(), hints);
    enzo::EnzoSimulation sim(comm, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();

    if (comm.rank() == 0) tracer.begin_phase("dump");
    comm.barrier();
    double t0 = comm.proc().now();
    std::uint64_t w0 = comm.proc().stats().io_bytes_written;
    backend.write_dump(comm, sim.state(), "dump");
    comm.barrier();
    double t1 = comm.proc().now();
    std::uint64_t dw = comm.allreduce_sum(
        comm.proc().stats().io_bytes_written - w0);

    if (comm.rank() == 0) {
      tracer.begin_phase("restart");
      tb.fs().drop_caches();
    }
    enzo::EnzoSimulation fresh(comm, config);
    comm.barrier();
    double t2 = comm.proc().now();
    std::uint64_t r0 = comm.proc().stats().io_bytes_read;
    backend.read_restart(comm, fresh.state(), "dump");
    comm.barrier();
    double t3 = comm.proc().now();
    std::uint64_t dr =
        comm.allreduce_sum(comm.proc().stats().io_bytes_read - r0);
    if (comm.rank() == 0) {
      out.io.write_time = t1 - t0;
      out.io.read_time = t3 - t2;
      out.io.fs_bytes_written = dw;
      out.io.fs_bytes_read = dr;
      out.io.grids = sim.state().hierarchy.grid_count();
    }
  });
  if (col) {
    // Per-File overlap counters land in the registry at close.
    const obs::MetricsRegistry& reg = col->registry();
    for (const auto& [scope, _] : reg.scopes()) {
      if (scope.rfind("file:", 0) != 0) continue;
      out.overlap_windows += reg.get(scope, "overlap_windows");
      out.prefetch_hits += reg.get(scope, "prefetch_hits");
    }
    out.concurrent_ranks = concurrent_comm_io_ranks(*col);
  }
  out.checksum = store_checksum(tb.fs().store());
  check::CheckReport report =
      check::analyze_trace(tracer, copts, &tb.fs().store());
  out.checker_errors = report.errors();
  out.checker_warnings = report.warnings();
  out.report = report.format();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--tiny") tiny = true;
    if (a == "--trace" && i + 1 < argc) trace_path = argv[++i];
  }
  bench::JsonReporter json("ablation_overlap", argc, argv);
  const int nprocs = tiny ? 8 : 16;
  const char* size = tiny ? "16^3 tiny" : "AMR64";

  std::printf("\n== Ablation — overlapped I/O (%s, %d procs) ==\n", size,
              nprocs);
  std::printf("%-22s %-10s %10s %10s %14s %10s %10s\n", "platform", "overlap",
              "write[s]", "read[s]", "ov windows", "pf hits", "conc rks");

  bool ok = true;
  for (const platform::Machine& machine :
       {platform::origin2000_xfs(), platform::sp2_gpfs()}) {
    obs::Collector col;
    Outcome off = run_dump(machine, tiny, /*overlap=*/false, nullptr);
    Outcome on = run_dump(machine, tiny, /*overlap=*/true, &col);

    std::printf("%-22s %-10s %10.3f %10.3f %14s %10s %10s\n",
                machine.name.c_str(), "off", off.io.write_time,
                off.io.read_time, "-", "-", "-");
    std::printf("%-22s %-10s %10.3f %10.3f %14llu %10llu %10d\n",
                machine.name.c_str(), "on", on.io.write_time,
                on.io.read_time,
                static_cast<unsigned long long>(on.overlap_windows),
                static_cast<unsigned long long>(on.prefetch_hits),
                on.concurrent_ranks);
    json.add_row(machine.name, std::string(size) + " off", nprocs,
                 bench::Backend::kMpiIo, off.io);
    json.add_row(machine.name, std::string(size) + " overlap", nprocs,
                 bench::Backend::kMpiIo, on.io);
    json.attach_registry(col.registry());

    if (!(on.io.write_time < off.io.write_time)) {
      std::printf("FAIL: %s: overlap did not reduce dump write time\n",
                  machine.name.c_str());
      ok = false;
    }
    if (on.checksum != off.checksum) {
      std::printf("FAIL: %s: overlap-on dump differs from overlap-off dump\n",
                  machine.name.c_str());
      ok = false;
    }
    if (on.overlap_windows == 0) {
      std::printf("FAIL: %s: no pipelined two-phase windows recorded\n",
                  machine.name.c_str());
      ok = false;
    }
    if (on.prefetch_hits == 0) {
      std::printf("FAIL: %s: restart prefetcher recorded no hits\n",
                  machine.name.c_str());
      ok = false;
    }
    if (on.concurrent_ranks == 0) {
      std::printf(
          "FAIL: %s: no rank shows concurrent comm and async io spans\n",
          machine.name.c_str());
      ok = false;
    }
    for (const Outcome* o : {&off, &on}) {
      if (o->checker_errors != 0 || o->checker_warnings != 0) {
        std::printf("FAIL: %s: checker diagnostics\n%s\n",
                    machine.name.c_str(), o->report.c_str());
        ok = false;
      }
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      obs::write_chrome_trace(col, os);
      std::printf("wrote trace of %s overlap-on run to %s\n",
                  machine.name.c_str(), trace_path.c_str());
    }
  }
  if (ok) {
    std::printf(
        "OK: overlap strictly reduces dump write time at an identical dump "
        "image, with concurrent comm/io spans on aggregator ranks\n");
  }
  return ok ? 0 : 1;
}

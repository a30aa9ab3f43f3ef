// Ablation — the Figure-7 repair: stripe-aligned collective-buffering file
// domains on the GPFS-like SP-2 configuration.
//
// The paper's Figure 7 shows MPI-IO checkpoint writes *losing* to serial
// HDF4 on SP-2/GPFS: classic two-phase file domains are equal byte shares of
// the aggregate hull, so aggregator windows straddle the 256 KiB stripes,
// every straddled stripe is hit by two servers' worth of requests, and the
// shared stripes ping-pong GPFS's byte-range write token between
// aggregators.  The repair (ROMIO's later layout-aware file domains) asks
// the file system for its Layout and hands each I/O server's stripes to a
// single aggregator.
//
// This bench runs the same ENZO checkpoint dump twice — cb_align = 1
// (unaligned 2002 baseline) vs cb_align = auto (layout-aware) — and
// compares StripedFs::total_server_requests(), write-token transfers, and
// the dump checksum, auditing each dump's trace with check::analyze_trace.
// It exits non-zero when the aligned run fails to reduce both counters, when
// the checksums diverge, or when the audit reports any error or warning.
//
//   $ ./bench/bench_ablation_cb_align          # AMR64, 16 procs
//   $ ./bench/bench_ablation_cb_align --tiny   # 16^3, 8 procs (CI smoke)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "pfs/striped_fs.hpp"
#include "platform/machine.hpp"

using namespace paramrio;

namespace {

struct Outcome {
  double write_time = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t token_transfers = 0;
  std::uint64_t checksum = 0;
  std::uint64_t checker_errors = 0;
  std::uint64_t checker_warnings = 0;
  std::string report;
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

Outcome run_dump(bool tiny, std::uint64_t cb_align) {
  platform::Machine machine = platform::sp2_gpfs();
  const int nprocs = tiny ? 8 : 16;
  platform::Testbed tb(machine, nprocs);
  auto* gpfs = dynamic_cast<pfs::StripedFs*>(&tb.fs());
  PARAMRIO_REQUIRE(gpfs != nullptr, "sp2_gpfs must build a StripedFs");

  check::CheckOptions copts;
  copts.label = std::string("mpi-io dump, cb_align=") +
                (cb_align == mpi::io::Hints::kCbAlignAuto
                     ? "auto"
                     : std::to_string(cb_align));
  copts.stripe_size = machine.striped_fs.stripe_size;
  copts.padding_alignment = 4096;
  trace::IoTracer tracer;
  tb.fs().attach_observer(&tracer);

  mpi::io::Hints hints;
  hints.cb_align = cb_align;

  Outcome out;
  tb.runtime().run([&](mpi::Comm& comm) {
    enzo::MpiIoBackend backend(tb.fs(), hints);
    enzo::SimulationConfig config;
    if (tiny) {
      config.root_dims = {16, 16, 16};
      config.particles_per_cell = 0.25;
      config.compute_per_cell = 0.0;
    } else {
      config = enzo::SimulationConfig::for_size(enzo::ProblemSize::kAmr64);
    }
    enzo::EnzoSimulation sim(comm, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();

    if (comm.rank() == 0) tracer.begin_phase("dump");
    comm.barrier();
    double t0 = comm.proc().now();
    backend.write_dump(comm, sim.state(), "dump");
    comm.barrier();
    if (comm.rank() == 0) out.write_time = comm.proc().now() - t0;
  });

  out.server_requests = gpfs->total_server_requests();
  out.token_transfers = gpfs->write_token_transfers();
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }

  std::printf("\n== Ablation — cb_align on %s (%s, %d procs) ==\n",
              "IBM-SP/GPFS", tiny ? "16^3 tiny" : "AMR64",
              tiny ? 8 : 16);
  Outcome baseline = run_dump(tiny, 1);
  Outcome aligned = run_dump(tiny, mpi::io::Hints::kCbAlignAuto);

  std::printf("%-16s %10s %14s %14s %18s\n", "cb_align", "write[s]",
              "server reqs", "token xfers", "dump checksum");
  std::printf("%-16s %10.3f %14llu %14llu %018llx\n", "1 (unaligned)",
              baseline.write_time,
              static_cast<unsigned long long>(baseline.server_requests),
              static_cast<unsigned long long>(baseline.token_transfers),
              static_cast<unsigned long long>(baseline.checksum));
  std::printf("%-16s %10.3f %14llu %14llu %018llx\n", "auto (layout)",
              aligned.write_time,
              static_cast<unsigned long long>(aligned.server_requests),
              static_cast<unsigned long long>(aligned.token_transfers),
              static_cast<unsigned long long>(aligned.checksum));

  bool ok = true;
  if (aligned.checksum != baseline.checksum) {
    std::printf("FAIL: aligned dump differs from baseline dump\n");
    ok = false;
  }
  if (aligned.server_requests >= baseline.server_requests) {
    std::printf("FAIL: aligned domains did not reduce server requests\n");
    ok = false;
  }
  if (aligned.token_transfers >= baseline.token_transfers) {
    std::printf("FAIL: aligned domains did not reduce token transfers\n");
    ok = false;
  }
  for (const Outcome* o : {&baseline, &aligned}) {
    if (o->checker_errors != 0 || o->checker_warnings != 0) {
      std::printf("FAIL: checker diagnostics\n%s\n", o->report.c_str());
      ok = false;
    }
  }
  if (ok) {
    std::printf(
        "OK: stripe-aligned file domains cut server requests and write-token "
        "transfers at an identical dump image\n");
  }
  return ok ? 0 : 1;
}

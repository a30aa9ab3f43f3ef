// Scenario: audit every checkpoint backend for I/O correctness.
//
// The paper's analysis (Section 3) explains *slow* checkpoints; this tool
// asks the prior question — is the checkpoint even *right*?  It runs a
// dump + restart cycle for each of the four backends with a trace::IoTracer
// attached to the file system, audits the trace with check::analyze_trace
// and prints one audit per backend: write-write conflicts, holes,
// read-before-write, descriptor-lifecycle bugs, and (on a striped file
// system) the Figure-7 alignment lints with per-backend counts.
//
//   $ ./examples/dump_audit
#include <cstdio>

#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "mpi/comm.hpp"
#include "pfs/striped_fs.hpp"

using namespace paramrio;

namespace {

std::unique_ptr<enzo::IoBackend> make_backend(int i, pfs::FileSystem& fs) {
  switch (i) {
    case 0: return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case 1: return std::make_unique<enzo::MpiIoBackend>(fs);
    case 2: return std::make_unique<enzo::Hdf5ParallelBackend>(fs);
    default: return std::make_unique<enzo::PnetcdfBackend>(fs);
  }
}

const char* backend_name(int i) {
  switch (i) {
    case 0: return "hdf4-serial";
    case 1: return "mpi-io";
    case 2: return "hdf5-parallel";
    default: return "pnetcdf";
  }
}

check::CheckReport audit_backend(int which, int nprocs) {
  // A GPFS-like striped file system so the alignment lints are live.
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.fs_name = "gpfs";
  sp.stripe_size = 256 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, nprocs, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);

  check::CheckOptions opts;
  opts.label = std::string(backend_name(which)) + " dump+restart on " +
               fs.name();
  opts.stripe_size = sp.stripe_size;
  // pnetcdf aligns its data region; the header/data padding is deliberate.
  opts.padding_alignment = 4096;
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);

  mpi::RuntimeParams rp;
  rp.nprocs = nprocs;
  rp.extra_fabric_nodes = sp.n_io_nodes;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& comm) {
    auto backend = make_backend(which, fs);
    enzo::SimulationConfig config;
    config.root_dims = {16, 16, 16};
    config.particles_per_cell = 0.25;
    config.compute_per_cell = 0.0;
    enzo::EnzoSimulation sim(comm, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();

    if (comm.rank() == 0) tracer.begin_phase("dump");
    comm.barrier();
    backend->write_dump(comm, sim.state(), "audit");

    if (comm.rank() == 0) tracer.begin_phase("restart");
    comm.barrier();
    enzo::EnzoSimulation restart(comm, config);
    backend->read_restart(comm, restart.state(), "audit");
  });
  return check::analyze_trace(tracer, opts, &fs.store());
}

}  // namespace

int main() {
  const int nprocs = 4;
  std::printf("checkpoint correctness audit, %d ranks, all backends\n\n",
              nprocs);
  bool all_clean = true;
  for (int which = 0; which < 4; ++which) {
    check::CheckReport r = audit_backend(which, nprocs);
    std::printf("%s\n", r.format().c_str());
    all_clean = all_clean && r.clean();
  }
  std::printf("overall: %s\n", all_clean ? "all backends CLEAN"
                                         : "CORRECTNESS ERRORS FOUND");
  return all_clean ? 0 : 1;
}

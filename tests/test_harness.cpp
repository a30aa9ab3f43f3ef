// Smoke tests for the benchmark harness itself: every (platform, backend)
// pair must produce sane timings and consistent byte counts on a small
// workload — guarding the measurement plumbing every figure depends on.
#include <gtest/gtest.h>

#include "harness.hpp"

namespace paramrio::bench {
namespace {

enzo::SimulationConfig tiny_config() {
  enzo::SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;
  c.compute_per_cell = 0.0;
  return c;
}

class HarnessMatrix
    : public ::testing::TestWithParam<std::tuple<int, Backend>> {};

TEST_P(HarnessMatrix, ProducesSaneMeasurements) {
  auto [machine_idx, backend] = GetParam();
  RunSpec spec;
  switch (machine_idx) {
    case 0:
      spec.machine = platform::origin2000_xfs();
      break;
    case 1:
      spec.machine = platform::sp2_gpfs();
      break;
    case 2:
      spec.machine = platform::chiba_pvfs_ethernet();
      break;
    default:
      spec.machine = platform::chiba_local_disk();
      break;
  }
  spec.config = tiny_config();
  spec.nprocs = 4;
  spec.backend = backend;
  spec.evolve_cycles = 1;

  IoResult r = run_enzo_io(spec);
  EXPECT_GT(r.write_time, 0.0);
  EXPECT_GT(r.read_time, 0.0);
  EXPECT_LT(r.write_time, 600.0);
  EXPECT_LT(r.read_time, 600.0);
  // A dump moves at least its payload; format overhead stays within 10%.
  EXPECT_GE(r.fs_bytes_written, r.payload_bytes);
  EXPECT_LE(r.fs_bytes_written,
            r.payload_bytes + r.payload_bytes / 10 + 64 * KiB);
  // The restart read moves roughly the same volume it wrote (sieving can
  // over-read hulls; caching can absorb re-reads).
  EXPECT_GT(r.fs_bytes_read, r.payload_bytes / 2);
  EXPECT_GE(r.grids, 2u);  // root + refinement
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HarnessMatrix,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(Backend::kHdf4, Backend::kMpiIo,
                                         Backend::kHdf5, Backend::kPnetcdf)));

TEST(Harness, DeterministicAcrossRepeats) {
  RunSpec spec;
  spec.machine = platform::origin2000_xfs();
  spec.config = tiny_config();
  spec.nprocs = 4;
  spec.backend = Backend::kMpiIo;
  IoResult a = run_enzo_io(spec);
  IoResult b = run_enzo_io(spec);
  EXPECT_DOUBLE_EQ(a.write_time, b.write_time);
  EXPECT_DOUBLE_EQ(a.read_time, b.read_time);
  EXPECT_EQ(a.fs_bytes_written, b.fs_bytes_written);
  EXPECT_EQ(a.fs_bytes_read, b.fs_bytes_read);
}

// A run that throws must leave no process-wide instrument attached: a clean
// run after the crash, in the same process, reproduces a clean run made
// before it byte for byte.
TEST(Harness, CrashedRunLeavesNoInstrumentAttached) {
  auto base_spec = [] {
    RunSpec spec;
    spec.machine = platform::origin2000_xfs();
    spec.config = tiny_config();
    spec.nprocs = 4;
    spec.backend = Backend::kMpiIo;
    return spec;
  };
  struct Clean {
    IoResult io;
    std::string registry;
  };
  auto clean_run = [&] {
    obs::Collector col;
    RunSpec spec = base_spec();
    spec.collector = &col;
    Clean c;
    c.io = run_enzo_io(spec);
    c.registry = col.registry().to_json(2);
    return c;
  };
  const Clean before = clean_run();

  // The crash-run instruments outlive the run, as a caller's would.
  obs::Collector col;
  verify::Verifier verifier;
  fault::FaultPlan plan;
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.match_reads = false;
  crash.first_op = 2;  // a few dump writes in, no retry
  crash.max_faults = 1;
  plan.specs.push_back(crash);
  fault::Injector injector(plan);
  RunSpec spec = base_spec();
  spec.collector = &col;
  spec.verifier = &verifier;
  spec.injector = &injector;
  EXPECT_THROW(run_enzo_io(spec), CrashError);
  EXPECT_EQ(injector.counters().count(fault::FaultKind::kCrash), 1u);
  EXPECT_EQ(obs::collector(), nullptr);
  EXPECT_EQ(verify::verifier(), nullptr);

  const Clean after = clean_run();
  EXPECT_EQ(after.io.write_time, before.io.write_time);
  EXPECT_EQ(after.io.read_time, before.io.read_time);
  EXPECT_EQ(after.io.fs_bytes_written, before.io.fs_bytes_written);
  EXPECT_EQ(after.io.fs_bytes_read, before.io.fs_bytes_read);
  EXPECT_EQ(after.io.payload_bytes, before.io.payload_bytes);
  EXPECT_EQ(after.io.grids, before.io.grids);
  EXPECT_EQ(after.registry, before.registry);
}

TEST(Harness, BackendNames) {
  EXPECT_EQ(to_string(Backend::kHdf4), "HDF4");
  EXPECT_EQ(to_string(Backend::kMpiIo), "MPI-IO");
  EXPECT_EQ(to_string(Backend::kHdf5), "HDF5");
  EXPECT_EQ(to_string(Backend::kPnetcdf), "PnetCDF");
}

}  // namespace
}  // namespace paramrio::bench

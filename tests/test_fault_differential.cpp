// Backend-differential fault fuzzing: for several fixed seeds, run the same
// randomized dump/restart workload through all four I/O backends under the
// same seeded fault plan (transient EIO, short transfers, stalls) with retry
// enabled, and require that every backend (a) restarts byte-identically to
// what it dumped, (b) produces byte-for-byte the same files a fault-free run
// produces, and (c) passes the I/O-correctness audit.
//
// Plus the crash-consistency contract: a dump interrupted by an injected
// mid-write crash must leave the previous generation restorable and be
// detected as torn — never silently pass as a valid checkpoint.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "amr/particles_par.hpp"
#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "pfs/local_fs.hpp"

namespace paramrio::enzo {
namespace {

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

/// Seed-randomized workload: the hierarchy (clump count, refinement
/// threshold) and particle load vary per seed, so each seed exercises a
/// different dump geometry.
SimulationConfig config_for_seed(std::uint64_t seed) {
  SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = (seed % 2 == 0) ? 0.25 : 0.125;
  c.n_clumps = 3 + static_cast<int>(seed % 3);
  c.refine.threshold = 3.0 - 0.2 * static_cast<double>(seed % 2);
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;
  return c;
}

enum class Kind { kHdf4, kMpiIo, kHdf5, kPnetcdf };

constexpr Kind kAllKinds[] = {Kind::kHdf4, Kind::kMpiIo, Kind::kHdf5,
                              Kind::kPnetcdf};

const char* to_cstr(Kind k) {
  switch (k) {
    case Kind::kHdf4:
      return "hdf4";
    case Kind::kMpiIo:
      return "mpiio";
    case Kind::kHdf5:
      return "hdf5";
    case Kind::kPnetcdf:
      return "pnetcdf";
  }
  return "?";
}

std::unique_ptr<IoBackend> make_backend(Kind k, pfs::FileSystem& fs,
                                        const mpi::io::Hints& hints) {
  switch (k) {
    case Kind::kHdf4:
      return std::make_unique<Hdf4SerialBackend>(fs);
    case Kind::kMpiIo:
      return std::make_unique<MpiIoBackend>(fs, hints);
    case Kind::kHdf5: {
      hdf5::FileConfig cfg;
      cfg.io_hints = hints;
      return std::make_unique<Hdf5ParallelBackend>(fs, cfg);
    }
    case Kind::kPnetcdf:
      return std::make_unique<PnetcdfBackend>(fs, hints);
  }
  throw LogicError("bad backend kind");
}

/// The shared transient-fault plan: every class of survivable fault, low
/// probability, consecutive hits bounded below the retry budget so every run
/// converges.
fault::FaultPlan transient_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::FaultSpec eio;
  eio.kind = fault::FaultKind::kTransientError;
  eio.probability = 0.03;
  eio.max_consecutive = 2;
  fault::FaultSpec shortw;
  shortw.kind = fault::FaultKind::kShortWrite;
  shortw.probability = 0.03;
  shortw.max_consecutive = 2;
  fault::FaultSpec shortr;
  shortr.kind = fault::FaultKind::kShortRead;
  shortr.probability = 0.02;
  shortr.max_consecutive = 2;
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kStall;
  stall.probability = 0.01;
  stall.stall_seconds = 1e-4;
  plan.specs.push_back(eio);
  plan.specs.push_back(shortw);
  plan.specs.push_back(shortr);
  plan.specs.push_back(stall);
  return plan;
}

fault::RetryPolicy retry_policy() {
  fault::RetryPolicy rp;
  rp.max_retries = 10;
  return rp;
}

void sort_particles(amr::ParticleSet& p) { amr::local_sort_by_id(p); }

void expect_states_equal(const SimulationState& a, const SimulationState& b) {
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.cycle, b.cycle);
  ASSERT_EQ(a.my_fields.size(), b.my_fields.size());
  for (std::size_t f = 0; f < a.my_fields.size(); ++f) {
    EXPECT_EQ(a.my_fields[f], b.my_fields[f]) << "field " << f;
  }
  amr::ParticleSet pa = a.my_particles, pb = b.my_particles;
  sort_particles(pa);
  sort_particles(pb);
  EXPECT_EQ(pa, pb);
}

/// FNV-1a per stored file — the cross-run comparison unit.
std::map<std::string, std::uint64_t> store_checksums(
    const stor::ObjectStore& store) {
  std::map<std::string, std::uint64_t> sums;
  for (const auto& name : store.list()) {
    std::vector<std::byte> bytes(store.size(name));
    if (!bytes.empty()) store.read_at(name, 0, bytes);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::byte b : bytes) {
      h ^= static_cast<std::uint64_t>(b);
      h *= 1099511628211ULL;
    }
    sums.emplace(name, h);
  }
  return sums;
}

/// One dump+restart through `kind`, optionally under the seeded fault plan.
/// The HDF4 backend talks to the fs directly and is covered by fs-level
/// retry; the MPI-IO-based backends carry the policy in their hints.
/// Returns the per-file checksums; restart fidelity and the correctness
/// audit are asserted inside.
std::map<std::string, std::uint64_t> run_backend(Kind kind,
                                                 std::uint64_t seed,
                                                 bool inject) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  check::CheckOptions copts;
  copts.padding_alignment = 4096;  // pnetcdf aligns its data region
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);

  fault::Injector injector(transient_plan(seed));
  mpi::io::Hints hints;
  if (inject) {
    fs.attach_fault_hook(&injector);
    if (kind == Kind::kHdf4) {
      fs.set_retry(retry_policy());
    } else {
      hints.retry = retry_policy();
    }
  }

  const SimulationConfig cfg = config_for_seed(seed);
  mpi::Runtime rt(rparams(p));
  std::vector<SimulationState> originals(static_cast<std::size_t>(p));
  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(kind, fs, hints);
    EnzoSimulation sim(c, cfg);
    sim.initialize_from_universe();
    sim.evolve_cycle();
    if (c.rank() == 0) tracer.begin_phase("dump");
    c.barrier();
    backend->write_dump(c, sim.state(), "dump");
    originals[static_cast<std::size_t>(c.rank())] = sim.state();

    if (c.rank() == 0) tracer.begin_phase("restart");
    c.barrier();
    EnzoSimulation sim2(c, cfg);
    backend->read_restart(c, sim2.state(), "dump");
    // Faults or not, the restart must reproduce the dumped state exactly.
    expect_states_equal(originals[static_cast<std::size_t>(c.rank())],
                        sim2.state());
  });

  // The faulted run must still audit clean: retries may rewrite a region,
  // but only ever the same rank rewriting its own bytes — no cross-rank
  // conflicts, holes, reads of never-written data, or leaked descriptors.
  check::CheckReport audit = check::analyze_trace(tracer, copts, &fs.store());
  EXPECT_TRUE(audit.clean())
      << to_cstr(kind) << " seed " << seed << (inject ? " faulted" : " clean")
      << ":\n"
      << audit.format();

  if (inject) {
    EXPECT_GT(injector.counters().injected_total(), 0u)
        << to_cstr(kind) << " seed " << seed
        << ": plan injected nothing; the run proves nothing";
  }
  return store_checksums(fs.store());
}

class FaultDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

// The headline acceptance property: for each seed, every backend's faulted
// dump converges to byte-for-byte the files of its fault-free run.
TEST_P(FaultDifferential, AllBackendsConvergeToNoFaultBytes) {
  const std::uint64_t seed = GetParam();
  for (Kind kind : kAllKinds) {
    auto clean = run_backend(kind, seed, /*inject=*/false);
    auto faulted = run_backend(kind, seed, /*inject=*/true);
    EXPECT_EQ(faulted, clean)
        << to_cstr(kind) << " seed " << seed
        << ": retried dump diverged from the fault-free dump";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultDifferential,
                         ::testing::Values(101ull, 202ull, 303ull),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Determinism of the whole harness: the same seeded faulted run twice gives
// identical files (the injector is the only randomness, and it is seeded).
TEST(FaultDifferential, FaultedRunsAreReplayable) {
  auto a = run_backend(Kind::kMpiIo, 101, /*inject=*/true);
  auto b = run_backend(Kind::kMpiIo, 101, /*inject=*/true);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Crash consistency: an injected crash in the middle of a generation-1 dump
// must leave generation 0 restorable and generation 1 detected as torn.
// ---------------------------------------------------------------------------

class CrashMatrix : public ::testing::TestWithParam<Kind> {};

TEST_P(CrashMatrix, MidDumpCrashRecoversPreviousGeneration) {
  const Kind kind = GetParam();
  const int p = 4;
  const SimulationConfig cfg = config_for_seed(1);

  // Probe run: count the I/O ops of a clean two-generation checkpoint
  // sequence so the crash can be planted mid-way through generation 1.
  std::uint64_t ops_before_gen1 = 0;
  std::uint64_t ops_after_gen1 = 0;
  {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    fault::Injector probe(fault::FaultPlan{});  // counts, injects nothing
    fs.attach_fault_hook(&probe);
    mpi::Runtime rt(rparams(p));
    rt.run([&](mpi::Comm& c) {
      auto backend = make_backend(kind, fs, {});
      CheckpointSeries series(*backend, fs, "ck");
      EnzoSimulation sim(c, cfg);
      sim.initialize_from_universe();
      sim.evolve_cycle();
      series.dump(c, sim.state(), 0);
      if (c.rank() == 0) ops_before_gen1 = probe.counters().io_ops;
      c.barrier();
      sim.evolve_cycle();
      series.dump(c, sim.state(), 1);
      if (c.rank() == 0) ops_after_gen1 = probe.counters().io_ops;
      c.barrier();
    });
    auto backend = make_backend(kind, fs, {});
    CheckpointSeries series(*backend, fs, "ck");
    ASSERT_TRUE(series.committed(0));
    ASSERT_TRUE(series.committed(1));
    EXPECT_FALSE(series.torn(0));
    EXPECT_FALSE(series.torn(1));
  }
  ASSERT_GT(ops_after_gen1, ops_before_gen1 + 4)
      << to_cstr(kind) << ": generation-1 dump too small to crash mid-way";

  // Crash run: same deterministic op stream, crash planted half-way into
  // the generation-1 dump.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  fault::FaultPlan plan;
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.first_op =
      ops_before_gen1 + (ops_after_gen1 - ops_before_gen1) / 2;
  crash.max_faults = 1;
  plan.specs.push_back(crash);
  fault::Injector injector(plan);
  fs.attach_fault_hook(&injector);

  std::vector<SimulationState> gen0_states(static_cast<std::size_t>(p));
  bool crashed = false;
  {
    mpi::Runtime rt(rparams(p));
    try {
      rt.run([&](mpi::Comm& c) {
        auto backend = make_backend(kind, fs, {});
        CheckpointSeries series(*backend, fs, "ck");
        EnzoSimulation sim(c, cfg);
        sim.initialize_from_universe();
        sim.evolve_cycle();
        series.dump(c, sim.state(), 0);
        gen0_states[static_cast<std::size_t>(c.rank())] = sim.state();
        c.barrier();
        sim.evolve_cycle();
        series.dump(c, sim.state(), 1);  // never completes
      });
    } catch (const CrashError&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << to_cstr(kind);
  EXPECT_EQ(injector.counters().count(fault::FaultKind::kCrash), 1u);
  injector.set_enabled(false);

  // The torn dump is detected; the previous generation survived intact.
  {
    auto backend = make_backend(kind, fs, {});
    CheckpointSeries series(*backend, fs, "ck");
    EXPECT_TRUE(series.committed(0)) << to_cstr(kind);
    EXPECT_FALSE(series.committed(1)) << to_cstr(kind);
    EXPECT_TRUE(series.torn(1)) << to_cstr(kind);
    ASSERT_TRUE(series.latest_committed(5).has_value());
    EXPECT_EQ(*series.latest_committed(5), 0u);
  }

  // Recovery: a fresh job restores generation 0 byte-identically and may
  // resume from there — an interrupted dump costs progress, not data.
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(kind, fs, {});
    CheckpointSeries series(*backend, fs, "ck");
    EnzoSimulation sim(c, cfg);
    std::uint64_t gen = series.restore_latest(c, sim.state(), 5);
    EXPECT_EQ(gen, 0u);
    expect_states_equal(gen0_states[static_cast<std::size_t>(c.rank())],
                        sim.state());
    sim.evolve_cycle();  // life goes on
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CrashMatrix,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           return std::string(to_cstr(info.param));
                         });

// With no committed generation at all, restore fails loudly — a torn-only
// series can never silently restart from garbage.
TEST(CrashConsistency, NoCommittedGenerationThrows) {
  const int p = 2;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  const SimulationConfig cfg = config_for_seed(1);
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(Kind::kMpiIo, fs, {});
    CheckpointSeries series(*backend, fs, "ck");
    EnzoSimulation sim(c, cfg);
    EXPECT_THROW(series.restore_latest(c, sim.state(), 3), IoError);
  });
}

// A stray marker with the wrong generation id (e.g. a renamed file) does not
// validate the dump.
TEST(CrashConsistency, MarkerMustNameItsGeneration) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(1));
  const SimulationConfig cfg = config_for_seed(1);
  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(Kind::kMpiIo, fs, {});
    CheckpointSeries series(*backend, fs, "ck");
    EnzoSimulation sim(c, cfg);
    sim.initialize_from_universe();
    series.dump(c, sim.state(), 0);
  });
  auto backend = make_backend(Kind::kMpiIo, fs, {});
  CheckpointSeries series(*backend, fs, "ck");
  ASSERT_TRUE(series.committed(0));
  // Copy gen-0's marker over gen-1's name: same bytes, wrong generation.
  std::vector<std::byte> marker(fs.store().size(series.marker_path(0)));
  fs.store().read_at(series.marker_path(0), 0, marker);
  fs.store().create(series.marker_path(1));
  fs.store().write_at(series.marker_path(1), 0, marker);
  EXPECT_FALSE(series.committed(1));
  EXPECT_FALSE(series.torn(1));  // a lone bad marker is not a torn dump
}

}  // namespace
}  // namespace paramrio::enzo

// Application-level tests: the ENZO-style simulation driver and all three
// I/O backends, including full dump -> restart round-trips verified
// bit-for-bit and cross-backend consistency.
#include <gtest/gtest.h>

#include <memory>

#include "amr/particles_par.hpp"
#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "enzo/simulation.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "pfs/local_fs.hpp"

namespace paramrio::enzo {
namespace {

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

SimulationConfig small_config() {
  SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;  // 1024 particles
  c.n_clumps = 4;
  c.refine.threshold = 3.0;
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;  // timing-free tests
  return c;
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

TEST(EnzoSimulation, InitializeProducesConsistentState) {
  const int p = 4;
  mpi::Runtime rt(rparams(p));
  std::vector<std::vector<std::byte>> hier(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> particle_counts(static_cast<std::size_t>(p));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    const SimulationState& s = sim.state();
    hier[static_cast<std::size_t>(c.rank())] = s.hierarchy.serialize();
    particle_counts[static_cast<std::size_t>(c.rank())] =
        s.my_particles.size();
    // Fields allocated and filled.
    ASSERT_EQ(s.my_fields.size(),
              static_cast<std::size_t>(amr::kNumBaryonFields));
    EXPECT_EQ(s.my_fields[0].size(), s.my_block.cells());
    // Every particle lies inside my block.
    for (std::size_t i = 0; i < s.my_particles.size(); ++i) {
      EXPECT_EQ(amr::rank_of_position({s.my_particles.pos[0][i],
                                       s.my_particles.pos[1][i],
                                       s.my_particles.pos[2][i]},
                                      s.config.root_dims, s.proc_grid),
                c.rank());
    }
    // Subgrids exist (the clumps must trigger refinement) and are owned
    // consistently with the hierarchy.
    std::uint64_t owned = 0;
    for (const auto& g : s.hierarchy.grids()) {
      if (g.level > 0 && g.owner == c.rank()) ++owned;
    }
    EXPECT_EQ(owned, s.my_subgrids.size());
    EXPECT_GT(s.hierarchy.grid_count(), 1u);
  });
  // Replicated hierarchy identical everywhere.
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(hier[static_cast<std::size_t>(r)], hier[0]);
  }
  // All particles accounted for.
  std::uint64_t total = 0;
  for (auto n : particle_counts) total += n;
  EXPECT_EQ(total, small_config().total_particles());
}

TEST(EnzoSimulation, EvolveKeepsInvariants) {
  const int p = 4;
  mpi::Runtime rt(rparams(p));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    for (int cycle = 0; cycle < 3; ++cycle) sim.evolve_cycle();
    const SimulationState& s = sim.state();
    EXPECT_EQ(s.cycle, 3u);
    EXPECT_DOUBLE_EQ(s.time, 3 * small_config().dt);
    counts[static_cast<std::size_t>(c.rank())] = s.my_particles.size();
    for (std::size_t i = 0; i < s.my_particles.size(); ++i) {
      EXPECT_EQ(amr::rank_of_position({s.my_particles.pos[0][i],
                                       s.my_particles.pos[1][i],
                                       s.my_particles.pos[2][i]},
                                      s.config.root_dims, s.proc_grid),
                c.rank());
    }
  });
  std::uint64_t total = 0;
  for (auto n : counts) total += n;
  EXPECT_EQ(total, small_config().total_particles());
}

// ---------------------------------------------------------------------------
// Backend round-trips
// ---------------------------------------------------------------------------

enum class Kind { kHdf4, kMpiIo, kHdf5, kPnetcdf };

std::unique_ptr<IoBackend> make_backend(Kind k, pfs::FileSystem& fs) {
  switch (k) {
    case Kind::kHdf4:
      return std::make_unique<Hdf4SerialBackend>(fs);
    case Kind::kMpiIo:
      return std::make_unique<MpiIoBackend>(fs);
    case Kind::kHdf5:
      return std::make_unique<Hdf5ParallelBackend>(fs);
    case Kind::kPnetcdf:
      return std::make_unique<PnetcdfBackend>(fs);
  }
  throw LogicError("bad backend kind");
}

class BackendSweep
    : public ::testing::TestWithParam<std::tuple<Kind, int>> {};

TEST_P(BackendSweep, DumpRestartRoundTripIsExact) {
  auto [kind, p] = GetParam();
  pfs::LocalFs fs(pfs::LocalFsParams{});
  check::CheckOptions copts;
  copts.padding_alignment = 4096;  // pnetcdf aligns its data region
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);
  mpi::Runtime rt(rparams(p));
  std::vector<SimulationState> originals(static_cast<std::size_t>(p));

  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(kind, fs);
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    sim.evolve_cycle();
    if (c.rank() == 0) tracer.begin_phase("dump");
    c.barrier();
    backend->write_dump(c, sim.state(), "dump");
    originals[static_cast<std::size_t>(c.rank())] = sim.state();

    // Fresh state, restart from the dump.
    if (c.rank() == 0) tracer.begin_phase("restart");
    c.barrier();
    EnzoSimulation sim2(c, small_config());
    backend->read_restart(c, sim2.state(), "dump");
    const SimulationState& orig =
        originals[static_cast<std::size_t>(c.rank())];
    expect_states_equal(orig, sim2.state());
    // Hierarchy geometry identical (owners may be reassigned round-robin).
    ASSERT_EQ(sim2.state().hierarchy.grid_count(),
              orig.hierarchy.grid_count());
    for (std::size_t i = 0; i < orig.hierarchy.grids().size(); ++i) {
      const auto& ga = orig.hierarchy.grids()[i];
      const auto& gb = sim2.state().hierarchy.grids()[i];
      EXPECT_EQ(ga.id, gb.id);
      EXPECT_EQ(ga.dims, gb.dims);
      EXPECT_EQ(ga.left_edge, gb.left_edge);
    }
    // Restart subgrid data matches the original owner's data: verify
    // against the analytic universe (same resample, same float values).
    for (const amr::Grid& g : sim2.state().my_subgrids) {
      amr::Grid expect;
      expect.desc = g.desc;
      sim.universe().fill_fields(expect, sim2.state().time);
      for (int f = 0; f < amr::kNumBaryonFields; ++f) {
        EXPECT_EQ(g.fields[static_cast<std::size_t>(f)],
                  expect.fields[static_cast<std::size_t>(f)])
            << "subgrid " << g.desc.id << " field " << f;
      }
    }
  });
  // The whole dump+restart must audit clean: no cross-rank write conflicts,
  // holes, reads of never-written bytes, or descriptor-lifecycle bugs.
  check::CheckReport audit = check::analyze_trace(tracer, copts, &fs.store());
  EXPECT_TRUE(audit.clean()) << audit.format();
  EXPECT_EQ(audit.count(check::Kind::kWriteConflict), 0u);
  EXPECT_EQ(audit.count(check::Kind::kHole), 0u);
  EXPECT_EQ(audit.count(check::Kind::kReadBeforeWrite), 0u);
  EXPECT_EQ(audit.count(check::Kind::kFdLeak), 0u);
}

TEST_P(BackendSweep, InitialReadPartitionsEveryGrid) {
  auto [kind, p] = GetParam();
  pfs::LocalFs fs(pfs::LocalFsParams{});
  check::CheckOptions copts;
  copts.padding_alignment = 4096;  // pnetcdf aligns its data region
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(kind, fs);
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    std::size_t n_subgrids = sim.state().hierarchy.grid_count() - 1;
    if (c.rank() == 0) tracer.begin_phase("dump");
    c.barrier();
    backend->write_dump(c, sim.state(), "init");

    if (c.rank() == 0) tracer.begin_phase("initial-read");
    c.barrier();
    EnzoSimulation fresh(c, small_config());
    backend->read_initial(c, fresh.state(), "init");
    const SimulationState& s = fresh.state();
    // Top-grid identical to the generator's block state.
    for (std::size_t f = 0; f < s.my_fields.size(); ++f) {
      EXPECT_EQ(s.my_fields[f], sim.state().my_fields[f]);
    }
    amr::ParticleSet pa = s.my_particles, pb = sim.state().my_particles;
    amr::local_sort_by_id(pa);
    amr::local_sort_by_id(pb);
    EXPECT_EQ(pa, pb);
    // Every stored subgrid became P pieces; I hold one piece per subgrid.
    EXPECT_EQ(s.my_subgrids.size(), n_subgrids);
    EXPECT_EQ(s.hierarchy.grid_count(),
              1 + n_subgrids * static_cast<std::size_t>(p));
    // Piece data matches the analytic fields on the piece geometry.
    for (const amr::Grid& piece : s.my_subgrids) {
      amr::Grid expect;
      expect.desc = piece.desc;
      sim.universe().fill_fields(expect, s.time);
      EXPECT_EQ(piece.fields[0], expect.fields[0]);
    }
  });
  check::CheckReport audit = check::analyze_trace(tracer, copts, &fs.store());
  EXPECT_TRUE(audit.clean()) << audit.format();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BackendSweep,
    ::testing::Combine(::testing::Values(Kind::kHdf4, Kind::kMpiIo,
                                         Kind::kHdf5, Kind::kPnetcdf),
                       ::testing::Values(1, 2, 4, 8)));

TEST(BackendMpiIo, DumpHitsViewFlattenCache) {
  // The eight baryon-field writes install the same subarray filetype at a
  // different displacement each time — the flattening must be computed once
  // and reused, visible as cache hits in the persisted file stats.
  const int p = 4;
  obs::Collector col;
  obs::Attach collector_scope(&col);
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    MpiIoBackend mb(fs);
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    mb.write_dump(c, sim.state(), "dump");
  });
  const obs::MetricsRegistry& reg = col.registry();
  std::string scope;
  for (const auto& [s, _] : reg.scopes()) {
    if (s.rfind("file:dump.enzo|", 0) == 0) scope = s;
  }
  ASSERT_FALSE(scope.empty()) << reg.format();
  EXPECT_GT(reg.get(scope, "view_flatten_cache_hits"), 0u) << reg.format();
}

TEST(BackendCross, MpiIoAndHdf5ProduceSameRestartState) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    MpiIoBackend mb(fs);
    Hdf5ParallelBackend hb(fs);
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    mb.write_dump(c, sim.state(), "m");
    hb.write_dump(c, sim.state(), "h");

    EnzoSimulation s1(c, small_config());
    EnzoSimulation s2(c, small_config());
    mb.read_restart(c, s1.state(), "m");
    hb.read_restart(c, s2.state(), "h");
    expect_states_equal(s1.state(), s2.state());
  });
}

TEST(BackendCross, Hdf4MatchesMpiIo) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    Hdf4SerialBackend h4(fs);
    MpiIoBackend mb(fs);
    EnzoSimulation sim(c, small_config());
    sim.initialize_from_universe();
    h4.write_dump(c, sim.state(), "a");
    mb.write_dump(c, sim.state(), "b");

    EnzoSimulation s1(c, small_config());
    EnzoSimulation s2(c, small_config());
    h4.read_restart(c, s1.state(), "a");
    mb.read_restart(c, s2.state(), "b");
    expect_states_equal(s1.state(), s2.state());
  });
}

TEST(DumpMeta, SerializeRoundTrip) {
  DumpMeta m;
  m.time = 7.25;
  m.cycle = 42;
  m.n_particles = 12345;
  m.hierarchy.set_root({32, 32, 32});
  DumpMeta back = DumpMeta::deserialize(m.serialize());
  EXPECT_DOUBLE_EQ(back.time, 7.25);
  EXPECT_EQ(back.cycle, 42u);
  EXPECT_EQ(back.n_particles, 12345u);
  EXPECT_EQ(back.hierarchy, m.hierarchy);
}

TEST(ParticleArrays, ToFromBytesAllArrays) {
  amr::ParticleSet p;
  p.resize(4);
  for (std::size_t i = 0; i < 4; ++i) {
    p.id[i] = static_cast<std::int64_t>(i * 7);
    for (int d = 0; d < 3; ++d) {
      p.pos[static_cast<std::size_t>(d)][i] = 0.1 * (i + d);
      p.vel[static_cast<std::size_t>(d)][i] = -0.3 * (i + d);
    }
    p.mass[i] = 1.0 + i;
    p.attr[0][i] = static_cast<float>(2 * i);
    p.attr[1][i] = static_cast<float>(3 * i);
  }
  amr::ParticleSet q;
  q.resize(4);
  for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
    std::vector<std::byte> buf(4 * kParticleArrays[a].elem_size);
    particle_array_to_bytes(p, a, 0, 4, buf.data());
    particle_array_from_bytes(q, a, 4, buf.data());
  }
  EXPECT_EQ(p, q);
}

TEST(Config, ProblemSizes) {
  EXPECT_EQ(SimulationConfig::for_size(ProblemSize::kAmr64).root_dims[0], 64u);
  EXPECT_EQ(SimulationConfig::for_size(ProblemSize::kAmr128).root_dims[1],
            128u);
  EXPECT_EQ(SimulationConfig::for_size(ProblemSize::kAmr256).root_dims[2],
            256u);
  EXPECT_EQ(to_string(ProblemSize::kAmr64), "AMR64");
  auto c = SimulationConfig::for_size(ProblemSize::kAmr64);
  EXPECT_EQ(c.root_cells(), 64ull * 64 * 64);
  EXPECT_EQ(c.total_particles(),
            static_cast<std::uint64_t>(c.particles_per_cell * 64 * 64 * 64));
}

}  // namespace
}  // namespace paramrio::enzo

// Property-based tests: randomised sweeps over the invariants that hold by
// construction — byte-exact I/O round-trips for arbitrary access patterns,
// hyperslab enumeration vs naive selection, and physics/restart consistency
// (a restarted simulation continues exactly like an uninterrupted one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "amr/particles_par.hpp"
#include "base/rng.hpp"
#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "hdf4/sd_file.hpp"
#include "hdf5/dataspace.hpp"
#include "pnetcdf/nc_file.hpp"
#include "mpi/io/file.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"

namespace paramrio {
namespace {

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

// ---------------------------------------------------------------------------
// Random noncontiguous collective writes land every byte exactly once.
// ---------------------------------------------------------------------------

class RandomPatternSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternSweep, CollectiveWriteOfRandomDisjointSegments) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int p = 4;
  const std::uint64_t file_bytes = 64 * KiB;

  // Build a random partition of [0, file_bytes) into labelled pieces, then
  // deal the pieces round-robin to ranks as their indexed filetypes.
  Rng rng(seed);
  std::vector<std::uint64_t> cuts = {0, file_bytes};
  for (int i = 0; i < 40; ++i) {
    cuts.push_back(rng.next_below(file_bytes));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<std::vector<mpi::Segment>> per_rank(p);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    per_rank[i % static_cast<std::size_t>(p)].push_back(
        mpi::Segment{cuts[i], cuts[i + 1] - cuts[i]});
  }
  for (auto& segs : per_rank) {
    ASSERT_FALSE(segs.empty());
  }

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    mpi::io::File f(c, fs, "rand", pfs::OpenMode::kCreate);
    const auto& segs = per_rank[static_cast<std::size_t>(c.rank())];
    f.set_view(0, mpi::Datatype::indexed(segs));
    std::uint64_t total = 0;
    for (const auto& s : segs) total += s.length;
    // Every byte carries its absolute file offset (mod 251) as payload.
    std::vector<std::byte> buf(total);
    std::uint64_t pos = 0;
    for (const auto& s : segs) {
      for (std::uint64_t b = 0; b < s.length; ++b) {
        buf[pos + b] = static_cast<std::byte>((s.offset + b) % 251);
      }
      pos += s.length;
    }
    f.write_at_all(0, buf);
    // Read back collectively through the same pattern.
    std::vector<std::byte> back(total);
    f.read_at_all(0, back);
    EXPECT_EQ(back, buf);
    f.close();
  });

  // Serial byte-exact validation of the whole file.
  std::vector<std::byte> all(file_bytes);
  fs.store().read_at("rand", 0, all);
  for (std::uint64_t i = 0; i < file_bytes; ++i) {
    ASSERT_EQ(all[i], static_cast<std::byte>(i % 251)) << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternSweep,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Collective I/O equals independent I/O byte-for-byte across randomised
// interleaved views, file systems, and hint configurations — including
// hole-y views and hulls that cross EOF — and every configuration passes
// the I/O-correctness audit clean.
// ---------------------------------------------------------------------------

class CollectiveEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveEquivalenceSweep, CollectiveMatchesIndependentAndAuditsClean) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 9176 + 11);
  const int p = 2 << (seed % 3);  // 2, 4, 8 ranks
  const std::uint64_t file_bytes = 32 * KiB + seed * KiB + 37;  // odd size

  // Hint matrix: alignment mode, aggregator restriction, small collective
  // buffer so multi-window exchanges are exercised.
  mpi::io::Hints hints;
  hints.cb_buffer_size = 8 * KiB;
  const std::uint64_t aligns[] = {1, mpi::io::Hints::kCbAlignAuto, 8 * KiB};
  hints.cb_align = aligns[seed % 3];
  hints.cb_nodes = (seed % 2 == 0) ? 0 : 2;

  // Alternate between a plain local fs and a striped fs (varying stripes).
  const bool striped = (seed % 2 == 1);
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = (16 * KiB) << (seed % 3);
  sp.n_io_nodes = 4;
  std::unique_ptr<net::Network> nw;
  std::unique_ptr<pfs::FileSystem> fs;
  if (striped) {
    nw = std::make_unique<net::Network>(np, p, sp.n_io_nodes);
    fs = std::make_unique<pfs::StripedFs>(sp, *nw);
  } else {
    fs = std::make_unique<pfs::LocalFs>(pfs::LocalFsParams{});
  }
  check::CheckOptions copts;
  copts.label = "collective-equivalence sweep seed " + std::to_string(seed);
  if (striped) copts.stripe_size = sp.stripe_size;
  trace::IoTracer tracer;
  fs->attach_observer(&tracer);

  // Random partition of [0, file_bytes) dealt round-robin (with a
  // seed-dependent shift) to ranks: every rank's view is hole-y and all
  // views interleave.
  std::vector<std::uint64_t> cuts = {0, file_bytes};
  for (int i = 0; i < 36; ++i) cuts.push_back(rng.next_below(file_bytes));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<std::vector<mpi::Segment>> per_rank(p);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    per_rank[(i + seed) % static_cast<std::size_t>(p)].push_back(
        mpi::Segment{cuts[i], cuts[i + 1] - cuts[i]});
  }
  for (auto& segs : per_rank) ASSERT_FALSE(segs.empty());

  mpi::RuntimeParams rp = rparams(p);
  if (striped) rp.extra_fabric_nodes = sp.n_io_nodes;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    const auto& segs = per_rank[static_cast<std::size_t>(c.rank())];
    std::uint64_t total = 0;
    for (const auto& s : segs) total += s.length;
    std::vector<std::byte> buf(total);
    std::uint64_t pos = 0;
    for (const auto& s : segs) {
      for (std::uint64_t b = 0; b < s.length; ++b) {
        buf[pos + b] = static_cast<std::byte>((s.offset + b) % 251);
      }
      pos += s.length;
    }

    {  // Collective write + collective read-back.
      mpi::io::File f(c, *fs, "coll", pfs::OpenMode::kCreate, hints);
      f.set_view(0, mpi::Datatype::indexed(segs));
      f.write_at_all(0, buf);
      std::vector<std::byte> back(total);
      f.read_at_all(0, back);
      EXPECT_EQ(back, buf);
      f.close();
    }
    {  // Independent write + read of the same pattern.  Sieving writes are
       // off here: their read-modify-write legitimately reads unwritten
       // interior bytes, which the audit would (correctly) flag.
      mpi::io::Hints ih = hints;
      ih.data_sieving_writes = false;
      mpi::io::File f(c, *fs, "ind", pfs::OpenMode::kCreate, ih);
      f.set_view(0, mpi::Datatype::indexed(segs));
      f.write_at(0, buf);
      c.barrier();
      std::vector<std::byte> back(total);
      f.read_at(0, back);
      EXPECT_EQ(back, buf);
      f.close();
    }
    {  // EOF-adjacent hull: extend each rank's view past the end of the
       // file; the collective read must zero-fill the tail, not throw.
      auto ext = segs;
      ext.push_back(mpi::Segment{
          file_bytes + static_cast<std::uint64_t>(c.rank()) * 512, 512});
      mpi::io::File f(c, *fs, "coll", pfs::OpenMode::kRead, hints);
      f.set_view(0, mpi::Datatype::indexed(ext));
      std::vector<std::byte> back(total + 512);
      f.read_at_all(0, back);
      for (std::uint64_t i = 0; i < total; ++i) EXPECT_EQ(back[i], buf[i]);
      for (std::uint64_t i = total; i < total + 512; ++i)
        EXPECT_EQ(back[i], std::byte{0});
      f.close();
    }
  });

  // Byte-exact serial validation: both files identical and fully correct.
  ASSERT_EQ(fs->store().size("coll"), file_bytes);
  ASSERT_EQ(fs->store().size("ind"), file_bytes);
  std::vector<std::byte> a(file_bytes), b(file_bytes);
  fs->store().read_at("coll", 0, a);
  fs->store().read_at("ind", 0, b);
  EXPECT_EQ(a, b);
  for (std::uint64_t i = 0; i < file_bytes; ++i) {
    ASSERT_EQ(a[i], static_cast<std::byte>(i % 251)) << "byte " << i;
  }
  check::CheckReport r = check::analyze_trace(tracer, copts, &fs->store());
  EXPECT_TRUE(r.clean()) << r.format();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveEquivalenceSweep,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Hyperslab enumeration equals naive per-element selection.
// ---------------------------------------------------------------------------

class HyperslabFuzz : public ::testing::TestWithParam<int> {};

TEST_P(HyperslabFuzz, RunsMatchNaiveEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 3);
  std::vector<std::uint64_t> dims(1 + rng.next_below(3));
  for (auto& d : dims) d = 2 + rng.next_below(9);
  hdf5::Dataspace space(dims);

  std::vector<hdf5::HyperslabDim> slab(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    auto& h = slab[d];
    h.block = 1 + rng.next_below(std::max<std::uint64_t>(1, dims[d] / 2));
    h.stride = h.block + rng.next_below(3);
    std::uint64_t max_count = (dims[d] - h.block) / h.stride + 1;
    h.count = 1 + rng.next_below(max_count);
    std::uint64_t span = (h.count - 1) * h.stride + h.block;
    h.start = rng.next_below(dims[d] - span + 1);
  }
  space.select_hyperslab(slab);

  // Naive: mark every selected linear index.
  std::uint64_t total = space.total_elements();
  std::vector<bool> selected(total, false);
  std::vector<std::uint64_t> strides(dims.size(), 1);
  for (std::size_t d = dims.size() - 1; d > 0; --d) {
    strides[d - 1] = strides[d] * dims[d];
  }
  std::vector<std::uint64_t> idx(dims.size(), 0);
  std::function<void(std::size_t, std::uint64_t)> mark =
      [&](std::size_t d, std::uint64_t base) {
        const auto& h = slab[d];
        for (std::uint64_t cnt = 0; cnt < h.count; ++cnt) {
          for (std::uint64_t b = 0; b < h.block; ++b) {
            std::uint64_t i = h.start + cnt * h.stride + b;
            if (d + 1 == dims.size()) {
              selected[base + i] = true;
            } else {
              mark(d + 1, base + i * strides[d]);
            }
          }
        }
      };
  mark(0, 0);

  std::vector<bool> from_runs(total, false);
  space.for_each_run([&](const hdf5::Dataspace::Run& r) {
    for (std::uint64_t i = 0; i < r.element_count; ++i) {
      ASSERT_FALSE(from_runs[r.element_offset + i]) << "duplicate element";
      from_runs[r.element_offset + i] = true;
    }
  });
  EXPECT_EQ(from_runs, selected);
  std::uint64_t count = 0;
  for (bool b : selected) count += b ? 1 : 0;
  EXPECT_EQ(space.selected_elements(), count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyperslabFuzz, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Restart continuation: dump at cycle k, restart, evolve one more cycle —
// identical to the uninterrupted run.
// ---------------------------------------------------------------------------

enum class Kind { kHdf4, kMpiIo, kHdf5, kPnetcdf };

class RestartContinuation
    : public ::testing::TestWithParam<std::tuple<Kind, int>> {};

TEST_P(RestartContinuation, ContinuedRunMatchesUninterrupted) {
  auto [kind, p] = GetParam();
  enzo::SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.25;
  config.compute_per_cell = 0.0;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    std::unique_ptr<enzo::IoBackend> backend;
    switch (kind) {
      case Kind::kHdf4:
        backend = std::make_unique<enzo::Hdf4SerialBackend>(fs);
        break;
      case Kind::kMpiIo:
        backend = std::make_unique<enzo::MpiIoBackend>(fs);
        break;
      case Kind::kHdf5:
        backend = std::make_unique<enzo::Hdf5ParallelBackend>(fs);
        break;
      case Kind::kPnetcdf:
        backend = std::make_unique<enzo::PnetcdfBackend>(fs);
        break;
    }

    // Uninterrupted: 3 cycles.
    enzo::EnzoSimulation gold(c, config);
    gold.initialize_from_universe();
    gold.evolve_cycle();
    gold.evolve_cycle();
    gold.evolve_cycle();

    // Interrupted: 2 cycles, dump, restart, 1 more cycle.
    enzo::EnzoSimulation first(c, config);
    first.initialize_from_universe();
    first.evolve_cycle();
    first.evolve_cycle();
    backend->write_dump(c, first.state(), "ckpt");

    enzo::EnzoSimulation resumed(c, config);
    backend->read_restart(c, resumed.state(), "ckpt");
    resumed.evolve_cycle();

    EXPECT_EQ(resumed.state().cycle, gold.state().cycle);
    EXPECT_DOUBLE_EQ(resumed.state().time, gold.state().time);
    EXPECT_EQ(resumed.state().my_fields, gold.state().my_fields);
    amr::ParticleSet a = resumed.state().my_particles;
    amr::ParticleSet b = gold.state().my_particles;
    amr::local_sort_by_id(a);
    amr::local_sort_by_id(b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(resumed.state().hierarchy.grid_count(),
              gold.state().hierarchy.grid_count());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RestartContinuation,
    ::testing::Combine(::testing::Values(Kind::kHdf4, Kind::kMpiIo,
                                         Kind::kHdf5, Kind::kPnetcdf),
                       ::testing::Values(2, 4)));

// ---------------------------------------------------------------------------
// Independent and collective writes of the same pattern produce identical
// file bytes.
// ---------------------------------------------------------------------------

class WriteEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WriteEquivalence, CollectiveAndIndependentAgree) {
  const std::uint64_t n = 12;
  const int p = 4;
  const auto seed = static_cast<unsigned>(GetParam());

  auto run_mode = [&](bool collective, const std::string& path,
                      pfs::LocalFs& fs) {
    mpi::Runtime rt(rparams(p));
    rt.run([&](mpi::Comm& c) {
      mpi::io::File f(c, fs, path, pfs::OpenMode::kCreate);
      auto [ys, yc] = amr::block_range(n, p, c.rank());
      f.set_view(0, mpi::Datatype::subarray({n, n, n}, {n, yc, n},
                                            {0, ys, 0}, 4));
      std::vector<std::byte> buf(n * yc * n * 4);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(
            (i * 13 + static_cast<std::size_t>(c.rank()) * 101 + seed) & 0xff);
      }
      if (collective) {
        f.write_at_all(0, buf);
      } else {
        f.write_at(0, buf);
        c.barrier();
      }
      f.close();
    });
  };

  pfs::LocalFs fs(pfs::LocalFsParams{});
  run_mode(true, "coll", fs);
  run_mode(false, "ind", fs);
  std::vector<std::byte> a(fs.store().size("coll"));
  std::vector<std::byte> b(fs.store().size("ind"));
  ASSERT_EQ(a.size(), b.size());
  fs.store().read_at("coll", 0, a);
  fs.store().read_at("ind", 0, b);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteEquivalence, ::testing::Range(0, 6));


// ---------------------------------------------------------------------------
// Format-scanner robustness: random truncation / corruption of valid files
// must raise FormatError or IoError, never crash or loop.
// ---------------------------------------------------------------------------

class FormatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FormatFuzz, TruncatedAndCorruptedFilesFailCleanly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 1);
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    // Build one valid file of each format.
    {
      hdf4::SdFile f = hdf4::SdFile::create(fs, "sd");
      f.write_dataset("d", hdf4::NumberType::kFloat32, {16},
                      std::vector<std::byte>(64));
      double a = 1.0;
      f.write_attribute("t", std::as_bytes(std::span(&a, 1)));
      f.close();
    }
    {
      hdf5::H5File f = hdf5::H5File::create(fs, "h5");
      auto d = f.create_dataset("d", hdf5::NumberType::kFloat32,
                                hdf5::Dataspace({16}));
      d.write_all(std::vector<std::byte>(64));
      f.close();
    }
    {
      pnetcdf::NcFile f = pnetcdf::NcFile::create(c, fs, "nc");
      int dim = f.def_dim("n", 16);
      int v = f.def_var("d", pnetcdf::NcType::kFloat, {dim});
      f.enddef();
      f.put_var_all(v, std::vector<std::byte>(64));
      f.close();
    }

    for (const char* name : {"sd", "h5", "nc"}) {
      std::uint64_t size = fs.store().size(name);
      // Truncate to a random prefix.
      std::uint64_t cut = rng.next_below(size);
      std::vector<std::byte> prefix(cut);
      if (cut > 0) fs.store().read_at(name, 0, prefix);
      std::string tname = std::string(name) + "_trunc";
      fs.store().create(tname);
      fs.store().write_at(tname, 0, prefix);
      // Corrupt one random byte of a full copy.
      std::vector<std::byte> copy(size);
      fs.store().read_at(name, 0, copy);
      copy[rng.next_below(size)] ^= std::byte{0xFF};
      std::string cname = std::string(name) + "_corrupt";
      fs.store().create(cname);
      fs.store().write_at(cname, 0, copy);
    }

    auto expect_clean_failure_or_valid = [&](auto&& open_fn) {
      try {
        open_fn();
      } catch (const Error&) {
        // FormatError / IoError / LogicError: all acceptable clean failures.
      }
    };
    for (const char* suffix : {"_trunc", "_corrupt"}) {
      expect_clean_failure_or_valid([&] {
        hdf4::SdFile f = hdf4::SdFile::open(fs, std::string("sd") + suffix);
        std::vector<std::byte> out(f.info("d").data_bytes);
        f.read_dataset("d", out);
      });
      expect_clean_failure_or_valid([&] {
        hdf5::H5File f =
            hdf5::H5File::open(fs, std::string("h5") + suffix);
        auto d = f.open_dataset("d");
        std::vector<std::byte> out(d.info().data_bytes);
        d.read_all(out);
      });
      expect_clean_failure_or_valid([&] {
        pnetcdf::NcFile f =
            pnetcdf::NcFile::open(c, fs, std::string("nc") + suffix);
        int v = f.inq_varid("d");
        std::vector<std::byte> out(f.var(v).bytes);
        f.get_var_all(v, out);
      });
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatFuzz, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Star formation: particle population grows, ids stay unique, dumps carry
// the new particles through a restart.
// ---------------------------------------------------------------------------

TEST(StarFormation, PopulationGrowsAndRoundTrips) {
  enzo::SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.25;
  config.star_formation_rate = 0.1;  // +10% per cycle
  config.compute_per_cell = 0.0;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(4));
  std::vector<std::uint64_t> counts(4, 0);
  rt.run([&](mpi::Comm& c) {
    enzo::EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    std::uint64_t before =
        c.allreduce_sum(sim.state().my_particles.size());
    sim.evolve_cycle();
    sim.evolve_cycle();
    std::uint64_t after = c.allreduce_sum(sim.state().my_particles.size());
    EXPECT_GT(after, before + before / 10);  // ~+21% over two cycles

    // Ids unique across ranks.
    auto all_ids = c.allgatherv(std::as_bytes(
        std::span(sim.state().my_particles.id.data(),
                  sim.state().my_particles.id.size())));
    std::set<std::int64_t> uniq;
    std::uint64_t total = 0;
    for (const auto& b : all_ids) {
      std::size_t n = b.size() / 8;
      total += n;
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t id;
        std::memcpy(&id, b.data() + i * 8, 8);
        uniq.insert(id);
      }
    }
    EXPECT_EQ(uniq.size(), total);

    // The grown population survives a dump/restart exactly.
    enzo::MpiIoBackend backend(fs);
    backend.write_dump(c, sim.state(), "stars");
    enzo::EnzoSimulation fresh(c, config);
    backend.read_restart(c, fresh.state(), "stars");
    amr::ParticleSet a = sim.state().my_particles;
    amr::ParticleSet b2 = fresh.state().my_particles;
    amr::local_sort_by_id(a);
    amr::local_sort_by_id(b2);
    EXPECT_EQ(a, b2);
  });
}
}  // namespace
}  // namespace paramrio

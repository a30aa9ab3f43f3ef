// Unit + integration tests for the HDF5-analogue: dataspaces, hyperslabs,
// serial and parallel drivers, and the four modelled overhead sources.
#include <gtest/gtest.h>

#include <cstring>

#include "hdf5/h5_file.hpp"
#include "pfs/local_fs.hpp"

namespace paramrio::hdf5 {
namespace {

using mpi::Comm;
using mpi::Runtime;
using mpi::RuntimeParams;

RuntimeParams rparams(int n) {
  RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> seq_f64(std::size_t n, double base = 0.0) {
  std::vector<std::byte> v(n * 8);
  for (std::size_t i = 0; i < n; ++i) {
    double d = base + static_cast<double>(i);
    std::memcpy(v.data() + i * 8, &d, 8);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Dataspace / hyperslab
// ---------------------------------------------------------------------------

TEST(Dataspace, DefaultsToAllSelected) {
  Dataspace s({4, 5});
  EXPECT_EQ(s.total_elements(), 20u);
  EXPECT_EQ(s.selected_elements(), 20u);
  EXPECT_TRUE(s.is_all_selected());
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].element_offset, 0u);
  EXPECT_EQ(runs[0].element_count, 20u);
}

TEST(Dataspace, BlockSelection2D) {
  Dataspace s({4, 6});
  s.select_block({1, 2}, {2, 3});
  EXPECT_EQ(s.selected_elements(), 6u);
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].element_offset, 1u * 6 + 2);
  EXPECT_EQ(runs[0].element_count, 3u);
  EXPECT_EQ(runs[1].element_offset, 2u * 6 + 2);
}

TEST(Dataspace, FullRowsCoalesce) {
  Dataspace s({4, 6});
  s.select_block({1, 0}, {2, 6});
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].element_offset, 6u);
  EXPECT_EQ(runs[0].element_count, 12u);
}

TEST(Dataspace, StridedHyperslab) {
  Dataspace s({10});
  s.select_hyperslab({HyperslabDim{1, 3, 3, 2}});  // [1,2],[4,5],[7,8]
  EXPECT_EQ(s.selected_elements(), 6u);
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].element_offset, 1u);
  EXPECT_EQ(runs[0].element_count, 2u);
  EXPECT_EQ(runs[2].element_offset, 7u);
}

TEST(Dataspace, AdjacentStrideBlocksMerge) {
  Dataspace s({12});
  s.select_hyperslab({HyperslabDim{0, 4, 3, 4}});  // stride == block
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].element_count, 12u);
}

TEST(Dataspace, HyperslabValidation) {
  Dataspace s({8, 8});
  EXPECT_THROW(s.select_hyperslab({HyperslabDim{0, 1, 9, 1}}), LogicError);
  EXPECT_THROW(
      s.select_hyperslab({HyperslabDim{0, 1, 8, 1}, HyperslabDim{7, 1, 2, 1}}),
      LogicError);
  EXPECT_THROW(
      s.select_hyperslab({HyperslabDim{0, 1, 1, 2}, HyperslabDim{0, 1, 1, 1}}),
      LogicError);  // stride < block
  EXPECT_THROW(s.select_block({0}, {1}), LogicError);  // rank mismatch
}

TEST(Dataspace, RecursionStepsGrowWithSelectionFragmentation) {
  // Same element count (64), different fragmentation: a row is one run, a
  // column is 64 one-element runs and costs more iterator steps.
  Dataspace coarse({64, 64});
  coarse.select_block({0, 0}, {1, 64});  // one full row
  Dataspace fine({64, 64});
  fine.select_block({0, 0}, {64, 1});  // one element per row
  std::uint64_t coarse_steps = coarse.for_each_run([](const auto&) {});
  std::uint64_t fine_steps = fine.for_each_run([](const auto&) {});
  EXPECT_GT(fine_steps, coarse_steps);
}

TEST(Dataspace, ThreeDBlockMatchesManualIndexing) {
  Dataspace s({4, 4, 4});
  s.select_block({1, 2, 1}, {2, 2, 2});
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 4u);
  auto lin = [](std::uint64_t z, std::uint64_t y, std::uint64_t x) {
    return (z * 4 + y) * 4 + x;
  };
  EXPECT_EQ(runs[0].element_offset, lin(1, 2, 1));
  EXPECT_EQ(runs[1].element_offset, lin(1, 3, 1));
  EXPECT_EQ(runs[2].element_offset, lin(2, 2, 1));
  EXPECT_EQ(runs[3].element_offset, lin(2, 3, 1));
}

// ---------------------------------------------------------------------------
// Serial driver
// ---------------------------------------------------------------------------

TEST(H5FileSerial, CreateWriteReopenRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    auto data = seq_f64(27, 100.0);
    {
      H5File f = H5File::create(fs, "out.h5");
      Dataset d =
          f.create_dataset("density", NumberType::kFloat64, Dataspace({3, 3, 3}));
      d.write_all(data);
      d.close();
      double t = 0.5;
      f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
      f.close();
    }
    {
      H5File f = H5File::open(fs, "out.h5");
      ASSERT_TRUE(f.has_dataset("density"));
      Dataset d = f.open_dataset("density");
      EXPECT_EQ(d.info().dims, (std::vector<std::uint64_t>{3, 3, 3}));
      std::vector<std::byte> out(27 * 8);
      d.read_all(out);
      EXPECT_EQ(out, data);
      auto attr = f.read_attribute("time");
      double t;
      std::memcpy(&t, attr.data(), 8);
      EXPECT_DOUBLE_EQ(t, 0.5);
      f.close();
    }
  });
}

TEST(H5FileSerial, HyperslabPartialWriteRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    H5File f = H5File::create(fs, "x.h5");
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({4, 4}));
    d.write_all(seq_f64(16));
    // Overwrite the 2x2 centre.
    Dataspace sel({4, 4});
    sel.select_block({1, 1}, {2, 2});
    d.write(sel, seq_f64(4, 1000.0));
    // Read a column through the centre.
    Dataspace col({4, 4});
    col.select_block({0, 2}, {4, 1});
    std::vector<std::byte> out(4 * 8);
    d.read(col, out);
    double v[4];
    std::memcpy(v, out.data(), 32);
    EXPECT_DOUBLE_EQ(v[0], 2.0);     // untouched row 0
    EXPECT_DOUBLE_EQ(v[1], 1001.0);  // centre write [1][2] = 1000+1
    EXPECT_DOUBLE_EQ(v[2], 1003.0);  // centre write [2][2] = 1000+3
    EXPECT_DOUBLE_EQ(v[3], 14.0);    // untouched row 3
    d.close();
    f.close();
  });
}

TEST(H5FileSerial, MultipleDatasetsChainAcrossReopen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    {
      H5File f = H5File::create(fs, "m.h5");
      for (int i = 0; i < 8; ++i) {
        Dataset d = f.create_dataset("ds" + std::to_string(i),
                                     NumberType::kFloat64, Dataspace({16}));
        d.write_all(seq_f64(16, i * 100.0));
        d.close();
      }
      f.close();
    }
    H5File f = H5File::open(fs, "m.h5");
    EXPECT_EQ(f.dataset_names().size(), 8u);
    for (int i = 0; i < 8; ++i) {
      Dataset d = f.open_dataset("ds" + std::to_string(i));
      std::vector<std::byte> out(16 * 8);
      d.read_all(out);
      double v;
      std::memcpy(&v, out.data(), 8);
      EXPECT_DOUBLE_EQ(v, i * 100.0);
    }
    f.close();
  });
}

TEST(H5FileSerial, BufferSizeValidation) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    H5File f = H5File::create(fs, "v.h5");
    Dataset d = f.create_dataset("a", NumberType::kFloat32, Dataspace({8}));
    EXPECT_THROW(d.write_all(std::vector<std::byte>(31)), LogicError);
    Dataspace wrong({9});
    EXPECT_THROW(d.write(wrong, std::vector<std::byte>(36)), LogicError);
    f.close();
  });
}

TEST(H5FileSerial, AlignmentPlacesDataOnBoundary) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    FileConfig cfg;
    cfg.alignment = 64 * KiB;
    H5File f = H5File::create(fs, "a.h5", cfg);
    Dataset d = f.create_dataset("x", NumberType::kFloat64, Dataspace({100}));
    EXPECT_EQ(d.info().data_addr % (64 * KiB), 0u);
    d.write_all(seq_f64(100));
    f.close();

    // Unaligned default: data starts right after the object header.
    H5File g = H5File::create(fs, "b.h5");
    Dataset e = g.create_dataset("x", NumberType::kFloat64, Dataspace({100}));
    EXPECT_NE(e.info().data_addr % (64 * KiB), 0u);
    g.close();
  });
}

// Exhaustive corruption: flip every byte of a tiny file with three masks,
// then reopen and read everything.  Each mutation must either still read or
// throw a paramrio::Error — never std::bad_alloc or a hang.
TEST(H5File, EveryByteFlipFailsCleanly) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    H5File f = H5File::create(fs, "t.h5");
    Dataset d = f.create_dataset("d", NumberType::kFloat64, Dataspace({2, 2}));
    d.write_all(seq_f64(4));
    d.close();
    double t = 0.5;
    f.write_attribute("a", std::as_bytes(std::span(&t, 1)));
    Dataset e = f.create_dataset("e", NumberType::kInt32, Dataspace({3}));
    e.close();  // never written: its data lies past EOF
    f.close();
  });
  std::vector<std::byte> valid(fs.store().size("t.h5"));
  fs.store().read_at("t.h5", 0, valid);

  int rejected = 0;
  rt.run([&](Comm&) {
    // The unmutated file opens although e's data lies past EOF.
    EXPECT_EQ(H5File::open(fs, "t.h5").dataset_names().size(), 2u);
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (std::byte mask : {std::byte{0xFF}, std::byte{0x80}, std::byte{1}}) {
        std::vector<std::byte> bad = valid;
        bad[i] ^= mask;
        fs.store().create("m.h5");
        fs.store().write_at("m.h5", 0, bad);
        try {
          H5File f = H5File::open(fs, "m.h5");
          f.read_attribute("a");
          for (const std::string& name : f.dataset_names()) {
            Dataset d = f.open_dataset(name);
            std::vector<std::byte> out(d.info().data_bytes);
            d.read_all(out);  // e throws IoError: its data is past EOF
          }
          f.close();
        } catch (const Error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "byte " << i << " mask "
                        << std::to_integer<int>(mask) << ": " << e.what();
        }
      }
    }
    // A chain pointer aimed back at the first record (offset 32) would loop
    // forever; no single flip above builds one.
    std::uint64_t second = 0;
    std::memcpy(&second, valid.data() + 40, 8);
    std::vector<std::byte> loop = valid;
    const std::uint64_t first = 32;
    std::memcpy(loop.data() + second + 8, &first, 8);
    fs.store().create("m.h5");
    fs.store().write_at("m.h5", 0, loop);
    EXPECT_THROW(H5File::open(fs, "m.h5"), FormatError);
  });
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Parallel driver
// ---------------------------------------------------------------------------

class H5ParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(H5ParallelSweep, BlockPartitionedCollectiveWrite) {
  const int p = GetParam();
  const std::uint64_t n = 16;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "par.h5", cfg);
    Dataset d =
        f.create_dataset("a", NumberType::kFloat64, Dataspace({n, n}));
    // Partition the middle: rank r writes rows [r*n/p, ...).
    std::uint64_t rows = n / static_cast<std::uint64_t>(p);
    std::uint64_t r0 = rows * static_cast<std::uint64_t>(c.rank());
    Dataspace sel({n, n});
    sel.select_block({r0, 0}, {rows, n});
    d.write(sel, seq_f64(rows * n, static_cast<double>(c.rank()) * 1.0e6));
    d.close();
    f.close();

    // Re-open in parallel and read the transpose partition (columns).
    H5File g = H5File::open(fs, "par.h5", cfg);
    Dataset e = g.open_dataset("a");
    std::uint64_t cols = n / static_cast<std::uint64_t>(p);
    std::uint64_t c0 = cols * static_cast<std::uint64_t>(c.rank());
    Dataspace csel({n, n});
    csel.select_block({0, c0}, {n, cols});
    std::vector<std::byte> out(n * cols * 8);
    e.read(csel, out);
    // Element (row, col) was written by rank row/rows with value
    // rank*1e6 + (row%rows)*n + col.
    std::size_t k = 0;
    for (std::uint64_t row = 0; row < n; ++row) {
      for (std::uint64_t col = c0; col < c0 + cols; ++col) {
        double expect = static_cast<double>(row / rows) * 1.0e6 +
                        static_cast<double>((row % rows) * n + col);
        double v;
        std::memcpy(&v, out.data() + k * 8, 8);
        EXPECT_DOUBLE_EQ(v, expect);
        ++k;
      }
    }
    e.close();
    g.close();
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, H5ParallelSweep, ::testing::Values(1, 2, 4, 8));

TEST(H5Parallel, IndependentTransferModeAlsoCorrect) {
  const int p = 4;
  const std::uint64_t n = 8;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "ind.h5", cfg);
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({n, n}));
    std::uint64_t rows = n / static_cast<std::uint64_t>(p);
    Dataspace sel({n, n});
    sel.select_block({rows * static_cast<std::uint64_t>(c.rank()), 0},
                     {rows, n});
    d.write(sel, seq_f64(rows * n, c.rank() * 100.0), /*collective=*/false);
    c.barrier();
    std::vector<std::byte> out(rows * n * 8);
    d.read(sel, out, /*collective=*/false);
    EXPECT_EQ(out, seq_f64(rows * n, c.rank() * 100.0));
    d.close();
    f.close();
  });
}

TEST(H5Parallel, MetadataSyncCostsShowUp) {
  // Creating many datasets with metadata_sync on must cost more wall time
  // than with it off (the paper's dataset create/close overhead).
  auto run_with = [](bool sync) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(8));
    auto res = rt.run([&](Comm& c) {
      FileConfig cfg;
      cfg.comm = &c;
      cfg.metadata_sync = sync;
      H5File f = H5File::create(fs, "s.h5", cfg);
      for (int i = 0; i < 16; ++i) {
        Dataset d = f.create_dataset("d" + std::to_string(i),
                                     NumberType::kFloat64, Dataspace({8}));
        d.close();
      }
      f.close();
    });
    return res.makespan;
  };
  EXPECT_GT(run_with(true), run_with(false));
}

TEST(H5Parallel, Rank0AttributeSerialisation) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "attr.h5", cfg);
    double t = 3.5;
    f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
    auto back = f.read_attribute("time");
    double v;
    std::memcpy(&v, back.data(), 8);
    EXPECT_DOUBLE_EQ(v, 3.5);
    f.close();
  });
  // Physically present exactly once (rank 0's write).
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::open(fs, "attr.h5");
    EXPECT_EQ(f.read_attribute("time").size(), 8u);
    f.close();
  });
}

TEST(H5Parallel, AlignmentReducesWriteTimeOnStripedLayout) {
  // With tiny stripes and misaligned data, large writes straddle more
  // boundaries; alignment must not be slower.
  auto run_with = [](std::uint64_t alignment) {
    pfs::LocalFsParams fp;
    fp.stripe_size = 64 * KiB;
    fp.disk.seek_time = ms(10);
    pfs::LocalFs fs(fp);
    Runtime rt(rparams(4));
    auto res = rt.run([&](Comm& c) {
      FileConfig cfg;
      cfg.comm = &c;
      cfg.alignment = alignment;
      H5File f = H5File::create(fs, "al.h5", cfg);
      Dataset d = f.create_dataset("a", NumberType::kFloat64,
                                   Dataspace({64, 64, 64}));
      Dataspace sel({64, 64, 64});
      std::uint64_t rows = 16;
      sel.select_block({rows * static_cast<std::uint64_t>(c.rank()), 0, 0},
                       {rows, 64, 64});
      d.write(sel, seq_f64(rows * 64 * 64));
      d.close();
      f.close();
    });
    return res.makespan;
  };
  EXPECT_LE(run_with(64 * KiB), run_with(1) * 1.05);
}


TEST(H5Interop, ParallelWriteSerialRead) {
  // Files written through the parallel driver must be readable through the
  // serial driver (same on-disk format).
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "interop.h5", cfg);
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({8, 8}));
    Dataspace sel({8, 8});
    sel.select_block({static_cast<std::uint64_t>(c.rank()) * 2, 0}, {2, 8});
    d.write(sel, seq_f64(16, c.rank() * 100.0));
    d.close();
    double t = 9.5;
    f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
    f.close();
  });
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::open(fs, "interop.h5");  // serial driver
    Dataset d = f.open_dataset("a");
    std::vector<std::byte> out(64 * 8);
    d.read_all(out);
    for (int r = 0; r < 4; ++r) {
      double v;
      std::memcpy(&v, out.data() + static_cast<std::size_t>(r) * 16 * 8, 8);
      EXPECT_DOUBLE_EQ(v, r * 100.0);
    }
    auto att = f.read_attribute("time");
    double t;
    std::memcpy(&t, att.data(), 8);
    EXPECT_DOUBLE_EQ(t, 9.5);
    f.close();
  });
}

TEST(H5Interop, SerialWriteParallelRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::create(fs, "sw.h5");
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({4, 4}));
    d.write_all(seq_f64(16, 50.0));
    f.close();
  });
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::open(fs, "sw.h5", cfg);
    Dataset d = f.open_dataset("a");
    Dataspace sel({4, 4});
    sel.select_block({static_cast<std::uint64_t>(c.rank()) * 2, 0}, {2, 4});
    std::vector<std::byte> out(8 * 8);
    d.read(sel, out, /*collective=*/true);
    double v;
    std::memcpy(&v, out.data(), 8);
    EXPECT_DOUBLE_EQ(v, 50.0 + c.rank() * 8);
    d.close();
    f.close();
  });
}

}  // namespace
}  // namespace paramrio::hdf5

// Unit tests for the HDF4-style serial SD file format.
#include <gtest/gtest.h>

#include <cstring>

#include "hdf4/sd_file.hpp"
#include "pfs/local_fs.hpp"
#include "sim/engine.hpp"

namespace paramrio::hdf4 {
namespace {

sim::Engine::Options opts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

std::vector<std::byte> float_data(std::size_t n, float base = 0.0f) {
  std::vector<std::byte> v(n * 4);
  for (std::size_t i = 0; i < n; ++i) {
    float f = base + static_cast<float>(i) * 0.5f;
    std::memcpy(v.data() + i * 4, &f, 4);
  }
  return v;
}

TEST(ElementSize, AllTypes) {
  EXPECT_EQ(element_size(NumberType::kFloat32), 4u);
  EXPECT_EQ(element_size(NumberType::kFloat64), 8u);
  EXPECT_EQ(element_size(NumberType::kInt32), 4u);
  EXPECT_EQ(element_size(NumberType::kInt64), 8u);
}

TEST(SdFile, WriteAndReadBackAfterReopen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    auto d1 = float_data(64, 1.0f);
    auto d2 = float_data(27, 2.0f);
    {
      SdFile f = SdFile::create(fs, "grid0001");
      f.write_dataset("density", NumberType::kFloat32, {4, 4, 4}, d1);
      f.write_dataset("energy", NumberType::kFloat32, {3, 3, 3}, d2);
      f.close();
    }
    {
      SdFile f = SdFile::open(fs, "grid0001");
      EXPECT_TRUE(f.has_dataset("density"));
      EXPECT_TRUE(f.has_dataset("energy"));
      EXPECT_FALSE(f.has_dataset("nope"));
      EXPECT_EQ(f.dataset_names(),
                (std::vector<std::string>{"density", "energy"}));
      const SdsInfo& i = f.info("density");
      EXPECT_EQ(i.dims, (std::vector<std::uint64_t>{4, 4, 4}));
      EXPECT_EQ(i.element_count(), 64u);
      std::vector<std::byte> out(i.data_bytes);
      f.read_dataset("density", out);
      EXPECT_EQ(out, d1);
      std::vector<std::byte> out2(f.info("energy").data_bytes);
      f.read_dataset("energy", out2);
      EXPECT_EQ(out2, d2);
      f.close();
    }
  });
}

TEST(SdFile, AttributesSurviveReopen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    {
      SdFile f = SdFile::create(fs, "g");
      double t = 13.25;
      f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
      f.write_dataset("d", NumberType::kFloat64, {2},
                      std::vector<std::byte>(16));
      f.write_attribute("cycle", std::as_bytes(std::span("42", 2)));
      f.close();
    }
    {
      SdFile f = SdFile::open(fs, "g");
      auto tv = f.read_attribute("time");
      double t;
      ASSERT_EQ(tv.size(), 8u);
      std::memcpy(&t, tv.data(), 8);
      EXPECT_DOUBLE_EQ(t, 13.25);
      EXPECT_EQ(f.read_attribute("cycle").size(), 2u);
      EXPECT_THROW(f.read_attribute("absent"), IoError);
      f.close();
    }
  });
}

TEST(SdFile, SizeMismatchRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, "g");
    EXPECT_THROW(f.write_dataset("d", NumberType::kFloat32, {4, 4},
                                 std::vector<std::byte>(63)),
                 LogicError);
    f.close();
  });
}

TEST(SdFile, DuplicateDatasetRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, "g");
    f.write_dataset("d", NumberType::kInt32, {2}, std::vector<std::byte>(8));
    EXPECT_THROW(f.write_dataset("d", NumberType::kInt32, {2},
                                 std::vector<std::byte>(8)),
                 LogicError);
    f.close();
  });
}

TEST(SdFile, ReadOnlyCannotWrite) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    {
      SdFile f = SdFile::create(fs, "g");
      f.close();
    }
    SdFile f = SdFile::open(fs, "g");
    EXPECT_THROW(f.write_dataset("d", NumberType::kInt32, {1},
                                 std::vector<std::byte>(4)),
                 LogicError);
    f.close();
  });
}

TEST(SdFile, CorruptMagicRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("bad", pfs::OpenMode::kCreate);
    std::vector<std::byte> junk(64, std::byte{0x5A});
    fs.write_at(fd, 0, junk);
    fs.close(fd);
    EXPECT_THROW(SdFile::open(fs, "bad"), FormatError);
  });
}

TEST(SdFile, TruncatedFileRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("tiny", pfs::OpenMode::kCreate);
    std::vector<std::byte> four(4);
    fs.write_at(fd, 0, four);
    fs.close(fd);
    EXPECT_THROW(SdFile::open(fs, "tiny"), FormatError);
  });
}

TEST(SdFile, CorruptDimCountRejectedBeforeAllocating) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, "n");
    f.write_dataset("d", NumberType::kFloat32, {4}, float_data(4));
    f.close();
  });
  // Record layout: 8-byte file preamble, then kind u32 + hdrlen u32, then
  // the header: name (u32 length + "d"), type u8, ndims u32.
  const std::uint64_t ndims_high_byte = 8 + 8 + 4 + 1 + 1 + 3;
  std::vector<std::byte> b(1);
  fs.store().read_at("n", ndims_high_byte, b);
  b[0] ^= std::byte{0xFF};  // ndims 1 -> 0xFF000001
  fs.store().write_at("n", ndims_high_byte, b);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    EXPECT_THROW(SdFile::open(fs, "n"), FormatError);
  });
}

// Exhaustive corruption: flip every byte of a tiny file with three masks,
// then reopen and read everything.  Each mutation must either still read or
// throw a paramrio::Error — never std::bad_alloc or a hang.
TEST(SdFile, EveryByteFlipFailsCleanly) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, "t");
    f.write_dataset("d", NumberType::kFloat32, {2, 2}, float_data(4));
    f.write_attribute("a", float_data(1));
    f.close();
  });
  std::vector<std::byte> valid(fs.store().size("t"));
  fs.store().read_at("t", 0, valid);

  int rejected = 0;
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (std::byte mask : {std::byte{0xFF}, std::byte{0x80}, std::byte{1}}) {
        std::vector<std::byte> bad = valid;
        bad[i] ^= mask;
        fs.store().create("m");
        fs.store().write_at("m", 0, bad);
        try {
          SdFile f = SdFile::open(fs, "m");
          for (const std::string& name : f.dataset_names()) {
            std::vector<std::byte> out(f.info(name).data_bytes);
            f.read_dataset(name, out);
          }
          f.read_attribute("a");
          f.close();
        } catch (const Error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "byte " << i << " mask "
                        << std::to_integer<int>(mask) << ": " << e.what();
        }
      }
    }
  });
  EXPECT_GT(rejected, 0);
}

TEST(SdFile, ManyDatasetsDirectoryOrder) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    {
      SdFile f = SdFile::create(fs, "g");
      for (int i = 0; i < 20; ++i) {
        f.write_dataset("field" + std::to_string(i), NumberType::kFloat32,
                        {8}, float_data(8, static_cast<float>(i)));
      }
      f.close();
    }
    SdFile f = SdFile::open(fs, "g");
    auto names = f.dataset_names();
    ASSERT_EQ(names.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(names[static_cast<std::size_t>(i)],
                "field" + std::to_string(i));
      std::vector<std::byte> out(32);
      f.read_dataset(names[static_cast<std::size_t>(i)], out);
      float v;
      std::memcpy(&v, out.data(), 4);
      EXPECT_FLOAT_EQ(v, static_cast<float>(i));
    }
    f.close();
  });
}

}  // namespace
}  // namespace paramrio::hdf4

// Unit tests for the AMR substrate: arrays, decomposition, hierarchy,
// universe, refinement, load balancing, particle utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "amr/blocking.hpp"
#include "amr/decomp.hpp"
#include "amr/hierarchy.hpp"
#include "amr/load_balance.hpp"
#include "amr/particles_par.hpp"
#include "amr/refine.hpp"
#include "amr/universe.hpp"

namespace paramrio::amr {
namespace {

TEST(Array3, IndexingAndBytes) {
  Array3<float> a(2, 3, 4);
  EXPECT_EQ(a.size(), 24u);
  a.at(1, 2, 3) = 7.5f;
  EXPECT_FLOAT_EQ(a.data()[(1 * 3 + 2) * 4 + 3], 7.5f);
  EXPECT_EQ(a.bytes().size(), 24u * 4);
}

class ProcGridSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProcGridSweep, FactorisationCoversAllRanks) {
  int p = GetParam();
  auto g = make_proc_grid(p);
  EXPECT_EQ(g[0] * g[1] * g[2], p);
  // Balanced: max/min ratio bounded (within a factor of the largest prime).
  EXPECT_LE(g[0], p);
  // Every rank gets unique coords.
  std::set<std::array<int, 3>> seen;
  for (int r = 0; r < p; ++r) seen.insert(proc_coords(g, r));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(p));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProcGridSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                           64));

TEST(Decomp, BlockRangePartitionsExactly) {
  // 10 cells over 3 parts: 4,3,3.
  EXPECT_EQ(block_range(10, 3, 0), (std::array<std::uint64_t, 2>{0, 4}));
  EXPECT_EQ(block_range(10, 3, 1), (std::array<std::uint64_t, 2>{4, 3}));
  EXPECT_EQ(block_range(10, 3, 2), (std::array<std::uint64_t, 2>{7, 3}));
}

TEST(Decomp, BlockPartOfInvertsBlockRange) {
  for (std::uint64_t n : {7u, 10u, 16u, 64u}) {
    for (int parts : {1, 2, 3, 5, 8}) {
      for (int p = 0; p < parts; ++p) {
        auto [s, c] = block_range(n, parts, p);
        for (std::uint64_t i = s; i < s + c; ++i) {
          EXPECT_EQ(block_part_of(n, parts, i), p);
        }
      }
    }
  }
}

TEST(Decomp, BlocksTileTheGrid) {
  std::array<std::uint64_t, 3> dims{16, 12, 20};
  auto g = make_proc_grid(12);
  std::uint64_t total = 0;
  for (int r = 0; r < 12; ++r) {
    total += block_of(dims, g, r).cells();
  }
  EXPECT_EQ(total, 16u * 12 * 20);
}

TEST(Blocking, CopyOutInRoundTrip) {
  Array3<float> full(8, 8, 8);
  for (std::uint64_t i = 0; i < full.size(); ++i) {
    full.data()[i] = static_cast<float>(i);
  }
  BlockExtent e;
  e.start = {2, 3, 1};
  e.count = {4, 2, 5};
  std::vector<float> buf(e.cells());
  copy_block_out(full, e, buf.data());
  EXPECT_FLOAT_EQ(buf[0], full.at(2, 3, 1));
  Array3<float> dst(8, 8, 8);
  copy_block_in(dst, e, buf.data());
  for (std::uint64_t z = 2; z < 6; ++z) {
    for (std::uint64_t y = 3; y < 5; ++y) {
      for (std::uint64_t x = 1; x < 6; ++x) {
        EXPECT_FLOAT_EQ(dst.at(z, y, x), full.at(z, y, x));
      }
    }
  }
}

TEST(Hierarchy, RootAndChildren) {
  Hierarchy h;
  h.set_root({64, 64, 64});
  EXPECT_EQ(h.grid_count(), 1u);
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0.25, 0.25, 0.25};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {32, 32, 32};
  std::uint64_t id = h.add_grid(c);
  EXPECT_EQ(h.children(0), std::vector<std::uint64_t>{id});
  EXPECT_EQ(h.grid(id).level, 1);
  EXPECT_EQ(h.max_level(), 1);
  EXPECT_EQ(h.total_cells(), 64ull * 64 * 64 + 32ull * 32 * 32);
}

TEST(Hierarchy, RejectsBadNesting) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 2;  // skips a level
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  EXPECT_THROW(h.add_grid(c), LogicError);
  c.level = 1;
  c.right_edge = {1.5, 0.5, 0.5};  // outside the parent
  EXPECT_THROW(h.add_grid(c), LogicError);
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {0, 8, 8};
  EXPECT_THROW(h.add_grid(c), LogicError);
}

TEST(Hierarchy, SerializeRoundTrip) {
  Hierarchy h;
  h.set_root({32, 32, 32});
  for (int i = 0; i < 5; ++i) {
    GridDescriptor c;
    c.level = 1;
    c.parent = 0;
    c.left_edge = {0.1 * i, 0.0, 0.0};
    c.right_edge = {0.1 * i + 0.1, 0.25, 0.25};
    c.dims = {8, 16, 16};
    c.owner = i % 3;
    h.add_grid(c);
  }
  Hierarchy back = Hierarchy::deserialize(h.serialize());
  EXPECT_EQ(h, back);
  EXPECT_EQ(back.children(0).size(), 5u);
}

TEST(Hierarchy, ClearSubgridsKeepsRootAndIdMonotonicity) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  std::uint64_t id1 = h.add_grid(c);
  h.clear_subgrids();
  EXPECT_EQ(h.grid_count(), 1u);
  std::uint64_t id2 = h.add_grid(c);
  EXPECT_GT(id2, id1);  // ids never recycled
}

TEST(Universe, DeterministicAndPositive) {
  Universe a(42, 8), b(42, 8);
  for (int i = 0; i < 20; ++i) {
    double z = 0.05 * i, y = 0.97 - 0.04 * i, x = 0.33;
    EXPECT_DOUBLE_EQ(a.density(z, y, x, 1.0), b.density(z, y, x, 1.0));
    EXPECT_GE(a.density(z, y, x, 1.0), 1.0);
  }
}

TEST(Universe, ClumpsCreateOverdensity) {
  Universe u(7, 4);
  const Clump& c = u.clumps()[0];
  double at_center = u.density(c.center[0], c.center[1], c.center[2], 0.0);
  EXPECT_GT(at_center, 4.0);  // amplitude >= 6 at the centre
}

TEST(Universe, GrowthIncreasesPeakDensityOverTime) {
  Universe u(7, 4);
  const Clump& c = u.clumps()[1];
  // Track the clump as it drifts.
  auto peak_at = [&](double t) {
    double z = c.center[0] + c.drift[0] * t;
    double y = c.center[1] + c.drift[1] * t;
    double x = c.center[2] + c.drift[2] * t;
    return u.density(z - std::floor(z), y - std::floor(y), x - std::floor(x),
                     t);
  };
  EXPECT_GT(peak_at(2.0), peak_at(0.0));
}

TEST(Universe, FillFieldsPopulatesAllFields) {
  Universe u(3, 6);
  Grid g;
  g.desc.dims = {8, 8, 8};
  u.fill_fields(g, 0.5);
  ASSERT_EQ(g.fields.size(), static_cast<std::size_t>(kNumBaryonFields));
  // density positive, temperature = rho^(2/3) consistent.
  for (std::uint64_t z = 0; z < 8; ++z) {
    float rho = g.fields[0].at(z, 4, 4);
    EXPECT_GT(rho, 0.0f);
    EXPECT_NEAR(g.fields[6].at(z, 4, 4), std::pow(rho, 2.0f / 3.0f), 0.01);
  }
}

TEST(Universe, ParticlesBiasedTowardDensity) {
  Universe u(11, 3);
  GridDescriptor whole;
  whole.dims = {16, 16, 16};
  ParticleSet p = u.make_particles(2000, 0, whole, 0.0, Rng(5));
  ASSERT_EQ(p.size(), 2000u);
  // Mean sampled density must exceed the domain average (importance bias).
  double mean_rho = 0;
  for (double m : p.mass) mean_rho += m;
  mean_rho /= static_cast<double>(p.size());
  // Domain mean density.
  double domain_mean = 0;
  int samples = 0;
  for (double z = 0.05; z < 1; z += 0.2) {
    for (double y = 0.05; y < 1; y += 0.2) {
      for (double x = 0.05; x < 1; x += 0.2) {
        domain_mean += u.density(z, y, x, 0.0);
        ++samples;
      }
    }
  }
  domain_mean /= samples;
  EXPECT_GT(mean_rho, domain_mean);
  // Ids sequential from base.
  EXPECT_EQ(p.id[0], 0);
  EXPECT_EQ(p.id[1999], 1999);
}

TEST(Universe, DriftWrapsPositions) {
  ParticleSet p;
  p.resize(1);
  p.pos = {{{0.95}, {0.5}, {0.02}}};
  p.vel = {{{0.2}, {0.0}, {-0.1}}};
  Universe::drift_particles(p, 1.0);
  EXPECT_NEAR(p.pos[0][0], 0.15, 1e-12);
  EXPECT_NEAR(p.pos[1][0], 0.5, 1e-12);
  EXPECT_NEAR(p.pos[2][0], 0.92, 1e-12);
}

// --- Initial-condition identity -------------------------------------------

GridDescriptor region_of(std::array<double, 3> left,
                         std::array<double, 3> right) {
  GridDescriptor d;
  d.left_edge = left;
  d.right_edge = right;
  d.dims = {16, 16, 16};
  return d;
}

/// The block rank `rank` of a 128-rank run holds on the AMR64 root grid.
GridDescriptor amr64_p128_block(int rank) {
  const std::array<std::uint64_t, 3> root{64, 64, 64};
  BlockExtent b = block_of(root, make_proc_grid(128), rank);
  GridDescriptor d;
  for (std::size_t i = 0; i < 3; ++i) {
    d.left_edge[i] = static_cast<double>(b.start[i]) / 64.0;
    d.right_edge[i] = static_cast<double>(b.start[i] + b.count[i]) / 64.0;
    d.dims[i] = b.count[i];
  }
  return d;
}

/// The sampling regions every identity check covers.
std::vector<GridDescriptor> sampler_regions() {
  return {
      region_of({0, 0, 0}, {1, 1, 1}),                        // whole domain
      amr64_p128_block(77),                                   // P=128 block
      region_of({0.875, 0.0, 0.90625}, {1.0, 0.125, 1.0}),    // torus edge
      region_of({0.0, 0.5, 0.0}, {1.0, 0.5 + 1.0 / 64, 1.0}),  // 1-cell slab
      region_of({0.25, 0.5, 0.0}, {0.5, 0.5, 1.0}),           // zero-width y
  };
}

/// Plain rejection sampling against the global peak density: the sampler
/// make_particles replaced, kept as the reference its output must equal.
ParticleSet naive_particles(const Universe& u, std::uint64_t count,
                            std::int64_t id_base, const GridDescriptor& region,
                            double t, Rng rng) {
  auto wrap01 = [](double v) { return v - std::floor(v); };
  auto torus_delta = [](double a, double b) {
    double d = a - b;
    d -= std::round(d);
    return d;
  };
  auto sample = [&](double z, double y, double x, double& rho,
                    std::array<double, 3>& vel) {
    rho = 1.0;
    vel = {0.0, 0.0, 0.0};
    for (const Clump& c : u.clumps()) {
      double cz = wrap01(c.center[0] + c.drift[0] * t);
      double cy = wrap01(c.center[1] + c.drift[1] * t);
      double cx = wrap01(c.center[2] + c.drift[2] * t);
      double dz = torus_delta(z, cz);
      double dy = torus_delta(y, cy);
      double dx = torus_delta(x, cx);
      double r2 = dz * dz + dy * dy + dx * dx;
      double w = c.amplitude * (1.0 + c.growth * t) *
                 std::exp(-r2 / (2.0 * c.width * c.width));
      rho += w;
      vel[0] += w * c.drift[0];
      vel[1] += w * c.drift[1];
      vel[2] += w * c.drift[2];
    }
    for (double& v : vel) v /= rho;
  };
  ParticleSet p;
  p.resize(count);
  double peak = 1.0;
  for (const Clump& c : u.clumps()) peak += c.amplitude * (1.0 + c.growth * t);
  for (std::uint64_t i = 0; i < count; ++i) {
    double z, y, x, rho;
    std::array<double, 3> vel;
    for (;;) {
      z = rng.next_in(region.left_edge[0], region.right_edge[0]);
      y = rng.next_in(region.left_edge[1], region.right_edge[1]);
      x = rng.next_in(region.left_edge[2], region.right_edge[2]);
      sample(z, y, x, rho, vel);
      if (rng.next_double() * peak < rho) break;
    }
    p.id[i] = id_base + static_cast<std::int64_t>(i);
    p.pos[0][i] = z;
    p.pos[1][i] = y;
    p.pos[2][i] = x;
    for (std::size_t d = 0; d < 3; ++d) {
      p.vel[d][i] = vel[d] + 0.01 * rng.next_gaussian();
    }
    p.mass[i] = rho;
    p.attr[0][i] = static_cast<float>(t);
    p.attr[1][i] = static_cast<float>(rng.next_double());
  }
  return p;
}

TEST(Universe, BoundedSamplerMatchesNaiveReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Universe u(seed, 12);
    for (double t : {0.0, 0.37, 1.9}) {
      std::uint64_t k = 0;
      for (const GridDescriptor& region : sampler_regions()) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " t " << t
                                          << " region " << k);
        Rng rng(seed * 131 + k++);
        ParticleSet got = u.make_particles(200, 7, region, t, rng);
        ParticleSet want = naive_particles(u, 200, 7, region, t, rng);
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.pos, want.pos);
        EXPECT_EQ(got.vel, want.vel);
        EXPECT_EQ(got.mass, want.mass);
        EXPECT_EQ(got.attr, want.attr);
      }
    }
  }
}

TEST(Universe, CellBoundDominatesDensity) {
  constexpr int kN = DensityBound::kCells;
  Rng pick(9);
  for (std::uint64_t seed : {1u, 5u}) {
    Universe u(seed, 12);
    for (double t : {0.0, 0.37, 1.9}) {
      for (const GridDescriptor& region : sampler_regions()) {
        DensityBound bound(u, region, t);
        // Position of lattice plane i on axis a; a fractional i lies inside
        // a cell.
        auto at = [&](std::size_t a, double i) {
          double lo = region.left_edge[a], hi = region.right_edge[a];
          return lo + (hi - lo) * i / kN;
        };
        for (int iz = 0; iz < kN; ++iz) {
          for (int iy = 0; iy < kN; ++iy) {
            for (int ix = 0; ix < kN; ++ix) {
              const double b = bound[DensityBound::index(iz, iy, ix)];
              std::vector<std::array<double, 3>> points;
              for (int corner = 0; corner < 8; ++corner) {
                points.push_back({at(0, iz + (corner & 1)),
                                  at(1, iy + ((corner >> 1) & 1)),
                                  at(2, ix + ((corner >> 2) & 1))});
              }
              points.push_back({at(0, iz + 0.5), at(1, iy + 0.5),
                                at(2, ix + 0.5)});
              for (int r = 0; r < 2; ++r) {
                points.push_back({at(0, iz + pick.next_double()),
                                  at(1, iy + pick.next_double()),
                                  at(2, ix + pick.next_double())});
              }
              for (const auto& q : points) {
                double rho = u.density(q[0], q[1], q[2], t);
                ASSERT_GE(b, rho) << "cell " << iz << "," << iy << "," << ix;
                ASSERT_GE(bound[bound.cell_of(q[0], q[1], q[2])], rho);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Universe, CellOfClampsEdgesAndDegenerateAxes) {
  Universe u(2, 4);
  constexpr int kLast = DensityBound::kCells - 1;
  GridDescriptor region = region_of({0.25, 0.5, 0.0}, {0.5, 0.5, 0.125});
  DensityBound bound(u, region, 0.0);
  // The y axis has zero width: every point maps to its only cell.
  EXPECT_EQ(bound.cell_of(0.25, 0.5, 0.0), DensityBound::index(0, 0, 0));
  EXPECT_EQ(bound.cell_of(0.5, 0.5, 0.125),
            DensityBound::index(kLast, 0, kLast));
  EXPECT_EQ(bound.cell_of(0.9, 0.7, -1.0), DensityBound::index(kLast, 0, 0));
  EXPECT_EQ(bound.cell_of(std::nan(""), 0.5, 0.0),
            DensityBound::index(0, 0, 0));
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv1a(std::uint64_t h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digest(const ParticleSet& p) {
  std::uint64_t h = fnv1a(kFnvBasis, p.id);
  for (const auto& a : p.pos) h = fnv1a(h, a);
  for (const auto& a : p.vel) h = fnv1a(h, a);
  h = fnv1a(h, p.mass);
  for (const auto& a : p.attr) h = fnv1a(h, a);
  return h;
}

std::uint64_t digest(const Grid& g) {
  std::uint64_t h = kFnvBasis;
  for (const Array3f& f : g.fields) {
    h = fnv1a(h, f.data(), f.size() * sizeof(float));
  }
  return h;
}

// Expected digests were taken from the plain rejection sampler and the
// unhoisted field fill, so they pin identity with that code, not just
// agreement between two runs of the current one.
TEST(Universe, InitialConditionsMatchGoldenDigests) {
  struct ParticleCase {
    std::uint64_t seed, count;
    std::int64_t id_base;
    GridDescriptor region;
    double t;
    std::uint64_t rng_seed, want;
  };
  const ParticleCase particle_cases[] = {
      {1, 2000, 0, region_of({0, 0, 0}, {1, 1, 1}), 0.0, 101,
       0x510f114fa4ed04cbULL},
      {2, 1500, 1000, amr64_p128_block(77), 0.37, 202,
       0xfa05ba1002c75ee7ULL},
      {3, 1000, 5, region_of({0.875, 0.0, 0.90625}, {1.0, 0.125, 1.0}), 1.9,
       303, 0xfd6f9e223fe46abfULL},
  };
  for (const ParticleCase& c : particle_cases) {
    Universe u(c.seed, 12);
    ParticleSet p =
        u.make_particles(c.count, c.id_base, c.region, c.t, Rng(c.rng_seed));
    EXPECT_EQ(digest(p), c.want) << "particle case seed " << c.seed;
  }

  struct FieldCase {
    std::uint64_t seed;
    GridDescriptor desc;
    double t;
    std::uint64_t want;
  };
  GridDescriptor whole = region_of({0, 0, 0}, {1, 1, 1});
  whole.dims = {32, 32, 32};
  GridDescriptor sub =
      region_of({0.90625, 0.0625, 0.46875}, {1.0, 0.15625, 0.53125});
  sub.level = 2;
  sub.dims = {24, 24, 16};
  const FieldCase field_cases[] = {{1, whole, 0.0, 0x0dcb7fd76d4ae36eULL},
                                   {4, sub, 1.9, 0x51dd01116bff885dULL}};
  for (const FieldCase& c : field_cases) {
    Universe u(c.seed, 12);
    Grid g;
    g.desc = c.desc;
    u.fill_fields(g, c.t);
    EXPECT_EQ(digest(g), c.want) << "field case seed " << c.seed;
  }
}

TEST(Refine, FlagAndClusterSingleBlob) {
  Array3f density(16, 16, 16, 1.0f);
  for (std::uint64_t z = 4; z < 8; ++z) {
    for (std::uint64_t y = 5; y < 9; ++y) {
      for (std::uint64_t x = 6; x < 10; ++x) {
        density.at(z, y, x) = 10.0f;
      }
    }
  }
  auto flags = flag_overdense(density, 4.0);
  RefineParams rp;
  auto boxes = cluster_flags(flags, rp);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].start, (std::array<std::uint64_t, 3>{4, 5, 6}));
  EXPECT_EQ(boxes[0].count, (std::array<std::uint64_t, 3>{4, 4, 4}));
}

TEST(Refine, TwoSeparatedBlobsYieldTwoBoxes) {
  Array3f density(32, 32, 32, 1.0f);
  auto blob = [&](std::uint64_t cz, std::uint64_t cy, std::uint64_t cx) {
    for (std::uint64_t z = cz; z < cz + 4; ++z) {
      for (std::uint64_t y = cy; y < cy + 4; ++y) {
        for (std::uint64_t x = cx; x < cx + 4; ++x) {
          density.at(z, y, x) = 9.0f;
        }
      }
    }
  };
  blob(2, 2, 2);
  blob(24, 24, 24);
  auto boxes = cluster_flags(flag_overdense(density, 4.0), RefineParams{});
  EXPECT_EQ(boxes.size(), 2u);
  // Together they must cover exactly the flagged cells (128).
  std::uint64_t covered = 0;
  for (const auto& b : boxes) covered += b.cells();
  EXPECT_GE(covered, 128u);
  EXPECT_LE(covered, 256u);  // boxes stay tight
}

TEST(Refine, NoFlagsNoBoxes) {
  Array3f density(8, 8, 8, 1.0f);
  auto boxes = cluster_flags(flag_overdense(density, 4.0), RefineParams{});
  EXPECT_TRUE(boxes.empty());
}

TEST(Refine, MakeChildGeometryAndResolution) {
  GridDescriptor parent;
  parent.id = 0;
  parent.dims = {16, 16, 16};
  CellBox box;
  box.start = {4, 0, 8};
  box.count = {4, 8, 4};
  GridDescriptor child = make_child(parent, {0, 0, 0}, box, 2);
  EXPECT_EQ(child.level, 1);
  EXPECT_EQ(child.dims, (std::array<std::uint64_t, 3>{8, 16, 8}));
  EXPECT_DOUBLE_EQ(child.left_edge[0], 4.0 / 16.0);
  EXPECT_DOUBLE_EQ(child.right_edge[0], 8.0 / 16.0);
  // Child cell width is half the parent's.
  EXPECT_DOUBLE_EQ(child.cell_width(0), parent.cell_width(0) / 2.0);
}

TEST(LoadBalance, GreedyIsBalancedAndDeterministic) {
  std::vector<std::uint64_t> w = {100, 90, 50, 50, 40, 30, 20, 10, 5, 5};
  auto o1 = balance_greedy(w, 3);
  auto o2 = balance_greedy(w, 3);
  EXPECT_EQ(o1, o2);
  std::vector<std::uint64_t> load(3, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    load[static_cast<std::size_t>(o1[i])] += w[i];
  }
  std::uint64_t total = std::accumulate(w.begin(), w.end(), 0ull);
  auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*mx - *mn, total / 3);  // roughly even
}

TEST(LoadBalance, AssignOwnersSkipsRoot) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  h.add_grid(c);
  h.add_grid(c);
  auto load = assign_owners(h, 2);
  EXPECT_EQ(load.size(), 2u);
  EXPECT_EQ(load[0] + load[1], 2u * 8 * 8 * 8);
}

TEST(Particles, PackUnpackRoundTrip) {
  ParticleSet p;
  p.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    p.id[i] = static_cast<std::int64_t>(100 + i);
    for (int d = 0; d < 3; ++d) {
      p.pos[static_cast<std::size_t>(d)][i] = 0.1 * (i + 1) + 0.01 * d;
      p.vel[static_cast<std::size_t>(d)][i] = -0.2 * (i + 1);
    }
    p.mass[i] = 2.5 * (i + 1);
    p.attr[0][i] = static_cast<float>(i);
    p.attr[1][i] = static_cast<float>(i * i);
  }
  auto bytes = pack_particles(p);
  ParticleSet q;
  unpack_particles(bytes, q);
  EXPECT_EQ(p, q);
}

TEST(Particles, PackSubsetSelects) {
  ParticleSet p;
  p.resize(5);
  for (std::size_t i = 0; i < 5; ++i) p.id[i] = static_cast<std::int64_t>(i);
  auto bytes = pack_particles(p, {1, 3});
  ParticleSet q;
  unpack_particles(bytes, q);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.id[0], 1);
  EXPECT_EQ(q.id[1], 3);
}

TEST(Particles, LocalSortByIdPermutesAllArrays) {
  ParticleSet p;
  p.resize(4);
  p.id = {30, 10, 40, 20};
  for (std::size_t i = 0; i < 4; ++i) {
    p.mass[i] = static_cast<double>(p.id[i]);
    p.attr[0][i] = static_cast<float>(p.id[i]);
  }
  local_sort_by_id(p);
  EXPECT_EQ(p.id, (std::vector<std::int64_t>{10, 20, 30, 40}));
  EXPECT_DOUBLE_EQ(p.mass[0], 10.0);
  EXPECT_FLOAT_EQ(p.attr[0][3], 40.0f);
}

TEST(Particles, RankOfPositionMatchesBlockOwnership) {
  std::array<std::uint64_t, 3> dims{16, 16, 16};
  auto grid = make_proc_grid(8);
  // For every rank, the centre of its block must map back to it.
  for (int r = 0; r < 8; ++r) {
    BlockExtent e = block_of(dims, grid, r);
    std::array<double, 3> centre;
    for (int d = 0; d < 3; ++d) {
      auto u = static_cast<std::size_t>(d);
      centre[u] = (static_cast<double>(e.start[u]) +
                   static_cast<double>(e.count[u]) / 2.0) /
                  static_cast<double>(dims[u]);
    }
    EXPECT_EQ(rank_of_position(centre, dims, grid), r);
  }
}

}  // namespace
}  // namespace paramrio::amr

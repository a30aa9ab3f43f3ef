#include "amr/universe.hpp"

#include <algorithm>
#include <cmath>

namespace paramrio::amr {

namespace {
double wrap01(double v) { return v - std::floor(v); }

/// Minimum-image distance on the unit torus.
double torus_delta(double a, double b) {
  double d = a - b;
  d -= std::round(d);
  return d;
}

/// Smallest torus distance from `c` to any point of [lo, hi].
double torus_gap(double c, double lo, double hi) {
  const double len = hi - lo;
  if (len >= 1.0) return 0.0;
  const double d = wrap01(c - lo);  // how far past lo c lies, in [0, 1)
  if (d <= len) return 0.0;
  return std::min(d - len, 1.0 - d);
}

/// The cell-independent terms of one clump at time t.
struct ClumpTerms {
  std::array<double, 3> center;  ///< drifted and wrapped into [0, 1)
  std::array<double, 3> drift;
  double amp;     ///< amplitude * (1 + growth * t)
  double two_w2;  ///< 2 * width^2
};

std::vector<ClumpTerms> clump_terms(const std::vector<Clump>& clumps,
                                    double t) {
  std::vector<ClumpTerms> terms;
  terms.reserve(clumps.size());
  for (const Clump& c : clumps) {
    ClumpTerms k;
    for (std::size_t d = 0; d < 3; ++d) {
      k.center[d] = wrap01(c.center[d] + c.drift[d] * t);
    }
    k.drift = c.drift;
    k.amp = c.amplitude * (1.0 + c.growth * t);
    k.two_w2 = 2.0 * c.width * c.width;
    terms.push_back(k);
  }
  return terms;
}

/// Density plus the clump-weighted mean drift velocity at one point.  Every
/// evaluation path accumulates through add() in clump order, so all of them
/// round identically.
struct Sample {
  double rho = 1.0;
  std::array<double, 3> vel{0.0, 0.0, 0.0};

  /// Adds a clump whose centre lies at squared torus distance r2.
  void add(const ClumpTerms& c, double r2) {
    double w = c.amp * std::exp(-r2 / c.two_w2);
    rho += w;
    vel[0] += w * c.drift[0];
    vel[1] += w * c.drift[1];
    vel[2] += w * c.drift[2];
  }

  void finish() {
    for (double& v : vel) v /= rho;
  }
};

Sample sample(const std::vector<ClumpTerms>& terms, double z, double y,
              double x) {
  Sample s;
  for (const ClumpTerms& c : terms) {
    double dz = torus_delta(z, c.center[0]);
    double dy = torus_delta(y, c.center[1]);
    double dx = torus_delta(x, c.center[2]);
    s.add(c, dz * dz + dy * dy + dx * dx);
  }
  s.finish();
  return s;
}
}  // namespace

Universe::Universe(std::uint64_t seed, int n_clumps) {
  PARAMRIO_REQUIRE(n_clumps >= 1, "Universe: need at least one clump");
  Rng rng(seed);
  clumps_.reserve(static_cast<std::size_t>(n_clumps));
  for (int i = 0; i < n_clumps; ++i) {
    Clump c;
    for (int d = 0; d < 3; ++d) {
      c.center[static_cast<std::size_t>(d)] = rng.next_double();
      c.drift[static_cast<std::size_t>(d)] = rng.next_in(-0.05, 0.05);
    }
    c.amplitude = rng.next_in(6.0, 14.0);
    c.growth = rng.next_in(0.2, 0.8);
    c.width = rng.next_in(0.03, 0.08);
    clumps_.push_back(c);
  }
}

double Universe::density(double z, double y, double x, double t) const {
  return sample(clump_terms(clumps_, t), z, y, x).rho;
}

void Universe::fill_fields(Grid& grid, double t) const {
  if (grid.fields.empty()) grid.allocate_fields();
  const GridDescriptor& g = grid.desc;
  const std::vector<ClumpTerms> terms = clump_terms(clumps_, t);
  const std::size_t nc = terms.size();
  // d2[a][i * nc + c]: squared torus delta along axis a between the centre
  // of cell index i and clump c.
  std::array<std::vector<double>, 3> d2;
  for (std::size_t a = 0; a < 3; ++a) {
    const double w = g.cell_width(static_cast<int>(a));
    d2[a].resize(g.dims[a] * nc);
    for (std::uint64_t i = 0; i < g.dims[a]; ++i) {
      double p = g.left_edge[a] + (static_cast<double>(i) + 0.5) * w;
      for (std::size_t c = 0; c < nc; ++c) {
        double d = torus_delta(p, terms[c].center[a]);
        d2[a][i * nc + c] = d * d;
      }
    }
  }
  std::vector<double> dzy(nc);
  for (std::uint64_t iz = 0; iz < g.dims[0]; ++iz) {
    for (std::uint64_t iy = 0; iy < g.dims[1]; ++iy) {
      for (std::size_t c = 0; c < nc; ++c) {
        dzy[c] = d2[0][iz * nc + c] + d2[1][iy * nc + c];
      }
      for (std::uint64_t ix = 0; ix < g.dims[2]; ++ix) {
        const double* dx2 = &d2[2][ix * nc];
        Sample s;
        for (std::size_t c = 0; c < nc; ++c) s.add(terms[c], dzy[c] + dx2[c]);
        s.finish();
        const double rho = s.rho;
        const std::array<double, 3>& vel = s.vel;
        double v2 =
            vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2];
        double internal = 1.0 / rho;  // crude "pressure equilibrium"
        grid.fields[0].at(iz, iy, ix) = static_cast<float>(rho);
        grid.fields[1].at(iz, iy, ix) =
            static_cast<float>(internal + 0.5 * v2);       // total_energy
        grid.fields[2].at(iz, iy, ix) =
            static_cast<float>(internal);                  // internal_energy
        grid.fields[3].at(iz, iy, ix) = static_cast<float>(vel[2]);  // vx
        grid.fields[4].at(iz, iy, ix) = static_cast<float>(vel[1]);  // vy
        grid.fields[5].at(iz, iy, ix) = static_cast<float>(vel[0]);  // vz
        grid.fields[6].at(iz, iy, ix) =
            static_cast<float>(std::pow(rho, 2.0 / 3.0));  // temperature
        grid.fields[7].at(iz, iy, ix) =
            static_cast<float>(5.0 * (rho - 1.0));         // dark_matter
      }
    }
  }
}

ParticleSet Universe::make_particles(std::uint64_t count,
                                     std::int64_t id_base,
                                     const GridDescriptor& region, double t,
                                     Rng rng) const {
  ParticleSet p;
  p.resize(count);
  const std::vector<ClumpTerms> terms = clump_terms(clumps_, t);
  // Peak density estimate for rejection sampling.
  double peak = 1.0;
  for (const ClumpTerms& c : terms) peak += c.amp;
  const DensityBound bound(*this, region, t);
  for (std::uint64_t i = 0; i < count; ++i) {
    double z, y, x;
    Sample s;
    for (;;) {
      z = rng.next_in(region.left_edge[0], region.right_edge[0]);
      y = rng.next_in(region.left_edge[1], region.right_edge[1]);
      x = rng.next_in(region.left_edge[2], region.right_edge[2]);
      const double u = rng.next_double() * peak;
      // u at or above the cell's bound means u >= rho: skip the clump sum.
      if (u >= bound[bound.cell_of(z, y, x)]) continue;
      s = sample(terms, z, y, x);
      if (u < s.rho) break;
    }
    p.id[i] = id_base + static_cast<std::int64_t>(i);
    p.pos[0][i] = z;
    p.pos[1][i] = y;
    p.pos[2][i] = x;
    for (std::size_t d = 0; d < 3; ++d) {
      p.vel[d][i] = s.vel[d] + 0.01 * rng.next_gaussian();
    }
    p.mass[i] = s.rho;
    p.attr[0][i] = static_cast<float>(t);
    p.attr[1][i] = static_cast<float>(rng.next_double());
  }
  return p;
}

DensityBound::DensityBound(const Universe& universe,
                           const GridDescriptor& region, double t)
    : bound_(static_cast<std::size_t>(kCells * kCells * kCells)) {
  const std::vector<ClumpTerms> terms = clump_terms(universe.clumps(), t);
  const std::size_t nc = terms.size();
  // falloff[a][i * nc + c]: clump c's Gaussian factor along axis a at its
  // smallest torus distance to slab i of that axis.  The 3-D Gaussian
  // factors into the three axes, so a cell's bound is their product.
  std::array<std::vector<double>, 3> falloff;
  for (std::size_t a = 0; a < 3; ++a) {
    const double lo = region.left_edge[a], hi = region.right_edge[a];
    const double width = hi - lo;
    left_[a] = lo;
    scale_[a] = width > 0.0 ? kCells / width : 0.0;
    // Rounding in the positions, cell_of and torus_delta is ~1e-16 of the
    // coordinates; widening each slab by far more keeps it covering every
    // point assigned to it.
    const double margin = 1e-9 * std::max({1.0, std::abs(lo), std::abs(hi)});
    falloff[a].resize(static_cast<std::size_t>(kCells) * nc);
    for (int i = 0; i < kCells; ++i) {
      double s0 = std::min(lo, hi), s1 = std::max(lo, hi);
      if (width > 0.0) {
        s0 = lo + width * i / kCells;
        s1 = lo + width * (i + 1) / kCells;
      }
      for (std::size_t c = 0; c < nc; ++c) {
        double gap = torus_gap(terms[c].center[a], s0 - margin, s1 + margin);
        falloff[a][static_cast<std::size_t>(i) * nc + c] =
            std::exp(-(gap * gap) / terms[c].two_w2);
      }
    }
  }
  // The product of three exps and the clump sum round differently from
  // sample(); a relative pad far above that error keeps the bound on top.
  constexpr double kPad = 1.0 + 1e-6;
  for (int iz = 0; iz < kCells; ++iz) {
    const double* fz = &falloff[0][static_cast<std::size_t>(iz) * nc];
    for (int iy = 0; iy < kCells; ++iy) {
      const double* fy = &falloff[1][static_cast<std::size_t>(iy) * nc];
      for (int ix = 0; ix < kCells; ++ix) {
        const double* fx = &falloff[2][static_cast<std::size_t>(ix) * nc];
        double b = 1.0;
        for (std::size_t c = 0; c < nc; ++c) {
          b += terms[c].amp * fz[c] * fy[c] * fx[c];
        }
        bound_[index(iz, iy, ix)] = b * kPad;
      }
    }
  }
}

std::size_t DensityBound::cell_of(double z, double y, double x) const {
  const double p[3] = {z, y, x};
  std::size_t cell = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    // Clamp in double: casting NaN or an out-of-range value is undefined.
    double f = (p[a] - left_[a]) * scale_[a];
    if (!(f > 0.0)) f = 0.0;
    if (f > kCells - 1) f = kCells - 1;
    cell = cell * kCells + static_cast<std::size_t>(f);
  }
  return cell;
}

void Universe::drift_particles(ParticleSet& particles, double dt) {
  for (std::size_t i = 0; i < particles.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto ud = static_cast<std::size_t>(d);
      particles.pos[ud][i] =
          wrap01(particles.pos[ud][i] + particles.vel[ud][i] * dt);
    }
  }
}

}  // namespace paramrio::amr

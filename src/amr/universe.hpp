// The synthetic "universe": a deterministic analytic stand-in for the
// cosmology (PPM hydro + N-body gravity) that real ENZO solves.
//
// The paper uses ENZO purely as an I/O-pattern generator, so the substitute
// only has to produce (a) smooth baryon fields whose high-density regions
// move and grow over time — driving realistic adaptive refinement — and
// (b) particles whose positions drift — driving the irregular 1-D access
// patterns.  A sum of drifting, growing Gaussian clumps over a uniform
// background does both, bit-reproducibly from a seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "amr/grid.hpp"
#include "base/rng.hpp"

namespace paramrio::amr {

struct Clump {
  std::array<double, 3> center{0, 0, 0};  ///< at t = 0, domain units
  std::array<double, 3> drift{0, 0, 0};   ///< domain units per unit time
  double amplitude = 8.0;                 ///< overdensity at the centre
  double growth = 0.5;                    ///< amplitude growth rate
  double width = 0.05;                    ///< Gaussian sigma, domain units
};

class Universe {
 public:
  Universe(std::uint64_t seed, int n_clumps);

  /// Overdensity (>= 1) at a point, at time t.  Positions wrap periodically.
  double density(double z, double y, double x, double t) const;

  /// Fill all baryon fields of `grid` (whose descriptor fixes the geometry)
  /// with the analytic state at time t.  Field values are deterministic
  /// functions of (position, t), so refined grids resample consistently.
  void fill_fields(Grid& grid, double t) const;

  /// Create `count` particles inside `region`, positions biased toward
  /// dense areas; ids start at `id_base`.  This is plain rejection sampling
  /// against the global peak density: each trial draws z, y, x, then u, and
  /// is accepted when u * peak < density.  A DensityBound over `region`
  /// only skips trials that test would reject anyway, so the output is
  /// bit-identical to the unbounded sampler's, at a fraction of the density
  /// evaluations.
  ParticleSet make_particles(std::uint64_t count, std::int64_t id_base,
                             const GridDescriptor& region, double t,
                             Rng rng) const;

  /// Advance particle positions by their velocities (periodic wrap).
  static void drift_particles(ParticleSet& particles, double dt);

  const std::vector<Clump>& clumps() const { return clumps_; }

 private:
  std::vector<Clump> clumps_;
};

/// Upper bounds of Universe::density at time t over kCells^3 cells that
/// split `region` evenly along each axis.  A cell's bound takes each clump
/// at its minimum torus distance to the cell box, widened and padded so
/// that rounding and cell assignment can never put it below the computed
/// density of a point that cell_of assigns to the cell.
class DensityBound {
 public:
  static constexpr int kCells = 16;  ///< cells per axis

  DensityBound(const Universe& universe, const GridDescriptor& region,
               double t);

  /// Flat index of the cell holding a point.  Points on or past an edge
  /// clamp to the nearest cell; a zero-width axis has only cell 0.
  std::size_t cell_of(double z, double y, double x) const;

  /// Flat index of cell (iz, iy, ix).
  static std::size_t index(int iz, int iy, int ix) {
    return (static_cast<std::size_t>(iz) * kCells +
            static_cast<std::size_t>(iy)) * kCells +
           static_cast<std::size_t>(ix);
  }

  double operator[](std::size_t cell) const { return bound_[cell]; }

 private:
  std::array<double, 3> left_{};
  std::array<double, 3> scale_{};  ///< cells per domain unit (0: one cell)
  std::vector<double> bound_;
};

}  // namespace paramrio::amr

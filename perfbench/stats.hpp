// Sample statistics, state digests and span self-times for the ENZO
// checkpoint/query benchmark (enzo_bench.cpp).  Everything here runs on the
// host outside the timed regions.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "amr/grid.hpp"
#include "enzo/state.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

namespace amr = paramrio::amr;
namespace enzo = paramrio::enzo;

// ---- sample statistics ----------------------------------------------------

/// Quantile `q` in [0, 1] with linear interpolation between order statistics
/// (the "inclusive" definition).  0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail percentile a sample of `n` supports: 99 when n >= 1000,
/// otherwise the highest whole percentile with at least ten samples beyond
/// it (0 when n < 20).
inline double tail_percentile(std::size_t n) {
  if (n >= 1000) return 99.0;
  if (n < 20) return 0.0;
  return std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Samples grouped by pass (one universe per pass).  A run reports the mean
/// over passes of each pass's statistic, so every universe counts equally
/// however many iterations its pass ran.
struct PerPass {
  std::vector<std::vector<double>> v;

  void add(int pass, double x) {
    if (v.size() <= static_cast<std::size_t>(pass)) v.resize(pass + 1);
    v[static_cast<std::size_t>(pass)].push_back(x);
  }
  std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& p : v) n += p.size();
    return n;
  }
  std::vector<double> pooled() const {
    std::vector<double> all;
    for (const auto& p : v) all.insert(all.end(), p.begin(), p.end());
    return all;
  }
  double mean_of_medians() const {
    std::vector<double> m;
    for (const auto& p : v) {
      if (!p.empty()) m.push_back(median(p));
    }
    return mean(m);
  }
};

// ---- order-independent state digests --------------------------------------

inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
inline std::uint64_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// A rank's share of a checkpoint's content, summed (mod 2^64) over ranks.
/// Cells are keyed by (grid id, field, global cell index) and particles by
/// ID, so the sum does not depend on how the data is partitioned.
struct Digest {
  std::uint64_t cells = 0;
  std::uint64_t particles = 0;
  std::uint64_t n_particles = 0;
  std::uint64_t meta = 0;

  Digest& operator+=(const Digest& o) {
    cells += o.cells;
    particles += o.particles;
    n_particles += o.n_particles;
    meta += o.meta;
    return *this;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

inline std::uint64_t cell_key(std::uint64_t grid, std::uint64_t field,
                              std::uint64_t cell) {
  return mix(mix(mix(grid + 0x51ed2701) ^ field) ^ cell);
}

inline std::uint64_t particle_hash(const amr::ParticleSet& p, std::size_t i) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(p.id[i]));
  for (int d = 0; d < 3; ++d) {
    h = mix(h ^ bits(p.pos[static_cast<std::size_t>(d)][i]));
    h = mix(h ^ bits(p.vel[static_cast<std::size_t>(d)][i]));
  }
  h = mix(h ^ bits(p.mass[i]));
  for (int a = 0; a < 2; ++a) {
    h = mix(h ^ bits(p.attr[static_cast<std::size_t>(a)][i]));
  }
  return h;
}

inline Digest digest(const enzo::SimulationState& s, int rank) {
  Digest d;
  const auto& dims = s.config.root_dims;
  const amr::BlockExtent& b = s.my_block;
  for (std::size_t f = 0; f < s.my_fields.size(); ++f) {
    const amr::Array3f& a = s.my_fields[f];
    for (std::uint64_t z = 0; z < b.count[0]; ++z) {
      for (std::uint64_t y = 0; y < b.count[1]; ++y) {
        const std::uint64_t row =
            ((b.start[0] + z) * dims[1] + b.start[1] + y) * dims[2] +
            b.start[2];
        for (std::uint64_t x = 0; x < b.count[2]; ++x) {
          d.cells += mix(cell_key(0, f, row + x) ^ bits(a.at(z, y, x)));
        }
      }
    }
  }
  for (const amr::Grid& g : s.my_subgrids) {
    for (std::size_t f = 0; f < g.fields.size(); ++f) {
      const amr::Array3f& a = g.fields[f];
      for (std::uint64_t c = 0; c < a.size(); ++c) {
        d.cells += mix(cell_key(g.desc.id, f, c) ^ bits(a.data()[c]));
      }
    }
  }
  for (std::size_t i = 0; i < s.my_particles.size(); ++i) {
    d.particles += particle_hash(s.my_particles, i);
  }
  d.n_particles = s.my_particles.size();
  if (rank == 0) {
    d.meta = mix(bits(s.time)) ^ mix(s.cycle + 1) ^
             mix(s.hierarchy.grid_count() + 7);
  }
  return d;
}

// ---- span self-times --------------------------------------------------------

struct SpanTimes {
  double total = 0.0;  ///< inclusive durations
  double self = 0.0;   ///< minus the part covered by direct children
};

/// Virtual time per span name, summed over ranks.  Deferred (async) spans
/// are skipped; they overlap their parents by design.
inline std::map<std::string, SpanTimes> span_times(
    const std::vector<paramrio::obs::SpanRecord>& spans) {
  std::map<int, std::vector<const paramrio::obs::SpanRecord*>> by_rank;
  for (const auto& s : spans) {
    if (!s.async) by_rank[s.rank].push_back(&s);
  }
  std::map<std::string, SpanTimes> times;
  for (auto& [rank, list] : by_rank) {
    (void)rank;
    std::stable_sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->t_start != b->t_start) return a->t_start < b->t_start;
      return a->depth < b->depth;
    });
    std::vector<const paramrio::obs::SpanRecord*> stack;
    for (const auto* s : list) {
      while (!stack.empty() && stack.back()->depth >= s->depth) {
        stack.pop_back();
      }
      SpanTimes& t = times[s->name];
      t.total += s->duration();
      t.self += s->duration();
      if (!stack.empty() && stack.back()->depth == s->depth - 1) {
        times[stack.back()->name].self -= s->duration();
      }
      stack.push_back(s);
    }
  }
  return times;
}

}  // namespace perfbench

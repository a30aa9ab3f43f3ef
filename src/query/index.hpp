// query::GenerationIndex — the per-generation extent index behind the query
// service (ROADMAP item 3; the h5db direction).
//
// A committed dump is, to its writers, a stream: every backend knows where
// its own bytes went because it computed the layout on the way in.  A
// *reader* that wants one field of one subgrid, or particles 1000..2000,
// has no such luck — the paper's formats bury offsets in format-specific
// metadata (HDF4 DDs, the HDF5 record chain, the PNC header, the MPI-IO
// closed-form layout).  enzo::read_dump_extents, the single reader of all
// four layouts, flattens them into one uniform map; the index is that map
// plus what random access needs on top, built once per generation:
//
//   * per (grid, field): file path, absolute byte offset, byte length and
//     (z, y, x) dims — enough to plan a sub-volume extract as byte runs;
//   * per particle array: path/offset/element size, plus the ID range and
//     a strided sample ladder over the (sorted) particle_id array so an ID
//     range query binary-searches a small window instead of scanning;
//   * the dump's attributes (the serialized DumpMeta and anything else the
//     writer attached), so metadata lookups never touch the data region.
//
// The index serializes to a compact blob that `mdms::Catalog` persists
// (versioned, tombstone-aware), so a fresh process can serve a series
// without re-reading every generation's layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "enzo/dump_inspect.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::query {

using enzo::FieldExtent;
using enzo::ParticleExtent;

/// One rung of the particle-ID sample ladder: the ID at array index
/// `index`.  Rungs are ascending in both fields (IDs are sorted).
struct IdSample {
  std::uint64_t id = 0;
  std::uint64_t index = 0;
};

/// Stride (in particles) between ID samples; the ID window a range query
/// must actually read is at most two strides.
inline constexpr std::uint64_t kIdSampleStride = 4096;

/// A generation's extents (format, meta, fields, particles, attributes)
/// plus the particle-ID ladder.
struct GenerationIndex : enzo::DumpExtents {
  std::uint64_t gen = 0;
  std::uint64_t id_min = 0;
  std::uint64_t id_max = 0;
  std::vector<IdSample> id_samples;  ///< first, every kIdSampleStride, last

  const FieldExtent& field(std::uint64_t grid_id,
                           const std::string& name) const;
  bool has_field(std::uint64_t grid_id, const std::string& name) const;

  std::vector<std::byte> serialize() const;
  static GenerationIndex deserialize(std::span<const std::byte> data);
};

/// Build the index for the dump under `gen_base` (a CheckpointSeries
/// generation base, e.g. "series.g3"): enzo::read_dump_extents, then one
/// scan of the particle_id array for the ladder.  Must run inside a
/// simulation: all metadata and particle-ID reads are timed like any other
/// access.  Throws FormatError/IoError on a missing or malformed dump.
GenerationIndex build_index(pfs::FileSystem& fs, const std::string& gen_base,
                            std::uint64_t gen);

}  // namespace paramrio::query

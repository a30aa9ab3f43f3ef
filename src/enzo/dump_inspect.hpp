// Checkpoint-dump reading outside the backends: the one reader of all four
// formats' on-disk layouts.  read_dump_extents opens a dump written by any
// backend, validates its structure and returns where every dataset lives;
// the inspector (the job a standalone `h5dump`/`hdp`-style tool does for the
// real formats) and the query index are both built on it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "enzo/dump_common.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::enzo {

enum class DumpFormat { kUnknown, kHdf4, kMpiIo, kHdf5, kPnetcdf };

std::string to_string(DumpFormat f);

/// Where one field of one grid lives: a contiguous row-major (z, y, x)
/// float32 array at [offset, offset + bytes) of `path`.
struct FieldExtent {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, 3> dims{};  ///< (z, y, x) cells
};

/// Where one particle array lives (all backends store each array
/// contiguously, sorted by particle ID).
struct ParticleExtent {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t elem_size = 0;
};

/// A dump's layout as stored, flattened to one shape for every format.
struct DumpExtents {
  DumpFormat format = DumpFormat::kUnknown;
  DumpMeta meta;

  /// grid id -> field name -> extent (every grid has all baryon fields).
  std::map<std::uint64_t, std::map<std::string, FieldExtent>> fields;

  /// One per kParticleArrays entry; empty when the dump has no particles.
  std::vector<ParticleExtent> particles;

  /// The dump's attributes (the serialized DumpMeta and anything else the
  /// writer attached).
  std::map<std::string, std::vector<std::byte>> attributes;
};

struct DumpSummary {
  DumpFormat format = DumpFormat::kUnknown;
  DumpMeta meta;
  std::uint64_t files = 0;        ///< physical files making up the dump
  std::uint64_t total_bytes = 0;  ///< bytes across those files
  std::uint64_t datasets = 0;     ///< named datasets (grid fields, particles)
  int max_level = 0;
  std::uint64_t refined_cells = 0;
};

/// Detect the format of the dump stored under `base` on `fs`.
DumpFormat detect_dump_format(pfs::FileSystem& fs, const std::string& base);

/// Read the layout of the dump under `base`: its format, metadata,
/// attributes and the extent of every grid field and particle array.  Must
/// run inside a simulation: the metadata reads are timed like any other
/// access.  Throws IoError if no dump is found and FormatError if it is
/// malformed (including a missing HDF4 subgrid file).
DumpExtents read_dump_extents(pfs::FileSystem& fs, const std::string& base);

/// Open and summarise a dump (read_dump_extents plus the stored size of
/// every file it names).
DumpSummary inspect_dump(pfs::FileSystem& fs, const std::string& base);

/// Human-readable rendering of a summary.
std::string format_summary(const DumpSummary& s, const std::string& base);

}  // namespace paramrio::enzo

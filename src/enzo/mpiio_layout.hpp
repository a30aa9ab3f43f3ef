// Byte layout of the shared MPI-IO dump file (`<base>.enzo`), computable
// identically on every rank from the dump metadata alone.  Shared between
// the MPI-IO backend (which writes/reads with it collectively) and the
// dump extent reader (which turns it into per-field extents).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "amr/grid.hpp"
#include "base/byte_io.hpp"
#include "enzo/dump_common.hpp"

namespace paramrio::enzo {

constexpr std::uint64_t kMpiioDumpMagic = 0x4F5A4E45504D5244ULL;  // "DRMPENZO"

/// The file starts with the magic and the serialized DumpMeta's length.
constexpr std::uint64_t kMpiioPreambleBytes = 16;

/// Validate the preamble of a `file_size`-byte dump at `path` and return
/// its metadata length.  A length the file cannot hold is rejected before
/// anyone allocates a buffer for it.
inline std::uint64_t mpiio_meta_bytes(std::span<const std::byte> preamble,
                                      std::uint64_t file_size,
                                      const std::string& path) {
  ByteReader r(preamble);
  if (r.u64() != kMpiioDumpMagic) {
    throw FormatError("not a paramrio MPI-IO dump: " + path);
  }
  const std::uint64_t meta_bytes = r.u64();
  if (file_size < kMpiioPreambleBytes ||
      meta_bytes > file_size - kMpiioPreambleBytes) {
    throw FormatError(path + ": metadata length " +
                      std::to_string(meta_bytes) + " exceeds file size " +
                      std::to_string(file_size));
  }
  return meta_bytes;
}

struct MpiioSharedLayout {
  std::uint64_t meta_bytes = 0;
  std::uint64_t topgrid_fields = 0;  ///< start of the 8 field datasets
  std::uint64_t field_bytes = 0;     ///< bytes per top-grid field
  std::array<std::uint64_t, kNumParticleArrays> particle_off{};
  std::map<std::uint64_t, std::uint64_t> subgrid_off;  ///< grid id -> start
  std::uint64_t total = 0;

  std::uint64_t field_off(int f) const {
    return topgrid_fields + static_cast<std::uint64_t>(f) * field_bytes;
  }
  /// Start of field `f` of subgrid `g` (a subgrid's fields are contiguous).
  std::uint64_t subgrid_field_off(const amr::GridDescriptor& g, int f) const {
    return subgrid_off.at(g.id) +
           static_cast<std::uint64_t>(f) * g.cell_count() * sizeof(float);
  }
};

inline MpiioSharedLayout build_mpiio_layout(
    const DumpMeta& meta, const std::array<std::uint64_t, 3>& root_dims) {
  MpiioSharedLayout l;
  l.meta_bytes = meta.serialize().size();
  l.topgrid_fields = kMpiioPreambleBytes + l.meta_bytes;
  l.field_bytes = root_dims[0] * root_dims[1] * root_dims[2] * sizeof(float);
  std::uint64_t pos =
      l.topgrid_fields +
      static_cast<std::uint64_t>(amr::kNumBaryonFields) * l.field_bytes;
  for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
    l.particle_off[a] = pos;
    pos += kParticleArrays[a].elem_size * meta.n_particles;
  }
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    l.subgrid_off[g.id] = pos;
    pos += static_cast<std::uint64_t>(amr::kNumBaryonFields) *
           g.cell_count() * sizeof(float);
  }
  l.total = pos;
  return l;
}

}  // namespace paramrio::enzo

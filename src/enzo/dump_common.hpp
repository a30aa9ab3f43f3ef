// Pieces shared by all four I/O backends: dump metadata, the particle
// dataset schema (ENZO's fixed series of 1-D arrays), subgrid naming, the
// ID-sorted particle order of a dump, and the grid-partitioning bookkeeping
// of new-simulation and restart reads.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "amr/grid.hpp"
#include "amr/hierarchy.hpp"
#include "enzo/state.hpp"
#include "mpi/comm.hpp"

namespace paramrio::enzo {

/// Everything a dump stores besides bulk data.
struct DumpMeta {
  double time = 0.0;
  std::uint64_t cycle = 0;
  std::uint64_t n_particles = 0;
  amr::Hierarchy hierarchy;

  std::vector<std::byte> serialize() const;
  static DumpMeta deserialize(std::span<const std::byte> data);
};

/// The dump metadata of `state`: its time, cycle and hierarchy plus the
/// global particle count, an allreduce timed under span `span`.
DumpMeta make_dump_meta(mpi::Comm& comm, const SimulationState& state,
                        const char* span);

/// Name of subgrid `id`'s file in the one-file-per-grid layout (HDF4).
std::string subgrid_file_name(const std::string& base, std::uint64_t id);

/// Group prefix ("gridNNNNNN/") of subgrid `id`'s datasets in the
/// single-file layouts (HDF5, PnetCDF).
std::string subgrid_group(std::uint64_t id);

/// The fixed order of particle datasets (the paper: "particle ID, particle
/// positions, particle velocities, particle mass, and other particle
/// attributes").
struct ParticleArraySpec {
  const char* name;
  std::uint64_t elem_size;
};
inline constexpr ParticleArraySpec kParticleArrays[] = {
    {"particle_id", 8},         {"particle_position_x", 8},
    {"particle_position_y", 8}, {"particle_position_z", 8},
    {"particle_velocity_x", 8}, {"particle_velocity_y", 8},
    {"particle_velocity_z", 8}, {"particle_mass", 8},
    {"particle_attr_0", 4},     {"particle_attr_1", 4},
};
inline constexpr std::size_t kNumParticleArrays = 10;

/// Copy particle array `idx` (elements [first, first+count)) into `dst`.
void particle_array_to_bytes(const amr::ParticleSet& p, std::size_t idx,
                             std::size_t first, std::size_t count,
                             std::byte* dst);

/// Fill particle array `idx` of `p` (which must already have size >= count)
/// from raw bytes.
void particle_array_from_bytes(amr::ParticleSet& p, std::size_t idx,
                               std::size_t count, const std::byte* src);

/// Bytes of all particle arrays for `n` particles.
std::uint64_t particle_payload_bytes(std::uint64_t n);

/// This rank's share of the dump's particle order: the particles after a
/// parallel sort by ID, and the global index of the first of them.
struct SortedParticles {
  amr::ParticleSet set;
  std::uint64_t first = 0;
};

/// Parallel sort by ID plus the allgatherv count prefix giving `first`,
/// timed under span `span`.
SortedParticles sort_particles_for_dump(mpi::Comm& comm,
                                        const SimulationState& state,
                                        const char* span);

/// Processor grid used to partition grid `g` among up to `nprocs` ranks:
/// the global processor grid with each axis capped at the grid's cell count
/// (small subgrids are split over fewer ranks; the rest receive nothing).
std::array<int, 3> bounded_proc_grid(const amr::GridDescriptor& g,
                                     int nprocs);

inline int piece_count(const std::array<int, 3>& pg) {
  return pg[0] * pg[1] * pg[2];
}

/// Descriptor of rank `rank`'s (Block,Block,Block) piece of grid `g`
/// (ENZO's new-simulation partitioning of every initial grid); `proc_grid`
/// must come from bounded_proc_grid and rank < piece_count(proc_grid).
amr::GridDescriptor piece_descriptor(const amr::GridDescriptor& g,
                                     const std::array<int, 3>& proc_grid,
                                     int rank);

/// Rebuild `state`'s hierarchy after a new-simulation read: the root plus
/// one piece per (stored subgrid, rank); this rank's pieces carry the data
/// in `my_pieces` (same order as the stored subgrid ids).
void install_partitioned_hierarchy(mpi::Comm& comm, SimulationState& state,
                                   const DumpMeta& meta,
                                   std::vector<amr::Grid> my_pieces);

/// Reads field `field` of this rank's piece of subgrid `g` into `dst`;
/// `e` is the piece's block of `g`.  On ranks outside the grid's processor
/// grid `e` is null and `dst` empty: they still join the collective.
using PieceFieldReader =
    std::function<void(const amr::GridDescriptor& g, int field,
                       const amr::BlockExtent* e, std::span<std::byte> dst)>;

/// ENZO's new-simulation subgrid read: every stored subgrid is partitioned
/// (Block,Block,Block) over bounded_proc_grid and each of its fields read
/// through `read_field`.  Returns this rank's pieces, in storage order, for
/// install_partitioned_hierarchy.
std::vector<amr::Grid> read_partitioned_subgrids(
    const mpi::Comm& comm, const DumpMeta& meta,
    const PieceFieldReader& read_field);

/// ENZO's restart assignment: stored subgrid i is read whole by rank i % P.
/// Sets those owners in `h` and returns this rank's subgrids (owner set) in
/// storage order for the caller to read.
std::vector<amr::GridDescriptor> assign_restart_owners(const mpi::Comm& comm,
                                                       amr::Hierarchy& h);

/// Reconstruct top-grid state after the per-rank block fields and the
/// position-partitioned particles are in hand.
void install_topgrid(SimulationState& state, const DumpMeta& meta,
                     std::vector<amr::Array3f> fields,
                     amr::ParticleSet particles);

}  // namespace paramrio::enzo

// Parallel HDF5 port of the optimised I/O design: identical access patterns
// to MpiIoBackend, but expressed as HDF5 dataset/hyperslab operations —
// thereby paying the library's metadata-synchronisation, allocation-
// alignment, hyperslab-packing and attribute-serialisation overheads that
// the paper measures in Figure 10.
#include <optional>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "obs/profiler.hpp"

namespace paramrio::enzo {

namespace {

hdf5::NumberType particle_number_type(std::size_t array_idx) {
  if (array_idx == 0) return hdf5::NumberType::kInt64;
  if (kParticleArrays[array_idx].elem_size == 4) {
    return hdf5::NumberType::kFloat32;
  }
  return hdf5::NumberType::kFloat64;
}

hdf5::Dataspace block_selection(const std::array<std::uint64_t, 3>& dims,
                                const amr::BlockExtent& e) {
  hdf5::Dataspace s({dims[0], dims[1], dims[2]});
  s.select_block({e.start[0], e.start[1], e.start[2]},
                 {e.count[0], e.count[1], e.count[2]});
  return s;
}

struct TopgridRead {
  hdf5::H5File file;
  DumpMeta meta;
};

/// The phase new-simulation and restart reads share: open the dump, read
/// its metadata, this rank's block of every top-grid field (collective
/// hyperslabs) and its block-wise particle slice, then redistribute the
/// particles by position and install the top grid.  The file stays open
/// for the subgrid phase.
TopgridRead read_topgrid(pfs::FileSystem& fs, hdf5::FileConfig cfg,
                         mpi::Comm& comm, SimulationState& state,
                         const std::string& base) {
  cfg.comm = &comm;
  hdf5::H5File h = hdf5::H5File::open(fs, base + ".h5", cfg);
  DumpMeta meta = DumpMeta::deserialize(h.read_attribute("metadata"));

  OBS_SPAN("hdf5_dump.field_read", sim::TimeCategory::kIo);
  const auto& dims = state.config.root_dims;
  std::vector<amr::Array3f> fields;
  const amr::BlockExtent& e = state.my_block;
  for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
    auto u = static_cast<std::size_t>(fi);
    hdf5::Dataset d =
        h.open_dataset("topgrid/" + amr::baryon_field_names()[u]);
    amr::Array3f blk(e.count[0], e.count[1], e.count[2]);
    d.read(block_selection(dims, e), blk.mutable_bytes(),
           /*collective=*/true);
    d.close();
    fields.push_back(std::move(blk));
  }

  amr::ParticleSet particles;
  if (meta.n_particles > 0) {
    auto [first, count] =
        amr::block_range(meta.n_particles, comm.size(), comm.rank());
    amr::ParticleSet slice;
    slice.resize(count);
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      hdf5::Dataset d =
          h.open_dataset(std::string("topgrid/") + kParticleArrays[a].name);
      if (count > 0) {
        std::vector<std::byte> buf(count * kParticleArrays[a].elem_size);
        hdf5::Dataspace sel({meta.n_particles});
        sel.select_block({first}, {count});
        d.read(sel, buf, /*collective=*/false);
        particle_array_from_bytes(slice, a, count, buf.data());
      }
      d.close();
    }
    particles = amr::redistribute_by_position(
        comm, slice, state.config.root_dims, state.proc_grid);
  }
  install_topgrid(state, meta, std::move(fields), std::move(particles));
  return {std::move(h), std::move(meta)};
}

}  // namespace

void Hdf5ParallelBackend::write_dump(mpi::Comm& comm,
                                     const SimulationState& state,
                                     const std::string& base) {
  DumpMeta meta = make_dump_meta(comm, state, "hdf5_dump.meta");

  hdf5::FileConfig cfg = config_;
  cfg.comm = &comm;
  std::optional<hdf5::H5File> h;
  {
    OBS_SPAN("hdf5_dump.open", sim::TimeCategory::kIo);
    h.emplace(hdf5::H5File::create(fs_, base + ".h5", cfg));
    h->write_attribute("metadata", meta.serialize());
  }

  // ---- top-grid fields: collective creates + collective hyperslab writes
  {
    OBS_SPAN("hdf5_dump.field_write", sim::TimeCategory::kIo);
    const auto& dims = state.config.root_dims;
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      auto u = static_cast<std::size_t>(fi);
      hdf5::Dataset d =
          h->create_dataset("topgrid/" + amr::baryon_field_names()[u],
                            hdf5::NumberType::kFloat32,
                            hdf5::Dataspace({dims[0], dims[1], dims[2]}));
      d.write(block_selection(dims, state.my_block),
              state.my_fields[u].bytes(), /*collective=*/true);
      d.close();
    }
  }

  // ---- particles: parallel sort, then block-wise non-collective writes ---
  if (meta.n_particles > 0) {
    const auto [sorted, first] =
        sort_particles_for_dump(comm, state, "hdf5_dump.particle_sort");
    OBS_SPAN("hdf5_dump.particle_write", sim::TimeCategory::kIo);
    const std::uint64_t my_count = sorted.size();
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      hdf5::Dataset d = h->create_dataset(
          std::string("topgrid/") + kParticleArrays[a].name,
          particle_number_type(a), hdf5::Dataspace({meta.n_particles}));
      if (my_count > 0) {
        std::vector<std::byte> buf(my_count * kParticleArrays[a].elem_size);
        particle_array_to_bytes(sorted, a, 0, my_count, buf.data());
        hdf5::Dataspace sel({meta.n_particles});
        sel.select_block({first}, {my_count});
        d.write(sel, buf, /*collective=*/false);
      }
      d.close();
    }
  }

  // ---- subgrids: collective creates (the HDF5 pain point — a
  //      synchronisation per dataset), independent owner writes ------------
  {
    OBS_SPAN("hdf5_dump.subgrid_write", sim::TimeCategory::kIo);
    for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
      if (g.level == 0) continue;
      const amr::Grid* mine = nullptr;
      for (const amr::Grid& sg : state.my_subgrids) {
        if (sg.desc.id == g.id) mine = &sg;
      }
      for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
        auto u = static_cast<std::size_t>(fi);
        hdf5::Dataset d = h->create_dataset(
            subgrid_group(g.id) + amr::baryon_field_names()[u],
            hdf5::NumberType::kFloat32,
            hdf5::Dataspace({g.dims[0], g.dims[1], g.dims[2]}));
        if (mine != nullptr) {
          d.write_all(mine->fields[u].bytes(), /*collective=*/false);
        }
        d.close();
      }
    }
  }
  OBS_SPAN("hdf5_dump.close", sim::TimeCategory::kIo);
  h->close();
}

void Hdf5ParallelBackend::read_initial(mpi::Comm& comm,
                                       SimulationState& state,
                                       const std::string& base) {
  auto [h, meta] = read_topgrid(fs_, config_, comm, state, base);

  // Initial subgrids: every grid partitioned with collective reads; ranks
  // outside a small grid's processor grid join with an empty selection
  // (H5Sselect_none).
  OBS_SPAN("hdf5_dump.subgrid_read", sim::TimeCategory::kIo);
  auto my_pieces = read_partitioned_subgrids(
      comm, meta,
      [&](const amr::GridDescriptor& g, int fi, const amr::BlockExtent* e,
          std::span<std::byte> dst) {
        hdf5::Dataset d = h.open_dataset(
            subgrid_group(g.id) +
            amr::baryon_field_names()[static_cast<std::size_t>(fi)]);
        if (e != nullptr) {
          d.read(block_selection(g.dims, *e), dst, /*collective=*/true);
        } else {
          hdf5::Dataspace none({g.dims[0], g.dims[1], g.dims[2]});
          none.select_none();
          d.read(none, {}, /*collective=*/true);
        }
        d.close();
      });
  h.close();
  install_partitioned_hierarchy(comm, state, meta, std::move(my_pieces));
}

void Hdf5ParallelBackend::read_restart(mpi::Comm& comm,
                                       SimulationState& state,
                                       const std::string& base) {
  auto [h, meta] = read_topgrid(fs_, config_, comm, state, base);

  // Subgrids round-robin, whole-grid independent reads by their owner.
  OBS_SPAN("hdf5_dump.subgrid_read", sim::TimeCategory::kIo);
  state.hierarchy = meta.hierarchy;
  state.my_subgrids.clear();
  for (const amr::GridDescriptor& g :
       assign_restart_owners(comm, state.hierarchy)) {
    amr::Grid grid;
    grid.desc = g;
    grid.allocate_fields();
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      auto u = static_cast<std::size_t>(fi);
      hdf5::Dataset d =
          h.open_dataset(subgrid_group(g.id) + amr::baryon_field_names()[u]);
      d.read_all(grid.fields[u].mutable_bytes(), /*collective=*/false);
      d.close();
    }
    state.my_subgrids.push_back(std::move(grid));
  }
  h.close();
}

}  // namespace paramrio::enzo

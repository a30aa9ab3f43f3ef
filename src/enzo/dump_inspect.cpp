#include "enzo/dump_inspect.hpp"

#include <set>
#include <sstream>

#include "enzo/mpiio_layout.hpp"
#include "hdf4/sd_file.hpp"
#include "hdf5/h5_file.hpp"
#include "pnetcdf/nc_file.hpp"

namespace paramrio::enzo {

std::string to_string(DumpFormat f) {
  switch (f) {
    case DumpFormat::kUnknown:
      return "unknown";
    case DumpFormat::kHdf4:
      return "hdf4 (one file per grid)";
    case DumpFormat::kMpiIo:
      return "mpi-io (single shared file)";
    case DumpFormat::kHdf5:
      return "hdf5 (single shared file)";
    case DumpFormat::kPnetcdf:
      return "pnetcdf (single shared file)";
  }
  throw LogicError("bad DumpFormat");
}

DumpFormat detect_dump_format(pfs::FileSystem& fs, const std::string& base) {
  if (fs.exists(base + ".enzo")) return DumpFormat::kMpiIo;
  if (fs.exists(base + ".h5")) return DumpFormat::kHdf5;
  if (fs.exists(base + ".nc")) return DumpFormat::kPnetcdf;
  if (fs.exists(base + ".topgrid")) return DumpFormat::kHdf4;
  return DumpFormat::kUnknown;
}

namespace {

std::array<std::uint64_t, 3> dims3(const std::vector<std::uint64_t>& d,
                                   const std::string& what) {
  if (d.size() != 3) {
    throw FormatError("dump dataset " + what + " is not 3-d");
  }
  return {d[0], d[1], d[2]};
}

/// Dataset group of grid `g` in the single-file layouts.
std::string grid_group(const amr::GridDescriptor& g) {
  return g.level == 0 ? std::string("topgrid/") : subgrid_group(g.id);
}

void read_hdf4(pfs::FileSystem& fs, const std::string& base, DumpExtents& x) {
  const std::string top_path = base + ".topgrid";
  hdf4::SdFile top = hdf4::SdFile::open(fs, top_path);
  auto blob = top.read_attribute("metadata");
  x.meta = DumpMeta::deserialize(blob);
  x.attributes["metadata"] = blob;
  const amr::GridDescriptor& root = x.meta.hierarchy.root();
  auto& root_fields = x.fields[root.id];
  for (const std::string& name : amr::baryon_field_names()) {
    const hdf4::SdsInfo& i = top.info(name);
    root_fields[name] = FieldExtent{top_path, i.data_offset, i.data_bytes,
                                    dims3(i.dims, top_path + ":" + name)};
  }
  if (x.meta.n_particles > 0) {
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      const hdf4::SdsInfo& i = top.info(kParticleArrays[a].name);
      x.particles.push_back(ParticleExtent{top_path, i.data_offset,
                                           kParticleArrays[a].elem_size});
    }
  }
  top.close();
  for (const amr::GridDescriptor& g : x.meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    const std::string path = subgrid_file_name(base, g.id);
    if (!fs.exists(path)) {
      throw FormatError("dump " + base + ": missing subgrid file " + path);
    }
    hdf4::SdFile sub = hdf4::SdFile::open(fs, path);
    auto& gf = x.fields[g.id];
    for (const std::string& name : amr::baryon_field_names()) {
      const hdf4::SdsInfo& i = sub.info(name);
      gf[name] = FieldExtent{path, i.data_offset, i.data_bytes,
                             dims3(i.dims, path + ":" + name)};
    }
    sub.close();
  }
}

void read_hdf5(pfs::FileSystem& fs, const std::string& base, DumpExtents& x) {
  const std::string path = base + ".h5";
  hdf5::H5File h = hdf5::H5File::open(fs, path);
  auto blob = h.read_attribute("metadata");
  x.meta = DumpMeta::deserialize(blob);
  x.attributes["metadata"] = blob;
  for (const amr::GridDescriptor& g : x.meta.hierarchy.grids()) {
    const std::string group = grid_group(g);
    auto& gf = x.fields[g.id];
    for (const std::string& name : amr::baryon_field_names()) {
      const hdf5::DatasetInfo& i = h.open_dataset(group + name).info();
      gf[name] = FieldExtent{path, i.data_addr, i.data_bytes,
                             dims3(i.dims, path + ":" + group + name)};
    }
  }
  if (x.meta.n_particles > 0) {
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      const hdf5::DatasetInfo& i =
          h.open_dataset(std::string("topgrid/") + kParticleArrays[a].name)
              .info();
      x.particles.push_back(
          ParticleExtent{path, i.data_addr, kParticleArrays[a].elem_size});
    }
  }
  h.close();
}

void read_pnetcdf(pfs::FileSystem& fs, const std::string& base,
                  DumpExtents& x) {
  const std::string path = base + ".nc";
  pnetcdf::NcHeader h = pnetcdf::read_nc_header(fs, path);
  auto it = h.atts.find("metadata");
  if (it == h.atts.end()) {
    throw FormatError(path + ": missing metadata attribute");
  }
  x.meta = DumpMeta::deserialize(it->second);
  x.attributes = h.atts;
  auto var_dims = [&](const pnetcdf::Var& v) {
    std::vector<std::uint64_t> d;
    for (int id : v.dim_ids) {
      d.push_back(h.dims[static_cast<std::size_t>(id)].length);
    }
    return d;
  };
  for (const amr::GridDescriptor& g : x.meta.hierarchy.grids()) {
    const std::string group = grid_group(g);
    auto& gf = x.fields[g.id];
    for (const std::string& name : amr::baryon_field_names()) {
      const pnetcdf::Var* v = h.find_var(group + name);
      if (v == nullptr) {
        throw FormatError(path + ": missing variable " + group + name);
      }
      gf[name] = FieldExtent{path, v->offset, v->bytes,
                             dims3(var_dims(*v), path + ":" + group + name)};
    }
  }
  if (x.meta.n_particles > 0) {
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      const pnetcdf::Var* v =
          h.find_var(std::string("topgrid/") + kParticleArrays[a].name);
      if (v == nullptr) {
        throw FormatError(path + ": missing particle variable " +
                          kParticleArrays[a].name);
      }
      x.particles.push_back(
          ParticleExtent{path, v->offset, kParticleArrays[a].elem_size});
    }
  }
}

void read_mpiio(pfs::FileSystem& fs, const std::string& base,
                DumpExtents& x) {
  const std::string path = base + ".enzo";
  int fd = fs.open(path, pfs::OpenMode::kRead);
  std::vector<std::byte> blob;
  try {
    std::vector<std::byte> preamble(kMpiioPreambleBytes);
    fs.read_at(fd, 0, preamble);
    blob.resize(mpiio_meta_bytes(preamble, fs.size(fd), path));
    fs.read_at(fd, kMpiioPreambleBytes, blob);
  } catch (...) {
    fs.close(fd);
    throw;
  }
  fs.close(fd);
  x.meta = DumpMeta::deserialize(blob);
  x.attributes["metadata"] = blob;

  const amr::GridDescriptor& root = x.meta.hierarchy.root();
  MpiioSharedLayout layout = build_mpiio_layout(x.meta, root.dims);
  auto& root_fields = x.fields[root.id];
  for (int f = 0; f < amr::kNumBaryonFields; ++f) {
    const std::string& name =
        amr::baryon_field_names()[static_cast<std::size_t>(f)];
    root_fields[name] =
        FieldExtent{path, layout.field_off(f), layout.field_bytes, root.dims};
  }
  for (const amr::GridDescriptor& g : x.meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    auto& gf = x.fields[g.id];
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      const std::string& name =
          amr::baryon_field_names()[static_cast<std::size_t>(f)];
      gf[name] = FieldExtent{path, layout.subgrid_field_off(g, f),
                             g.cell_count() * sizeof(float), g.dims};
    }
  }
  if (x.meta.n_particles > 0) {
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      x.particles.push_back(ParticleExtent{path, layout.particle_off[a],
                                           kParticleArrays[a].elem_size});
    }
  }
}

}  // namespace

DumpExtents read_dump_extents(pfs::FileSystem& fs, const std::string& base) {
  DumpExtents x;
  x.format = detect_dump_format(fs, base);
  switch (x.format) {
    case DumpFormat::kHdf4:
      read_hdf4(fs, base, x);
      break;
    case DumpFormat::kMpiIo:
      read_mpiio(fs, base, x);
      break;
    case DumpFormat::kHdf5:
      read_hdf5(fs, base, x);
      break;
    case DumpFormat::kPnetcdf:
      read_pnetcdf(fs, base, x);
      break;
    case DumpFormat::kUnknown:
      throw IoError("no dump found under base name '" + base + "'");
  }
  return x;
}

DumpSummary inspect_dump(pfs::FileSystem& fs, const std::string& base) {
  DumpExtents x = read_dump_extents(fs, base);
  DumpSummary s;
  s.format = x.format;
  std::set<std::string> paths;
  for (const auto& [grid_id, gf] : x.fields) {
    for (const auto& [name, e] : gf) paths.insert(e.path);
    s.datasets += gf.size();
  }
  for (const ParticleExtent& p : x.particles) paths.insert(p.path);
  s.datasets += x.particles.size();
  s.files = paths.size();
  for (const std::string& p : paths) s.total_bytes += fs.store().size(p);
  s.meta = std::move(x.meta);
  s.max_level = s.meta.hierarchy.max_level();
  s.refined_cells =
      s.meta.hierarchy.total_cells() - s.meta.hierarchy.root().cell_count();
  return s;
}

std::string format_summary(const DumpSummary& s, const std::string& base) {
  std::ostringstream os;
  const auto& root = s.meta.hierarchy.root();
  os << "dump '" << base << "': " << to_string(s.format) << "\n";
  os << "  cycle " << s.meta.cycle << ", t = " << s.meta.time << "\n";
  os << "  root grid " << root.dims[0] << "x" << root.dims[1] << "x"
     << root.dims[2] << ", " << s.meta.hierarchy.grid_count() << " grids, "
     << s.max_level + 1 << " levels, " << s.refined_cells
     << " refined cells\n";
  os << "  " << s.meta.n_particles << " particles\n";
  os << "  " << s.datasets << " datasets in " << s.files << " file(s), "
     << static_cast<double>(s.total_bytes) / 1.0e6 << " MB\n";
  return os.str();
}

}  // namespace paramrio::enzo

// Parallel netCDF-analogue ("PnetCDF") — the paper's lineage, implemented.
//
// The authors' follow-up to this paper was Parallel netCDF (Li, Liao,
// Choudhary, Ross, Thakur, Gropp, Latham et al., SC 2003): a scientific
// file format whose *design* removes exactly the four parallel-HDF5
// overheads measured in Figure 10:
//
//   * one define mode ended by a single collective enddef() — instead of a
//     synchronisation per dataset create/close;
//   * a flat header followed by an aligned, contiguous data region — no
//     metadata interleaved with array data;
//   * variable offsets computed by closed-form arithmetic — no recursive
//     hyperslab machinery (subarray access maps straight onto MPI-IO
//     datatypes);
//   * attributes live in the header, written once at enddef — no rank-0
//     round trip per attribute.
//
// This module implements that design on the same substrates (mini-MPI +
// simulated file systems), giving the repository a fourth I/O backend and
// the bench_ext_pnetcdf extension experiment.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpi/io/file.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::pnetcdf {

enum class NcType : std::uint8_t {
  kFloat = 0,
  kDouble = 1,
  kInt = 2,
  kInt64 = 3,
};

std::uint64_t type_size(NcType t);

struct Dim {
  std::string name;
  std::uint64_t length = 0;
};

struct Var {
  std::string name;
  NcType type = NcType::kFloat;
  std::vector<int> dim_ids;      ///< slowest first (row-major)
  std::uint64_t offset = 0;      ///< absolute file offset of the data
  std::uint64_t bytes = 0;

  std::uint64_t element_count(const std::vector<Dim>& dims) const {
    std::uint64_t n = 1;
    for (int d : dim_ids) n *= dims[static_cast<std::size_t>(d)].length;
    return n;
  }
};

struct NcConfig {
  mpi::io::Hints hints;
  std::uint64_t data_alignment = 4096;  ///< start of the data region
};

/// Parsed header of a PNC file — dims, vars (with absolute data offsets)
/// and attributes.  Obtainable without a communicator via read_nc_header,
/// which is what serial metadata consumers (dump inspection, the query
/// index) use; NcFile::open parses the same blob collectively.
struct NcHeader {
  std::vector<Dim> dims;
  std::vector<Var> vars;
  std::map<std::string, int> var_index;
  std::map<std::string, std::vector<std::byte>> atts;

  const Var* find_var(const std::string& name) const {
    auto it = var_index.find(name);
    return it == var_index.end() ? nullptr : &vars[static_cast<std::size_t>(it->second)];
  }
};

/// Parse a serialized header blob (the bytes after the 8-byte fixed
/// preamble).  Throws FormatError on a header that could not have been
/// written: unknown types, dimension ids out of range, a var size that does
/// not match its dims, a data range that overflows.
NcHeader parse_nc_header(std::span<const std::byte> data);

/// Serial header read of an existing PNC file: one proc, timed through the
/// file system's normal charge model.  Throws FormatError if the file is
/// not a PNC file.
NcHeader read_nc_header(pfs::FileSystem& fs, const std::string& path);

class NcFile {
 public:
  /// Collective create: the file starts in define mode.
  static NcFile create(mpi::Comm& comm, pfs::FileSystem& fs,
                       const std::string& path, NcConfig config = {});

  /// Collective open of an existing file (data mode).  Rank 0 reads the
  /// header and broadcasts it — one metadata read for the whole job.
  static NcFile open(mpi::Comm& comm, pfs::FileSystem& fs,
                     const std::string& path, NcConfig config = {});

  NcFile(NcFile&&) = default;
  NcFile(const NcFile&) = delete;
  NcFile& operator=(const NcFile&) = delete;

  // ---- define mode -----------------------------------------------------

  int def_dim(const std::string& name, std::uint64_t length);
  int def_var(const std::string& name, NcType type,
              const std::vector<int>& dim_ids);
  void put_att(const std::string& name, std::span<const std::byte> value);

  /// Leave define mode: computes the layout, rank 0 writes the whole header
  /// once, one barrier.  Collective.
  void enddef();

  // ---- data mode -------------------------------------------------------

  /// Collective subarray write/read (put_vara_all / get_vara_all):
  /// start/count per dimension, buffer in row-major order.
  void put_vara_all(int varid, const std::vector<std::uint64_t>& start,
                    const std::vector<std::uint64_t>& count,
                    std::span<const std::byte> buf);
  void get_vara_all(int varid, const std::vector<std::uint64_t>& start,
                    const std::vector<std::uint64_t>& count,
                    std::span<std::byte> buf);

  /// Independent variants.
  void put_vara(int varid, const std::vector<std::uint64_t>& start,
                const std::vector<std::uint64_t>& count,
                std::span<const std::byte> buf);

  /// Nonblocking independent write (PnetCDF's ncmpi_iput_vara): with the
  /// file's Hints::overlap set, the I/O runs in flight and the returned
  /// request must be completed with wait_all(); otherwise it completes
  /// synchronously.  The buffer must stay live until then.
  mpi::io::Request iput_vara(int varid,
                             const std::vector<std::uint64_t>& start,
                             const std::vector<std::uint64_t>& count,
                             std::span<const std::byte> buf);

  /// Complete outstanding iput_vara requests (ncmpi_wait_all).
  void wait_all(std::span<mpi::io::Request> reqs);
  void get_vara(int varid, const std::vector<std::uint64_t>& start,
                const std::vector<std::uint64_t>& count,
                std::span<std::byte> buf);

  /// Whole-variable convenience.
  void put_var_all(int varid, std::span<const std::byte> buf);
  void get_var_all(int varid, std::span<std::byte> buf);

  std::vector<std::byte> get_att(const std::string& name) const;
  bool has_att(const std::string& name) const;

  int inq_varid(const std::string& name) const;
  const Var& var(int varid) const;
  const Dim& dim(int dimid) const;
  std::size_t var_count() const { return vars_.size(); }
  bool in_define_mode() const { return define_mode_; }

  void close();  ///< collective

 private:
  NcFile() = default;
  void require_define(bool expected) const;
  /// Dimension lengths of `v`, slowest first.
  std::vector<std::uint64_t> shape(const Var& v) const;
  /// Data-mode entry check plus view install for a start/count subarray of
  /// `varid`; `op` names the caller in the buffer-size diagnostic.
  void set_vara_view(const char* op, int varid,
                     const std::vector<std::uint64_t>& start,
                     const std::vector<std::uint64_t>& count,
                     std::size_t buf_bytes);
  std::vector<std::byte> serialize_header() const;
  void parse_header(std::span<const std::byte> data);

  mpi::Comm* comm_ = nullptr;
  std::unique_ptr<mpi::io::File> file_;
  NcConfig config_;
  bool define_mode_ = true;
  bool open_ = false;
  std::vector<Dim> dims_;
  std::vector<Var> vars_;
  std::map<std::string, int> var_index_;
  std::map<std::string, std::vector<std::byte>> atts_;
};

}  // namespace paramrio::pnetcdf

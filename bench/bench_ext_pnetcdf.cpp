// Extension experiment — the paper's lineage, closed.
//
// The conclusions call for an I/O system built on the collected metadata and
// better-matched file formats; the authors' actual next step was Parallel
// netCDF (SC 2003), whose design removes the four HDF5 overheads this paper
// measures.  This bench runs the same checkpoint workload through raw
// MPI-IO, parallel HDF5, and the PnetCDF-analogue on the Origin2000 model:
// the expected result (and the SC 2003 paper's headline) is that PnetCDF
// tracks raw MPI-IO while HDF5 trails far behind.
//
// Flags: --tiny       one small configuration (AMR64, P=4; CI smoke run)
//        --json <f>   machine-readable results (see bench::JsonReporter)
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace paramrio;

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--tiny") tiny = true;
  }
  bench::JsonReporter json("ext_pnetcdf", argc, argv);

  bench::print_header(
      "Extension — PnetCDF-analogue vs HDF5 vs raw MPI-IO (Origin2000)",
      "expected: PnetCDF ~ MPI-IO; HDF5 several times slower (its four "
      "overheads removed by design)");

  std::vector<enzo::ProblemSize> sizes{enzo::ProblemSize::kAmr64};
  std::vector<int> procs{4};
  if (!tiny) {
    sizes.push_back(enzo::ProblemSize::kAmr128);
    procs = {8, 16};
  }

  for (auto size : sizes) {
    for (int p : procs) {
      double mpiio_write = 0;
      for (auto b : {bench::Backend::kMpiIo, bench::Backend::kPnetcdf,
                     bench::Backend::kHdf5}) {
        bench::RunSpec spec;
        spec.machine = platform::origin2000_xfs();
        spec.config = enzo::SimulationConfig::for_size(size);
        spec.nprocs = p;
        spec.backend = b;
        bench::IoResult r = bench::run_enzo_io(spec);
        bench::print_row(spec.machine.name, enzo::to_string(size), p, b, r);
        json.add_row(spec.machine.name, enzo::to_string(size), p, b, r);
        if (b == bench::Backend::kMpiIo) mpiio_write = r.write_time;
        if (b == bench::Backend::kPnetcdf) {
          std::printf("    -> PnetCDF write overhead vs raw MPI-IO: %+.0f%%\n",
                      (r.write_time / mpiio_write - 1.0) * 100.0);
        }
        if (b == bench::Backend::kHdf5) {
          std::printf("    -> HDF5 write slowdown vs raw MPI-IO: %.2fx\n",
                      r.write_time / mpiio_write);
        }
      }
    }
  }
  return 0;
}

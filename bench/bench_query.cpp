// Query — aggregate read throughput of the query/extract service
// (docs/QUERY.md; the read-path counterpart of the paper's write-side
// optimizations, serving "the output files ... used either for restarting a
// resumed simulation or for visualization").
//
// Two sections:
//
//  1. Aggregate throughput vs concurrent readers, shared cache on/off, on
//     both Chiba City fabrics.  Every reader pulls the same hot region
//     (full root density + centre z-slice) plus a private sub-volume and a
//     particle ID range.  With the cache, the hot region costs one physical
//     fetch set no matter how many readers pile on — aggregate throughput
//     keeps scaling; uncached, every reader pays its own PVFS round trips
//     and the servers saturate.  The cache/no-cache ratio at the top reader
//     count is printed per platform (the CI gate asserts cache >= no-cache
//     aggregate throughput on the tiny matrix).
//
//  2. Backend matrix at a fixed reader count: the same query set answered
//     from dumps written by all four backends — read-path cost is a
//     property of the *layout*, and the index flattens all four.
//
// `--tiny` shrinks both axes for CI; `--json <path>` / PARAMRIO_BENCH_JSON
// emit BENCH_query.json.  The final row carries the service's counter
// registry plus the query latency histograms (hist:query.extract et al.,
// detail-mode export) — the obs-blame schema gate reads them.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "enzo/checkpoint.hpp"
#include "harness.hpp"
#include "mdms/catalog.hpp"
#include "obs/registry.hpp"
#include "query/service.hpp"

using namespace paramrio;

namespace {

std::unique_ptr<enzo::IoBackend> make_backend(bench::Backend b,
                                              pfs::FileSystem& fs) {
  switch (b) {
    case bench::Backend::kHdf4:
      return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case bench::Backend::kMpiIo:
      return std::make_unique<enzo::MpiIoBackend>(fs, mpi::io::Hints{});
    case bench::Backend::kHdf5:
      return std::make_unique<enzo::Hdf5ParallelBackend>(fs,
                                                         hdf5::FileConfig{});
    case bench::Backend::kPnetcdf:
      return std::make_unique<enzo::PnetcdfBackend>(fs, mpi::io::Hints{});
  }
  throw LogicError("bad backend");
}

struct SessionResult {
  double dump_time = 0.0;  ///< collective dump, barrier-to-barrier
  double read_time = 0.0;  ///< query phase makespan, barrier-to-barrier
  std::uint64_t payload = 0;  ///< bytes returned to the readers
  std::uint64_t fetched = 0;  ///< bytes physically read by the service
  std::uint64_t grids = 0;

  double throughput_mbs() const {
    return read_time > 0.0
               ? static_cast<double>(payload) / 1.0e6 / read_time
               : 0.0;
  }
};

/// One session: N ranks dump one generation collectively, caches drop, then
/// every rank turns reader and issues the query mix concurrently.  When
/// `registry` is given, the service counters and the detail-mode latency
/// histograms (hist:query.*) are exported into it.
SessionResult run_session(const platform::Machine& machine, int readers,
                          bench::Backend backend, bool cache_on,
                          std::uint64_t root_n,
                          obs::MetricsRegistry* registry) {
  platform::Testbed tb(machine, readers);

  enzo::SimulationConfig config;
  config.root_dims = {root_n, root_n, root_n};
  config.particles_per_cell = 0.25;
  config.n_clumps = 4;
  config.compute_per_cell = 0.0;

  query::Service::Params qp;
  qp.hints.ds_buffer_size = 64 * KiB;  // one PVFS stripe per sieve block
  qp.cache_enabled = cache_on;
  query::Service svc(tb.fs(), "qbench", qp);

  obs::Collector collector;
  collector.set_detail(true);  // latency histograms for the schema gate
  obs::Attach collector_scope(&collector);

  SessionResult res;
  tb.runtime().run([&](mpi::Comm& c) {
    auto be = make_backend(backend, tb.fs());
    enzo::EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();
    enzo::CheckpointSeries series(*be, tb.fs(), "qbench");
    c.barrier();
    const double t0 = c.proc().now();
    series.dump(c, sim.state(), 0);
    c.barrier();
    const double t1 = c.proc().now();
    if (c.rank() == 0) {
      tb.fs().drop_caches();  // readers start cold
      res.dump_time = t1 - t0;
    }
    c.barrier();

    const query::GenerationIndex& ix = svc.open_generation(0);
    c.barrier();
    const double t2 = c.proc().now();
    const std::uint64_t n = root_n;
    const std::uint64_t r = static_cast<std::uint64_t>(c.rank());

    // The hot region every reader wants: full density + centre z-slice.
    svc.extract(0, {0, "density", {0, 0, 0}, {n, n, n}});
    svc.extract(0, {0, "density", {n / 2, 0, 0}, {1, n, n}});
    // A private sub-volume (distinct per reader modulo 4 slabs).
    svc.extract(0, {0, "total_energy",
                    {(r % 4) * (n / 4), 0, 0},
                    {n / 4, n, n}});
    // A particle window and the dump metadata.
    const std::uint64_t stride =
        (ix.id_max - ix.id_min) / static_cast<std::uint64_t>(readers) + 1;
    svc.particles(0, ix.id_min + r * stride,
                  ix.id_min + r * stride + stride - 1);
    svc.metadata(0);
    c.barrier();
    if (c.rank() == 0) {
      res.read_time = c.proc().now() - t2;
      res.grids = ix.meta.hierarchy.grid_count();
    }
  });

  res.payload = svc.payload_bytes();
  res.fetched = svc.fetched_bytes();
  if (registry != nullptr) {
    collector.export_detail();
    *registry = collector.registry();
    svc.export_counters(*registry);
  }
  return res;
}

void print_query_row(const std::string& machine, int readers, bool cache_on,
                     const SessionResult& r) {
  std::printf("%-24s %-9s readers=%-4d dump %8.3fs  read %8.3fs  "
              "%8.1f MB/s agg  (%.1f MB served, %.1f MB fetched)\n",
              machine.c_str(), cache_on ? "cache" : "no-cache", readers,
              r.dump_time, r.read_time, r.throughput_mbs(),
              static_cast<double>(r.payload) / 1.0e6,
              static_cast<double>(r.fetched) / 1.0e6);
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  bench::JsonReporter json("query", argc, argv);

  const std::uint64_t root_n = tiny ? 16 : 32;
  const std::vector<int> reader_counts =
      tiny ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16, 64};

  // ---- 1: aggregate throughput vs readers, cache on/off ------------------
  bench::print_header(
      "Query — aggregate read throughput vs concurrent readers",
      "hot region shared by all readers; cache collapses N fetches to 1");
  const platform::Machine platforms[] = {platform::chiba_pvfs_ethernet(),
                                         platform::chiba_pvfs_myrinet()};
  for (const platform::Machine& m : platforms) {
    double top_cached = 0.0, top_uncached = 0.0;
    for (int readers : reader_counts) {
      for (bool cache_on : {false, true}) {
        SessionResult r = run_session(m, readers, bench::Backend::kHdf5,
                                      cache_on, root_n, nullptr);
        print_query_row(m.name, readers, cache_on, r);
        bench::IoResult row;
        row.write_time = r.dump_time;
        row.read_time = r.read_time;
        row.fs_bytes_read = r.fetched;
        row.payload_bytes = r.payload;
        row.grids = r.grids;
        json.add_row(m.name + (cache_on ? "+cache" : "+nocache"),
                     "readers=" + std::to_string(readers), readers,
                     bench::Backend::kHdf5, row);
        if (readers == reader_counts.back()) {
          (cache_on ? top_cached : top_uncached) = r.throughput_mbs();
        }
      }
    }
    std::printf("  -> %s: cache/no-cache aggregate ratio at %d readers: "
                "%.2fx\n",
                m.name.c_str(), reader_counts.back(),
                top_uncached > 0.0 ? top_cached / top_uncached : 0.0);
  }

  // ---- 2: backend matrix at a fixed reader count -------------------------
  bench::print_header(
      "Query — backend matrix (same query set, four dump layouts)",
      "read-path cost is a property of the layout; the index flattens all");
  const int matrix_readers = tiny ? 4 : 16;
  const platform::Machine eth = platform::chiba_pvfs_ethernet();
  obs::MetricsRegistry last_registry;
  const bench::Backend kinds[] = {bench::Backend::kHdf4,
                                  bench::Backend::kMpiIo,
                                  bench::Backend::kHdf5,
                                  bench::Backend::kPnetcdf};
  for (std::size_t i = 0; i < 4; ++i) {
    const bool last = i == 3;
    SessionResult r = run_session(eth, matrix_readers, kinds[i], true,
                                  root_n, last ? &last_registry : nullptr);
    bench::IoResult row;
    row.write_time = r.dump_time;
    row.read_time = r.read_time;
    row.fs_bytes_read = r.fetched;
    row.payload_bytes = r.payload;
    row.grids = r.grids;
    bench::print_row(eth.name, "readers=" + std::to_string(matrix_readers),
                     matrix_readers, kinds[i], row);
    json.add_row(eth.name, "readers=" + std::to_string(matrix_readers),
                 matrix_readers, kinds[i], row);
  }
  // The final row carries the service counters ("query" scope) and the
  // latency histograms ("hist:query.extract" et al.) for the schema gate.
  json.attach_registry(last_registry);
  return 0;
}

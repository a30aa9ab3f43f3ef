#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "enzo/dump_common.hpp"
#include "obs/registry.hpp"

namespace paramrio::bench {

std::string to_string(Backend b) {
  switch (b) {
    case Backend::kHdf4:
      return "HDF4";
    case Backend::kMpiIo:
      return "MPI-IO";
    case Backend::kHdf5:
      return "HDF5";
    case Backend::kPnetcdf:
      return "PnetCDF";
  }
  throw LogicError("bad Backend");
}

namespace {
std::unique_ptr<enzo::IoBackend> make_backend(const RunSpec& spec,
                                              pfs::FileSystem& fs) {
  switch (spec.backend) {
    case Backend::kHdf4:
      return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case Backend::kMpiIo:
      return std::make_unique<enzo::MpiIoBackend>(fs, spec.hints);
    case Backend::kHdf5: {
      // The MPI-IO hints apply underneath HDF5 too (parallel HDF5 sits on
      // MPI-IO); spec.hints is the single knob for all MPI-IO-based backends.
      hdf5::FileConfig cfg = spec.hdf5_config;
      cfg.io_hints = spec.hints;
      return std::make_unique<enzo::Hdf5ParallelBackend>(fs, cfg);
    }
    case Backend::kPnetcdf:
      return std::make_unique<enzo::PnetcdfBackend>(fs, spec.hints);
  }
  throw LogicError("bad Backend");
}

std::uint64_t dump_payload_bytes(const enzo::SimulationState& s,
                                 std::uint64_t n_particles) {
  std::uint64_t bytes = static_cast<std::uint64_t>(amr::kNumBaryonFields) *
                        s.config.root_cells() * sizeof(float);
  bytes += enzo::particle_payload_bytes(n_particles);
  for (const auto& g : s.hierarchy.grids()) {
    if (g.level == 0) continue;
    bytes += static_cast<std::uint64_t>(amr::kNumBaryonFields) *
             g.cell_count() * sizeof(float);
  }
  return bytes;
}

/// Fold a finished run's engine, file-system, network and trace statistics
/// into the collector's registry ("rankN", "proc", "fs:*", "net", "trace:*").
void absorb_run_stats(obs::Collector& col, const sim::Engine::Result& res,
                      platform::Testbed& tb, const trace::IoTracer* tracer,
                      const fault::Injector* injector) {
  obs::MetricsRegistry& reg = col.registry();
  for (std::size_t r = 0; r < res.stats.size(); ++r) {
    const sim::ProcStats& s = res.stats[r];
    const std::string scope = "rank" + std::to_string(r);
    reg.set_value(scope, "cpu_time", s.cpu_time);
    reg.set_value(scope, "comm_time", s.comm_time);
    reg.set_value(scope, "io_time", s.io_time);
    reg.set_value(scope, "total_time", s.total());
    reg.set(scope, "bytes_sent", s.bytes_sent);
    reg.set(scope, "bytes_received", s.bytes_received);
    reg.set(scope, "messages_sent", s.messages_sent);
    reg.set(scope, "io_bytes_read", s.io_bytes_read);
    reg.set(scope, "io_bytes_written", s.io_bytes_written);
    reg.set(scope, "io_requests", s.io_requests);

    reg.add_value("proc", "cpu_time", s.cpu_time);
    reg.add_value("proc", "comm_time", s.comm_time);
    reg.add_value("proc", "io_time", s.io_time);
    reg.add("proc", "bytes_sent", s.bytes_sent);
    reg.add("proc", "io_bytes_read", s.io_bytes_read);
    reg.add("proc", "io_bytes_written", s.io_bytes_written);
    reg.add("proc", "io_requests", s.io_requests);
  }
  reg.set_value("proc", "makespan", res.makespan);
  tb.fs().export_counters(reg);
  tb.runtime().network().export_counters(reg);
  if (tracer) tracer->export_counters(reg);
  if (injector) injector->export_counters(reg);
  // Detail-mode histograms/timelines fold in as "hist:*" / "timeline:*"
  // scopes; without detail nothing was recorded and nothing is added, so
  // default registries stay byte-identical to pre-detail releases.
  if (col.detail()) col.export_detail();
}
}  // namespace

IoResult run_enzo_io(const RunSpec& spec) {
  platform::Testbed tb(spec.machine, spec.nprocs, spec.sched_seed,
                       spec.engine_backend);
  IoResult result;

  if (spec.tracer) tb.fs().attach_observer(spec.tracer);
  if (spec.injector) {
    tb.fs().attach_fault_hook(spec.injector);
    tb.runtime().network().attach_fault_hook(spec.injector);
  }
  tb.fs().set_retry(spec.fs_retry);
  // The fs and network hooks die with the Testbed; the process-wide
  // instruments are detached by these guards even when the run throws.
  obs::Attach collector_scope(spec.collector);
  verify::Attach verifier_scope(spec.verifier);

  sim::Engine::Result engine_result = tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(spec, tb.fs());
    enzo::EnzoSimulation sim(c, spec.config);
    sim.initialize_from_universe();
    for (int i = 0; i < spec.evolve_cycles; ++i) sim.evolve_cycle();

    std::uint64_t n_particles =
        c.allreduce_sum(sim.state().my_particles.size());

    // ---- timed checkpoint write ----------------------------------------
    c.barrier();
    double t0 = c.proc().now();
    std::uint64_t w0 = c.proc().stats().io_bytes_written;
    {
      OBS_SPAN("dump", sim::TimeCategory::kIo);
      backend->write_dump(c, sim.state(), "dump");
      OBS_SPAN("dump.sync", sim::TimeCategory::kComm);
      c.barrier();
    }
    double t1 = c.proc().now();
    std::uint64_t dw = c.proc().stats().io_bytes_written - w0;

    // ---- timed restart read ---------------------------------------------
    // (The paper's dominant read path: top-grid partitioned like a new-
    // simulation read, subgrids read whole, round-robin.)  Caches are
    // dropped first: a restart is a new job reading cold data.
    if (c.rank() == 0) tb.fs().drop_caches();
    enzo::EnzoSimulation fresh(c, spec.config);
    c.barrier();
    double t2 = c.proc().now();
    std::uint64_t r0 = c.proc().stats().io_bytes_read;
    {
      OBS_SPAN("restart_read", sim::TimeCategory::kIo);
      backend->read_restart(c, fresh.state(), "dump");
      OBS_SPAN("restart_read.sync", sim::TimeCategory::kComm);
      c.barrier();
    }
    double t3 = c.proc().now();
    std::uint64_t dr = c.proc().stats().io_bytes_read - r0;

    std::uint64_t sum_w = c.allreduce_sum(dw);
    std::uint64_t sum_r = c.allreduce_sum(dr);
    if (c.rank() == 0) {
      result.write_time = t1 - t0;
      result.read_time = t3 - t2;
      result.fs_bytes_written = sum_w;
      result.fs_bytes_read = sum_r;
      result.payload_bytes = dump_payload_bytes(sim.state(), n_particles);
      result.grids = sim.state().hierarchy.grid_count();
    }
  });

  if (spec.collector) {
    if (spec.verifier) {
      spec.verifier->report().export_to(spec.collector->registry());
    }
    absorb_run_stats(*spec.collector, engine_result, tb, spec.tracer,
                     spec.injector);
  }
  return result;
}

void print_header(const std::string& title, const std::string& note) {
  std::printf("\n== %s ==\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("%-22s %-8s %5s %-7s %10s %10s %12s %12s\n", "platform", "size",
              "procs", "io", "read[s]", "write[s]", "read[MB]", "write[MB]");
}

void print_row(const std::string& platform, const std::string& size, int p,
               Backend b, const IoResult& r) {
  std::printf("%-22s %-8s %5d %-7s %10.3f %10.3f %12.2f %12.2f\n",
              platform.c_str(), size.c_str(), p, to_string(b).c_str(),
              r.read_time, r.write_time,
              static_cast<double>(r.fs_bytes_read) / 1.0e6,
              static_cast<double>(r.fs_bytes_written) / 1.0e6);
}

JsonReporter::JsonReporter(std::string bench_name, int argc, char** argv)
    : name_(std::move(bench_name)) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      path_ = argv[i + 1];
      return;
    }
  }
  if (const char* dir = std::getenv("PARAMRIO_BENCH_JSON")) {
    if (*dir != '\0') {
      path_ = std::string(dir) + "/BENCH_" + name_ + ".json";
    }
  }
}

JsonReporter::~JsonReporter() {
  if (enabled() && !written_) write();
}

void JsonReporter::add_row(const std::string& platform,
                           const std::string& size, int nprocs,
                           Backend backend, const IoResult& r) {
  if (!enabled()) return;
  std::ostringstream os;
  os << "    {\n"
     << "      \"platform\": \"" << obs::json_escape(platform) << "\",\n"
     << "      \"size\": \"" << obs::json_escape(size) << "\",\n"
     << "      \"nprocs\": " << nprocs << ",\n"
     << "      \"backend\": \"" << to_string(backend) << "\",\n"
     << "      \"write_time\": " << obs::format_double(r.write_time) << ",\n"
     << "      \"read_time\": " << obs::format_double(r.read_time) << ",\n"
     << "      \"fs_bytes_written\": " << r.fs_bytes_written << ",\n"
     << "      \"fs_bytes_read\": " << r.fs_bytes_read << ",\n"
     << "      \"payload_bytes\": " << r.payload_bytes << ",\n"
     << "      \"grids\": " << r.grids << "\n"
     << "    }";
  rows_.push_back(os.str());
}

void JsonReporter::attach_registry(const obs::MetricsRegistry& reg) {
  if (!enabled() || rows_.empty()) return;
  std::string& row = rows_.back();
  // Replace the closing "\n    }" with a "metrics" member.
  row.erase(row.rfind("\n    }"));
  row += ",\n      \"metrics\": " + reg.to_json(6) + "\n    }";
}

void JsonReporter::write() {
  if (!enabled()) return;
  std::ofstream os(path_);
  PARAMRIO_REQUIRE(os.good(), "cannot open bench JSON output: " + path_);
  os << "{\n  \"bench\": \"" << obs::json_escape(name_) << "\",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    os << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  PARAMRIO_REQUIRE(os.good(), "failed writing bench JSON: " + path_);
  written_ = true;
}

}  // namespace paramrio::bench

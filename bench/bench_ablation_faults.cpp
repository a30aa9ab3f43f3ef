// Ablation — fault survival: the retrying I/O stack vs the bare one under
// ~1% transient I/O errors.
//
// Three ENZO checkpoint dumps on the Origin2000/XFS configuration, MPI-IO
// backend:
//
//   clean          — no faults injected (baseline image and write time)
//   faulted+retry  — 1% of data operations throw a retryable EIO; the
//                    File-level and fs-level retry loops (exponential
//                    virtual-clock backoff) absorb every one
//   faulted        — same seed, same faults, retrying disabled
//
// Success means the retrying run converges to the *byte-identical* dump the
// clean run produced (FNV-1a over the whole object store) while the bare run
// dies on the first injected error — retrying is load-bearing, not
// decorative.  The bench exits non-zero when any of that fails, and emits a
// JSON artifact (--json <path> or PARAMRIO_BENCH_JSON) carrying the metrics
// registry of each run: injected-fault counters, per-File retry counters,
// and backoff time.
//
//   $ ./bench/bench_ablation_faults          # AMR64, 8 procs
//   $ ./bench/bench_ablation_faults --tiny   # 16^3, 4 procs (CI smoke)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "harness.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "platform/machine.hpp"

using namespace paramrio;

namespace {

struct Outcome {
  bool survived = true;
  std::string error;
  double write_time = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t injected = 0;      ///< faults the injector fired
  std::uint64_t file_retries = 0;  ///< mpi::io::File re-attempts
  std::uint64_t fs_retries = 0;    ///< pfs-level re-attempts
};

/// FNV-1a over every stored object (names and contents; the store iterates
/// in sorted name order, so equal dumps hash equal).
std::uint64_t store_checksum(const stor::ObjectStore& store) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  };
  for (const std::string& name : store.list()) {
    mix(name.data(), name.size());
    std::vector<std::byte> bytes(store.size(name));
    store.read_at(name, 0, bytes);
    mix(bytes.data(), bytes.size());
  }
  return h;
}

/// First registry scope with the given prefix, or "" when absent.
std::string scope_with_prefix(const obs::MetricsRegistry& reg,
                              const std::string& prefix) {
  for (const auto& [scope, _] : reg.scopes()) {
    if (scope.rfind(prefix, 0) == 0) return scope;
  }
  return {};
}

Outcome run_dump(bool tiny, const std::string& mode, bool inject, bool retry,
                 bench::JsonReporter& json) {
  platform::Machine machine = platform::origin2000_xfs();
  const int nprocs = tiny ? 4 : 8;
  platform::Testbed tb(machine, nprocs);

  fault::FaultPlan plan;
  // Seed chosen so the ~145-op tiny stream still draws a few faults; the
  // full AMR64 stream fires plenty for any seed.
  plan.seed = 5;
  fault::FaultSpec eio;
  eio.kind = fault::FaultKind::kTransientError;
  eio.probability = 0.01;
  eio.max_consecutive = 4;
  plan.specs.push_back(eio);
  fault::Injector inj(plan);
  if (inject) tb.fs().attach_fault_hook(&inj);

  mpi::io::Hints hints;
  fault::RetryPolicy fs_retry;
  if (retry) {
    hints.retry.max_retries = 10;
    fs_retry.max_retries = 10;  // hierarchy files talk to the fs directly
  }
  tb.fs().set_retry(fs_retry);

  obs::Collector col;
  obs::Attach collector_scope(&col);

  Outcome out;
  try {
    tb.runtime().run([&](mpi::Comm& comm) {
      enzo::MpiIoBackend backend(tb.fs(), hints);
      enzo::SimulationConfig config;
      if (tiny) {
        config.root_dims = {16, 16, 16};
        config.particles_per_cell = 0.25;
        config.compute_per_cell = 0.0;
      } else {
        config = enzo::SimulationConfig::for_size(enzo::ProblemSize::kAmr64);
      }
      enzo::EnzoSimulation sim(comm, config);
      sim.initialize_from_universe();
      sim.evolve_cycle();

      comm.barrier();
      double t0 = comm.proc().now();
      backend.write_dump(comm, sim.state(), "dump");
      comm.barrier();
      if (comm.rank() == 0) out.write_time = comm.proc().now() - t0;
    });
  } catch (const TransientIoError& e) {
    out.survived = false;
    out.error = e.what();
  }

  obs::MetricsRegistry& reg = col.registry();
  tb.fs().export_counters(reg);
  inj.export_counters(reg);
  out.injected = inj.counters().injected_total();
  std::string file_scope = scope_with_prefix(reg, "file:dump.enzo|");
  if (!file_scope.empty()) out.file_retries = reg.get(file_scope, "io_retries");
  std::string fs_scope = scope_with_prefix(reg, "fs:");
  if (!fs_scope.empty()) out.fs_retries = reg.get(fs_scope, "retries");
  out.checksum = store_checksum(tb.fs().store());

  bench::IoResult row;
  row.write_time = out.write_time;
  json.add_row(machine.name, mode, nprocs, bench::Backend::kMpiIo, row);
  json.attach_registry(reg);
  return out;
}

void print_outcome(const char* mode, const Outcome& o) {
  if (o.survived) {
    std::printf("%-16s %10.3f %10llu %8llu %8llu  %018llx\n", mode,
                o.write_time, static_cast<unsigned long long>(o.injected),
                static_cast<unsigned long long>(o.file_retries),
                static_cast<unsigned long long>(o.fs_retries),
                static_cast<unsigned long long>(o.checksum));
  } else {
    std::printf("%-16s %10s %10llu %8s %8s  died: %s\n", mode, "-",
                static_cast<unsigned long long>(o.injected), "-", "-",
                o.error.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  bench::JsonReporter json("ablation_faults", argc, argv);

  std::printf("\n== Ablation — retrying I/O under 1%% transient EIO (%s, %d "
              "procs, MPI-IO) ==\n",
              tiny ? "16^3 tiny" : "AMR64", tiny ? 4 : 8);
  Outcome clean = run_dump(tiny, "clean", false, true, json);
  Outcome with_retry = run_dump(tiny, "faulted+retry", true, true, json);
  Outcome bare = run_dump(tiny, "faulted", true, false, json);

  std::printf("%-16s %10s %10s %8s %8s  %s\n", "mode", "write[s]", "injected",
              "retries", "fs-rtry", "dump checksum");
  print_outcome("clean", clean);
  print_outcome("faulted+retry", with_retry);
  print_outcome("faulted", bare);

  bool ok = true;
  if (!clean.survived || !with_retry.survived) {
    std::printf("FAIL: a run that should survive did not\n");
    ok = false;
  }
  if (with_retry.injected == 0) {
    std::printf("FAIL: the faulted runs injected nothing\n");
    ok = false;
  }
  if (with_retry.file_retries + with_retry.fs_retries == 0) {
    std::printf("FAIL: the retrying run performed no retries\n");
    ok = false;
  }
  if (with_retry.checksum != clean.checksum) {
    std::printf("FAIL: retried dump differs from the clean dump\n");
    ok = false;
  }
  if (bare.survived) {
    std::printf("FAIL: the non-retrying run survived injected faults\n");
    ok = false;
  }
  if (ok) {
    std::printf("OK: retries absorbed %llu injected faults into a "
                "byte-identical dump; without them the dump dies\n",
                static_cast<unsigned long long>(with_retry.injected));
  }
  json.write();
  return ok ? 0 : 1;
}

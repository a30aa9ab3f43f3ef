// Scale — the rank-scalability wall and multi-job tenancy (docs/SCALING.md).
//
// Three sections:
//
//  1. Rank weak-scaling: one job, 64 root cells per rank, ranks growing
//     64 -> 4096 (the fiber engine's whole point: the one-OS-thread-per-rank
//     engine could not represent 4096 ranks in one process at all).  HDF4
//     serial I/O — the gatherv is O(P) messages, so the curve isolates the
//     simulator's own scaling from the model's quadratic alltoallv costs.
//
//  2. Job weak-scaling: N identical 4-rank jobs (N = 1, 2, 4) sharing one
//     striped file system on one storage fabric.  Equal fair-share weights:
//     each job's makespan should grow roughly with N while no job starves.
//
//  3. N-writers-vs-M-readers matrix: writer jobs stream checkpoints out
//     while reader jobs stream pre-seeded dumps back in, all on the shared
//     file system — the cross-job interference surface a tenant actually
//     cares about ("how much slower is my restart while N others dump?").
//
// `--tiny` shrinks every axis for CI; `--json <path>` / PARAMRIO_BENCH_JSON
// emit the rows as BENCH_scale_tenancy.json (sections 2-3, plus the shared
// fs's per-job counter scopes attached to the final matrix row) and
// BENCH_scale_ranks.json (section 1, env-dir activation only).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/registry.hpp"
#include "obs/trace_export.hpp"
#include "pfs/striped_fs.hpp"

using namespace paramrio;

namespace {

constexpr std::uint64_t kChunk = 512 * KiB;  // spans all 8 default stripes

struct Tenancy {
  net::Network net;
  pfs::StripedFs fs;
  explicit Tenancy(int total_ranks)
      : net(net::NetworkParams{}, total_ranks,
            pfs::StripedFsParams{}.n_io_nodes),
        fs(pfs::StripedFsParams{}, net) {}
};

/// Every rank streams `chunks` private 512 KiB blocks out (or back in).
void stream(mpi::Comm& c, pfs::FileSystem& fs, const std::string& file,
            int chunks, bool write) {
  std::vector<std::byte> buf(kChunk, std::byte{0x5A});
  const std::string path = file + "." + std::to_string(c.rank());
  int fd = fs.open(path, write ? pfs::OpenMode::kCreate : pfs::OpenMode::kRead);
  for (int i = 0; i < chunks; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * kChunk;
    if (write) {
      fs.write_at(fd, off, buf);
    } else {
      fs.read_at(fd, off, buf);
    }
  }
  fs.close(fd);
  c.barrier();
}

/// Seed the files a reader job will stream in, untimed (the dump it restarts
/// from was written by an earlier run).
void seed_dump(stor::ObjectStore& store, const std::string& file, int ranks,
               int chunks) {
  std::vector<std::byte> buf(kChunk, std::byte{0x5A});
  for (int r = 0; r < ranks; ++r) {
    const std::string path = file + "." + std::to_string(r);
    store.create(path);
    for (int i = 0; i < chunks; ++i) {
      store.write_at(path, static_cast<std::uint64_t>(i) * kChunk, buf);
    }
  }
}

mpi::MultiRuntime::Job make_job(const std::string& name, int ranks,
                                pfs::FileSystem& fs, int chunks, bool write) {
  mpi::MultiRuntime::Job job;
  job.name = name;
  job.params.nprocs = ranks;
  job.body = [&fs, name, chunks, write](mpi::Comm& c) {
    stream(c, fs, name, chunks, write);
  };
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[i + 1];
    }
  }
  // --json names one file; it goes to the tenancy document (the contention
  // bench proper).  The ranks curve activates via PARAMRIO_BENCH_JSON only.
  bench::JsonReporter json_ranks("scale_ranks", 0, nullptr);
  bench::JsonReporter json_tenancy("scale_tenancy", argc, argv);

  // ---- 1: rank weak-scaling, 64 root cells per rank ----------------------
  bench::print_header(
      "Scale — rank weak-scaling (fiber engine, HDF4 dump+restart)",
      "64 root cells per rank; the thread-per-rank engine topped out near "
      "1k ranks");
  const std::vector<std::pair<int, int>> rank_points =
      tiny ? std::vector<std::pair<int, int>>{{8, 8}, {64, 16}}
           : std::vector<std::pair<int, int>>{{64, 16}, {512, 32}, {4096, 64}};
  for (auto [p, side] : rank_points) {
    bench::RunSpec spec;
    spec.machine = platform::chiba_pvfs_ethernet();
    spec.config.root_dims = {static_cast<std::uint64_t>(side),
                             static_cast<std::uint64_t>(side),
                             static_cast<std::uint64_t>(side)};
    spec.config.particles_per_cell = 0.0;
    spec.config.n_clumps = 4;
    spec.config.refine.min_box = 2;
    spec.config.compute_per_cell = 0.0;
    spec.nprocs = p;
    spec.backend = bench::Backend::kHdf4;
    spec.evolve_cycles = 0;
    bench::IoResult res = bench::run_enzo_io(spec);
    const std::string size = "P=" + std::to_string(p);
    bench::print_row(spec.machine.name, size, p, spec.backend, res);
    json_ranks.add_row(spec.machine.name, size, p, spec.backend, res);
  }

  // ---- 2: job weak-scaling on one shared striped fs ----------------------
  bench::print_header(
      "Scale — N equal jobs sharing one striped file system",
      "4 ranks/job, equal fair-share weights; makespan should grow ~N, "
      "no job starved");
  const int ranks_per_job = 4;
  const int chunks = tiny ? 4 : 16;
  const std::vector<int> job_counts = tiny ? std::vector<int>{1, 2}
                                           : std::vector<int>{1, 2, 4};
  for (int n : job_counts) {
    Tenancy t(n * ranks_per_job);
    std::vector<mpi::MultiRuntime::Job> jobs;
    for (int j = 0; j < n; ++j) {
      jobs.push_back(make_job("w" + std::to_string(j), ranks_per_job, t.fs,
                              chunks, /*write=*/true));
    }
    auto res = mpi::MultiRuntime::run(std::move(jobs));
    double worst = 0.0, best = 0.0;
    for (const auto& jr : res) {
      worst = std::max(worst, jr.result.makespan);
      best = best == 0.0 ? jr.result.makespan
                         : std::min(best, jr.result.makespan);
    }
    bench::IoResult row;
    row.write_time = worst;
    row.fs_bytes_written = static_cast<std::uint64_t>(n) * ranks_per_job *
                           chunks * kChunk;
    const std::string size = "jobs=" + std::to_string(n);
    std::printf("%-22s %-8s %5d writers    worst %8.3fs  best %8.3fs\n",
                "shared-pvfs", size.c_str(), n, worst, best);
    json_tenancy.add_row("shared-pvfs", size, n * ranks_per_job,
                         bench::Backend::kHdf4, row);
  }

  // ---- 3: N writers vs M readers -----------------------------------------
  bench::print_header(
      "Scale — N checkpoint writers vs M restart readers, shared fs",
      "per-cell: writer / reader makespan (virtual s)");
  const std::vector<int> ns = tiny ? std::vector<int>{1, 2}
                                   : std::vector<int>{1, 2, 4};
  obs::MetricsRegistry last_registry;
  for (int n : ns) {
    for (int m : ns) {
      Tenancy t((n + m) * ranks_per_job);
      for (int j = 0; j < m; ++j) {
        seed_dump(t.fs.store(), "r" + std::to_string(j), ranks_per_job,
                  chunks);
      }
      std::vector<mpi::MultiRuntime::Job> jobs;
      for (int j = 0; j < n; ++j) {
        jobs.push_back(make_job("w" + std::to_string(j), ranks_per_job, t.fs,
                                chunks, /*write=*/true));
      }
      for (int j = 0; j < m; ++j) {
        jobs.push_back(make_job("r" + std::to_string(j), ranks_per_job, t.fs,
                                chunks, /*write=*/false));
      }
      auto res = mpi::MultiRuntime::run(std::move(jobs));
      double write_makespan = 0.0, read_makespan = 0.0;
      for (int j = 0; j < n; ++j) {
        write_makespan = std::max(write_makespan, res[j].result.makespan);
      }
      for (int j = 0; j < m; ++j) {
        read_makespan =
            std::max(read_makespan, res[n + j].result.makespan);
      }
      bench::IoResult row;
      row.write_time = write_makespan;
      row.read_time = read_makespan;
      row.fs_bytes_written =
          static_cast<std::uint64_t>(n) * ranks_per_job * chunks * kChunk;
      row.fs_bytes_read =
          static_cast<std::uint64_t>(m) * ranks_per_job * chunks * kChunk;
      const std::string size =
          "w" + std::to_string(n) + "r" + std::to_string(m);
      std::printf("%-22s %-8s %2d writers %2d readers   %8.3f / %8.3f\n",
                  "shared-pvfs", size.c_str(), n, m, write_makespan,
                  read_makespan);
      json_tenancy.add_row("shared-pvfs", size, (n + m) * ranks_per_job,
                           bench::Backend::kHdf4, row);
      last_registry.clear();
      t.fs.export_counters(last_registry);
    }
  }
  // Attach the shared fs's counters (including the per-job "|job:" scopes —
  // only present on genuinely multi-tenant runs) to the final matrix row.
  json_tenancy.attach_registry(last_registry);

  // ---- 4 (--trace): Perfetto export + seed-invariance of integer tracks --
  // A detail-mode 1-writer-vs-1-reader run per sched seed {0, 1, 2}: tied
  // arbitration may shift *when* a gauge is sampled, but never what each
  // entity observes in program order, so the integer counter tracks' value
  // sequences must match exactly.  The seed-0 run's trace (rank spans +
  // "entities" gauge tracks) is written to the given path.
  if (!trace_path.empty()) {
    bench::print_header(
        "Scale — detail trace + integer-track seed invariance",
        "1 writer vs 1 reader job, gauges on; seeds {0,1,2} must agree");
    std::string ref_fingerprint;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      obs::Collector col;
      col.set_detail(true);
      Tenancy t(2 * ranks_per_job);
      seed_dump(t.fs.store(), "tr", ranks_per_job, chunks);
      std::vector<mpi::MultiRuntime::Job> jobs;
      jobs.push_back(
          make_job("tw", ranks_per_job, t.fs, chunks, /*write=*/true));
      jobs.push_back(
          make_job("tr", ranks_per_job, t.fs, chunks, /*write=*/false));
      jobs[0].params.perturb_seed = seed;
      {
        obs::Attach collector_scope(&col);
        mpi::MultiRuntime::run(std::move(jobs));
      }
      const std::string fp = col.timeline().integer_fingerprint();
      PARAMRIO_REQUIRE(!fp.empty(),
                       "bench_scale --trace: no integer gauge tracks");
      if (seed == 0) {
        ref_fingerprint = fp;
        std::ofstream os(trace_path);
        obs::write_chrome_trace(col, os);
        PARAMRIO_REQUIRE(os.good(), "bench_scale --trace: cannot write " +
                                        trace_path);
        std::printf("%-22s seed 0: %llu gauge points -> %s\n", "shared-pvfs",
                    static_cast<unsigned long long>(col.timeline().points()),
                    trace_path.c_str());
      } else {
        PARAMRIO_REQUIRE(fp == ref_fingerprint,
                         "integer counter tracks diverge under sched seed " +
                             std::to_string(seed));
        std::printf("%-22s seed %llu: integer tracks byte-identical\n",
                    "shared-pvfs", static_cast<unsigned long long>(seed));
      }
    }
  }
  return 0;
}

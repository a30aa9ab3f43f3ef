// The MPI semantics verifier: every planted defect class is caught with a
// rank-attributed diagnosis, clean ENZO dump/restart runs verify clean on
// all four backends, and the schedule-perturbation differential holds —
// the same program under different (equally legal) engine interleavings
// produces byte-identical dumps and metric exports, with clean check::
// audits and clean verify:: reports under every seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "harness.hpp"
#include "mpi/io/file.hpp"
#include "pfs/local_fs.hpp"
#include "verify/verify.hpp"

namespace paramrio {
namespace {

using verify::Rule;

mpi::RuntimeParams rparams(int n, std::uint64_t perturb_seed = 0) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  p.perturb_seed = perturb_seed;
  return p;
}

mpi::io::Hints overlap_hints() {
  mpi::io::Hints h;
  h.overlap = true;
  return h;
}

/// First materialised violation of `rule`, or nullptr.
const verify::Violation* find_violation(const verify::Report& r, Rule rule) {
  for (const auto& v : r.violations) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Negative matrix: each defect class planted, caught, rank-attributed.
// ---------------------------------------------------------------------------

TEST(VerifyNegative, CollectiveMismatchIsCaught) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    mpi::Runtime rt(rparams(2));
    try {
      rt.run([](mpi::Comm& c) {
        if (c.rank() == 0) {
          c.barrier();
        } else {
          c.allreduce_sum(std::uint64_t{1});
        }
      });
    } catch (const Error&) {
      // A mismatched pair may also deadlock; the diagnosis is what counts.
    }
  }
  EXPECT_GE(v.report().count(Rule::kCollectiveMismatch), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kCollectiveMismatch);
  ASSERT_NE(viol, nullptr);
  EXPECT_FALSE(viol->ranks.empty());
  EXPECT_EQ(viol->object.rfind("comm#", 0), 0u) << viol->object;
  EXPECT_NE(viol->message.find("barrier"), std::string::npos)
      << viol->message;
  EXPECT_FALSE(v.report().clean());
}

TEST(VerifyNegative, RootDivergenceIsCaught) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    mpi::Runtime rt(rparams(2));
    try {
      rt.run([](mpi::Comm& c) {
        mpi::Bytes b(8, std::byte{1});
        c.bcast(b, c.rank());  // every rank thinks it is the root
      });
    } catch (const Error&) {
    }
  }
  EXPECT_GE(v.report().count(Rule::kRootDivergence), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kRootDivergence);
  ASSERT_NE(viol, nullptr);
  EXPECT_FALSE(viol->ranks.empty());
}

TEST(VerifyNegative, HintDivergenceIsCaught) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(2));
    rt.run([&](mpi::Comm& c) {
      mpi::io::Hints h;
      h.overlap = (c.rank() == 1);  // rank 1 opens with different hints
      mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, h);
      f.close();
    });
  }
  EXPECT_GE(v.report().count(Rule::kHintDivergence), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kHintDivergence);
  ASSERT_NE(viol, nullptr);
  // Attributed to both the reference rank and the divergent one.
  EXPECT_EQ(viol->ranks, (std::vector<int>{0, 1}));
}

TEST(VerifyNegative, MissingWaitIsCaughtAndCounted) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(2));
    rt.run([&](mpi::Comm& c) {
      mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, overlap_hints());
      mpi::Bytes payload(4096, std::byte{0x42});
      mpi::io::Request r = f.iwrite_at(
          static_cast<std::uint64_t>(c.rank()) * payload.size(), payload);
      if (c.rank() == 0) f.wait(r);  // rank 1 forgets its wait
      f.close();
    });
  }
  EXPECT_EQ(v.report().count(Rule::kMissingWait), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kMissingWait);
  ASSERT_NE(viol, nullptr);
  EXPECT_EQ(viol->ranks, std::vector<int>{1});
  EXPECT_NE(viol->message.find("never waited"), std::string::npos);
}

TEST(VerifyNegative, UnpairedSplitCollectiveIsCaught) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(2));
    rt.run([&](mpi::Comm& c) {
      mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, overlap_hints());
      mpi::Bytes payload(4096, std::byte{0x5C});
      f.write_at_all_begin(
          static_cast<std::uint64_t>(c.rank()) * payload.size(), payload);
      f.close();  // write_at_all_end never called
    });
  }
  EXPECT_GE(v.report().count(Rule::kUnpairedSplit), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kUnpairedSplit);
  ASSERT_NE(viol, nullptr);
  EXPECT_FALSE(viol->ranks.empty());
}

TEST(VerifyNegative, UnsettledDeferredScopeIsCaught) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    mpi::Runtime rt(rparams(2));
    rt.run([](mpi::Comm& c) {
      if (c.rank() == 1) {
        // lint:allow(deferred-raii) — planting an unsettled deferred scope
        c.proc().begin_deferred();  // never settled; the rank just finishes
      }
    });
  }
  EXPECT_EQ(v.report().count(Rule::kUnsettledDeferred), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kUnsettledDeferred);
  ASSERT_NE(viol, nullptr);
  EXPECT_EQ(viol->ranks, std::vector<int>{1});
}

TEST(VerifyNegative, PostCloseIoIsCaught) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(1));
    rt.run([&](mpi::Comm& c) {
      mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate);
      mpi::Bytes payload(16, std::byte{1});
      f.write_at(0, payload);
      f.close();
      EXPECT_THROW(f.write_at(16, payload), IoError);
    });
  }
  EXPECT_EQ(v.report().count(Rule::kPostCloseIo), 1u);
  const verify::Violation* viol =
      find_violation(v.report(), Rule::kPostCloseIo);
  ASSERT_NE(viol, nullptr);
  EXPECT_EQ(viol->ranks, std::vector<int>{0});
  EXPECT_NE(viol->message.find("write_at"), std::string::npos);
}

// A prefetch left unconsumed at close is advisory — a lint, not an error:
// the report stays clean() but names the waste.
TEST(VerifyNegative, PrefetchLeakIsALint) {
  verify::Verifier v;
  {
    verify::Attach attach(&v);
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(1));
    rt.run([&](mpi::Comm& c) {
      mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, overlap_hints());
      mpi::Bytes payload(8192, std::byte{7});
      f.write_at(0, payload);
      f.prefetch(0, payload.size());  // read-ahead nobody consumes
      f.close();
    });
  }
  EXPECT_TRUE(v.report().clean());
  EXPECT_GE(v.report().lints(), 1u);
  EXPECT_GE(v.report().count(Rule::kPrefetchLeak), 1u);
}

// A stuck collective pattern becomes a *diagnosed* deadlock: the error names
// each blocked rank and its blocking operation, and the report records it.
TEST(VerifyNegative, DeadlockIsDiagnosedWithBlockedRanks) {
  verify::Verifier v;
  std::string diagnosis;
  {
    verify::Attach attach(&v);
    mpi::Runtime rt(rparams(2));
    try {
      rt.run([](mpi::Comm& c) {
        // Classic cycle: each rank receives from the other before sending.
        c.recv(1 - c.rank(), /*tag=*/5);
      });
      FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
      diagnosis = e.what();
    }
  }
  EXPECT_GE(v.report().count(Rule::kDeadlock), 1u);
  EXPECT_NE(diagnosis.find("rank 0"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("rank 1"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("recv"), std::string::npos) << diagnosis;
}

// ---------------------------------------------------------------------------
// Positive path: clean programs verify clean.
// ---------------------------------------------------------------------------

enzo::SimulationConfig small_config() {
  enzo::SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;
  c.n_clumps = 3;
  c.refine.threshold = 3.0;
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;
  return c;
}

constexpr bench::Backend kAllBackends[] = {
    bench::Backend::kHdf4, bench::Backend::kMpiIo, bench::Backend::kHdf5,
    bench::Backend::kPnetcdf};

TEST(VerifyClean, EnzoDumpRestartVerifiesCleanOnAllBackends) {
  for (bench::Backend b : kAllBackends) {
    verify::Verifier v;
    bench::RunSpec spec;
    spec.machine = platform::origin2000_xfs();
    spec.config = small_config();
    spec.nprocs = 4;
    spec.backend = b;
    spec.verifier = &v;
    bench::run_enzo_io(spec);
    EXPECT_TRUE(v.report().violations.empty())
        << bench::to_string(b) << ":\n" << v.report().format();
  }
}

// The registry a clean run exports is byte-identical with and without the
// verifier attached: observation must not perturb the measurement.
TEST(VerifyClean, VerifierDoesNotPerturbCleanRunMetrics) {
  std::string with, without;
  for (int pass = 0; pass < 2; ++pass) {
    obs::Collector collector;
    verify::Verifier v;
    bench::RunSpec spec;
    spec.machine = platform::origin2000_xfs();
    spec.config = small_config();
    spec.nprocs = 4;
    spec.backend = bench::Backend::kMpiIo;
    spec.collector = &collector;
    if (pass == 0) spec.verifier = &v;
    bench::run_enzo_io(spec);
    (pass == 0 ? with : without) = collector.registry().to_json();
  }
  EXPECT_EQ(with, without);
}

// ---------------------------------------------------------------------------
// Schedule-perturbation differential: the engine's only legal freedom is the
// order of exact virtual-clock ties, so any seed must reproduce the baseline
// run bit-for-bit — dumps, metric exports, check:: audit, verify:: report.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeeds[] = {0, 1, 2};

/// FNV-1a per stored file — the cross-seed comparison unit.
std::map<std::string, std::uint64_t> store_checksums(
    const stor::ObjectStore& store) {
  std::map<std::string, std::uint64_t> sums;
  for (const auto& name : store.list()) {
    std::vector<std::byte> bytes(store.size(name));
    if (!bytes.empty()) store.read_at(name, 0, bytes);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::byte b : bytes) {
      h ^= static_cast<std::uint64_t>(b);
      h *= 1099511628211ULL;
    }
    sums.emplace(name, h);
  }
  return sums;
}

std::unique_ptr<enzo::IoBackend> make_backend(bench::Backend k,
                                              pfs::FileSystem& fs) {
  switch (k) {
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

/// One audited, verified dump+restart under `seed`; returns the store
/// checksums.  The check:: audit and the verify:: report must both be clean
/// under *every* interleaving.
std::map<std::string, std::uint64_t> run_perturbed(bench::Backend kind,
                                                   std::uint64_t seed) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  check::CheckOptions copts;
  copts.padding_alignment = 4096;  // pnetcdf aligns its data region
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);

  verify::Verifier v;
  {
    verify::Attach attach(&v);
    mpi::Runtime rt(rparams(4, seed));
    rt.run([&](mpi::Comm& c) {
      auto backend = make_backend(kind, fs);
      enzo::EnzoSimulation sim(c, small_config());
      sim.initialize_from_universe();
      sim.evolve_cycle();
      backend->write_dump(c, sim.state(), "dump");
      enzo::EnzoSimulation fresh(c, small_config());
      backend->read_restart(c, fresh.state(), "dump");
    });
  }
  EXPECT_TRUE(v.report().violations.empty())
      << bench::to_string(kind) << " seed " << seed << ":\n"
      << v.report().format();
  check::CheckReport audit = check::analyze_trace(tracer, copts, &fs.store());
  EXPECT_TRUE(audit.clean()) << bench::to_string(kind) << " seed " << seed
                             << ":\n" << audit.format();
  return store_checksums(fs.store());
}

class PerturbDifferential
    : public ::testing::TestWithParam<bench::Backend> {};

TEST_P(PerturbDifferential, DumpsAreByteIdenticalAcrossSeeds) {
  const bench::Backend kind = GetParam();
  auto baseline = run_perturbed(kind, kSeeds[0]);
  EXPECT_FALSE(baseline.empty());
  for (std::size_t i = 1; i < std::size(kSeeds); ++i) {
    EXPECT_EQ(run_perturbed(kind, kSeeds[i]), baseline)
        << bench::to_string(kind) << ": seed " << kSeeds[i]
        << " dump diverged from the seed-" << kSeeds[0] << " baseline";
  }
}

/// The schedule-invariant metric export: every integer counter (bytes, ops,
/// messages, windows, cache hits) in deterministic order.  Time-valued
/// gauges are excluded on purpose: at an exact virtual-clock tie the
/// perturbed schedule legitimately reorders shared-resource (disk, NIC)
/// arbitration, so per-rank *times* may shift a little between seeds even
/// though every byte moved, every message sent and every file written is
/// identical (see docs/VERIFY.md).
std::string counters_export(const obs::MetricsRegistry& reg) {
  std::string out;
  for (const auto& [scope, s] : reg.scopes()) {
    for (const auto& [name, value] : s.counters) {
      out += scope + "." + name + "=" + std::to_string(value) + "\n";
    }
  }
  return out;
}

TEST_P(PerturbDifferential, MetricExportsAreByteIdenticalAcrossSeeds) {
  const bench::Backend kind = GetParam();
  std::string baseline;
  for (std::uint64_t seed : kSeeds) {
    obs::Collector collector;
    verify::Verifier v;
    bench::RunSpec spec;
    spec.machine = platform::origin2000_xfs();
    spec.config = small_config();
    spec.nprocs = 4;
    spec.backend = kind;
    spec.collector = &collector;
    spec.verifier = &v;
    spec.sched_seed = seed;
    bench::run_enzo_io(spec);
    EXPECT_TRUE(v.report().violations.empty())
        << bench::to_string(kind) << " seed " << seed << ":\n"
        << v.report().format();
    const std::string counters = counters_export(collector.registry());
    EXPECT_FALSE(counters.empty());
    if (seed == kSeeds[0]) {
      baseline = counters;
    } else {
      EXPECT_EQ(counters, baseline)
          << bench::to_string(kind) << ": seed " << seed
          << " metrics diverged from the seed-" << kSeeds[0] << " baseline";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PerturbDifferential,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name = bench::to_string(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

// The PARAMRIO_SCHED_SEED environment fallback reaches the engine when the
// programmatic seed is unset — the CI matrix leg depends on it.
TEST(PerturbDifferential, EnvSeedFallbackPerturbsTheSchedule) {
  // The suite itself may run under PARAMRIO_SCHED_SEED (the CI matrix leg
  // does exactly that) — park any outer value for the duration.
  const char* outer = ::getenv("PARAMRIO_SCHED_SEED");
  const std::string saved = outer ? outer : "";
  ::unsetenv("PARAMRIO_SCHED_SEED");

  sim::Engine::Options o;
  o.nprocs = 2;
  EXPECT_EQ(o.effective_perturb_seed(), 0u);
  ::setenv("PARAMRIO_SCHED_SEED", "7", 1);
  EXPECT_EQ(o.effective_perturb_seed(), 7u);
  o.env_perturb = false;  // the classic-order pin ignores the environment
  EXPECT_EQ(o.effective_perturb_seed(), 0u);
  o.env_perturb = true;
  o.perturb_seed = 3;  // the programmatic seed wins over the environment
  EXPECT_EQ(o.effective_perturb_seed(), 3u);
  ::unsetenv("PARAMRIO_SCHED_SEED");
  EXPECT_EQ(o.effective_perturb_seed(), 3u);

  if (outer) ::setenv("PARAMRIO_SCHED_SEED", saved.c_str(), 1);
}

}  // namespace
}  // namespace paramrio

// Property tests for the retry path: backoff shape, exact byte accounting of
// short transfers (the bug class the fault layer exists to catch), and the
// headline property — a retried write stream converges to exactly the bytes
// a fault-free run would have produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <vector>

#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "mpi/io/file.hpp"
#include "obs/profiler.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "query/index.hpp"
#include "query/service.hpp"
#include "sim/engine.hpp"
#include "stage/staged_fs.hpp"
#include "stor/object_store.hpp"
#include "trace/io_tracer.hpp"

namespace paramrio::fault {
namespace {

sim::Engine::Options eopts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

std::map<std::string, std::vector<std::byte>> snapshot(
    const stor::ObjectStore& store) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& name : store.list()) {
    std::vector<std::byte> v(store.size(name));
    if (!v.empty()) store.read_at(name, 0, v);
    out.emplace(name, std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Backoff shape
// ---------------------------------------------------------------------------

TEST(Backoff, MonotoneNonDecreasingAndClamped) {
  RetryPolicy p;
  p.max_retries = 16;
  p.backoff_base = 1e-4;
  p.backoff_factor = 2.0;
  p.backoff_max = 1e-2;
  double prev = 0.0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    double d = backoff_delay(p, attempt);
    EXPECT_GE(d, prev) << "attempt " << attempt;
    EXPECT_LE(d, p.backoff_max) << "attempt " << attempt;
    prev = d;
  }
  EXPECT_DOUBLE_EQ(backoff_delay(p, 0), 1e-4);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 1), 2e-4);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 30), 1e-2);  // clamped
}

TEST(Backoff, RetryKeyDistinguishesPolicies) {
  RetryPolicy off;
  EXPECT_EQ(retry_key(off), "r0");
  RetryPolicy a;
  a.max_retries = 4;
  RetryPolicy b = a;
  b.backoff_base = 1e-3;
  EXPECT_NE(retry_key(a), retry_key(off));
  EXPECT_NE(retry_key(a), retry_key(b));
  EXPECT_EQ(retry_key(a), retry_key(RetryPolicy{.max_retries = 4}));
  // The ",v1" tail is kept from when short-write verification was optional,
  // so registry scope names do not move.
  EXPECT_EQ(retry_key(a), "r4,b0.0005,f2,m0.1,v1");
}

// ---------------------------------------------------------------------------
// Short-transfer accounting at the fs layer (regression: write_at used to
// report the *requested* size, so an injected short write left ProcStats,
// observers and the store disagreeing about what landed).
// ---------------------------------------------------------------------------

TEST(FsAccounting, ShortWriteReportsActualBytesEverywhere) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kShortWrite;
  s.short_fraction = 0.5;
  s.max_faults = 1;
  plan.specs.push_back(s);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);

  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(100);
    std::uint64_t wrote = fs.write_at(fd, 0, data);
    EXPECT_EQ(wrote, 50u);
    EXPECT_EQ(p.stats().io_bytes_written, 50u);
    EXPECT_EQ(fs.store().size("f"), 50u);
    // The landed prefix is the data's prefix, not garbage.
    std::vector<std::byte> back(50);
    fs.store().read_at("f", 0, back);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
    // The caller resumes; accounting keeps tracking actual bytes.
    wrote += fs.write_at(
        fd, wrote, std::span<const std::byte>(data).subspan(wrote));
    EXPECT_EQ(wrote, 100u);
    EXPECT_EQ(p.stats().io_bytes_written, 100u);
    fs.close(fd);
  });
}

TEST(FsAccounting, ShortReadReportsActualBytes) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kShortRead;
  s.short_fraction = 0.25;
  s.max_faults = 1;
  plan.specs.push_back(s);
  Injector inj(plan);

  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(80);
    fs.write_at(fd, 0, data);
    fs.attach_fault_hook(&inj);
    std::vector<std::byte> out(80);
    std::uint64_t got = fs.read_at(fd, 0, out);
    EXPECT_EQ(got, 20u);
    EXPECT_EQ(p.stats().io_bytes_read, 20u);
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 20, data.begin()));
    fs.close(fd);
  });
  fs.attach_fault_hook(nullptr);
}

TEST(FsRetry, ResumesShortsAndAbsorbsTransients) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  plan.seed = 5;
  FaultSpec shortw;
  shortw.kind = FaultKind::kShortWrite;
  shortw.probability = 0.4;
  shortw.max_consecutive = 2;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;
  eio.probability = 0.2;
  eio.max_consecutive = 2;
  plan.specs.push_back(shortw);
  plan.specs.push_back(eio);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);
  RetryPolicy rp;
  rp.max_retries = 10;
  fs.set_retry(rp);

  sim::Engine::run(eopts(1), [&](sim::Proc&) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(10000, 3);
    // With fs-level retry every call completes in full...
    EXPECT_EQ(fs.write_at(fd, 0, data), data.size());
    std::vector<std::byte> out(data.size());
    EXPECT_EQ(fs.read_at(fd, 0, out), data.size());
    EXPECT_EQ(out, data);
    fs.close(fd);
  });
  // ...and the faults demonstrably happened.
  EXPECT_GT(inj.counters().injected_total(), 0u);
  EXPECT_GT(fs.fs_retries(), 0u);
}

TEST(FsRetry, ExhaustedBudgetPropagatesTransientError) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;  // every op, forever
  plan.specs.push_back(eio);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);
  RetryPolicy rp;
  rp.max_retries = 3;
  fs.set_retry(rp);

  sim::Engine::run(eopts(1), [&](sim::Proc&) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(64);
    EXPECT_THROW(fs.write_at(fd, 0, data), TransientIoError);
    fs.close(fd);
  });
  // Budget respected: 1 initial + 3 retries, all faulted.
  EXPECT_EQ(inj.counters().count(FaultKind::kTransientError), 4u);
  EXPECT_EQ(fs.fs_retries(), 3u);
}

// ---------------------------------------------------------------------------
// mpi::io::File retry: interleaved collective + independent writes under a
// bounded transient plan converge to exactly the no-fault bytes.
// ---------------------------------------------------------------------------

struct FileRunResult {
  std::map<std::string, std::vector<std::byte>> files;
  mpi::io::FileStats rank0_stats;
};

FileRunResult run_interleaved_writes(std::uint64_t fault_seed,
                                     bool inject) {
  const int p = 4;
  const std::uint64_t block = 64;
  const std::uint64_t blocks_per_rank = 48;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  plan.seed = fault_seed;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;
  eio.probability = 0.2;
  eio.max_consecutive = 2;
  FaultSpec shortw;
  shortw.kind = FaultKind::kShortWrite;
  shortw.probability = 0.2;
  shortw.max_consecutive = 2;
  FaultSpec shortr;
  shortr.kind = FaultKind::kShortRead;
  shortr.probability = 0.2;
  shortr.max_consecutive = 2;
  plan.specs.push_back(eio);
  plan.specs.push_back(shortw);
  plan.specs.push_back(shortr);
  Injector inj(plan);
  if (inject) fs.attach_fault_hook(&inj);

  FileRunResult result;
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    mpi::io::Hints h;
    h.retry.max_retries = 10;
    h.retry.log_delays = true;
    mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, h);
    // Interleaved cyclic view: rank r owns every p-th `block`-sized slot.
    f.set_view(static_cast<std::uint64_t>(c.rank()) * block,
               mpi::Datatype::vector(blocks_per_rank, block, block * p));
    auto mine = pattern(blocks_per_rank * block,
                        static_cast<unsigned>(c.rank()) + 1);
    f.write_at_all(0, mine);
    // An independent strided rewrite of my second half on top.
    auto mine2 = pattern(blocks_per_rank * block / 2,
                         static_cast<unsigned>(c.rank()) + 100);
    f.write_at(blocks_per_rank * block / 2, mine2);
    // Collective read-back sees my own final bytes despite the faults.
    std::vector<std::byte> back(blocks_per_rank * block);
    f.read_at_all(0, back);
    for (std::uint64_t i = 0; i < back.size() / 2; ++i) {
      EXPECT_EQ(back[i], mine[i]);
    }
    for (std::uint64_t i = 0; i < mine2.size(); ++i) {
      EXPECT_EQ(back[back.size() / 2 + i], mine2[i]);
    }
    if (c.rank() == 0) result.rank0_stats = f.stats();
    f.close();
  });
  result.files = snapshot(fs.store());
  return result;
}

TEST(FileRetry, RetriedWritesConvergeToNoFaultBytes) {
  FileRunResult clean = run_interleaved_writes(0, /*inject=*/false);
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    FileRunResult faulted = run_interleaved_writes(seed, /*inject=*/true);
    EXPECT_EQ(faulted.files, clean.files) << "seed " << seed;
    const RetryStats& r = faulted.rank0_stats.retry;
    EXPECT_GT(r.retries + r.short_writes + r.short_reads, 0u)
        << "seed " << seed << ": the plan injected nothing on rank 0";
  }
  EXPECT_EQ(clean.rank0_stats.retry.retries, 0u);
  EXPECT_EQ(clean.rank0_stats.retry.transient_errors, 0u);
}

TEST(FileRetry, LoggedBackoffIsMonotonePerOp) {
  FileRunResult faulted = run_interleaved_writes(11, /*inject=*/true);
  const std::vector<RetryDelay>& log =
      faulted.rank0_stats.retry.delay_log;
  ASSERT_FALSE(log.empty());
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].op != log[i - 1].op) continue;
    EXPECT_GE(log[i].seconds, log[i - 1].seconds)
        << "op " << log[i].op << " entry " << i;
  }
}

TEST(FileRetry, ShortWriteVerificationIsCounted) {
  FileRunResult faulted = run_interleaved_writes(22, /*inject=*/true);
  const RetryStats& r = faulted.rank0_stats.retry;
  if (r.short_writes > 0) {
    EXPECT_GT(r.write_verifications, 0u);
  }
  EXPECT_GT(r.backoff_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Collective degradation: while the fault layer reports an I/O-server
// outage, write_at_all routes around the aggregators (whose server cannot
// serve them) and still produces the right bytes.
// ---------------------------------------------------------------------------

TEST(FileRetry, CollectiveFallsBackDuringOutage) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec down;
  down.kind = FaultKind::kServerDown;
  down.after_time = 0.0;
  down.until_time = 2e-3;
  plan.specs.push_back(down);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);

  std::uint64_t fallbacks = 0;
  std::uint64_t retries = 0;
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    mpi::io::Hints h;
    h.retry.max_retries = 12;
    mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, h);
    const std::uint64_t block = 256;
    f.set_view(static_cast<std::uint64_t>(c.rank()) * block,
               mpi::Datatype::vector(8, block, block * p));
    auto mine = pattern(8 * block, static_cast<unsigned>(c.rank()) + 7);
    // Issued at t=0, inside the outage window: the collective must degrade,
    // and the independent retries ride the backoff past the outage.
    f.write_at_all(0, mine);
    std::vector<std::byte> back(mine.size());
    f.read_at_all(0, back);
    EXPECT_EQ(back, mine);
    if (c.rank() == 0) {
      fallbacks = f.stats().collective_fallbacks;
      retries = f.stats().retry.retries;
    }
    f.close();
  });
  EXPECT_GE(fallbacks, 1u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(inj.counters().count(FaultKind::kServerDown), 0u);
}

// Without retry enabled, the degradation path stays cold and transient
// errors propagate to the caller — opt-in semantics.
TEST(FileRetry, DisabledRetryPropagates) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;
  eio.max_faults = 1;
  plan.specs.push_back(eio);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);

  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate);
    auto data = pattern(128);
    EXPECT_THROW(f.write_at(0, data), TransientIoError);
    // The budget-less fault fired once; the next attempt succeeds.
    f.write_at(0, data);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Golden retry accounting: every layer that survives transient faults, with
// its virtual time, retry counters and registry scope pinned to the values
// the per-layer retry loops produced before they shared one implementation.
// Faults come from a per-rank script, not a seeded plan, so what each rank
// sees does not depend on how the ranks interleave (the values hold under
// every PARAMRIO_SCHED_SEED).
// ---------------------------------------------------------------------------

/// Replays one fault script per rank and direction, then passes every op.
/// A scripted short transfer moves half the request.
class ScriptedFaults : public IoFaultHook {
 public:
  using Kind = IoFaultAction::Kind;
  ScriptedFaults(std::vector<Kind> writes, std::vector<Kind> reads)
      : writes_(std::move(writes)), reads_(std::move(reads)) {}

  IoFaultAction on_io(int rank, double, bool is_write, const std::string&,
                      std::uint64_t, std::uint64_t bytes, int) override {
    const std::vector<Kind>& script = is_write ? writes_ : reads_;
    std::size_t& next = (is_write ? next_write_ : next_read_)[rank];
    IoFaultAction a;
    if (next >= script.size()) return a;
    if (script[next] == Kind::kShort && bytes < 2) return a;
    a.kind = script[next++];
    a.transfer = bytes / 2;
    return a;
  }

 private:
  std::vector<Kind> writes_, reads_;
  std::map<int, std::size_t> next_write_, next_read_;
};

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string scope_text(const obs::MetricsRegistry& reg,
                       const std::string& scope) {
  const auto it = reg.scopes().find(scope);
  if (it == reg.scopes().end()) return "<no scope " + scope + ">";
  std::string s;
  for (const auto& [k, v] : it->second.counters) {
    s += " " + k + "=" + std::to_string(v);
  }
  for (const auto& [k, v] : it->second.values) s += " " + k + "=" + exact(v);
  return s;
}

std::string stats_text(const RetryStats& r) {
  std::string s = "retries=" + std::to_string(r.retries) +
                  " transient=" + std::to_string(r.transient_errors) +
                  " short_w=" + std::to_string(r.short_writes) +
                  " short_r=" + std::to_string(r.short_reads) +
                  " verif=" + std::to_string(r.write_verifications) +
                  " backoff=" + exact(r.backoff_seconds) + " log=";
  for (const RetryDelay& d : r.delay_log) {
    s += std::to_string(d.op) + ":" + exact(d.seconds) + ",";
  }
  return s;
}

TEST(RetryGolden, PfsRetryUnderEioAndShortTransfers) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  using K = ScriptedFaults::Kind;
  ScriptedFaults script({K::kTransientError, K::kShort, K::kTransientError,
                         K::kShort, K::kShort},
                        {K::kShort, K::kTransientError, K::kTransientError,
                         K::kShort});
  fs.attach_fault_hook(&script);
  RetryPolicy rp;
  rp.max_retries = 3;
  fs.set_retry(rp);

  std::string got;
  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(10000, 3);
    EXPECT_EQ(fs.write_at(fd, 0, data), data.size());
    std::vector<std::byte> out(data.size());
    EXPECT_EQ(fs.read_at(fd, 0, out), data.size());
    EXPECT_EQ(out, data);
    fs.close(fd);
    got = "now=" + exact(p.now());
  });
  obs::MetricsRegistry reg;
  fs.export_counters(reg);
  got += " fs_retries=" + std::to_string(fs.fs_retries()) + " |" +
         scope_text(reg, "fs:xfs");
  EXPECT_EQ(got,
            "now=0.0062920745920745924 fs_retries=4 | cache_hit_bytes=10000 "
            "retries=4");
}

TEST(RetryGolden, MpiIoCollectivesUnderEioAndShortWrites) {
  const int p = 4;
  const std::uint64_t block = 512;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  using K = ScriptedFaults::Kind;
  ScriptedFaults script({K::kTransientError, K::kShort, K::kTransientError,
                         K::kShort},
                        {K::kShort, K::kTransientError, K::kShort,
                         K::kTransientError, K::kShort});
  fs.attach_fault_hook(&script);

  mpi::io::Hints h;
  h.retry.max_retries = 4;
  h.retry.log_delays = true;
  h.cb_buffer_size = 2048;
  std::vector<std::string> per_rank(p);
  obs::Collector col;
  {
    obs::Attach attach(&col);
    mpi::Runtime rt(rparams(p));
    rt.run([&](mpi::Comm& c) {
      mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, h);
      f.set_view(static_cast<std::uint64_t>(c.rank()) * block,
                 mpi::Datatype::vector(4, block, block * p));
      auto mine = pattern(4 * block, static_cast<unsigned>(c.rank()) + 1);
      f.write_at_all(0, mine);
      std::vector<std::byte> back(mine.size());
      f.read_at_all(0, back);
      EXPECT_EQ(back, mine);
      const RetryStats stats = f.stats().retry;
      f.close();
      per_rank[static_cast<std::size_t>(c.rank())] =
          "now=" + exact(c.proc().now()) + " " + stats_text(stats);
    });
  }
  // Each rank's two short writes are each followed by a verification read
  // that comes back short and whose resumed read then fails with EIO, so
  // neither landed prefix is ever fully compared: both writes are redone
  // (no write_verifications), the budget of 4 retries is spent on one op,
  // and the verification reads use up read faults the read phase saw before.
  const std::string retried =
      "retries=4 transient=4 short_w=2 short_r=1 verif=0 "
      "backoff=0.0074999999999999997 log=0:0.00050000000000000001,0:0.001,"
      "0:0.002,0:0.0040000000000000001,";
  EXPECT_EQ(per_rank[0], "now=0.016350439254079252 " + retried);
  EXPECT_EQ(per_rank[1], "now=0.016357065920745918 " + retried);
  EXPECT_EQ(per_rank[2], "now=0.016360439254079252 " + retried);
  EXPECT_EQ(per_rank[3], "now=0.016347065920745918 " + retried);
  EXPECT_EQ(scope_text(col.registry(), "file:data|" + mpi::io::hints_key(h)),
            " cb_aligned_windows=0 cb_peak_window_bytes=2048 "
            "cb_straddle_windows=0 cb_token_saves=0 collective_fastpath=0 "
            "collective_ops=8 independent_ops=0 io_retries=16 short_reads=4 "
            "short_writes=8 sieve_windows=0 transient_io_errors=16 "
            "two_phase_windows=8 view_flatten_cache_hits=4 wb_absorbed=0 "
            "wb_flushes=0 backoff_seconds=0.029999999999999999");
}

// A short write resumes only behind a landed prefix that was read back in
// full: in the fs trace, a write starting where the previous write ended
// must follow reads covering that whole prefix.  The first verification
// read lands short and its resume fails with EIO, so that prefix is written
// again; the second lands short and resumes cleanly.
TEST(FileRetry, ShortWriteResumesOnlyBehindAFullyReadBackPrefix) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  using K = ScriptedFaults::Kind;
  ScriptedFaults script({K::kShort, K::kShort},
                        {K::kShort, K::kTransientError, K::kShort});
  fs.attach_fault_hook(&script);
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);
  mpi::io::Hints h;
  h.retry.max_retries = 4;
  const auto data = pattern(4096, 5);
  RetryStats stats;
  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    mpi::io::File f(c, fs, "v", pfs::OpenMode::kCreate, h);
    f.write_at(0, data);
    stats = f.stats().retry;
    f.close();
  });
  std::vector<std::byte> stored(data.size());
  fs.store().read_at("v", 0, stored);
  EXPECT_EQ(stored, data);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> reads;  // since prev
  const trace::IoEvent* prev = nullptr;
  int resumed = 0;
  for (const trace::IoEvent& e : tracer.events()) {
    if (!e.is_data() || e.path != "v") continue;
    if (!e.is_write) {
      reads.emplace_back(e.offset, e.bytes);
      continue;
    }
    if (prev != nullptr && e.offset == prev->offset + prev->bytes) {
      ++resumed;
      std::sort(reads.begin(), reads.end());
      std::uint64_t covered = prev->offset;
      for (const auto& [off, len] : reads) {
        if (off <= covered) covered = std::max(covered, off + len);
      }
      EXPECT_GE(covered, e.offset)
          << "write at " << e.offset << " resumed behind a prefix read back "
          << "only up to " << covered;
    }
    prev = &e;
    reads.clear();
  }
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(stats.short_writes, 2u);
  EXPECT_EQ(stats.write_verifications, 1u);
  EXPECT_EQ(stats.retries, 1u);
}

TEST(RetryGolden, QueryBudgetRestartsAfterEveryShortRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  enzo::SimulationConfig cfg;
  cfg.root_dims = {8, 8, 8};
  cfg.particles_per_cell = 0.25;
  cfg.n_clumps = 2;
  cfg.compute_per_cell = 0.0;
  query::Service::Params qp;
  qp.hints.retry.max_retries = 1;  // survives only because of the restart
  query::Service svc(fs, "gold", qp);
  using K = ScriptedFaults::Kind;
  ScriptedFaults script({}, {K::kShort, K::kTransientError, K::kShort,
                             K::kTransientError});
  std::string got;
  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    enzo::MpiIoBackend backend(fs);
    enzo::EnzoSimulation sim(c, cfg);
    sim.initialize_from_universe();
    enzo::CheckpointSeries series(backend, fs, "gold");
    series.dump(c, sim.state(), 0);
    fs.drop_caches();
    svc.open_generation(0);
    fs.attach_fault_hook(&script);
    const auto& name = amr::baryon_field_names()[0];
    const std::vector<float> v = svc.extract(0, {0, name, {0, 0, 0},
                                                 {8, 8, 8}});
    EXPECT_EQ(v.size(), 512u);
    got = "now=" + exact(c.proc().now());
  });
  fs.attach_fault_hook(nullptr);
  obs::MetricsRegistry reg;
  svc.export_counters(reg);
  got += " io_retries=" + std::to_string(svc.io_retries()) + " |" +
         scope_text(reg, "query");
  EXPECT_EQ(got,
            "now=0.032559066130536142 io_retries=2 | cache_hit_bytes=0 "
            "cache_hits=0 cache_inserted_bytes=41216 cache_misses=1 "
            "demand_fetches=1 extracts=1 fetched_bytes=41216 index_builds=1 "
            "io_retries=2 metadata_queries=0 particle_queries=0 "
            "payload_bytes=2048 planned_runs=1");
}

TEST(RetryGolden, StageAppendAndExhaustedDrain) {
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 64 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, 1, sp.n_io_nodes);
  pfs::StripedFs dest(sp, nw);
  pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, 1);
  using K = ScriptedFaults::Kind;
  ScriptedFaults staging_script(
      {K::kTransientError, K::kShort, K::kTransientError}, {});
  staging.attach_fault_hook(&staging_script);
  ScriptedFaults dest_script(std::vector<K>(8, K::kTransientError), {});
  dest.attach_fault_hook(&dest_script);

  stage::StagedFsParams params;
  params.stage_retry.max_retries = 2;
  params.drain_retry.max_retries = 2;
  stage::StagedFs staged(params, staging, dest);
  std::string got;
  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    int fd = staged.open("data", pfs::OpenMode::kCreate);
    staged.write_at(fd, 0, pattern(64 * KiB, 9));
    try {
      staged.drain_mine(stage::DrainPolicy::kSync);
      ADD_FAILURE() << "drain should have exhausted its retry budget";
    } catch (const IoError& e) {
      got = std::string(e.what()) + " | now=" + exact(p.now());
    }
    staged.close(fd);
  });
  obs::MetricsRegistry reg;
  staged.export_counters(reg);
  got += " stage_retries=" + std::to_string(staged.stage_retries()) +
         " drain_retries=" + std::to_string(staged.drain_retries()) + " |" +
         scope_text(reg, "fs:staged");
  EXPECT_EQ(got,
            "stage.drain: destination write of data [0, 65536) from "
            ".stage/r0/seg0 failed after 2 retries (injected EIO: "
            "write_at(data, 0) on pvfs); staged bytes retained | "
            "now=0.011489963636363638 stage_retries=2 drain_retries=2 | "
            "cache_hit_bytes=0 drain_retries=2 drained_bytes=0 "
            "segments_created=1 stage_retries=2 staged_bytes=65536 "
            "staged_live_bytes=65536");
}

// ---------------------------------------------------------------------------
// Zero-progress steps.  The injector clamps a short transfer to at least one
// byte, so only a custom hook can make a step move nothing; the resume loop
// must then fail with a diagnosed IoError instead of spinning or burning the
// retry budget.
// ---------------------------------------------------------------------------

/// In direction `is_write`: passes the first `pass` ops, shorts the next to
/// `first` bytes and every later one to zero bytes.  Passes the other
/// direction.
class StallingFaults : public IoFaultHook {
 public:
  StallingFaults(bool is_write, int pass, std::uint64_t first)
      : is_write_(is_write), pass_(pass), first_(first) {}

  IoFaultAction on_io(int, double, bool is_write, const std::string&,
                      std::uint64_t, std::uint64_t, int) override {
    IoFaultAction a;
    if (is_write != is_write_) return a;
    const int op = ops_++;
    if (op < pass_) return a;
    a.kind = IoFaultAction::Kind::kShort;
    a.transfer = op == pass_ ? first_ : 0;
    return a;
  }
  int ops() const { return ops_; }

 private:
  bool is_write_;
  int pass_;
  std::uint64_t first_;
  int ops_ = 0;
};

TEST(RetryStall, TransferRunsAZeroByteStepOnceAndDiagnosesAStall) {
  int calls = 0;
  transfer(0, "empty", [&](std::uint64_t) {
    ++calls;
    return std::uint64_t{0};
  });
  EXPECT_EQ(calls, 1);
  try {
    transfer(100, "obj", [](std::uint64_t done) {
      return done == 0 ? std::uint64_t{30} : std::uint64_t{0};
    });
    ADD_FAILURE() << "a step that moves no bytes must throw";
  } catch (const TransientIoError& e) {
    ADD_FAILURE() << "stall reported as transient: " << e.what();
  } catch (const IoError& e) {
    EXPECT_STREQ(e.what(),
                 "obj: transfer stalled at byte 30 of 100 (a step moved no "
                 "bytes)");
  }
}

TEST(RetryStall, PfsReadWithRetryThrowsNamingPathAndByte) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  StallingFaults hook(/*is_write=*/false, 0, 40);
  fs.attach_fault_hook(&hook);
  RetryPolicy rp;
  rp.max_retries = 3;
  fs.set_retry(rp);
  std::string what;
  sim::Engine::run(eopts(1), [&](sim::Proc&) {
    int fd = fs.open("stalled.bin", pfs::OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(100));
    std::vector<std::byte> out(100);
    try {
      fs.read_at(fd, 0, out);
      ADD_FAILURE() << "read_at returned from a stalled transfer";
    } catch (const TransientIoError& e) {
      ADD_FAILURE() << "stall reported as transient: " << e.what();
    } catch (const IoError& e) {
      what = e.what();
    }
    fs.close(fd);
  });
  EXPECT_EQ(what,
            "stalled.bin: transfer stalled at byte 40 of 100 (a step moved "
            "no bytes)");
  // A stall is not a transient error: it draws nothing from the budget.
  EXPECT_EQ(fs.fs_retries(), 0u);
}

TEST(RetryStall, PfsReadWithoutRetryReturnsTheZeroPrefix) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  StallingFaults hook(/*is_write=*/false, 0, 0);
  fs.attach_fault_hook(&hook);
  sim::Engine::run(eopts(1), [&](sim::Proc&) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(64));
    std::vector<std::byte> out(64);
    EXPECT_EQ(fs.read_at(fd, 0, out), 0u);
    fs.close(fd);
  });
}

TEST(RetryStall, MpiIoWriteThrowsNamingPathAndByte) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  StallingFaults hook(/*is_write=*/true, 0, 200);
  fs.attach_fault_hook(&hook);
  mpi::io::Hints h;
  h.retry.max_retries = 4;
  std::string what;
  RetryStats stats;
  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    mpi::io::File f(c, fs, "ckpt", pfs::OpenMode::kCreate, h);
    try {
      f.write_at(0, pattern(512));
      ADD_FAILURE() << "write_at returned from a stalled transfer";
    } catch (const TransientIoError& e) {
      ADD_FAILURE() << "stall reported as transient: " << e.what();
    } catch (const IoError& e) {
      what = e.what();
    }
    stats = f.stats().retry;
    f.close();
  });
  EXPECT_EQ(what,
            "ckpt: transfer stalled at byte 200 of 512 (a step moved no "
            "bytes)");
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.short_writes, 2u);
  EXPECT_EQ(stats.write_verifications, 1u);
}

class OpenCounter : public pfs::IoObserver {
 public:
  void on_io(double, int, bool, const std::string&, std::uint64_t,
             std::uint64_t, int) override {}
  void on_open(double, int, const std::string&, pfs::OpenMode,
               int) override {
    ++opened;
  }
  void on_close(double, int, const std::string&, int) override { ++closed; }
  int opened = 0;
  int closed = 0;
};

TEST(RetryStall, QueryIdIndexBuildClosesItsDescriptor) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  enzo::SimulationConfig cfg;
  cfg.root_dims = {8, 8, 8};
  cfg.particles_per_cell = 0.25;
  cfg.n_clumps = 2;
  cfg.compute_per_cell = 0.0;
  StallingFaults count_only(/*is_write=*/false,
                            std::numeric_limits<int>::max(), 0);
  std::string what;
  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    enzo::MpiIoBackend backend(fs);
    enzo::EnzoSimulation sim(c, cfg);
    sim.initialize_from_universe();
    enzo::CheckpointSeries series(backend, fs, "ix");
    series.dump(c, sim.state(), 0);
    // The particle-ID ladder scan is the last read of an index build.
    fs.attach_fault_hook(&count_only);
    EXPECT_GT(query::build_index(fs, series.gen_base(0), 0).id_samples.size(),
              0u);
    StallingFaults stall_last(/*is_write=*/false, count_only.ops() - 1, 0);
    OpenCounter opens;
    fs.attach_fault_hook(&stall_last);
    fs.attach_observer(&opens);
    try {
      query::build_index(fs, series.gen_base(0), 0);
      ADD_FAILURE() << "index build returned from a stalled ID scan";
    } catch (const IoError& e) {
      what = e.what();
    }
    fs.attach_observer(nullptr);
    fs.attach_fault_hook(nullptr);
    EXPECT_GT(opens.opened, 0);
    EXPECT_EQ(opens.opened, opens.closed);
  });
  EXPECT_NE(what.find(": transfer stalled at byte 0 of "), std::string::npos)
      << what;
}

}  // namespace
}  // namespace paramrio::fault

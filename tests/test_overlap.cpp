// Overlapped I/O (Hints::overlap): the engine's shadow-clock deferral, the
// nonblocking and split-collective File interfaces, the pipelined two-phase
// windows, and read prefetching.
//
// The headline properties:
//  * content: split ≡ blocking ≡ independent, byte for byte, overlap on or
//    off, under randomized interleaved access patterns — and the checker
//    stays clean;
//  * time: overlap can only help (saved time is accounted, never invented);
//  * faults: a retrying in-flight op converges exactly like a blocking one.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "check/io_checker.hpp"
#include "fault/fault.hpp"
#include "mpi/io/file.hpp"
#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "sim/engine.hpp"
#include "stage/staged_fs.hpp"

namespace paramrio::mpi::io {
namespace {

sim::Engine::Options eopts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

RuntimeParams rparams(int n) {
  RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

// ---------------------------------------------------------------------------
// Engine deferral primitives.
// ---------------------------------------------------------------------------

TEST(Deferral, ShadowClockRunsAheadWithoutCharging) {
  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    p.advance(1.0, sim::TimeCategory::kCpu);
    const double t0 = p.now();
    const double cpu0 = p.stats().cpu_time;
    const double io0 = p.stats().io_time;
    p.begin_deferred();  // lint:allow(deferred-raii) exercises the raw API
    EXPECT_TRUE(p.deferred());
    p.advance(0.5, sim::TimeCategory::kIo);
    EXPECT_DOUBLE_EQ(p.now(), t0 + 0.5);  // shadow clock visible
    p.clock_at_least(t0 + 2.0, sim::TimeCategory::kIo);
    EXPECT_DOUBLE_EQ(p.now(), t0 + 2.0);
    const double completion = p.end_deferred();  // lint:allow(deferred-raii)
    EXPECT_DOUBLE_EQ(completion, t0 + 2.0);
    // The real clock and the accounting never moved.
    EXPECT_FALSE(p.deferred());
    EXPECT_DOUBLE_EQ(p.now(), t0);
    EXPECT_DOUBLE_EQ(p.stats().cpu_time, cpu0);
    EXPECT_DOUBLE_EQ(p.stats().io_time, io0);
  });
}

TEST(Deferral, NestedBeginAndStrayEndAreRejected) {
  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    // lint:allow(deferred-raii)
    EXPECT_THROW(p.end_deferred(), LogicError);
    p.begin_deferred();  // lint:allow(deferred-raii)
    // lint:allow(deferred-raii)
    EXPECT_THROW(p.begin_deferred(), LogicError);
    p.end_deferred();  // lint:allow(deferred-raii)
  });
}

// ---------------------------------------------------------------------------
// Nonblocking independent ops.
// ---------------------------------------------------------------------------

TEST(OverlapIndependent, IwriteThenWaitMatchesBlockingContent) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(64 * KiB);
    Request r = f.iwrite_at(100, data);
    EXPECT_TRUE(r.active());
    // Computing while the write is in flight is what earns saved time; an
    // immediate wait would hide nothing.
    sim::current_proc().advance(0.01, sim::TimeCategory::kCpu);
    f.wait(r);
    EXPECT_FALSE(r.active());
    std::vector<std::byte> out(data.size());
    f.read_at(100, out);
    EXPECT_EQ(out, data);
    EXPECT_GT(f.stats().overlap_saved_time, 0.0);  // wait came after issue
    f.close();
  });
}

TEST(OverlapIndependent, OverlapHidesIoBehindCompute) {
  // Same workload twice: write 1 MiB then compute 50 ms.  Synchronously the
  // times add; in flight the compute hides part of the write.
  auto elapsed = [&](bool overlap) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(1));
    double t = 0.0;
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = overlap;
      File f(c, fs, "a", pfs::OpenMode::kCreate, h);
      auto data = pattern(1 * MiB);
      const double t0 = sim::current_proc().now();
      Request r = f.iwrite_at(0, data);
      sim::current_proc().advance(0.05, sim::TimeCategory::kCpu);
      f.wait(r);
      t = sim::current_proc().now() - t0;
      f.close();
    });
    return t;
  };
  const double sync_t = elapsed(false);
  const double async_t = elapsed(true);
  EXPECT_LT(async_t, sync_t);
}

TEST(OverlapIndependent, CloseDrainsUnwaitedRequests) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(256 * KiB);
    // lint:allow(missing-wait) — the point is that close() drains it
    Request r = f.iwrite_at(0, data);  // never waited
    (void)r;
    const double before = sim::current_proc().now();
    f.close();
    // close() charged the in-flight completion.
    EXPECT_GT(sim::current_proc().now(), before);
  });
  auto back = pattern(256 * KiB);
  std::vector<std::byte> out(back.size());
  fs.store().read_at("a", 0, out);
  EXPECT_EQ(out, back);
}

// ---------------------------------------------------------------------------
// Prefetch.
// ---------------------------------------------------------------------------

TEST(Prefetch, HitMissAndInvalidationAccounting) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    auto data = pattern(4096);
    {
      File w(c, fs, "a", pfs::OpenMode::kCreate, h);
      w.write_at(0, data);
      w.close();
    }
    File f(c, fs, "a", pfs::OpenMode::kRead, h);

    // Exact match: hit, correct bytes.
    f.prefetch(0, 100);
    std::vector<std::byte> out(100);
    f.read_at(0, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
    EXPECT_EQ(f.stats().prefetch_hits, 1u);
    EXPECT_EQ(f.stats().prefetch_misses, 0u);

    // Partial overlap: miss, still correct bytes from the file.
    f.prefetch(200, 50);
    out.resize(20);
    f.read_at(210, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 210));
    EXPECT_EQ(f.stats().prefetch_hits, 1u);
    EXPECT_EQ(f.stats().prefetch_misses, 1u);
    f.close();
  });
  // Writer-side invalidation and the drop-at-close path.
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kReadWrite, h);
    f.prefetch(300, 50);
    f.write_at(310, pattern(10, 9));  // intersects the prefetched range
    EXPECT_EQ(f.stats().prefetch_misses, 1u);
    f.prefetch(1000, 64);  // never consumed
    f.close();
    EXPECT_EQ(f.stats().prefetch_misses, 2u);
  });
}

TEST(Prefetch, NoOpWhenOverlapOff) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "a", pfs::OpenMode::kCreate);
    f.write_at(0, pattern(512));
    f.prefetch(0, 512);
    std::vector<std::byte> out(512);
    f.read_at(0, out);
    EXPECT_EQ(f.stats().prefetch_hits, 0u);
    EXPECT_EQ(f.stats().prefetch_misses, 0u);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Split collectives and pipelined two-phase: content equivalence.
// ---------------------------------------------------------------------------

struct SweepOutcome {
  std::vector<std::byte> bytes;
  std::uint64_t split = 0, windows = 0, overlap_windows = 0;
  bool checker_clean = false;
};

/// Write a (n × n) interleaved middle-dim partition with the given method,
/// return the landed bytes plus counters.  method: 0 = blocking collective,
/// 1 = split collective (with comm between begin and end), 2 = independent.
SweepOutcome run_write_sweep(int method, bool overlap, unsigned seed) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 64 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, p, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  trace::IoTracer tracer;
  fs.attach_observer(&tracer);
  RuntimeParams rp = rparams(p);
  rp.extra_fabric_nodes = sp.n_io_nodes;
  Runtime rt(rp);
  std::vector<FileStats> stats(p);
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = overlap;
    h.cb_buffer_size = 8 * KiB;  // force several two-phase windows
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    // Deterministic per-seed row partition, identical across methods.
    std::mt19937 gen(seed);
    std::vector<std::uint64_t> cut(static_cast<std::size_t>(p - 1));
    for (auto& x : cut) x = gen() % n;
    cut.push_back(0);
    cut.push_back(n);
    std::sort(cut.begin(), cut.end());
    const std::uint64_t ys = cut[static_cast<std::size_t>(c.rank())];
    const std::uint64_t yc =
        cut[static_cast<std::size_t>(c.rank()) + 1] - ys;
    std::vector<std::byte> buf(n * yc * n * elem,
                               static_cast<std::byte>(c.rank() + 1));
    if (yc > 0) {
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
    } else {
      f.set_view(0);
    }
    switch (method) {
      case 0:
        f.write_at_all(0, buf);
        break;
      case 1:
        f.write_at_all_begin(0, buf);
        // Unrelated comm between begin and end — what split exists for.
        c.allreduce_max(static_cast<std::uint64_t>(c.rank()));
        f.write_at_all_end();
        break;
      default:
        f.write_at(0, buf);
        c.barrier();
        break;
    }
    stats[static_cast<std::size_t>(c.rank())] = f.stats();
    f.close();
  });
  SweepOutcome o;
  o.bytes.resize(fs.store().size("a"));
  fs.store().read_at("a", 0, o.bytes);
  for (const FileStats& s : stats) {
    o.split += s.split_collectives;
    o.windows += s.two_phase_windows;
    o.overlap_windows += s.overlap_windows;
  }
  o.checker_clean = check::analyze_trace(tracer, {}, &fs.store()).clean();
  return o;
}

TEST(SplitCollective, RandomizedSweepSplitEqualsBlockingEqualsIndependent) {
  for (unsigned seed : {1u, 7u, 23u}) {
    SweepOutcome blocking_off = run_write_sweep(0, false, seed);
    SweepOutcome blocking_on = run_write_sweep(0, true, seed);
    SweepOutcome split_on = run_write_sweep(1, true, seed);
    SweepOutcome split_off = run_write_sweep(1, false, seed);
    SweepOutcome indep = run_write_sweep(2, true, seed);
    // Byte-for-byte identity across every method and overlap setting.
    EXPECT_EQ(blocking_off.bytes, blocking_on.bytes) << "seed " << seed;
    EXPECT_EQ(blocking_off.bytes, split_on.bytes) << "seed " << seed;
    EXPECT_EQ(blocking_off.bytes, split_off.bytes) << "seed " << seed;
    EXPECT_EQ(blocking_off.bytes, indep.bytes) << "seed " << seed;
    // The checker audits every variant clean.
    EXPECT_TRUE(blocking_off.checker_clean);
    EXPECT_TRUE(blocking_on.checker_clean);
    EXPECT_TRUE(split_on.checker_clean);
    EXPECT_TRUE(split_off.checker_clean);
    EXPECT_TRUE(indep.checker_clean);
    // Split bookkeeping: one begin/end per rank, windows pipelined only
    // when overlap is on.
    EXPECT_EQ(split_on.split, 4u);
    EXPECT_EQ(split_off.split, 4u);
    EXPECT_EQ(blocking_off.overlap_windows, 0u);
    EXPECT_GT(blocking_on.overlap_windows, 0u);
    EXPECT_EQ(blocking_on.overlap_windows, blocking_on.windows);
  }
}

TEST(SplitCollective, ReadMatchesBlockingAndPrefetchedIndependent) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  const std::uint64_t total = n * n * n * elem;
  auto whole = pattern(total, 3);
  auto run_read = [&](int method, bool overlap) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 64 * KiB;
    sp.n_io_nodes = 4;
    net::Network nw(np, p, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    RuntimeParams rp = rparams(p);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    Runtime rt(rp);
    std::vector<std::vector<std::byte>> got(p);
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = overlap;
      h.cb_buffer_size = 8 * KiB;
      if (c.rank() == 0) {
        File w(c, fs, "a", pfs::OpenMode::kCreate, h);
        w.write_at(0, whole);
        w.close();
      } else {
        File w(c, fs, "a", pfs::OpenMode::kCreate, h);
        w.close();
      }
      File f(c, fs, "a", pfs::OpenMode::kRead, h);
      const std::uint64_t yc = n / static_cast<std::uint64_t>(p);
      const std::uint64_t ys = yc * static_cast<std::uint64_t>(c.rank());
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
      std::vector<std::byte> buf(n * yc * n * elem);
      switch (method) {
        case 0:
          f.read_at_all(0, buf);
          break;
        case 1:
          f.read_at_all_begin(0, buf);
          c.barrier();
          f.read_at_all_end();
          break;
        default:
          f.prefetch(0, buf.size());
          f.read_at(0, buf);
          break;
      }
      got[static_cast<std::size_t>(c.rank())] = std::move(buf);
      f.close();
    });
    return got;
  };
  auto baseline = run_read(0, false);
  for (int method : {0, 1, 2}) {
    auto got = run_read(method, true);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                baseline[static_cast<std::size_t>(r)])
          << "method " << method << " rank " << r;
    }
  }
}

TEST(SplitCollective, ZeroLengthParticipationCompletes) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(4096, 5);
    if (c.rank() == 0) {
      f.write_at_all_begin(0, data);
    } else {
      f.write_at_all_begin(0, {});  // zero-length: must still complete
    }
    f.write_at_all_end();
    EXPECT_EQ(f.stats().split_collectives, 1u);

    std::vector<std::byte> out(c.rank() == 0 ? 4096 : 0);
    if (c.rank() == 0) {
      f.read_at_all_begin(0, out);
    } else {
      f.read_at_all_begin(0, {});
    }
    f.read_at_all_end();
    if (c.rank() == 0) {
      EXPECT_EQ(out, data);
    }
    f.close();
  });
}

TEST(SplitCollective, SecondBeginWithoutEndIsRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(128);
    f.write_at_all_begin(0, data);
    EXPECT_THROW(f.write_at_all_begin(0, data), LogicError);
    EXPECT_THROW(f.write_at_all(0, data), LogicError);
    f.write_at_all_end();
    EXPECT_THROW(f.write_at_all_end(), LogicError);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Hints edge case: cb_buffer_size below the stripe size must not produce
// zero-byte windows in either domain mode.
// ---------------------------------------------------------------------------

TEST(HintsEdge, CbBufferSmallerThanStripeStillMovesEveryByte) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  for (std::uint64_t cb_align : {Hints::kCbAlignAuto, std::uint64_t{64 * KiB}}) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 64 * KiB;
    sp.n_io_nodes = 4;
    net::Network nw(np, p, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    RuntimeParams rp = rparams(p);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    Runtime rt(rp);
    std::vector<FileStats> stats(p);
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = true;
      h.cb_align = cb_align;
      h.cb_buffer_size = 2 * KiB;  // far below the 64 KiB stripe
      File f(c, fs, "a", pfs::OpenMode::kCreate, h);
      const std::uint64_t yc = n / static_cast<std::uint64_t>(p);
      const std::uint64_t ys = yc * static_cast<std::uint64_t>(c.rank());
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
      std::vector<std::byte> buf(n * yc * n * elem,
                                 static_cast<std::byte>(c.rank() + 1));
      f.write_at_all(0, buf);
      stats[static_cast<std::size_t>(c.rank())] = f.stats();
      f.close();
    });
    std::uint64_t windows = 0, overlapped = 0;
    for (const FileStats& s : stats) {
      windows += s.two_phase_windows;
      overlapped += s.overlap_windows;
    }
    // Every counted window moved bytes (a zero-byte window would be counted
    // but ship nothing — caught by the byte audit below), and every one was
    // pipelined.
    EXPECT_GT(windows, 0u);
    EXPECT_EQ(overlapped, windows);
    std::vector<std::byte> all(n * n * n * elem);
    fs.store().read_at("a", 0, all);
    const std::uint64_t rows_per = n / static_cast<std::uint64_t>(p);
    for (std::uint64_t z = 0; z < n; ++z) {
      for (std::uint64_t y = 0; y < n; ++y) {
        const auto want =
            static_cast<std::byte>(y / rows_per + 1);
        const std::uint64_t row = (z * n + y) * n * elem;
        for (std::uint64_t i = 0; i < n * elem; ++i) {
          ASSERT_EQ(all[row + i], want) << "z=" << z << " y=" << y;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Two-phase virtual time, pinned.  The content tests above cannot see a
// window that lands at the right bytes but at the wrong virtual time; this
// one pins every rank's clock and window counters for both directions,
// synchronous and pipelined windows, unaligned and stripe-aligned domains.
// ---------------------------------------------------------------------------

struct TwoPhaseTiming {
  double t_write = 0.0;  ///< rank clock after write_at_all
  double t_read = 0.0;   ///< rank clock after read_at_all
  std::uint64_t windows = 0, overlap_windows = 0, aligned = 0, straddle = 0,
                token_saves = 0, peak_window = 0;
  double saved = 0.0;  ///< overlap_saved_time
};

/// 4 ranks, each owning an interleaved middle-dim slab of a 32³ × 8 B array,
/// written then read back collectively on a 4-server StripedFs with 16 KiB
/// stripes and an 8 KiB collective buffer.
std::vector<TwoPhaseTiming> run_two_phase_timing(bool overlap,
                                                 std::uint64_t cb_align) {
  const int p = 4;
  const std::uint64_t n = 32, elem = 8;
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 16 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, p, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  RuntimeParams rp = rparams(p);
  rp.extra_fabric_nodes = sp.n_io_nodes;
  Runtime rt(rp);
  std::vector<TwoPhaseTiming> out(p);
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = overlap;
    h.cb_align = cb_align;
    h.cb_buffer_size = 8 * KiB;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    const std::uint64_t yc = n / static_cast<std::uint64_t>(p);
    const std::uint64_t ys = yc * static_cast<std::uint64_t>(c.rank());
    f.set_view(0, Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
    const auto data =
        pattern(n * yc * n * elem, static_cast<unsigned>(c.rank()));
    TwoPhaseTiming& t = out[static_cast<std::size_t>(c.rank())];
    f.write_at_all(0, data);
    t.t_write = sim::current_proc().now();
    std::vector<std::byte> back(data.size());
    f.read_at_all(0, back);
    t.t_read = sim::current_proc().now();
    EXPECT_EQ(back, data) << "rank " << c.rank();
    const FileStats& s = f.stats();
    t.windows = s.two_phase_windows;
    t.overlap_windows = s.overlap_windows;
    t.aligned = s.cb_aligned_windows;
    t.straddle = s.cb_straddle_windows;
    t.token_saves = s.cb_token_saves;
    t.peak_window = s.cb_peak_window_bytes;
    t.saved = s.overlap_saved_time;
    f.close();
  });
  return out;
}

TEST(TwoPhaseGolden, VirtualTimeAndWindowCountersArePinned) {
  struct Case {
    bool overlap;
    std::uint64_t cb_align;
    TwoPhaseTiming rank[4];
  };
  // Taken from the two-phase engine before its window loops were merged.
  const Case cases[] = {
      {false,
       1,
       {{0.072821253333333363, 0.26724931999999985, 16, 0, 0, 16, 0, 8192, 0},
        {0.075094320000000034, 0.26732253333333328, 16, 0, 0, 16, 0, 8192, 0},
        {0.079640453333333375, 0.26729227999999988, 16, 0, 0, 16, 0, 8192, 0},
        {0.077367386666666704, 0.26732058666666658, 16, 0, 0, 16, 0, 8192, 0}}},
      {false,
       Hints::kCbAlignAuto,
       {{0.013866973333333333, 0.030721946666666652, 8, 0, 8, 0, 4, 16384, 0},
        {0.013866973333333334, 0.030731946666666652, 8, 0, 8, 0, 4, 16384, 0},
        {0.013876973333333334, 0.030731946666666652, 8, 0, 8, 0, 4, 16384, 0},
        {0.013876973333333332, 0.030731946666666652, 8, 0, 8, 0, 4, 16384, 0}}},
      {true,
       1,
       {{0.050800573333333349, 0.17412433333333324, 16, 16, 0, 16, 0, 8192,
         0.036234186666666446},
        {0.053073640000000019, 0.17419754666666648, 16, 16, 0, 16, 0, 8192,
         0.018590453333332913},
        {0.05761977333333336, 0.1741672933333332, 16, 16, 0, 16, 0, 8192,
         0.072297746666666593},
        {0.05534670666666669, 0.17419559999999984, 16, 16, 0, 16, 0, 8192,
         0.083608026666666585}}},
      {true,
       Hints::kCbAlignAuto,
       {{0.012994813333333329, 0.028977626666666655, 8, 8, 8, 0, 4, 16384,
         0.0017443199999999884},
        {0.012994813333333331, 0.028987626666666655, 8, 8, 8, 0, 4, 16384,
         0.0017443199999999884},
        {0.01300481333333333, 0.028987626666666655, 8, 8, 8, 0, 4, 16384,
         0.0017443199999999884},
        {0.013004813333333328, 0.028987626666666655, 8, 8, 8, 0, 4, 16384,
         0.0017743199999999976}}},
  };
  for (const Case& k : cases) {
    const auto got = run_two_phase_timing(k.overlap, k.cb_align);
    for (std::size_t r = 0; r < 4; ++r) {
      const TwoPhaseTiming& w = k.rank[r];
      const TwoPhaseTiming& g = got[r];
      SCOPED_TRACE("overlap=" + std::to_string(k.overlap) + " cb_align=" +
                   std::to_string(k.cb_align) + " rank " + std::to_string(r));
      EXPECT_EQ(g.t_write, w.t_write);
      EXPECT_EQ(g.t_read, w.t_read);
      EXPECT_EQ(g.windows, w.windows);
      EXPECT_EQ(g.overlap_windows, w.overlap_windows);
      EXPECT_EQ(g.aligned, w.aligned);
      EXPECT_EQ(g.straddle, w.straddle);
      EXPECT_EQ(g.token_saves, w.token_saves);
      EXPECT_EQ(g.peak_window, w.peak_window);
      EXPECT_EQ(g.saved, w.saved);
    }
  }
}

// ---------------------------------------------------------------------------
// Observability: every in-flight operation's async span covers its real
// in-flight time, ending exactly at the completion its settle waited for.
// ---------------------------------------------------------------------------

TEST(InFlightSpans, EndAtTheCompletionTheirSettleUsed) {
  constexpr int p = 4;
  constexpr std::uint64_t block = 4 * KiB;
  pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, p);
  pfs::LocalFs dest(pfs::LocalFsParams{});
  stage::StagedFs staged(stage::StagedFsParams{}, staging, dest);
  obs::Collector col;
  col.set_detail(true);
  std::vector<double> saved(p);
  {
    obs::Attach attach(&col);
    Runtime rt(rparams(p));
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = true;
      h.cb_buffer_size = 2 * block;  // several pipelined windows
      File f(c, staged, "x", pfs::OpenMode::kCreate, h);
      const auto r = static_cast<std::uint64_t>(c.rank());
      f.set_view(r * block, Datatype::vector(4, block, block * p));
      const auto mine = pattern(4 * block, static_cast<unsigned>(r) + 1);
      f.write_at_all(0, mine);
      std::vector<std::byte> back(mine.size());
      f.read_at_all(0, back);
      EXPECT_EQ(back, mine);
      // These settles follow their issue at once, so none is hidden.
      f.set_view(0);
      const std::uint64_t tail = 4 * block * p + r * block;
      Request w = f.iwrite_at(tail, std::span(mine).first(block));
      f.wait(w);
      f.prefetch(tail, block);
      f.read_at(tail, std::span<std::byte>(back).first(block));
      EXPECT_EQ(f.stats().prefetch_hits, 1u);
      f.close();
      saved[r] = f.stats().overlap_saved_time;
      staged.drain_mine(stage::DrainPolicy::kAsync);
      staged.drain_settle();
    });
  }
  // A settle that still had to wait recorded [now, completion): the span
  // must end at that completion.  One that waited for nothing hid the whole
  // span (only pipelined windows do).  Either way the spans reproduce each
  // rank's overlap_saved_time, min(completion, now) - issued per settle.
  std::map<std::string, int> seen;
  std::vector<double> hidden(p, 0.0);
  for (const obs::SpanRecord& s : col.spans()) {
    if (!s.async) continue;
    if (s.name != "two_phase.io" && s.name != "mpiio.iwrite" &&
        s.name != "mpiio.prefetch" && s.name != "stage.drain") {
      continue;
    }
    seen[s.name] += 1;
    SCOPED_TRACE(s.name + " on rank " + std::to_string(s.rank));
    EXPECT_GT(s.duration(), 0.0);
    const auto w = std::find_if(
        col.waits().begin(), col.waits().end(), [&](const obs::WaitRecord& w) {
          return w.rank == s.rank && w.t_end == s.t_end &&
                 (w.kind == obs::WaitKind::kSettleWait ||
                  w.kind == obs::WaitKind::kDrainWait);
        });
    double& h = hidden[static_cast<std::size_t>(s.rank)];
    if (w != col.waits().end()) {
      if (s.name != "stage.drain") h += w->t_start - s.t_start;
    } else {
      EXPECT_EQ(s.name, "two_phase.io") << "no settle waited until " << s.t_end;
      h += s.duration();
    }
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_NEAR(hidden[static_cast<std::size_t>(r)],
                saved[static_cast<std::size_t>(r)], 1e-12)
        << "rank " << r;
    EXPECT_GT(saved[static_cast<std::size_t>(r)], 0.0) << "rank " << r;
  }
  EXPECT_GT(seen["two_phase.io"], 0);
  EXPECT_EQ(seen["mpiio.iwrite"], p);
  EXPECT_EQ(seen["mpiio.prefetch"], p);
  EXPECT_EQ(seen["stage.drain"], p);
}

// ---------------------------------------------------------------------------
// Faults: a retrying in-flight op converges like a blocking one.
// ---------------------------------------------------------------------------

TEST(OverlapFaults, InFlightTransientErrorsRetryAndConverge) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.kind = fault::FaultKind::kTransientError;
  s.max_faults = 3;  // deterministic: first three attempts fail, then pass
  plan.specs.push_back(s);
  fault::Injector inj(plan);
  fs.attach_fault_hook(&inj);

  Runtime rt(rparams(1));
  std::vector<std::byte> data = pattern(128 * KiB, 11);
  FileStats stats;
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    h.retry.max_retries = 8;
    h.retry.backoff_base = 1e-4;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    Request r = f.iwrite_at(0, data);
    sim::current_proc().advance(0.01, sim::TimeCategory::kCpu);
    f.wait(r);
    stats = f.stats();
    f.close();
  });
  // Faults fired and were absorbed in flight (backoff on the shadow clock).
  EXPECT_GT(stats.retry.transient_errors, 0u);
  EXPECT_GT(stats.retry.retries, 0u);
  EXPECT_GT(stats.retry.backoff_seconds, 0.0);
  // The landed bytes converged to exactly the fault-free content.
  std::vector<std::byte> out(data.size());
  fs.store().read_at("a", 0, out);
  EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------------
// View-flatten cache.
// ---------------------------------------------------------------------------

TEST(ViewFlattenCache, RepeatedSubarrayViewsHit) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "a", pfs::OpenMode::kCreate);
    const std::uint64_t n = 8, elem = 8;
    const std::uint64_t field = n * n * n * elem;
    auto data = pattern(n * 4 * n * elem, 2);
    // The ENZO shape: the same subarray filetype installed at a different
    // displacement per field — the flattening is computed once.
    for (int fi = 0; fi < 4; ++fi) {
      f.set_view(static_cast<std::uint64_t>(fi) * field,
                 Datatype::subarray({n, n, n}, {n, 4, n}, {0, 4, 0}, elem));
      f.write_at(0, data);
    }
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 3u);
    // Same range read back through the same view: hits again, same bytes.
    for (int fi = 0; fi < 4; ++fi) {
      f.set_view(static_cast<std::uint64_t>(fi) * field,
                 Datatype::subarray({n, n, n}, {n, 4, n}, {0, 4, 0}, elem));
      std::vector<std::byte> out(data.size());
      f.read_at(0, out);
      EXPECT_EQ(out, data);
    }
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 7u);
    // A different range is a clean miss, not a stale reuse.
    std::vector<std::byte> head(n * elem);
    f.read_at(0, head);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 7u);
    f.close();
  });
}

}  // namespace
}  // namespace paramrio::mpi::io

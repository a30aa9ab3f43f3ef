// Unit tests for the network cost model and the storage primitives.
#include <gtest/gtest.h>

#include <limits>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "stor/disk.hpp"
#include "stor/object_store.hpp"

namespace paramrio {
namespace {

using net::Network;
using net::NetworkParams;
using sim::Engine;
using sim::Proc;

Engine::Options opts(int n) {
  Engine::Options o;
  o.nprocs = n;
  return o;
}

NetworkParams simple_net() {
  NetworkParams p;
  p.latency = 1.0e-3;
  p.bandwidth = 1.0e6;  // 1 MB/s: easy arithmetic
  p.send_overhead = 0.0;
  p.recv_byte_cost = 0.0;
  return p;
}

TEST(Network, PointToPointTiming) {
  NetworkParams p = simple_net();
  Engine::run(opts(2), [&](Proc& proc) {
    Network nw(p, 2);
    if (proc.rank() == 0) {
      double arrival = nw.send(proc, 1, 1'000'000);  // 1 MB at 1 MB/s
      EXPECT_DOUBLE_EQ(proc.now(), 1.0);             // sender occupied 1 s
      EXPECT_DOUBLE_EQ(arrival, 1.0 + 1.0e-3);       // + latency
    }
  });
}

TEST(Network, IntraNodeIsCheaper) {
  NetworkParams p = simple_net();
  p.procs_per_node = 2;
  p.intra_node_bandwidth = 1.0e8;
  p.intra_node_latency = 1.0e-6;
  Engine::run(opts(2), [&](Proc& proc) {
    Network nw(p, 2);
    if (proc.rank() == 0) {
      double arrival = nw.send(proc, 1, 1'000'000);
      EXPECT_LT(arrival, 0.1);  // far below the 1 s inter-node time
    }
  });
}

TEST(Network, ReceiverCopyCostAccrues) {
  NetworkParams p = simple_net();
  p.recv_byte_cost = 1.0e-6;  // 1 MB/s copy
  Engine::run(opts(1), [&](Proc& proc) {
    Network nw(p, 1);
    nw.receive(proc, /*arrival=*/0.5, /*bytes=*/1'000'000);
    EXPECT_DOUBLE_EQ(proc.now(), 1.5);  // wait to 0.5, then 1 s of copying
  });
}

TEST(Network, NicContentionSerializesSendersToOneNode) {
  // Two senders to the same destination node: with NIC contention the
  // destination NIC serialises the transfers.
  NetworkParams p = simple_net();
  p.nic_contention = true;
  Network nw(p, 3);
  // Pin the classic rank tie order: the assertion below names rank 1 as
  // the *second* sender into node 2's NIC queue.
  Engine::Options o = opts(3);
  o.env_perturb = false;
  Engine::run(o, [&](Proc& proc) {
    if (proc.rank() != 2) {
      nw.send(proc, 2, 1'000'000);
    }
    if (proc.rank() == 1) {
      // both transfers queued on node 2's NIC: second ends at 2 s
      EXPECT_GE(proc.now(), 2.0);
    }
  });
}

TEST(Network, BackplaneCapsAggregateBandwidth) {
  NetworkParams p = simple_net();
  p.backplane_bandwidth = 1.0e6;  // shared medium equal to one link
  Network nw(p, 4);
  auto r = Engine::run(opts(4), [&](Proc& proc) {
    // ranks 0,1 send to 2,3 — disjoint pairs, but shared backplane
    if (proc.rank() < 2) nw.send(proc, proc.rank() + 2, 1'000'000);
  });
  // Aggregate 2 MB over a 1 MB/s backplane: last completion ~2 s.
  EXPECT_GE(r.makespan, 2.0);
}

TEST(Network, WithoutContentionParallelSendsOverlap) {
  NetworkParams p = simple_net();
  Network nw(p, 4);
  auto r = Engine::run(opts(4), [&](Proc& proc) {
    if (proc.rank() < 2) nw.send(proc, proc.rank() + 2, 1'000'000);
  });
  EXPECT_LT(r.makespan, 1.5);  // both finish ≈ 1 s
}

TEST(Network, NodeMapping) {
  NetworkParams p;
  p.procs_per_node = 4;
  Engine::run(opts(1), [&](Proc&) {
    Network nw(p, 9, 2);
    EXPECT_EQ(nw.node_of(0), 0);
    EXPECT_EQ(nw.node_of(3), 0);
    EXPECT_EQ(nw.node_of(4), 1);
    EXPECT_EQ(nw.node_of(8), 2);
    EXPECT_EQ(nw.compute_nodes(), 3);
    EXPECT_TRUE(nw.same_node(0, 3));
    EXPECT_FALSE(nw.same_node(3, 4));
  });
}

TEST(ObjectStore, CreateWriteReadRoundTrip) {
  stor::ObjectStore os;
  os.create("a");
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  os.write_at("a", 50, data);
  EXPECT_EQ(os.size("a"), 150u);  // zero-extended head
  std::vector<std::byte> out(100);
  os.read_at("a", 50, out);
  EXPECT_EQ(out, data);
  std::vector<std::byte> head(50);
  os.read_at("a", 0, head);
  for (auto b : head) EXPECT_EQ(b, std::byte{0});
}

TEST(ObjectStore, ReadPastEndThrows) {
  stor::ObjectStore os;
  os.create("a");
  std::vector<std::byte> out(1);
  EXPECT_THROW(os.read_at("a", 0, out), IoError);
}

TEST(ObjectStore, WrappingRangesThrow) {
  // offset + size wraps past 2^64: the end must not pass the bounds check
  // (a wrapped read end) or skip the resize (a wrapped write end).
  stor::ObjectStore os;
  os.create("a");
  os.write_at("a", 0, std::vector<std::byte>(16));
  const std::uint64_t near_end = std::numeric_limits<std::uint64_t>::max() - 3;
  std::vector<std::byte> buf(8);
  EXPECT_THROW(os.read_at("a", near_end, buf), IoError);
  EXPECT_THROW(os.write_at("a", near_end, buf), IoError);
  EXPECT_EQ(os.size("a"), 16u);
}

TEST(ObjectStore, MissingObjectThrows) {
  stor::ObjectStore os;
  std::vector<std::byte> out(1);
  EXPECT_THROW(os.read_at("nope", 0, out), IoError);
  EXPECT_THROW(os.remove("nope"), IoError);
  EXPECT_THROW(os.size("nope"), IoError);
}

TEST(ObjectStore, ListAndTotals) {
  stor::ObjectStore os;
  os.create("x");
  os.create("y");
  std::vector<std::byte> data(10);
  os.write_at("x", 0, data);
  os.write_at("y", 0, data);
  EXPECT_EQ(os.list().size(), 2u);
  EXPECT_EQ(os.total_bytes(), 20u);
  os.remove("x");
  EXPECT_EQ(os.total_bytes(), 10u);
}

TEST(IoServer, SequentialAccessSkipsSeek) {
  stor::DiskParams p;
  p.seek_time = 1.0;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  stor::IoServer s(p);
  // First request: seek (cold head).
  double t1 = s.serve(0.0, "f", 0, 1'000'000);
  EXPECT_DOUBLE_EQ(t1, 2.0);  // 1 s seek + 1 s transfer
  // Sequential continuation: no seek.
  double t2 = s.serve(t1, "f", 1'000'000, 1'000'000);
  EXPECT_DOUBLE_EQ(t2, 3.0);
  // Jump: seek again.
  double t3 = s.serve(t2, "f", 0, 1'000'000);
  EXPECT_DOUBLE_EQ(t3, 5.0);
  // Different object at the "right" offset: still a seek.
  double t4 = s.serve(t3, "g", 1'000'000, 0);
  EXPECT_DOUBLE_EQ(t4, 6.0);
  EXPECT_EQ(s.requests(), 4u);
  EXPECT_EQ(s.bytes_moved(), 3'000'000u);
}

TEST(IoServer, QueueingDelaysLateArrivals) {
  stor::DiskParams p;
  p.seek_time = 0.0;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  stor::IoServer s(p);
  EXPECT_DOUBLE_EQ(s.serve(0.0, "f", 0, 1'000'000), 1.0);
  // Issued at 0.5 but the disk is busy until 1.0.
  EXPECT_DOUBLE_EQ(s.serve(0.5, "f", 1'000'000, 1'000'000), 2.0);
}

TEST(IoServer, ResetClearsState) {
  stor::DiskParams p;
  p.seek_time = 1.0;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  stor::IoServer s(p);
  s.serve(0.0, "f", 0, 1000);
  s.reset();
  EXPECT_DOUBLE_EQ(s.next_free(), 0.0);
  EXPECT_EQ(s.requests(), 0u);
}

}  // namespace
}  // namespace paramrio

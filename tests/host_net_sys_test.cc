// Coverage for the host CPU model, the network link, and the system
// composition (Node/Cluster/testbeds).
#include <gtest/gtest.h>

#include "host/cpu.h"
#include "net/link.h"
#include "putget/extoll_host.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

// --- HostCpu ----------------------------------------------------------------

struct CpuFixture {
  sim::Simulation sim;
  mem::MemoryDomain memory;
  pcie::Fabric fabric{sim, memory, pcie::FabricConfig{}};
  host::CpuConfig cfg;
  host::HostCpu cpu{sim, fabric, cfg};
};

sim::CoTask charge_sequence(host::HostCpu& cpu, SimTime* t_end) {
  co_await cpu.build_descriptor();
  co_await cpu.touch_dram();
  co_await cpu.delay(nanoseconds(500));
  *t_end = cpu.sim().now();
}

TEST(HostCpu, AwaitsChargeTheCostModel) {
  CpuFixture f;
  SimTime t_end = 0;
  sim::Trigger done;
  f.sim.spawn(charge_sequence(f.cpu, &t_end), &done);
  f.sim.run();
  EXPECT_TRUE(done.fired());
  EXPECT_EQ(t_end, f.cfg.descriptor_build_cost + f.cfg.dram_touch_cost +
                       nanoseconds(500));
}

TEST(HostCpu, DirectDramAccessIsImmediateState) {
  CpuFixture f;
  const mem::Addr a = mem::AddressMap::kHostDramBase + 64;
  f.cpu.store_u64(a, 0xDEAD);
  EXPECT_EQ(f.cpu.load_u64(a), 0xDEADull);
  f.cpu.store_u32(a + 8, 0xBEEF);
  EXPECT_EQ(f.cpu.load_u32(a + 8), 0xBEEFu);
  EXPECT_EQ(f.sim.now(), 0);  // state access itself costs nothing
}

sim::CoTask write_then_poll(host::HostCpu& cpu, mem::Addr flag) {
  co_await cpu.mmio_write_u64(flag, 1);  // posted store into own DRAM
  co_await cpu.poll_until([&cpu, flag] { return cpu.load_u64(flag) == 1; });
}

TEST(HostCpu, MmioWriteLandsAndPollObservesIt) {
  CpuFixture f;
  const mem::Addr flag = mem::AddressMap::kHostDramBase + 4096;
  sim::Trigger done;
  f.sim.spawn(write_then_poll(f.cpu, flag), &done);
  f.sim.run();
  EXPECT_TRUE(done.fired());
  EXPECT_EQ(f.memory.read_u64(flag), 1u);
}

// --- NetworkLink ------------------------------------------------------------

TEST(NetworkLink, DeliversFramesInOrderWithLatency) {
  sim::Simulation sim;
  net::NetConfig cfg;
  cfg.bandwidth = gigabytes_per_second(1.0);
  cfg.latency = nanoseconds(500);
  net::NetworkLink link(sim, cfg);
  std::vector<int> received;
  SimTime first_arrival = 0;
  link.attach(1, [&](std::vector<std::uint8_t> frame, net::FrameMeta) {
    if (received.empty()) first_arrival = sim.now();
    received.push_back(frame[0]);
  });
  for (int i = 0; i < 5; ++i) {
    link.send(0, {static_cast<std::uint8_t>(i), 0, 0, 0});
  }
  sim.run();
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(received[i], i);
  EXPECT_GE(first_arrival, nanoseconds(500));
  EXPECT_EQ(link.frames_sent(0), 5u);
  EXPECT_EQ(link.bytes_sent(0), 20u);
}

TEST(NetworkLink, DirectionsAreIndependent) {
  sim::Simulation sim;
  net::NetworkLink link(sim, net::NetConfig{});
  int got0 = 0, got1 = 0;
  link.attach(0, [&](std::vector<std::uint8_t>, net::FrameMeta) { ++got0; });
  link.attach(1, [&](std::vector<std::uint8_t>, net::FrameMeta) { ++got1; });
  link.send(0, {1});
  link.send(1, {2});
  link.send(1, {3});
  sim.run();
  EXPECT_EQ(got1, 1);  // from side 0
  EXPECT_EQ(got0, 2);  // from side 1
}

TEST(NetworkLink, SerializationBoundsThroughput) {
  sim::Simulation sim;
  net::NetConfig cfg;
  cfg.bandwidth = gigabytes_per_second(1.0);
  cfg.latency = 0;
  cfg.header_bytes = 0;
  net::NetworkLink link(sim, cfg);
  SimTime last = 0;
  link.attach(1, [&](std::vector<std::uint8_t>, net::FrameMeta) { last = sim.now(); });
  // 10 x 1000 B at 1 GB/s = at least 10 us of wire time.
  for (int i = 0; i < 10; ++i) {
    link.send(0, std::vector<std::uint8_t>(1000, 7));
  }
  sim.run();
  EXPECT_GE(last, microseconds(10));
}

// --- Node / Cluster / testbeds ----------------------------------------------

TEST(Sys, NodesAreIsolatedDomains) {
  sys::Cluster cluster(sys::default_testbed());
  const mem::Addr a = mem::AddressMap::kGpuDramBase + 1024;
  cluster.node(0).memory().write_u64(a, 111);
  cluster.node(1).memory().write_u64(a, 222);
  EXPECT_EQ(cluster.node(0).memory().read_u64(a), 111u);
  EXPECT_EQ(cluster.node(1).memory().read_u64(a), 222u);
}

TEST(Sys, TestbedPresetsSelectFabrics) {
  sys::Cluster both(sys::default_testbed());
  EXPECT_TRUE(both.node(0).has_extoll());
  EXPECT_TRUE(both.node(0).has_ib());

  sys::Cluster ext(sys::extoll_testbed());
  EXPECT_TRUE(ext.node(0).has_extoll());
  EXPECT_FALSE(ext.node(0).has_ib());
  EXPECT_NE(ext.link(sys::Backend::kExtoll), nullptr);
  EXPECT_EQ(ext.link(sys::Backend::kIb), nullptr);

  sys::Cluster ib(sys::ib_testbed());
  EXPECT_FALSE(ib.node(0).has_extoll());
  EXPECT_TRUE(ib.node(0).has_ib());
}

TEST(Sys, HeapsCarveDisjointRanges) {
  sys::Cluster cluster(sys::default_testbed());
  sys::Node& n = cluster.node(0);
  const mem::Addr a = n.host_heap().alloc(4096, 64);
  const mem::Addr b = n.host_heap().alloc(4096, 64);
  const mem::Addr c = n.gpu_heap().alloc(4096, 64);
  EXPECT_GE(b, a + 4096);
  EXPECT_TRUE(mem::AddressMap::in_host_dram(a));
  EXPECT_TRUE(mem::AddressMap::in_gpu_dram(c));
  // Alignment respected.
  EXPECT_EQ(n.gpu_heap().alloc(100, 256) % 256, 0u);
}

TEST(Sys, ClusterIsDeterministic) {
  // Two identical runs produce identical event counts and final times.
  auto run_once = [] {
    sys::Cluster cluster(sys::extoll_testbed());
    sys::Node& n0 = cluster.node(0);
    sys::Node& n1 = cluster.node(1);
    auto p0 = putget::ExtollHostPort::open(n0.extoll(), 0);
    auto p1 = putget::ExtollHostPort::open(n1.extoll(), 0);
    const mem::Addr src = n0.gpu_heap().alloc(4096);
    const mem::Addr dst = n1.gpu_heap().alloc(4096);
    auto s = n0.extoll().register_memory(src, 4096, mem::Access::kRead);
    auto d = n1.extoll().register_memory(dst, 4096, mem::Access::kWrite);
    extoll::WorkRequest wr;
    wr.cmd = extoll::RmaCmd::kPut;
    wr.port = 0;
    wr.size = 4096;
    wr.src_nla = *s;
    wr.dst_nla = *d;
    n0.extoll().post_work_request(wr);
    cluster.run_until({{0, [] { return false; }}});  // run until drained
    return std::pair<std::uint64_t, SimTime>(cluster.events_executed(),
                                             cluster.now());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace pg

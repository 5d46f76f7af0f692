// Coverage for the host CPU model, the network link, and the system
// composition (Node/Cluster/testbeds).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "host/cpu.h"
#include "net/link.h"
#include "putget/extoll_host.h"
#include "putget/setup.h"
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

/// A header-only frame holding `bytes`.
net::Frame header_frame(std::initializer_list<std::uint8_t> bytes) {
  net::Frame frame;
  std::copy(bytes.begin(), bytes.end(), frame.header.begin());
  frame.header_len = static_cast<std::uint8_t>(bytes.size());
  return frame;
}

TEST(NetworkLink, DeliversFramesInOrderWithLatency) {
  sim::Simulation sim;
  net::NetConfig cfg;
  cfg.bandwidth = gigabytes_per_second(1.0);
  cfg.latency = nanoseconds(500);
  net::NetworkLink link(sim, cfg);
  std::vector<int> received;
  SimTime first_arrival = 0;
  link.attach(1, [&](net::Frame frame, net::FrameMeta) {
    if (received.empty()) first_arrival = sim.now();
    received.push_back(frame.header[0]);
  });
  for (int i = 0; i < 5; ++i) {
    link.send(0, header_frame({static_cast<std::uint8_t>(i), 0, 0, 0}));
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
  link.attach(0, [&](net::Frame, net::FrameMeta) { ++got0; });
  link.attach(1, [&](net::Frame, net::FrameMeta) { ++got1; });
  link.send(0, header_frame({1}));
  link.send(1, header_frame({2}));
  link.send(1, header_frame({3}));
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
  link.attach(1, [&](net::Frame, net::FrameMeta) { last = sim.now(); });
  // 10 x 1000 B at 1 GB/s = at least 10 us of wire time.
  mem::PayloadPool pool;
  for (int i = 0; i < 10; ++i) {
    net::Frame frame;
    frame.payload = pool.copy(std::vector<std::uint8_t>(1000, 7));
    link.send(0, std::move(frame));
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

// --- fill_pattern / ranges_equal ----------------------------------------------

/// fill_pattern as first written: the whole pattern in a len-sized vector,
/// then one copy into memory. The oracle for the in-place fill.
void fill_pattern_by_vector(sys::Node& node, mem::Addr addr,
                            std::uint64_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(len);
  for (auto& b : data) b = rng.next_byte();
  node.memory().write(addr, data);
}

std::vector<std::uint8_t> read_bytes(sys::Node& node, mem::Addr addr,
                                     std::uint64_t len) {
  std::vector<std::uint8_t> out(len);
  node.memory().read(addr, out);
  return out;
}

TEST(Setup, FillPatternMatchesTheVectorPath) {
  sys::Cluster cluster(sys::default_testbed());
  sys::Node& in_place = cluster.node(0);
  sys::Node& by_vector = cluster.node(1);
  struct Case {
    std::uint64_t offset, len;
  };
  // Unaligned start, page-spanning, a length off the page multiple, and
  // lengths below 8.
  const Case cases[] = {{3, 5}, {4093, 7}, {1, 3 * 4096 + 17},
                        {0, 2 * 4096}, {100, 4096}, {4095, 1}};
  std::uint64_t seed = 11;
  for (const bool gpu : {false, true}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << (gpu ? "gpu" : "host") << " +"
                                      << c.offset << " len " << c.len);
      const std::uint64_t span = c.offset + c.len + 4096;
      auto alloc = [&](sys::Node& n) {
        return gpu ? n.gpu_heap().alloc(span, 4096)
                   : n.host_heap().alloc(span, 4096);
      };
      const mem::Addr a = alloc(in_place) + c.offset;
      const mem::Addr b = alloc(by_vector) + c.offset;
      putget::fill_pattern(in_place, a, c.len, seed);
      fill_pattern_by_vector(by_vector, b, c.len, seed);
      ++seed;
      // One guard byte either side stays untouched.
      EXPECT_EQ(read_bytes(in_place, a - 1, c.len + 2),
                read_bytes(by_vector, b - 1, c.len + 2));
      EXPECT_TRUE(putget::ranges_equal(in_place, a, by_vector, b, c.len));
    }
  }
}

TEST(Setup, RangesEqualFindsASingleDifferingByte) {
  sys::Cluster cluster(sys::default_testbed());
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  const std::uint64_t len = 3 * 4096 + 100;
  // Different page offsets on the two sides, so the page-wise walk
  // splits at both sides' boundaries.
  const mem::Addr a = n0.gpu_heap().alloc(len + 4096, 4096) + 10;
  const mem::Addr b = n1.host_heap().alloc(len + 4096, 4096) + 300;
  putget::fill_pattern(n0, a, len, 5);
  putget::fill_pattern(n1, b, len, 5);
  ASSERT_TRUE(putget::ranges_equal(n0, a, n1, b, len));

  auto flip = [&](mem::Addr at) {
    n1.memory().store_scalar(at, 1, n1.memory().load_scalar(at, 1) ^ 0x5A);
  };
  // Only the last byte differs.
  flip(b + len - 1);
  EXPECT_FALSE(putget::ranges_equal(n0, a, n1, b, len));
  flip(b + len - 1);
  ASSERT_TRUE(putget::ranges_equal(n0, a, n1, b, len));
  // Only the first byte of a page differs, on either side.
  const mem::Addr b_page = (b / 4096 + 1) * 4096;
  flip(b_page);
  EXPECT_FALSE(putget::ranges_equal(n0, a, n1, b, len));
  flip(b_page);
  const mem::Addr a_page = (a / 4096 + 2) * 4096;
  n0.memory().store_scalar(a_page, 1, n0.memory().load_scalar(a_page, 1) + 1);
  EXPECT_FALSE(putget::ranges_equal(n0, a, n1, b, len));
}

TEST(Setup, RangesEqualOnUntouchedZeroRanges) {
  sys::Cluster cluster(sys::default_testbed());
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  const std::uint64_t len = 5 * 4096 + 3;
  const mem::Addr a = n0.gpu_heap().alloc(len, 64);
  const mem::Addr b = n1.gpu_heap().alloc(len, 64);
  EXPECT_TRUE(putget::ranges_equal(n0, a, n1, b, len));
  // Resident zero bytes still equal an absent page; a nonzero one does not.
  n1.memory().write_u64(b + 4096, 0);
  EXPECT_TRUE(putget::ranges_equal(n0, a, n1, b, len));
  n1.memory().store_scalar(b + 4096, 1, 1);
  EXPECT_FALSE(putget::ranges_equal(n0, a, n1, b, len));
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

// Tests for the PCIe fabric: link serialization, routing, split reads,
// posted-write ordering, the DMA engine, and the peer-to-peer read model.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "mem/memory_domain.h"
#include "pcie/dma.h"
#include "pcie/fabric.h"
#include "pcie/link.h"
#include "pcie/p2p.h"
#include "sim/simulation.h"

namespace pg::pcie {
namespace {

using mem::AddressMap;

/// A payload from `fabric`'s pool holding `bytes`.
mem::Payload payload_of(Fabric& fabric, const std::vector<std::uint8_t>& bytes) {
  return fabric.payloads().copy(bytes);
}

std::vector<std::uint8_t> bytes_of(const mem::Payload& p) {
  return {p.bytes().begin(), p.bytes().end()};
}

TEST(Link, WireBytesIncludeTlpFraming) {
  LinkConfig cfg;
  cfg.max_payload = 256;
  cfg.tlp_overhead = 26;
  Link link(cfg);
  EXPECT_EQ(link.wire_bytes(0), 26u);          // bare read request
  EXPECT_EQ(link.wire_bytes(8), 34u);          // one TLP
  EXPECT_EQ(link.wire_bytes(256), 282u);       // exactly one max TLP
  EXPECT_EQ(link.wire_bytes(257), 257u + 52);  // two TLPs
}

TEST(Link, SerializesBackToBackTransfers) {
  LinkConfig cfg;
  cfg.bandwidth = gigabytes_per_second(1.0);  // 1 byte/ns
  cfg.propagation = nanoseconds(100);
  cfg.tlp_overhead = 0;
  Link link(cfg);
  const SimTime a = link.occupy(0, 1000);   // wire busy until 1000ns
  const SimTime b = link.occupy(0, 1000);   // must queue behind a
  EXPECT_EQ(a, nanoseconds(1100));
  EXPECT_EQ(b, nanoseconds(2100));
  EXPECT_EQ(link.bytes_carried(), 2000u);
}

TEST(Link, IdleLinkStartsImmediately) {
  LinkConfig cfg;
  cfg.bandwidth = gigabytes_per_second(1.0);
  cfg.propagation = nanoseconds(10);
  cfg.tlp_overhead = 0;
  Link link(cfg);
  (void)link.occupy(0, 100);
  // After the wire frees, a later transfer is not penalized.
  const SimTime t = link.occupy(nanoseconds(5000), 100);
  EXPECT_EQ(t, nanoseconds(5110));
}

// A scriptable endpoint for fabric tests.
class FakeEndpoint : public Endpoint {
 public:
  void inbound_write(mem::Addr addr,
                     std::span<const std::uint8_t> data) override {
    writes.push_back({addr, {data.begin(), data.end()}});
  }
  SimTime inbound_read(SimTime arrival, mem::Addr addr,
                       std::span<std::uint8_t> out) override {
    reads.push_back({addr, out.size()});
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(fill + i);
    }
    return arrival + read_latency;
  }

  struct Write {
    mem::Addr addr;
    std::vector<std::uint8_t> data;
  };
  struct Read {
    mem::Addr addr;
    std::size_t len;
  };
  std::vector<Write> writes;
  std::vector<Read> reads;
  std::uint8_t fill = 0x40;
  SimDuration read_latency = nanoseconds(100);
};

struct FabricFixture {
  sim::Simulation sim;
  mem::MemoryDomain memory;
  FabricConfig cfg;
  Fabric fabric{sim, memory, cfg};
  FakeEndpoint nic;
  FakeEndpoint gpu;
  EndpointId nic_id = fabric.attach("nic", &nic, LinkConfig{});
  EndpointId gpu_id = fabric.attach("gpu", &gpu, LinkConfig{});

  FabricFixture() {
    fabric.claim_range(nic_id, AddressMap::kExtollBarBase,
                       AddressMap::kExtollBarSize);
    fabric.claim_range(gpu_id, AddressMap::kGpuDramBase,
                       AddressMap::kGpuDramSize);
  }
};

TEST(Fabric, CpuWriteReachesEndpointBar) {
  FabricFixture f;
  f.fabric.write(kRootComplex, AddressMap::kExtollBarBase + 0x10,
                 payload_of(f.fabric, {1, 2, 3, 4, 5, 6, 7, 8}));
  f.sim.run();
  ASSERT_EQ(f.nic.writes.size(), 1u);
  EXPECT_EQ(f.nic.writes[0].addr, AddressMap::kExtollBarBase + 0x10);
  EXPECT_EQ(f.nic.writes[0].data.size(), 8u);
}

TEST(Fabric, WriteToHostDramLandsInMemory) {
  FabricFixture f;
  std::vector<std::uint8_t> data = {0xAA, 0xBB, 0xCC, 0xDD};
  bool delivered = false;
  f.fabric.write(f.nic_id, AddressMap::kHostDramBase + 512,
                 payload_of(f.fabric, data), [&] { delivered = true; });
  f.sim.run();
  EXPECT_TRUE(delivered);
  std::vector<std::uint8_t> got(4);
  f.memory.read(AddressMap::kHostDramBase + 512, got);
  EXPECT_EQ(got, data);
}

TEST(Fabric, ReadFromHostDramReturnsData) {
  FabricFixture f;
  f.memory.write_u64(AddressMap::kHostDramBase + 64, 0xFEEDFACE12345678ull);
  std::uint64_t got = 0;
  SimTime completion_time = -1;
  f.fabric.read(f.nic_id, AddressMap::kHostDramBase + 64,
                f.fabric.payloads().acquire(8), [&](mem::Payload data) {
                  std::memcpy(&got, data.data(), 8);
                  completion_time = f.sim.now();
                });
  f.sim.run();
  EXPECT_EQ(got, 0xFEEDFACE12345678ull);
  // A split read crosses the fabric twice plus DRAM latency: it cannot be
  // instantaneous.
  EXPECT_GT(completion_time, nanoseconds(400));
}

TEST(Fabric, ReadSamplesDataAtServiceTime) {
  FabricFixture f;
  // A write that lands before the read request is served must be visible,
  // even though the read was issued first in wall-clock order with an
  // in-flight delay.
  std::uint64_t got = 1;
  f.fabric.read(f.nic_id, AddressMap::kHostDramBase,
                f.fabric.payloads().acquire(8), [&](mem::Payload data) {
                  std::memcpy(&got, data.data(), 8);
                });
  // Direct (zero-time) memory poke well before the request can arrive.
  f.memory.write_u64(AddressMap::kHostDramBase, 0x77);
  f.sim.run();
  EXPECT_EQ(got, 0x77u);
}

TEST(Fabric, PeerToPeerReadGoesToEndpoint) {
  FabricFixture f;
  std::vector<std::uint8_t> got;
  f.fabric.read(f.nic_id, AddressMap::kGpuDramBase + 4096,
                f.fabric.payloads().acquire(16),
                [&](mem::Payload data) { got = bytes_of(data); });
  f.sim.run();
  ASSERT_EQ(f.gpu.reads.size(), 1u);
  EXPECT_EQ(f.gpu.reads[0].addr, AddressMap::kGpuDramBase + 4096);
  ASSERT_EQ(got.size(), 16u);
  EXPECT_EQ(got[0], 0x40);
  EXPECT_EQ(got[15], 0x4F);
}

TEST(Fabric, PostedWritesFromOneSourceArriveInOrder) {
  FabricFixture f;
  std::vector<int> arrival_order;
  for (int i = 0; i < 20; ++i) {
    f.fabric.write(kRootComplex, AddressMap::kExtollBarBase + i * 8,
                   payload_of(f.fabric, std::vector<std::uint8_t>(
                                            8, static_cast<std::uint8_t>(i))),
                   [&arrival_order, i] { arrival_order.push_back(i); });
  }
  f.sim.run();
  ASSERT_EQ(arrival_order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(arrival_order[i], i);
}

TEST(Fabric, TracksWireStatistics) {
  FabricFixture f;
  f.fabric.write(f.nic_id, AddressMap::kHostDramBase,
                 payload_of(f.fabric, {1, 2, 3, 4}));
  f.sim.run();
  EXPECT_EQ(f.fabric.upstream_bytes(f.nic_id), 4u);
  EXPECT_EQ(f.fabric.transactions(), 1u);
}

// --- P2P read server --------------------------------------------------------

TEST(P2p, ResidentPagesServeAtCeiling) {
  P2pConfig cfg;
  cfg.read_throughput = gigabytes_per_second(1.0);
  cfg.base_latency = 0;
  cfg.page_miss_penalty = nanoseconds(1000);
  GpuP2pReadServer server(cfg);
  // First pass over one page: miss. (Rates are floats; allow a couple of
  // picoseconds of conservative round-up.)
  const SimTime t1 = server.serve(0, AddressMap::kGpuDramBase, 4096);
  EXPECT_NEAR(static_cast<double>(t1),
              static_cast<double>(nanoseconds(4096 + 1000)), 2.0);
  // Second pass over the same page: hit, pure throughput.
  const SimTime t2 = server.serve(t1, AddressMap::kGpuDramBase, 4096);
  EXPECT_NEAR(static_cast<double>(t2 - t1),
              static_cast<double>(nanoseconds(4096)), 2.0);
  EXPECT_EQ(server.page_hits(), 1u);
  EXPECT_EQ(server.page_misses(), 1u);
}

TEST(P2p, LargeFootprintThrashes) {
  P2pConfig cfg;
  cfg.page_lru_capacity = 4;  // tiny window for the test
  GpuP2pReadServer server(cfg);
  // Sweep 8 pages twice; the second sweep must miss everywhere because
  // the window only holds 4 pages.
  SimTime t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int page = 0; page < 8; ++page) {
      t = server.serve(t, AddressMap::kGpuDramBase + page * 4096, 4096);
    }
  }
  EXPECT_EQ(server.page_misses(), 16u);
  EXPECT_EQ(server.page_hits(), 0u);
}

TEST(P2p, SmallFootprintStaysResident) {
  P2pConfig cfg;
  cfg.page_lru_capacity = 4;
  GpuP2pReadServer server(cfg);
  SimTime t = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (int page = 0; page < 3; ++page) {
      t = server.serve(t, AddressMap::kGpuDramBase + page * 4096, 4096);
    }
  }
  EXPECT_EQ(server.page_misses(), 3u);  // first pass only
  EXPECT_EQ(server.page_hits(), 6u);
}

TEST(P2p, DisabledModelHasNoThrottle) {
  P2pConfig cfg;
  cfg.model_enabled = false;
  cfg.base_latency = nanoseconds(50);
  GpuP2pReadServer server(cfg);
  EXPECT_EQ(server.serve(0, AddressMap::kGpuDramBase, 1 * MiB),
            nanoseconds(50));
}

TEST(P2p, ServerSerializesConcurrentRequests) {
  P2pConfig cfg;
  cfg.read_throughput = gigabytes_per_second(1.0);
  cfg.base_latency = 0;
  cfg.page_miss_penalty = 0;
  GpuP2pReadServer server(cfg);
  const SimTime a = server.serve(0, AddressMap::kGpuDramBase, 4096);
  const SimTime b = server.serve(0, AddressMap::kGpuDramBase, 4096);
  EXPECT_EQ(b, a + (a - 0));  // second waits for the first
}

// --- DMA engine -------------------------------------------------------------

struct DmaFixture : FabricFixture {
  DmaConfig dma_cfg;
  DmaEngine dma{sim, fabric, nic_id, dma_cfg};
};

TEST(Dma, GatherReadReassemblesExactBytes) {
  DmaFixture f;
  Rng rng(17);
  std::vector<std::uint8_t> payload(20000);
  for (auto& b : payload) b = rng.next_byte();
  f.memory.write(AddressMap::kHostDramBase + 1000, payload);
  std::vector<std::uint8_t> got;
  f.dma.read(AddressMap::kHostDramBase + 1000, payload.size(),
             [&](mem::Payload data) { got = bytes_of(data); });
  f.sim.run();
  EXPECT_EQ(got, payload);
  // 20000 bytes at 4096-byte requests = 5 requests.
  EXPECT_EQ(f.dma.reads_issued(), 5u);
}

TEST(Dma, ScatterWriteLandsExactBytes) {
  DmaFixture f;
  Rng rng(23);
  std::vector<std::uint8_t> payload(9000);
  for (auto& b : payload) b = rng.next_byte();
  bool done = false;
  f.dma.write(AddressMap::kHostDramBase + 2048, payload_of(f.fabric, payload),
              [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  std::vector<std::uint8_t> got(payload.size());
  f.memory.read(AddressMap::kHostDramBase + 2048, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(f.dma.writes_issued(), 3u);  // 4096+4096+808
}

TEST(Dma, WindowedReadsOverlap) {
  // With a window of 8, a large read should complete much faster than
  // 2x the serialized time (requests pipeline against completions).
  DmaFixture strict;
  strict.dma_cfg.max_outstanding_reads = 1;
  DmaEngine serial(strict.sim, strict.fabric, strict.nic_id, strict.dma_cfg);
  SimTime serial_done = 0;
  serial.read(AddressMap::kHostDramBase, 256 * KiB,
              [&](mem::Payload) { serial_done = strict.sim.now(); });
  strict.sim.run();

  DmaFixture wide;
  SimTime wide_done = 0;
  wide.dma.read(AddressMap::kHostDramBase, 256 * KiB,
                [&](mem::Payload) { wide_done = wide.sim.now(); });
  wide.sim.run();

  EXPECT_LT(wide_done, serial_done);
}

}  // namespace
}  // namespace pg::pcie

// Cross-backend parity suite for the unified Transport layer and the
// halo workload on an N-node ring: both fabrics must move the same
// payloads with exactly-once delivery, and every run must be
// deterministic (the event fingerprint and the field checksum repeat
// bit-for-bit across identical runs).
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "obs/trace.h"
#include "putget/extoll_experiments.h"
#include "putget/ib_experiments.h"
#include "putget/notify.h"
#include "shmem/workloads.h"
#include "sys/testbed.h"

namespace pg::putget {
namespace {

/// The halo workload on an n x 1 PE grid wired as a ring.
shmem::Halo2dConfig small_ring(RmaBackend backend, int nodes) {
  shmem::Halo2dConfig cfg;
  cfg.backend = backend;
  cfg.topology = net::Topology::kRing;
  cfg.px = nodes;
  cfg.py = 1;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.iterations = 6;
  return cfg;
}

TEST(ClusterConfigValidation, RejectsSingleNode) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 1;
  EXPECT_FALSE(sys::Cluster::validate(cfg).is_ok());
}

TEST(ClusterConfigValidation, RejectsNonPositiveLinkBandwidth) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.extoll_net.bandwidth.bytes_per_second = 0.0;
  EXPECT_FALSE(sys::Cluster::validate(cfg).is_ok());
}

TEST(ClusterConfigValidation, IgnoresDisabledBackendLinks) {
  sys::ClusterConfig cfg = sys::extoll_testbed();  // with_ib = false
  cfg.ib_net.bandwidth.bytes_per_second = 0.0;
  EXPECT_TRUE(sys::Cluster::validate(cfg).is_ok());
}

TEST(ClusterConfigValidation, AcceptsRingOfFour) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  EXPECT_TRUE(sys::Cluster::validate(cfg).is_ok());
}

class RingParityTest : public ::testing::TestWithParam<int> {};

void expect_ring_exactly_once(RmaBackend backend, int nodes) {
  const shmem::Halo2dResult r = shmem::run_halo2d(small_ring(backend, nodes));
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.num_pes, nodes);
  EXPECT_EQ(r.halo_puts, static_cast<std::uint64_t>(nodes) * 2 * 6);
  EXPECT_EQ(r.notified_total, r.halo_puts);
}

TEST_P(RingParityTest, ExtollRingVerifiesExactlyOnce) {
  expect_ring_exactly_once(RmaBackend::kExtoll, GetParam());
}

TEST_P(RingParityTest, IbRingVerifiesExactlyOnce) {
  expect_ring_exactly_once(RmaBackend::kIb, GetParam());
}

TEST_P(RingParityTest, BackendsComputeTheSameField) {
  const int nodes = GetParam();
  const shmem::Halo2dResult ext =
      shmem::run_halo2d(small_ring(RmaBackend::kExtoll, nodes));
  const shmem::Halo2dResult ib =
      shmem::run_halo2d(small_ring(RmaBackend::kIb, nodes));
  ASSERT_TRUE(ext.verified);
  ASSERT_TRUE(ib.verified);
  EXPECT_EQ(ext.checksum, ib.checksum);
}

TEST_P(RingParityTest, FingerprintRepeatsAcrossRuns) {
  const int nodes = GetParam();
  for (RmaBackend backend : {RmaBackend::kExtoll, RmaBackend::kIb}) {
    const shmem::Halo2dResult a =
        shmem::run_halo2d(small_ring(backend, nodes));
    const shmem::Halo2dResult b =
        shmem::run_halo2d(small_ring(backend, nodes));
    ASSERT_TRUE(a.verified) << sys::backend_name(backend);
    EXPECT_EQ(a.events_executed, b.events_executed)
        << sys::backend_name(backend);
    EXPECT_EQ(a.checksum, b.checksum) << sys::backend_name(backend);
    EXPECT_EQ(a.sim_time_us, b.sim_time_us) << sys::backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, RingParityTest,
                         ::testing::Values(2, 3, 4));

TEST(TransportParityTest, PingPongPayloadAndFingerprintBothBackends) {
  const auto ext_cfg = sys::extoll_testbed();
  const auto ib_cfg = sys::ib_testbed();
  const PingPongResult e1 = run_extoll_pingpong(
      ext_cfg, TransferMode::kHostControlled, 64, 8);
  const PingPongResult e2 = run_extoll_pingpong(
      ext_cfg, TransferMode::kHostControlled, 64, 8);
  EXPECT_TRUE(e1.payload_ok);
  EXPECT_EQ(e1.events_scheduled, e2.events_scheduled);

  const PingPongResult i1 =
      run_ib_pingpong(ib_cfg, TransferMode::kHostControlled,
                      QueueLocation::kHostMemory, 64, 8);
  const PingPongResult i2 =
      run_ib_pingpong(ib_cfg, TransferMode::kHostControlled,
                      QueueLocation::kHostMemory, 64, 8);
  EXPECT_TRUE(i1.payload_ok);
  EXPECT_GT(i1.events_scheduled, 0u);
  EXPECT_EQ(i1.events_scheduled, i2.events_scheduled);
}

// A 3-hop routed put must land the same payload over both fabrics, and
// the relaying must be visible in the conservation counters.
TEST(TransportParityTest, ThreeHopPayloadParityBothBackends) {
  std::array<std::uint64_t, 2> checksum{};
  int bi = 0;
  for (RmaBackend backend : {RmaBackend::kExtoll, RmaBackend::kIb}) {
    sys::ClusterConfig cfg = backend == RmaBackend::kExtoll
                                 ? sys::extoll_testbed()
                                 : sys::ib_testbed();
    cfg.num_nodes = 6;
    cfg.topology = net::Topology::kRing;
    sys::Cluster cluster(cfg);
    // Node 3 is three relay hops from node 0 on a six-node ring.
    ASSERT_EQ(net::path_hops(cluster.fabric_plan(), cluster.routes(), 0, 3),
              3);
    auto d = NotifyDomain::create(cluster, backend);
    ASSERT_TRUE(d.is_ok()) << d.status().to_string();
    std::vector<mem::Addr> bases;
    for (int n = 0; n < 6; ++n) {
      bases.push_back(cluster.node(n).gpu_heap().alloc(4096, 4096));
    }
    ASSERT_TRUE((*d)->register_region(bases, 4096).is_ok());
    for (int i = 0; i < 8; ++i) {
      cluster.node(0).memory().write_u64(bases[0] + 256 + 8 * i,
                                         0x0D0A0000ull + 17 * i);
    }
    auto op = (*d)->post_put(0, 3, bases[0] + 256, bases[3] + 256, 64,
                             Completion::kNotification);
    ASSERT_TRUE(op.is_ok()) << op.status().to_string();
    ASSERT_TRUE((*d)->wait_notified(3, 1));
    std::uint64_t sum = 0;
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t v =
          cluster.node(3).memory().read_u64(bases[3] + 256 + 8 * i);
      EXPECT_EQ(v, 0x0D0A0000ull + 17 * i) << sys::backend_name(backend);
      sum = sum * 1315423911ull + v;
    }
    checksum[bi++] = sum;
    // Drain the fabric (the IB ACK is still in flight after the
    // notification lands) before auditing conservation.
    ASSERT_TRUE((*d)->quiet(0).is_ok());
    const net::FabricTotals totals = cluster.fabric_totals(backend);
    EXPECT_GT(totals.frames_forwarded, 0u) << sys::backend_name(backend);
    EXPECT_EQ(totals.frames_delivered, totals.frames_originated)
        << sys::backend_name(backend);
    EXPECT_EQ(totals.bytes_delivered, totals.bytes_originated)
        << sys::backend_name(backend);
  }
  EXPECT_EQ(checksum[0], checksum[1]);
}

TEST(TransportParityTest, PerNodeTraceTracksAreDistinct) {
  obs::TraceRecorder recorder;
  obs::attach_recorder(&recorder);
  const shmem::Halo2dResult r =
      shmem::run_halo2d(small_ring(RmaBackend::kExtoll, 3));
  obs::attach_recorder(nullptr);
  ASSERT_TRUE(r.verified);

  char* buf = nullptr;
  std::size_t len = 0;
  FILE* f = open_memstream(&buf, &len);
  ASSERT_NE(f, nullptr);
  recorder.write_json(f);
  std::fclose(f);
  const std::string json(buf, len);
  std::free(buf);
  // Every node contributes its own component tracks ("node<i>.<unit>").
  EXPECT_NE(json.find("node0."), std::string::npos);
  EXPECT_NE(json.find("node1."), std::string::npos);
  EXPECT_NE(json.find("node2."), std::string::npos);
}

}  // namespace
}  // namespace pg::putget

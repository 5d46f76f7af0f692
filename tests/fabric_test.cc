// Coverage for the routed fabric layer: topology shape validation,
// route computation (dimension-order, up/down, BFS) with its
// determinism guarantees, reachability checking, switch-vertex shard
// assignment, and the duplicate-route hard errors in the NICs and
// switches.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "putget/ib_host.h"
#include "putget/notify.h"
#include "sim/simulation.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

// --- Topology names and shapes ----------------------------------------------

TEST(TopologyNames, RoundTripThroughParse) {
  for (net::Topology t :
       {net::Topology::kPair, net::Topology::kRing, net::Topology::kFullMesh,
        net::Topology::kTorus2D, net::Topology::kFatTree}) {
    auto parsed = net::parse_topology(net::topology_name(t));
    ASSERT_TRUE(parsed.is_ok()) << net::topology_name(t);
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_STREQ(net::topology_name(net::Topology::kTorus2D), "torus2d");
  EXPECT_STREQ(net::topology_name(net::Topology::kFatTree), "fat-tree");
  EXPECT_EQ(net::parse_topology("hypercube").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TorusDims, FactorsIntoWidestGrid) {
  auto d8 = net::torus_dims(8);
  ASSERT_TRUE(d8.is_ok());
  EXPECT_EQ(d8->rows, 2);
  EXPECT_EQ(d8->cols, 4);
  auto d16 = net::torus_dims(16);
  ASSERT_TRUE(d16.is_ok());
  EXPECT_EQ(d16->rows, 4);
  EXPECT_EQ(d16->cols, 4);
  auto d12 = net::torus_dims(12);
  ASSERT_TRUE(d12.is_ok());
  EXPECT_EQ(d12->rows, 3);
  EXPECT_EQ(d12->cols, 4);
}

TEST(TorusDims, RejectsPrimesAndTinyCounts) {
  EXPECT_FALSE(net::torus_dims(2).is_ok());
  EXPECT_FALSE(net::torus_dims(3).is_ok());
  EXPECT_FALSE(net::torus_dims(7).is_ok());   // prime: no 2-D factoring
  EXPECT_FALSE(net::torus_dims(13).is_ok());
  EXPECT_FALSE(sys::Cluster::validate([] {
                 sys::ClusterConfig cfg = sys::extoll_testbed();
                 cfg.num_nodes = 7;
                 cfg.topology = net::Topology::kTorus2D;
                 return cfg;
               }())
                   .is_ok());
}

TEST(FatTreeShape, CeilSqrtHalfArity) {
  auto s8 = net::fat_tree_shape(8);
  ASSERT_TRUE(s8.is_ok());
  EXPECT_EQ(s8->half_arity, 3);
  EXPECT_EQ(s8->leaves, 3);
  EXPECT_EQ(s8->spines, 3);
  auto s16 = net::fat_tree_shape(16);
  ASSERT_TRUE(s16.is_ok());
  EXPECT_EQ(s16->half_arity, 4);
  EXPECT_EQ(s16->leaves, 4);
  EXPECT_EQ(s16->spines, 4);
  EXPECT_FALSE(net::fat_tree_shape(1).is_ok());
}

// --- Route computation ------------------------------------------------------

TEST(Routes, PairTopologyLeavesCrossPairsUnreachable) {
  auto plan = net::build_fabric_plan(net::Topology::kPair, 4);
  ASSERT_TRUE(plan.is_ok());
  const net::RouteTables routes = net::compute_routes(*plan);
  EXPECT_TRUE(routes.reachable(0, 1));
  EXPECT_FALSE(routes.reachable(0, 2));
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 2), -1);
  const Status s = net::check_reachable(*plan, routes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("cannot reach"), std::string::npos);
}

TEST(Routes, BfsTablesAreIdenticalAcrossRuns) {
  for (net::Topology t : {net::Topology::kRing, net::Topology::kFullMesh}) {
    auto plan = net::build_fabric_plan(t, 8);
    ASSERT_TRUE(plan.is_ok());
    const net::RouteTables a = net::compute_routes(*plan);
    const net::RouteTables b = net::compute_routes(*plan);
    for (int v = 0; v < plan->num_vertices(); ++v) {
      for (int dst = 0; dst < plan->num_terminals; ++dst) {
        EXPECT_EQ(a.next_edge(v, dst), b.next_edge(v, dst))
            << net::topology_name(t) << " vertex " << v << " dst " << dst;
      }
    }
  }
}

TEST(Routes, TorusDimensionOrderHopCounts) {
  auto plan = net::build_fabric_plan(net::Topology::kTorus2D, 16);  // 4x4
  ASSERT_TRUE(plan.is_ok());
  const net::RouteTables routes = net::compute_routes(*plan);
  ASSERT_TRUE(net::check_reachable(*plan, routes).is_ok());
  // (0,0) -> (3,3): one wrap hop in each dimension.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 15), 2);
  // (0,0) -> (1,1): one +1 hop per dimension.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 5), 2);
  // (0,0) -> (0,2): halfway tie in the column ring breaks toward +1.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 2), 2);
  // (0,0) -> (2,2): worst case on a 4x4 is 2 + 2.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 10), 4);
}

TEST(Routes, FatTreeUpDownHopCounts) {
  auto plan = net::build_fabric_plan(net::Topology::kFatTree, 8);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan->num_switches, 6);  // 3 leaves + 3 spines
  const net::RouteTables routes = net::compute_routes(*plan);
  ASSERT_TRUE(net::check_reachable(*plan, routes).is_ok());
  // Same leaf (terminals 0..2 share leaf 0): up, down.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 1), 2);
  // Different leaves: up, spine, down.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 3), 4);
  EXPECT_EQ(net::path_hops(*plan, routes, 7, 0), 4);
}

TEST(Routes, SwitchShardAssignmentIsDeterministic) {
  auto plan = net::build_fabric_plan(net::Topology::kFatTree, 8);
  ASSERT_TRUE(plan.is_ok());
  // Terminals run on their own shard.
  for (int t = 0; t < 8; ++t) EXPECT_EQ(net::switch_shard(*plan, t), t);
  // Leaves run beside their lowest terminal (half-arity 3).
  EXPECT_EQ(net::switch_shard(*plan, 8), 0);
  EXPECT_EQ(net::switch_shard(*plan, 9), 3);
  EXPECT_EQ(net::switch_shard(*plan, 10), 6);
  // Spines have no terminal neighbours: vertex id modulo terminals.
  EXPECT_EQ(net::switch_shard(*plan, 11), 3);
  EXPECT_EQ(net::switch_shard(*plan, 12), 4);
  EXPECT_EQ(net::switch_shard(*plan, 13), 5);
  for (int v = 0; v < plan->num_vertices(); ++v) {
    EXPECT_EQ(net::switch_shard(*plan, v), net::switch_shard(*plan, v));
  }
}

// --- Reversed-pair double links ---------------------------------------------

TEST(Routes, TwoNodeRingKeepsBothDirectionsOnTheFirstLink) {
  // The two-node ring plans {0,1} and {1,0} — a legal reversed pair.
  // BFS must resolve both directions to the first-planned link, exactly
  // like the legacy first-wins route fill did.
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 2;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  ASSERT_EQ(cluster.fabric_plan().edges.size(), 2u);
  EXPECT_EQ(cluster.extoll_route(0, 1).link, cluster.extoll_link());
  EXPECT_EQ(cluster.extoll_route(1, 0).link, cluster.extoll_link());
  EXPECT_EQ(cluster.extoll_route(0, 1).side, 0);
  EXPECT_EQ(cluster.extoll_route(1, 0).side, 1);
}

TEST(TwinLinks, EachParallelLinkKeepsItsOwnLabelAndUtilization) {
  // A 4-node torus is a 2x2 grid: both dimensions have extent 2, so
  // every neighbour pair is joined by two parallel links, and routes use
  // only the first of each. Label-keyed reports (telemetry samples,
  // published gauges) used to let the idle twin overwrite the busy one.
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kTorus2D;
  sys::Cluster cluster(cfg);
  auto d = putget::NotifyDomain::create(cluster, putget::RmaBackend::kExtoll);
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  putget::NotifyDomain& domain = **d;
  constexpr std::uint64_t kLen = 64 * 1024;
  constexpr std::uint64_t kOff = 4096;  // clear of the reserved bytes
  std::vector<mem::Addr> bases;
  for (int n = 0; n < 4; ++n) {
    bases.push_back(cluster.node(n).gpu_heap().alloc(kLen, 4096));
  }
  ASSERT_TRUE(domain.register_region(bases, kLen).is_ok());
  for (int dst = 1; dst < 4; ++dst) {
    ASSERT_TRUE(domain
                    .post_put(0, dst, bases[0] + kOff, bases[dst] + kOff, 4096,
                              putget::Completion::kPayloadPoll)
                    .is_ok());
  }
  ASSERT_TRUE(domain.quiet(0).is_ok());

  obs::MetricsRegistry metrics;
  obs::attach_metrics(&metrics);
  cluster.publish_link_metrics();
  obs::attach_metrics(nullptr);
  const std::vector<sys::Cluster::LinkReport> reports =
      cluster.link_reports(sys::Backend::kExtoll);
  ASSERT_EQ(reports.size(), 16u);  // 8 links, two directions each
  std::set<std::string> labels;
  int busy = 0;
  for (const sys::Cluster::LinkReport& r : reports) {
    EXPECT_TRUE(labels.insert(r.label).second) << "duplicate " << r.label;
    EXPECT_EQ(metrics.counter("net." + r.label + ".frames").value(), r.frames)
        << r.label;
    EXPECT_EQ(metrics.gauge("net." + r.label + ".utilization").value(),
              r.utilization)
        << r.label;
    if (r.frames == 0) continue;
    ++busy;
    EXPECT_GT(r.utilization, 0.0) << r.label;
  }
  EXPECT_GT(busy, 0);
}

// --- Duplicate-route registration (regression: used to be silently
// first-wins) ----------------------------------------------------------------

TEST(DuplicateRoutes, ExtollAddRouteRejectsSecondBinding) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  // The cluster's route pass already bound node 1; any re-registration
  // is a hard error, even for the same next hop.
  const sys::Cluster::Route r = cluster.extoll_route(0, 1);
  ASSERT_NE(r.link, nullptr);
  const Status s =
      cluster.node(0).extoll().terminal().add_route(1, r.link, r.side);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("duplicate route"), std::string::npos);
}

TEST(DuplicateRoutes, IbAddRouteRejectsSecondBinding) {
  sys::ClusterConfig cfg = sys::ib_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  const sys::Cluster::Route r = cluster.ib_route(0, 1);
  ASSERT_NE(r.link, nullptr);
  EXPECT_EQ(
      cluster.node(0).hca().terminal().add_route(1, r.link, r.side).code(),
      StatusCode::kInvalidArgument);
}

TEST(DuplicateRoutes, RoutedConnectQpRejectsReRouting) {
  sys::ClusterConfig cfg = sys::ib_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  putget::IbHostEndpoint::Options opts;
  auto ea = putget::IbHostEndpoint::create(cluster.node(0), opts);
  auto eb = putget::IbHostEndpoint::create(cluster.node(1), opts);
  ASSERT_TRUE(ea.is_ok());
  ASSERT_TRUE(eb.is_ok());
  const sys::Cluster::Route r = cluster.ib_route(0, 1);
  ASSERT_TRUE(cluster.node(0)
                  .hca()
                  .connect_qp(ea->qp().qpn, eb->qp().qpn, r.link, r.side, 1)
                  .is_ok());
  const Status again = cluster.node(0).hca().connect_qp(
      ea->qp().qpn, eb->qp().qpn, r.link, r.side, 1);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

TEST(DuplicateRoutes, SwitchNextHopRejectsConflictingPort) {
  sim::Simulation sim;
  net::NetConfig cfg;
  net::NetworkLink l1(sim, cfg);
  net::NetworkLink l2(sim, cfg);
  net::Switch sw("test.s0", 2);
  const int p0 = sw.add_port(&l1, 0);
  const int p1 = sw.add_port(&l2, 0);
  EXPECT_TRUE(sw.set_next_hop(0, p0).is_ok());
  EXPECT_TRUE(sw.set_next_hop(0, p0).is_ok());  // idempotent re-bind
  EXPECT_EQ(sw.set_next_hop(0, p1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sw.set_next_hop(1, 7).code(), StatusCode::kInvalidArgument);
}

// --- Frame conservation and teardown ----------------------------------------

constexpr mem::Access kRw = mem::Access::kReadWrite;

/// Node 0 puts `bytes` to and gets `bytes` from every other node: EXTOLL
/// WRs on one port each, IB RDMA writes and reads on one routed QP pair
/// each (the endpoints go to `eps`, which must outlive the run).
/// Leaves the transfers running.
void start_transfers(
    sys::Cluster& cluster, sys::Backend backend, std::uint32_t bytes,
    std::vector<std::unique_ptr<putget::IbHostEndpoint>>& eps) {
  sys::Node& n0 = cluster.node(0);
  const mem::Addr local = n0.host_heap().alloc(bytes);
  for (int d = 1; d < cluster.num_nodes(); ++d) {
    sys::Node& nd = cluster.node(d);
    const mem::Addr remote = nd.host_heap().alloc(bytes);
    if (backend == sys::Backend::kExtoll) {
      auto lnla = n0.extoll().register_memory(local, bytes, kRw);
      auto rnla = nd.extoll().register_memory(remote, bytes, kRw);
      ASSERT_TRUE(lnla.is_ok() && rnla.is_ok());
      for (extoll::RmaCmd cmd : {extoll::RmaCmd::kPut, extoll::RmaCmd::kGet}) {
        extoll::WorkRequest wr;
        wr.cmd = cmd;
        wr.port = static_cast<std::uint8_t>(2 * d + (cmd == extoll::RmaCmd::kGet));
        wr.size = bytes;
        wr.dst_node = d;
        wr.src_nla = cmd == extoll::RmaCmd::kPut ? *lnla : *rnla;
        wr.dst_nla = cmd == extoll::RmaCmd::kPut ? *rnla : *lnla;
        ASSERT_TRUE(n0.extoll().open_port(wr.port).is_ok());
        n0.extoll().post_work_request(wr);
      }
      continue;
    }
    for (ib::WqeOpcode op :
         {ib::WqeOpcode::kRdmaWrite, ib::WqeOpcode::kRdmaRead}) {
      putget::IbHostEndpoint::Options opts;
      auto ea = putget::IbHostEndpoint::create(n0, opts);
      auto eb = putget::IbHostEndpoint::create(nd, opts);
      ASSERT_TRUE(ea.is_ok() && eb.is_ok());
      const sys::Cluster::Route ra = cluster.ib_route(0, d);
      const sys::Cluster::Route rb = cluster.ib_route(d, 0);
      ASSERT_TRUE(
          n0.hca()
              .connect_qp(ea->qp().qpn, eb->qp().qpn, ra.link, ra.side, d)
              .is_ok());
      ASSERT_TRUE(
          nd.hca()
              .connect_qp(eb->qp().qpn, ea->qp().qpn, rb.link, rb.side, 0)
              .is_ok());
      auto lmr = ea->reg_mr(local, bytes, kRw);
      auto rmr = eb->reg_mr(remote, bytes, kRw);
      ASSERT_TRUE(lmr.is_ok() && rmr.is_ok());
      ib::SendWqe wqe;
      wqe.opcode = op;
      wqe.signaled = true;
      wqe.byte_len = bytes;
      wqe.laddr = local;
      wqe.lkey = lmr->lkey;
      wqe.raddr = remote;
      wqe.rkey = rmr->rkey;
      eps.push_back(std::make_unique<putget::IbHostEndpoint>(std::move(*ea)));
      eps.push_back(std::make_unique<putget::IbHostEndpoint>(std::move(*eb)));
      // The post finishes long before the transfer does.
      sim::spawn(eps[eps.size() - 2]->post_send(n0.cpu(), wqe));
    }
  }
}

// Every frame is originated once, forwarded once per relay and delivered
// once: after the fabric drains, the per-link frame and byte sums equal
// originated + forwarded, and delivered equals originated. The ring
// relays through NICs, the fat tree through switches.
TEST(FrameConservation, LinkSumsMatchOriginatedPlusForwarded) {
  for (sys::Backend backend : {sys::Backend::kExtoll, sys::Backend::kIb}) {
    for (net::Topology topo : {net::Topology::kRing, net::Topology::kFatTree}) {
      sys::ClusterConfig cfg = backend == sys::Backend::kExtoll
                                   ? sys::extoll_testbed()
                                   : sys::ib_testbed();
      cfg.num_nodes = 6;
      cfg.topology = topo;
      sys::Cluster cluster(cfg);
      std::vector<std::unique_ptr<putget::IbHostEndpoint>> eps;
      const std::string what = std::string(sys::backend_name(backend)) + " " +
                               net::topology_name(topo);
      start_transfers(cluster, backend, 96 * KiB, eps);
      cluster.run_for(microseconds(2000));
      std::uint64_t completed = 0;
      for (int n = 0; n < cluster.num_nodes(); ++n) {
        sys::Node& node = cluster.node(n);
        completed += backend == sys::Backend::kExtoll
                         ? node.extoll().puts_completed() +
                               node.extoll().gets_completed()
                         : node.hca().messages_delivered();
      }
      EXPECT_EQ(completed, 10u) << what;  // a put and a get per peer

      const net::FabricTotals t = cluster.fabric_totals(backend);
      std::uint64_t frames = 0;
      std::uint64_t bytes = 0;
      for (const sys::Cluster::LinkReport& r : cluster.link_reports(backend)) {
        frames += r.frames;
        bytes += r.bytes;
      }
      EXPECT_GT(t.frames_forwarded, 0u) << what;
      EXPECT_EQ(frames, t.frames_originated + t.frames_forwarded) << what;
      EXPECT_EQ(bytes, t.bytes_originated + t.bytes_forwarded) << what;
      EXPECT_EQ(t.frames_delivered, t.frames_originated) << what;
      EXPECT_EQ(t.bytes_delivered, t.bytes_originated) << what;
    }
  }
}

// Destroying a cluster in the middle of 1 MiB puts, gets, RDMA writes
// and RDMA reads must free every streaming job with it (the ASan build
// checks for leaks): the DMA engine owns its in-flight reads and segment
// streams, and no stream keeps itself alive.
TEST(Teardown, AbandonedTransfersAreFreedWithTheCluster) {
  for (sys::Backend backend : {sys::Backend::kExtoll, sys::Backend::kIb}) {
    sys::Cluster cluster(backend == sys::Backend::kExtoll ? sys::extoll_testbed()
                                                          : sys::ib_testbed());
    std::vector<std::unique_ptr<putget::IbHostEndpoint>> eps;
    start_transfers(cluster, backend, 1 * MiB, eps);
    cluster.run_for(microseconds(20));
    if (backend == sys::Backend::kExtoll) {
      EXPECT_EQ(cluster.node(1).extoll().puts_completed(), 0u);
      EXPECT_EQ(cluster.node(0).extoll().gets_completed(), 0u);
    } else {
      EXPECT_EQ(cluster.node(0).hca().messages_delivered() +
                    cluster.node(1).hca().messages_delivered(),
                0u);
    }
  }
}

// --- First-hop lookups on the cluster ---------------------------------------

TEST(FirstHop, PairTopologyReturnsNullAcrossPairs) {
  sys::ClusterConfig cfg = sys::default_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kPair;
  sys::Cluster cluster(cfg);
  EXPECT_NE(cluster.extoll_route(0, 1).link, nullptr);
  EXPECT_EQ(cluster.extoll_route(0, 2).link, nullptr);
  EXPECT_EQ(cluster.ib_route(1, 2).link, nullptr);
  EXPECT_EQ(cluster.extoll_route(2, 2).link, nullptr);
}

TEST(FirstHop, RingGivesEveryPairAnEgress) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 6;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  for (int from = 0; from < 6; ++from) {
    for (int to = 0; to < 6; ++to) {
      if (from == to) continue;
      EXPECT_NE(cluster.extoll_route(from, to).link, nullptr)
          << from << "->" << to;
    }
  }
  EXPECT_EQ(
      net::path_hops(cluster.fabric_plan(), cluster.routes(), 0, 3), 3);
}

}  // namespace
}  // namespace pg

// Tests for the notifiable-RMA layer (putget/notify) and the SHMEM
// symmetric-heap API built on it, plus unit coverage for the topology
// wiring validation, the nearest-rank sample quantile and the bench
// scaled-size formatter.
//
// The parity tests are the interesting ones: the same op sequence runs
// once per fabric, and the *observable* surface — notification
// counters, wait_any ordering, delivered payloads — must match even
// though EXTOLL delivers completer notifications and IB delivers recv
// CQEs for write-with-immediate.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topology.h"
#include "obs/flow.h"
#include "putget/notify.h"
#include "putget/stats.h"
#include "shmem/shmem.h"
#include "sys/testbed.h"

namespace pg {
namespace {

using obs::FlowTable;
using putget::Completion;
using putget::NotifyDomain;
using putget::NotifyOptions;
using putget::OpHandle;
using putget::RmaBackend;
using putget::WaitCmp;

constexpr RmaBackend kBackends[] = {RmaBackend::kExtoll, RmaBackend::kIb};

sys::ClusterConfig mesh_cfg(int num_nodes) {
  sys::ClusterConfig cfg = sys::default_testbed();
  cfg.num_nodes = num_nodes;
  cfg.topology =
      num_nodes == 2 ? net::Topology::kPair : net::Topology::kFullMesh;
  return cfg;
}

// ---------------------------------------------------------------------------
// net/topology.h validation.

TEST(TopologyValidation, RejectsFewerThanTwoNodes) {
  for (int n : {-1, 0, 1}) {
    const Status s = net::validate_links(n, {});
    EXPECT_FALSE(s.is_ok()) << n;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.to_string().find("at least 2 nodes"), std::string::npos);
  }
  EXPECT_FALSE(net::validate_links(1, {{0, 1}}).is_ok());
}

TEST(TopologyValidation, RejectsDuplicateLink) {
  const Status s = net::validate_links(4, {{0, 1}, {2, 3}, {0, 1}});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.to_string().find("duplicate link (0,1)"), std::string::npos);
}

TEST(TopologyValidation, AllowsReversedPair) {
  // The documented two-node ring: (0,1) and (1,0) are two distinct
  // physical links, not a duplicate.
  EXPECT_TRUE(net::validate_links(2, {{0, 1}, {1, 0}}).is_ok());
}

TEST(TopologyValidation, RejectsOutOfRangeEndpointAndSelfLoop) {
  const Status oob = net::validate_links(2, {{0, 2}});
  ASSERT_FALSE(oob.is_ok());
  EXPECT_NE(oob.to_string().find("outside"), std::string::npos);
  EXPECT_FALSE(net::validate_links(2, {{-1, 1}}).is_ok());

  const Status loop = net::validate_links(3, {{0, 1}, {1, 1}});
  ASSERT_FALSE(loop.is_ok());
  EXPECT_NE(loop.to_string().find("self-loop"), std::string::npos);
}

TEST(TopologyValidation, GeneratedPlansValidate) {
  for (net::Topology t :
       {net::Topology::kPair, net::Topology::kRing, net::Topology::kFullMesh}) {
    for (int n : {2, 3, 4, 8}) {
      EXPECT_TRUE(net::validate_plan(t, n).is_ok())
          << net::topology_name(t) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// putget/stats.h sample_quantile edge cases.

TEST(SampleQuantile, EmptySeriesYieldsZero) {
  EXPECT_EQ(putget::sample_quantile({}, 0.5), 0.0);
}

TEST(SampleQuantile, SingleSampleForAnyQ) {
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(putget::sample_quantile({42.5}, q), 42.5) << q;
  }
}

TEST(SampleQuantile, AllEqualSamples) {
  const std::vector<double> s(7, 3.0);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(putget::sample_quantile(s, q), 3.0) << q;
  }
}

TEST(SampleQuantile, NearestRankOnUnsortedInput) {
  const std::vector<double> s = {40, 10, 30, 20};
  EXPECT_EQ(putget::sample_quantile(s, 0.0), 10.0);
  EXPECT_EQ(putget::sample_quantile(s, 0.5), 20.0);   // ceil(2.0) -> rank 2
  EXPECT_EQ(putget::sample_quantile(s, 0.51), 30.0);  // ceil(2.04) -> rank 3
  EXPECT_EQ(putget::sample_quantile(s, 1.0), 40.0);
}

TEST(SampleQuantile, ClampsQOutsideUnitInterval) {
  const std::vector<double> s = {1, 2, 3};
  EXPECT_EQ(putget::sample_quantile(s, -0.5), 1.0);
  EXPECT_EQ(putget::sample_quantile(s, 1.5), 3.0);
}

// ---------------------------------------------------------------------------
// bench_util.h scaled formatting boundaries.

TEST(FormatScaled, ScalesOnlyWhileEvenlyDivisible) {
  EXPECT_EQ(bench::format_scaled(0), "0");
  EXPECT_EQ(bench::format_scaled(1), "1");
  EXPECT_EQ(bench::format_scaled(1023), "1023");
  EXPECT_EQ(bench::format_scaled(1024), "1K");
  EXPECT_EQ(bench::format_scaled(1025), "1025");
  EXPECT_EQ(bench::format_scaled(1536), "1536");  // 1.5K does not divide
  EXPECT_EQ(bench::format_scaled(2048), "2K");
  EXPECT_EQ(bench::format_scaled(1023 * 1024), "1023K");
  EXPECT_EQ(bench::format_scaled(1024 * 1024), "1M");
}

TEST(FormatScaled, SuffixesStopAtMega) {
  EXPECT_EQ(bench::format_scaled(1ull << 30), "1024M");
  EXPECT_EQ(bench::size_label(64), "64");
  EXPECT_EQ(bench::size_label(65536), "64K");
}

// ---------------------------------------------------------------------------
// WaitCmp comparator table.

TEST(WaitCmp, AllComparators) {
  EXPECT_TRUE(putget::wait_cmp_holds(3, WaitCmp::kEq, 3));
  EXPECT_FALSE(putget::wait_cmp_holds(3, WaitCmp::kEq, 4));
  EXPECT_TRUE(putget::wait_cmp_holds(3, WaitCmp::kNe, 4));
  EXPECT_TRUE(putget::wait_cmp_holds(4, WaitCmp::kGe, 4));
  EXPECT_FALSE(putget::wait_cmp_holds(3, WaitCmp::kGt, 3));
  EXPECT_TRUE(putget::wait_cmp_holds(4, WaitCmp::kGt, 3));
  EXPECT_TRUE(putget::wait_cmp_holds(3, WaitCmp::kLe, 3));
  EXPECT_TRUE(putget::wait_cmp_holds(2, WaitCmp::kLt, 3));
  EXPECT_FALSE(putget::wait_cmp_holds(3, WaitCmp::kLt, 3));
}

// ---------------------------------------------------------------------------
// NotifyDomain: one rig per (backend, cluster) with a registered region.

struct NotifyRig {
  static constexpr std::uint64_t kLen = 4096;

  std::unique_ptr<sys::Cluster> cluster;
  std::unique_ptr<NotifyDomain> domain;
  std::vector<mem::Addr> bases;

  static NotifyRig make(RmaBackend backend, int num_nodes = 2,
                        NotifyOptions opts = {}) {
    NotifyRig rig;
    rig.cluster = std::make_unique<sys::Cluster>(mesh_cfg(num_nodes));
    auto d = NotifyDomain::create(*rig.cluster, backend, opts);
    if (!d.is_ok()) {
      ADD_FAILURE() << "create: " << d.status().to_string();
      return rig;
    }
    rig.domain = std::move(*d);
    for (int n = 0; n < num_nodes; ++n) {
      rig.bases.push_back(rig.cluster->node(n).gpu_heap().alloc(kLen, 4096));
    }
    const Status s = rig.domain->register_region(rig.bases, kLen);
    if (!s.is_ok()) ADD_FAILURE() << "register: " << s.to_string();
    return rig;
  }

  mem::MemoryDomain& memory(int node) { return cluster->node(node).memory(); }
  mem::Addr at(int node, std::uint64_t off) const { return bases[node] + off; }
};

TEST(NotifyParity, NotificationCountersMatchAcrossFabrics) {
  std::array<std::uint64_t, 2> observed{};
  std::array<std::uint64_t, 2> source_side{};
  int bi = 0;
  for (RmaBackend backend : kBackends) {
    NotifyRig rig = NotifyRig::make(backend);
    ASSERT_NE(rig.domain, nullptr);
    // 5 notification puts and 2 payload-poll puts, node 0 -> node 1.
    for (int i = 0; i < 5; ++i) {
      rig.memory(0).write_u64(rig.at(0, 256 + i * 8), 0xA0 + i);
    }
    std::vector<OpHandle> ops;
    for (int i = 0; i < 5; ++i) {
      auto op = rig.domain->post_put(0, 1, rig.at(0, 256 + i * 8),
                                     rig.at(1, 512 + i * 8), 8,
                                     Completion::kNotification);
      ASSERT_TRUE(op.is_ok()) << op.status().to_string();
      ops.push_back(*op);
    }
    for (OpHandle op : ops) EXPECT_TRUE(rig.domain->wait_local(op));
    EXPECT_TRUE(rig.domain->wait_notified(1, 5));

    rig.memory(0).write_u64(rig.at(0, 640), 77);
    auto poll = rig.domain->post_put(0, 1, rig.at(0, 640), rig.at(1, 648), 8,
                                     Completion::kPayloadPoll);
    ASSERT_TRUE(poll.is_ok());
    EXPECT_TRUE(rig.domain->wait_until_u64(1, rig.at(1, 648), WaitCmp::kEq, 77));

    observed[bi] = rig.domain->notified(1);
    source_side[bi] = rig.domain->notified(0);
    // Payloads all arrived in order.
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(rig.memory(1).read_u64(rig.at(1, 512 + i * 8)),
                std::uint64_t(0xA0 + i))
          << sys::backend_name(backend);
    }
    ++bi;
  }
  // Same op sequence -> same observable arrival counts on both fabrics:
  // exactly the kNotification puts tick the counter, payload polls do not.
  EXPECT_EQ(observed[0], 5u);
  EXPECT_EQ(observed[0], observed[1]);
  EXPECT_EQ(source_side[0], 0u);
  EXPECT_EQ(source_side[0], source_side[1]);
}

TEST(NotifyParity, WaitAnyReturnsFirstPostedOnBothFabrics) {
  for (RmaBackend backend : kBackends) {
    // One put port: EXTOLL serializes all puts through a single
    // one-WR-in-flight pipeline; IB already orders per RC endpoint.
    NotifyOptions opts;
    opts.put_ports = 1;
    NotifyRig rig = NotifyRig::make(backend, 2, opts);
    ASSERT_NE(rig.domain, nullptr);
    std::vector<OpHandle> ops;
    for (int i = 0; i < 3; ++i) {
      rig.memory(0).write_u64(rig.at(0, 256 + i * 8), 100 + i);
      auto op = rig.domain->post_put(0, 1, rig.at(0, 256 + i * 8),
                                     rig.at(1, 512 + i * 8), 8,
                                     Completion::kNotification);
      ASSERT_TRUE(op.is_ok());
      ops.push_back(*op);
    }
    // FIFO pipeline: the earliest posted op is the first local completion.
    EXPECT_EQ(rig.domain->wait_any(ops), 0)
        << sys::backend_name(backend);
    // Draining the last op implies every earlier op completed too.
    EXPECT_TRUE(rig.domain->wait_local(ops[2]));
    EXPECT_TRUE(rig.domain->done_local(ops[0]));
    EXPECT_TRUE(rig.domain->done_local(ops[1]));
  }
}

// Local completion happens on an op's source node, and a wait is a
// condition on one node: a set whose ops come from two nodes is refused
// before anything runs, and its ops still complete one by one.
TEST(NotifyParity, WaitAnyRejectsOpsFromTwoSourceNodes) {
  for (RmaBackend backend : kBackends) {
    NotifyRig rig = NotifyRig::make(backend);
    ASSERT_NE(rig.domain, nullptr);
    auto a = rig.domain->post_put(0, 1, rig.at(0, 256), rig.at(1, 512), 8,
                                  Completion::kNotification);
    auto b = rig.domain->post_put(1, 0, rig.at(1, 256), rig.at(0, 512), 8,
                                  Completion::kNotification);
    ASSERT_TRUE(a.is_ok() && b.is_ok());
    const SimTime before = rig.cluster->now();
    EXPECT_EQ(rig.domain->wait_any({*a, *b}), -1)
        << sys::backend_name(backend);
    EXPECT_EQ(rig.cluster->now(), before);
    EXPECT_FALSE(rig.domain->done_local(*a));
    EXPECT_TRUE(rig.domain->wait_local(*a));
    EXPECT_TRUE(rig.domain->wait_local(*b));
    EXPECT_TRUE(rig.domain->quiet(0).is_ok());
    EXPECT_TRUE(rig.domain->quiet(1).is_ok());
  }
}

// A wait returns on the event that satisfies it: the retired pump is still
// parked, and on IB the post_recv replenishing the consumed receive is
// still in flight. Destroying the cluster frees both frames (under ASan,
// LeakSanitizer checks it).
TEST(Notify, TeardownFreesRetiredPumpsAndInFlightPosts) {
  for (RmaBackend backend : kBackends) {
    NotifyRig rig = NotifyRig::make(backend);
    ASSERT_NE(rig.domain, nullptr);
    ASSERT_TRUE(rig.domain
                    ->post_put(0, 1, rig.at(0, 256), rig.at(1, 512), 8,
                               Completion::kNotification)
                    .is_ok());
    EXPECT_TRUE(rig.domain->wait_notified(1, 1));
    EXPECT_FALSE(rig.cluster->node_sim(1).idle())
        << sys::backend_name(backend);
  }
}

TEST(Notify, GetRoundTripBothFabrics) {
  for (RmaBackend backend : kBackends) {
    NotifyRig rig = NotifyRig::make(backend);
    ASSERT_NE(rig.domain, nullptr);
    rig.memory(1).write_u64(rig.at(1, 1024), 0xDEAD);
    rig.memory(1).write_u64(rig.at(1, 1032), 0xBEEF);
    auto op = rig.domain->post_get(0, 1, rig.at(0, 2048), rig.at(1, 1024), 16);
    ASSERT_TRUE(op.is_ok()) << op.status().to_string();
    EXPECT_TRUE(rig.domain->wait_local(*op));
    EXPECT_EQ(rig.memory(0).read_u64(rig.at(0, 2048)), 0xDEADu)
        << sys::backend_name(backend);
    EXPECT_EQ(rig.memory(0).read_u64(rig.at(0, 2056)), 0xBEEFu);
  }
}

TEST(Notify, QuietMeansRemoteCompletion) {
  for (RmaBackend backend : kBackends) {
    NotifyRig rig = NotifyRig::make(backend);
    ASSERT_NE(rig.domain, nullptr);
    for (int i = 0; i < 4; ++i) {
      rig.memory(0).write_u64(rig.at(0, 256 + i * 8), 900 + i);
      ASSERT_TRUE(rig.domain
                      ->post_put(0, 1, rig.at(0, 256 + i * 8),
                                 rig.at(1, 512 + i * 8), 8,
                                 Completion::kPayloadPoll)
                      .is_ok());
    }
    ASSERT_TRUE(rig.domain->quiet(0).is_ok());
    // After quiet, arrival is a plain memory fact — no further pumping.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(rig.memory(1).read_u64(rig.at(1, 512 + i * 8)),
                std::uint64_t(900 + i))
          << sys::backend_name(backend) << " i=" << i;
    }
  }
}

TEST(Notify, ErrorPaths) {
  sys::Cluster cluster(mesh_cfg(2));
  auto d = NotifyDomain::create(cluster, RmaBackend::kExtoll);
  ASSERT_TRUE(d.is_ok());
  NotifyDomain& domain = **d;

  // Posting before register_region.
  auto early = domain.post_put(0, 1, 0, 0, 8, Completion::kNotification);
  ASSERT_FALSE(early.is_ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  // Wrong number of bases.
  EXPECT_EQ(domain.register_region({0x1000}, 4096).code(),
            StatusCode::kInvalidArgument);

  std::vector<mem::Addr> bases;
  for (int n = 0; n < 2; ++n) {
    bases.push_back(cluster.node(n).gpu_heap().alloc(4096, 4096));
  }
  ASSERT_TRUE(domain.register_region(bases, 4096).is_ok());
  // Double registration.
  EXPECT_EQ(domain.register_region(bases, 4096).code(),
            StatusCode::kFailedPrecondition);

  // Bad node ids / loopback / zero length / out-of-region address.
  EXPECT_EQ(domain.post_put(0, 2, bases[0] + 256, bases[1] + 256, 8,
                            Completion::kNotification)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(domain.post_put(1, 1, bases[1] + 256, bases[1] + 512, 8,
                            Completion::kNotification)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(domain.post_put(0, 1, bases[0] + 256, bases[1] + 256, 0,
                            Completion::kNotification)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(domain.post_put(0, 1, bases[0] + 4090, bases[1] + 256, 16,
                               Completion::kNotification)
                   .is_ok());

  // Fabric-specific accessors reject the other backend.
  EXPECT_EQ(domain.region_mr(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(domain.device_port_info(0).is_ok());
  EXPECT_TRUE(domain.nla(0, bases[0] + 8).is_ok());
}

TEST(Notify, CreateRejectsBadOptions) {
  sys::Cluster cluster(mesh_cfg(2));
  NotifyOptions opts;
  opts.put_ports = 0;
  EXPECT_FALSE(
      NotifyDomain::create(cluster, RmaBackend::kExtoll, opts).is_ok());
}

// ---------------------------------------------------------------------------
// obs/flow reconciliation: with a FlowTable attached, the per-stage
// latency histograms of the message lifecycle must sum to the e2e
// histogram exactly (chain-edge stages).

struct ScopedFlows {
  explicit ScopedFlows(FlowTable* ft) { obs::attach_flows(ft); }
  ~ScopedFlows() { obs::attach_flows(nullptr); }
};

TEST(Notify, FlowStageSumsReconcileWithEndToEnd) {
  for (RmaBackend backend : kBackends) {
    FlowTable ft;
    {
      ScopedFlows scoped(&ft);
      NotifyRig rig = NotifyRig::make(backend);
      ASSERT_NE(rig.domain, nullptr);
      for (int i = 0; i < 3; ++i) {
        rig.memory(0).write_u64(rig.at(0, 256 + i * 8), i + 1);
        auto op = rig.domain->post_put(0, 1, rig.at(0, 256 + i * 8),
                                       rig.at(1, 512 + i * 8), 8,
                                       Completion::kNotification);
        ASSERT_TRUE(op.is_ok());
        EXPECT_TRUE(rig.domain->wait_local(*op));
      }
      EXPECT_TRUE(rig.domain->wait_notified(1, 3));
    }
    ASSERT_FALSE(ft.breakdowns().empty())
        << sys::backend_name(backend);
    std::uint64_t completed = 0;
    for (const FlowTable::Breakdown& b : ft.breakdowns()) {
      completed += b.completed;
      std::uint64_t stage_total = 0;
      for (const auto& s : b.stages) stage_total += s.ns.sum();
      // Stage stamps quantize the picosecond sim clock to nanoseconds
      // once per stage, so the sum can drift from the e2e histogram by
      // a few ns per flow; reconcile within the same 2% the breakdown
      // bench uses.
      const double e2e = static_cast<double>(b.e2e_ns.sum());
      ASSERT_GT(e2e, 0.0);
      EXPECT_NEAR(static_cast<double>(stage_total) / e2e, 1.0, 0.02)
          << sys::backend_name(backend) << " unit " << b.label;
    }
    EXPECT_GT(completed, 0u) << sys::backend_name(backend);
  }
}

// ---------------------------------------------------------------------------
// Shmem symmetric-heap API.

std::unique_ptr<shmem::Shmem> make_shmem(sys::Cluster& cluster,
                                         RmaBackend backend,
                                         std::uint64_t heap_bytes = 1 << 16) {
  shmem::ShmemOptions so;
  so.backend = backend;
  so.heap_bytes = heap_bytes;
  auto s = shmem::Shmem::create(cluster, so);
  if (!s.is_ok()) {
    ADD_FAILURE() << "shmem create: " << s.status().to_string();
    return nullptr;
  }
  return std::move(*s);
}

TEST(Shmem, SymmetricMallocIsAlignedAndBounded) {
  sys::Cluster cluster(mesh_cfg(2));
  auto s = make_shmem(cluster, RmaBackend::kExtoll, 1024);
  ASSERT_NE(s, nullptr);
  auto a = s->shmem_malloc(24);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(*a, shmem::Shmem::kHeapStartOff);
  auto b = s->shmem_malloc(8, 64);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*b % 64, 0u);
  EXPECT_GE(*b, *a + 24);

  EXPECT_EQ(s->shmem_malloc(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s->shmem_malloc(8, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s->shmem_malloc(1 << 20).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(Shmem, PutGetRoundTripBothFabrics) {
  for (RmaBackend backend : kBackends) {
    sys::Cluster cluster(mesh_cfg(2));
    auto s = make_shmem(cluster, backend);
    ASSERT_NE(s, nullptr);
    const shmem::SymOff buf = *s->shmem_malloc(32);
    s->poke_u64(0, buf, 0x5151);
    ASSERT_TRUE(s->put(0, 1, buf + 8, buf, 8).is_ok());
    EXPECT_TRUE(s->wait_notified(1, 1));
    EXPECT_EQ(s->peek_u64(1, buf + 8), 0x5151u)
        << sys::backend_name(backend);

    s->poke_u64(1, buf + 16, 0x7272);
    ASSERT_TRUE(s->get(0, 1, buf + 24, buf + 16, 8).is_ok());
    EXPECT_EQ(s->peek_u64(0, buf + 24), 0x7272u);
  }
}

TEST(Shmem, AtomicFetchAddSequencesBothFabrics) {
  for (RmaBackend backend : kBackends) {
    sys::Cluster cluster(mesh_cfg(3));
    auto s = make_shmem(cluster, backend);
    ASSERT_NE(s, nullptr);
    const shmem::SymOff ctr = *s->shmem_malloc(8);
    s->poke_u64(2, ctr, 0);
    std::uint64_t expect_old = 0;
    const std::uint64_t deltas[] = {5, 7, 1, 12};
    int from = 0;
    for (std::uint64_t d : deltas) {
      auto old = s->atomic_fetch_add(from, 2, ctr, d);
      ASSERT_TRUE(old.is_ok()) << old.status().to_string();
      EXPECT_EQ(*old, expect_old) << sys::backend_name(backend);
      expect_old += d;
      from = 1 - from;  // alternate the driving PE
    }
    EXPECT_EQ(s->peek_u64(2, ctr), 25u);
  }
}

TEST(Shmem, WaitUntilSeesPayloadPollPut) {
  for (RmaBackend backend : kBackends) {
    sys::Cluster cluster(mesh_cfg(2));
    auto s = make_shmem(cluster, backend);
    ASSERT_NE(s, nullptr);
    const shmem::SymOff flag = *s->shmem_malloc(8);
    s->poke_u64(0, flag, 1ull << 33);
    auto op = s->put_nbi(0, 1, flag, flag, 8, Completion::kPayloadPoll);
    ASSERT_TRUE(op.is_ok());
    EXPECT_TRUE(s->wait_until(1, flag, WaitCmp::kGe, 1ull << 33));
    // Payload polling never ticks the arrival counter.
    EXPECT_EQ(s->notified(1), 0u);
  }
}

TEST(Shmem, BarrierAllIsRepeatable) {
  for (RmaBackend backend : kBackends) {
    sys::Cluster cluster(mesh_cfg(4));
    auto s = make_shmem(cluster, backend);
    ASSERT_NE(s, nullptr);
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(s->barrier_all().is_ok())
          << sys::backend_name(backend) << " round " << round;
    }
    // The barrier is built from payload-poll puts only.
    for (int pe = 0; pe < 4; ++pe) EXPECT_EQ(s->notified(pe), 0u);
  }
}

TEST(Shmem, DevicePlanRejectsBadUpdates) {
  sys::Cluster cluster(mesh_cfg(2));
  auto s = make_shmem(cluster, RmaBackend::kExtoll);
  ASSERT_NE(s, nullptr);
  const shmem::SymOff buf = *s->shmem_malloc(64);
  EXPECT_EQ(s->build_device_put_plan(0, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s->build_device_put_plan(5, {{1, buf, buf}}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(s->build_device_put_plan(0, {{0, buf, buf}}).is_ok());
  EXPECT_FALSE(s->build_device_put_plan(0, {{1, 1u << 30, buf}}).is_ok());
}

}  // namespace
}  // namespace pg

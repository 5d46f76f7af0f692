// Tests for the conservative parallel discrete-event engine: shard
// boundary edge cases (zero-latency rejection, same-timestamp cross-
// shard ordering, shard-local cancels), exact-stop semantics of the
// local-condition wait, thread-count-independence fingerprints on the
// real multi-node workloads, and byte-identity of every observability
// sink's serialized output across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "shmem/workloads.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

// --- ShardGroup unit tests over bare Simulations ---------------------------

struct TwoShards {
  sim::Simulation a, b;
  sim::ShardGroup group;

  explicit TwoShards(int workers, SimDuration lookahead = nanoseconds(100))
      : group(
            [this] {
              a.set_shard_tag(0);
              b.set_shard_tag(1);
              return std::vector<sim::Simulation*>{&a, &b};
            }(),
            sim::ShardGroup::Options{workers, lookahead, 16}) {}
};

TEST(ShardGroup, DrainsBothShardsAndFencesClocks) {
  TwoShards t(2);
  int ran = 0;
  t.a.schedule(nanoseconds(10), [&] { ++ran; });
  t.b.schedule(nanoseconds(250), [&] { ++ran; });
  t.group.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(t.group.now(), nanoseconds(250));
  EXPECT_EQ(t.a.now(), nanoseconds(250));  // fenced to the group clock
  EXPECT_EQ(t.b.now(), nanoseconds(250));
}

TEST(ShardGroup, CrossShardPostDeliversUnderLookahead) {
  TwoShards t(2);
  SimTime delivered_at = -1;
  // An event on shard a sends to shard b with exactly lookahead flight
  // time — the legal minimum.
  t.a.schedule(nanoseconds(50), [&] {
    const sim::Simulation::Birth birth = t.a.take_birth();
    t.group.post(0, 1, t.a.now() + nanoseconds(100), birth.time, birth.tag,
                 [&] { delivered_at = t.b.now(); });
  });
  t.group.run();
  EXPECT_EQ(delivered_at, nanoseconds(150));
  EXPECT_EQ(t.group.events_executed(), 2u);
  // The send consumed a scheduling slot on the sender, like the single
  // heap would have.
  EXPECT_EQ(t.group.total_scheduled(), 2u);
}

TEST(ShardGroup, SameTimestampCrossShardOrderIsBirthOrder) {
  // Receiver-local events and cross-shard admissions landing at the
  // same timestamp must execute in the order one global scheduling
  // counter would give: birth time first, then per-shard counter.
  for (int workers : {1, 2}) {
    TwoShards t(workers);
    std::vector<std::string> order;
    const SimTime target = nanoseconds(500);
    // Born at t=0 on shard b (before the run): earliest birth.
    t.b.schedule_at(target, [&] { order.push_back("b-early"); });
    // Born at t=100 on shard a, crossing shards.
    t.a.schedule(nanoseconds(100), [&] {
      const sim::Simulation::Birth birth = t.a.take_birth();
      t.group.post(0, 1, target, birth.time, birth.tag,
                   [&] { order.push_back("a-cross"); });
    });
    // Born at t=200 on shard b itself: latest birth.
    t.b.schedule(nanoseconds(200), [&] {
      t.b.schedule_at(target, [&] { order.push_back("b-late"); });
    });
    t.group.run();
    ASSERT_EQ(order.size(), 3u) << "workers=" << workers;
    EXPECT_EQ(order[0], "b-early") << "workers=" << workers;
    EXPECT_EQ(order[1], "a-cross") << "workers=" << workers;
    EXPECT_EQ(order[2], "b-late") << "workers=" << workers;
  }
}

TEST(ShardGroup, RunUntilLocalStopsEveryShardAtLastFire) {
  for (int workers : {1, 2}) {
    TwoShards t(workers);
    bool fire_a = false, fire_b = false;
    SimTime a_seen_past_fire = -1;
    t.a.schedule(nanoseconds(300), [&] { fire_a = true; });
    // Shard a also has later events that must NOT run before the wait
    // returns (the sequential engine would stop at the last fire).
    t.a.schedule(nanoseconds(2000), [&] { a_seen_past_fire = t.a.now(); });
    t.b.schedule(nanoseconds(700), [&] { fire_b = true; });
    const bool ok = t.group.run_until_local(
        {{0, [&] { return fire_a; }}, {1, [&] { return fire_b; }}});
    EXPECT_TRUE(ok) << "workers=" << workers;
    EXPECT_TRUE(fire_a && fire_b);
    EXPECT_EQ(a_seen_past_fire, -1) << "workers=" << workers;
    // Clocks fence at t* = the later fire.
    EXPECT_EQ(t.group.now(), nanoseconds(700));
    EXPECT_EQ(t.a.now(), nanoseconds(700));
    EXPECT_EQ(t.b.now(), nanoseconds(700));
    t.group.run();  // the deferred event still runs afterwards
    EXPECT_EQ(a_seen_past_fire, nanoseconds(2000));
  }
}

TEST(ShardGroup, RunUntilLocalAlreadyTrueReturnsWithoutExecuting) {
  TwoShards t(2);
  int ran = 0;
  t.a.schedule(nanoseconds(10), [&] { ++ran; });
  const bool ok = t.group.run_until_local({{0, [] { return true; }}});
  EXPECT_TRUE(ok);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(t.group.now(), 0);
}

TEST(ShardGroup, RunUntilLocalDrainedReturnsFalse) {
  TwoShards t(2);
  bool never = false;
  t.a.schedule(nanoseconds(10), [] {});
  EXPECT_FALSE(t.group.run_until_local({{1, [&] { return never; }}}));
}

TEST(ShardGroup, RunUntilGlobalMatchesMergedOrder) {
  TwoShards t(2);
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    t.a.schedule(nanoseconds(100 * i), [&] { ++count; });
    t.b.schedule(nanoseconds(100 * i + 50), [&] { ++count; });
  }
  const bool ok = t.group.run_until_global([&] { return count == 4; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(count, 4);
  // Events interleave a,b,a,b by timestamp: the 4th is b's at 250.
  EXPECT_EQ(t.group.now(), nanoseconds(250));
  EXPECT_EQ(t.a.now(), nanoseconds(250));  // fenced
}

TEST(ShardGroup, RunUntilTimeExecutesInclusiveDeadline) {
  TwoShards t(2);
  int count = 0;
  t.a.schedule(nanoseconds(100), [&] { ++count; });
  t.b.schedule(nanoseconds(200), [&] { ++count; });
  t.b.schedule(nanoseconds(201), [&] { ++count; });
  t.group.run_until_time(nanoseconds(200));
  EXPECT_EQ(count, 2);  // the event exactly at the deadline ran
  EXPECT_EQ(t.group.now(), nanoseconds(200));
  t.group.run();
  EXPECT_EQ(count, 3);
}

TEST(ShardGroup, ShardLocalCancelKeepsTombstonesLocal) {
  TwoShards t(2);
  // One counter per shard: the two workers run their shards' events
  // concurrently.
  int ran_a = 0;
  int ran_b = 0;
  const sim::EventId doomed =
      t.a.schedule(nanoseconds(100), [&] { ran_a += 10; });
  t.a.schedule(nanoseconds(200), [&] { ran_a += 1; });
  t.b.schedule(nanoseconds(150), [&] { ran_b += 100; });
  EXPECT_TRUE(t.a.cancel(doomed));
  EXPECT_FALSE(t.a.cancel(doomed)) << "double cancel must be a no-op";
  // A shard never knows another shard's locally minted ids.
  EXPECT_FALSE(t.b.cancel(doomed));
  t.group.run();
  EXPECT_EQ(ran_a, 1);
  EXPECT_EQ(ran_b, 100);
}

// --- Cluster-level edge cases ----------------------------------------------

TEST(ShardedCluster, ZeroLatencyLinkRejected) {
  sys::ClusterConfig cfg = sys::default_testbed();
  cfg.num_nodes = 3;
  cfg.topology = net::Topology::kRing;
  cfg.threads = 4;
  cfg.extoll_net.latency = 0;
  const Status s = sys::Cluster::validate(cfg);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("lookahead"), std::string::npos);
  // The same config is fine sequentially (threads=1) — zero-latency
  // links are only illegal as shard boundaries.
  cfg.threads = 1;
  EXPECT_TRUE(sys::Cluster::validate(cfg).is_ok());
}

TEST(ShardedCluster, ThreadCountValidation) {
  sys::ClusterConfig cfg = sys::default_testbed();
  cfg.threads = 0;
  EXPECT_FALSE(sys::Cluster::validate(cfg).is_ok());
  cfg.threads = 8;
  EXPECT_TRUE(sys::Cluster::validate(cfg).is_ok());
}

// --- Fingerprint equality on the real workload -----------------------------

using putget::RmaBackend;
using shmem::Halo2dConfig;
using shmem::Halo2dResult;

/// The halo workload on an n x 1 PE grid (a ring of PEs) wired as `topo`.
Halo2dConfig ring_halo(RmaBackend backend, net::Topology topo, int nodes,
                       int threads) {
  Halo2dConfig cfg;
  cfg.backend = backend;
  cfg.topology = topo;
  cfg.px = nodes;
  cfg.py = 1;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.iterations = 4;
  cfg.threads = threads;
  return cfg;
}

void expect_same_run(const Halo2dResult& a, const Halo2dResult& b,
                     const std::string& name) {
  EXPECT_EQ(a.checksum, b.checksum) << name;
  EXPECT_EQ(a.events_executed, b.events_executed) << name;
  EXPECT_EQ(a.sim_time_us, b.sim_time_us) << name;
  EXPECT_EQ(a.notified_total, b.notified_total) << name;
}

// The hard gate of the parallel engine: for any thread count, the ring
// workload's event fingerprint, clock, checksum and notification
// counters are identical to the one-worker run's.
TEST(ShardedCluster, RingFingerprintIndependentOfThreads) {
  for (const RmaBackend backend : {RmaBackend::kExtoll, RmaBackend::kIb}) {
    const Halo2dResult seq =
        shmem::run_halo2d(ring_halo(backend, net::Topology::kRing, 3, 1));
    ASSERT_TRUE(seq.verified) << seq.error;
    EXPECT_EQ(seq.notified_total, seq.halo_puts);
    for (int threads : {2, 4}) {
      const Halo2dResult par = shmem::run_halo2d(
          ring_halo(backend, net::Topology::kRing, 3, threads));
      const std::string name = std::string(sys::backend_name(backend)) +
                               " t=" + std::to_string(threads);
      ASSERT_TRUE(par.verified) << name;
      expect_same_run(par, seq, name);
    }
  }
}

// The same gate over the routed fabric: multi-hop relaying through
// intermediate NICs (torus) and switch vertices pinned to their
// deterministic shards (fat tree) must stay byte-identical for any
// thread count — relay hops ride ordinary link events, so the per-hop
// flight latency remains a valid conservative lookahead.
TEST(ShardedCluster, MultiHopFingerprintIndependentOfThreads) {
  for (const net::Topology topo :
       {net::Topology::kTorus2D, net::Topology::kFatTree}) {
    for (const RmaBackend backend : {RmaBackend::kExtoll, RmaBackend::kIb}) {
      const Halo2dResult seq =
          shmem::run_halo2d(ring_halo(backend, topo, 8, 1));
      ASSERT_TRUE(seq.verified)
          << net::topology_name(topo) << " " << sys::backend_name(backend);
      for (int threads : {2, 4}) {
        const Halo2dResult par =
            shmem::run_halo2d(ring_halo(backend, topo, 8, threads));
        const std::string name = std::string(net::topology_name(topo)) +
                                 " " + sys::backend_name(backend) +
                                 " t=" + std::to_string(threads);
        ASSERT_TRUE(par.verified) << name;
        expect_same_run(par, seq, name);
      }
    }
  }
}

// --- Shard-aware observability: parity across thread counts ----------------

struct SinkSnapshot {
  Halo2dResult result;
  std::string trace;
  std::string metrics;
  std::string flows;
  std::string timeseries;
};

Halo2dConfig obs_halo(net::Topology topo, RmaBackend backend, int threads) {
  Halo2dConfig cfg = ring_halo(
      backend, topo, topo == net::Topology::kRing ? 3 : 8, threads);
  cfg.iterations = 2;
  cfg.sample_every = microseconds(50);
  return cfg;
}

/// Runs the halo exchange with every sink attached and snapshots all
/// four serialized outputs.
SinkSnapshot run_traced(net::Topology topo, RmaBackend backend, int threads) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry met;
  obs::FlowTable flow;
  obs::TimeSeries ts;
  obs::attach_recorder(&rec);
  obs::attach_metrics(&met);
  obs::attach_flows(&flow);
  obs::attach_timeseries(&ts);
  SinkSnapshot s;
  s.result = shmem::run_halo2d(obs_halo(topo, backend, threads));
  obs::attach_recorder(nullptr);
  obs::attach_metrics(nullptr);
  obs::attach_flows(nullptr);
  obs::attach_timeseries(nullptr);
  s.trace = rec.to_json();
  s.metrics = met.snapshot_json();
  s.flows = flow.snapshot_json();
  s.timeseries = ts.snapshot_json();
  return s;
}

// Attaching the sinks (and the telemetry sampling fences that come with
// them) must not change what the simulation computes: same checksum,
// same event fingerprint, same clock, at every thread count.
TEST(ShardedObs, TracedRunMatchesUntracedFingerprint) {
  for (const net::Topology topo :
       {net::Topology::kRing, net::Topology::kTorus2D, net::Topology::kFatTree}) {
    for (const RmaBackend backend : {RmaBackend::kExtoll, RmaBackend::kIb}) {
      for (int threads : {1, 4}) {
        const Halo2dResult bare =
            shmem::run_halo2d(obs_halo(topo, backend, threads));
        const SinkSnapshot traced = run_traced(topo, backend, threads);
        const std::string name = std::string(net::topology_name(topo)) + " " +
                                 sys::backend_name(backend) + " t=" +
                                 std::to_string(threads);
        ASSERT_TRUE(bare.verified) << name;
        ASSERT_TRUE(traced.result.verified) << name;
        expect_same_run(traced.result, bare, name);
      }
    }
  }
}

// The tentpole gate: every serialized sink output — trace, metrics,
// flows, time series — is byte-identical between the one-worker and
// four-worker runs, for both backends on every routed topology.
TEST(ShardedObs, SinkOutputByteIdenticalAcrossThreads) {
  for (const net::Topology topo :
       {net::Topology::kRing, net::Topology::kTorus2D, net::Topology::kFatTree}) {
    for (const RmaBackend backend : {RmaBackend::kExtoll, RmaBackend::kIb}) {
      const SinkSnapshot t1 = run_traced(topo, backend, 1);
      const SinkSnapshot t4 = run_traced(topo, backend, 4);
      const std::string name = std::string(net::topology_name(topo)) + " " +
                               sys::backend_name(backend);
      ASSERT_TRUE(t1.result.verified) << name;
      ASSERT_TRUE(t4.result.verified) << name;
      EXPECT_FALSE(t1.trace.empty()) << name;
      EXPECT_FALSE(t1.timeseries.empty()) << name;
      EXPECT_EQ(t1.trace, t4.trace) << name;
      EXPECT_EQ(t1.metrics, t4.metrics) << name;
      EXPECT_EQ(t1.flows, t4.flows) << name;
      EXPECT_EQ(t1.timeseries, t4.timeseries) << name;
    }
  }
}

}  // namespace
}  // namespace pg

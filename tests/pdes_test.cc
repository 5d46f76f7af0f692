// Tests for the conservative parallel discrete-event engine: shard
// boundary edge cases (zero-latency rejection, same-timestamp cross-
// shard ordering), exact-stop semantics of the local-condition wait,
// thread-count-independence fingerprints on the real multi-node
// workloads, and byte-identity of every observability sink's serialized
// output across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "shmem/workloads.h"
#include "sim/coro.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

// --- ShardGroup unit tests over bare Simulations ---------------------------

using Outcome = sim::ShardGroup::Outcome;

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

// A shard running alone must still stop where a reply to its own post
// could land: b is drained when the round starts, but a's post at 50 ns
// wakes it and b answers at 250 ns, before a's local event at 1 us.
TEST(ShardGroup, LoneShardStopsBeforeRepliesToItsOwnPosts) {
  for (int driver : {0, 1}) {
    TwoShards t(2);
    std::vector<SimTime> on_a;
    const auto post = [&t](sim::Simulation& from, int src, int dst,
                           std::function<void()> fn) {
      const sim::Simulation::Birth birth = from.take_birth();
      t.group.post(src, dst, from.now() + nanoseconds(100), birth.time,
                   birth.tag, std::move(fn));
    };
    t.a.schedule(nanoseconds(50), [&] {
      post(t.a, 0, 1, [&] {
        post(t.b, 1, 0, [&] { on_a.push_back(t.a.now()); });
      });
    });
    t.a.schedule(nanoseconds(1000), [&] { on_a.push_back(t.a.now()); });
    if (driver == 0) {
      t.group.run();
    } else {
      t.group.run({}, nanoseconds(2000));
    }
    EXPECT_EQ(on_a, (std::vector<SimTime>{nanoseconds(250),
                                           nanoseconds(1000)}))
        << "driver " << driver;
  }
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
    const bool ok = t.group.run({{0, [&] { return fire_a; }},
                                 {1, [&] { return fire_b; }}}) ==
                    Outcome::kFired;
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
  const bool ok =
      t.group.run({{0, [] { return true; }}}) == Outcome::kFired;
  EXPECT_TRUE(ok);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(t.group.now(), 0);
}

TEST(ShardGroup, RunUntilLocalDrainedReturnsFalse) {
  TwoShards t(2);
  bool never = false;
  t.a.schedule(nanoseconds(10), [] {});
  EXPECT_EQ(t.group.run({{1, [&] { return never; }}}), Outcome::kStopped);
}

TEST(ShardGroup, RunUntilLocalMatchesMergedOrder) {
  TwoShards t(2);
  int count_a = 0, count_b = 0;
  for (int i = 1; i <= 5; ++i) {
    t.a.schedule(nanoseconds(100 * i), [&] { ++count_a; });
    t.b.schedule(nanoseconds(100 * i + 50), [&] { ++count_b; });
  }
  // Only b waits. Events interleave a,b,a,b by timestamp: b's second
  // fires at 250, so a must have run exactly its first two.
  EXPECT_EQ(t.group.run({{1, [&] { return count_b == 2; }}}), Outcome::kFired);
  EXPECT_EQ(count_a, 2);
  EXPECT_EQ(count_b, 2);
  EXPECT_EQ(t.group.now(), nanoseconds(250));
  EXPECT_EQ(t.a.now(), nanoseconds(250));  // fenced
}

// The wait stops where one serial run stops: in key order, not just in
// time. a does not wait; its event at 300 ns born at 0 precedes b's
// firing event at 300 ns (born at 100 ns) and must have run when the
// wait returns, while its event at 300 ns born at 200 ns follows it and
// must not have.
TEST(ShardGroup, RunUntilLocalRunsSameTimeEventsBeforeTheFiringOne) {
  for (int workers : {1, 2}) {
    TwoShards t(workers);
    bool early = false, late = false, fired = false;
    t.a.schedule_at(nanoseconds(300), [&] { early = true; });
    t.a.schedule(nanoseconds(200), [&] {
      t.a.schedule_at(nanoseconds(300), [&] { late = true; });
    });
    t.b.schedule(nanoseconds(100), [&] {
      t.b.schedule_at(nanoseconds(300), [&] { fired = true; });
    });
    EXPECT_EQ(t.group.run({{1, [&] { return fired; }}}), Outcome::kFired);
    EXPECT_TRUE(early) << "workers=" << workers;
    EXPECT_FALSE(late) << "workers=" << workers;
    EXPECT_EQ(t.group.now(), nanoseconds(300));
    t.group.run();
    EXPECT_TRUE(late) << "workers=" << workers;
  }
}

// A shard that is not waiting posts the event that fires another
// shard's wait. It must stop at that event's time, not one lookahead
// later: b is drained, so neither a horizon nor b's send bound holds a
// back, and a's own event at 180 ns lies between the arrival (150 ns)
// and arrival + lookahead.
TEST(ShardGroup, RunUntilLocalStopsNonWaiterAtPostThatFiresTheWait) {
  for (int workers : {1, 2}) {
    TwoShards t(workers);
    bool arrived = false;
    SimTime a_late = -1;
    t.a.schedule(nanoseconds(50), [&] {
      const sim::Simulation::Birth birth = t.a.take_birth();
      t.group.post(0, 1, t.a.now() + nanoseconds(100), birth.time, birth.tag,
                   [&] { arrived = true; });
    });
    t.a.schedule(nanoseconds(180), [&] { a_late = t.a.now(); });
    EXPECT_EQ(t.group.run({{1, [&] { return arrived; }}}), Outcome::kFired);
    EXPECT_EQ(t.group.now(), nanoseconds(150)) << "workers=" << workers;
    EXPECT_EQ(a_late, -1) << "workers=" << workers;
    t.group.run();
    EXPECT_EQ(a_late, nanoseconds(180)) << "workers=" << workers;
  }
}

sim::CoTask wait_flag(sim::Simulation& sim, const bool& flag,
                      std::function<void()> then) {
  co_await sim::PollUntil{sim, [&flag] { return flag; }, nanoseconds(10)};
  then();
}

// A horizon counts send bounds: a shard whose only pending work is a
// parked poller with a false predicate cannot send anything before its
// next real event, so it must not cut its neighbour's windows at every
// probe. A 2000-event chain (10 ns apart, lookahead 100 ns) next to such
// a poller runs in a constant number of rounds; counting every probe
// cut it into 400.
TEST(ShardGroup, FalseParkedPollerDoesNotCutOtherShardsWindows) {
  for (int workers : {1, 2}) {
    TwoShards t(workers);
    bool flag = false;
    bool resumed = false;
    t.b.spawn(wait_flag(t.b, flag, [&] { resumed = true; }));
    constexpr int kChain = 2000;
    int links = 0;
    std::function<void()> link = [&] {
      if (++links < kChain) t.a.schedule(nanoseconds(10), link);
    };
    t.a.schedule(nanoseconds(10), link);
    const std::uint64_t before = t.group.rounds();
    EXPECT_EQ(t.group.run({{0, [&] { return links == kChain; }}}),
              Outcome::kFired);
    EXPECT_LE(t.group.rounds() - before, 3u) << "workers=" << workers;
    EXPECT_EQ(t.group.now(), nanoseconds(10) * kChain);
    // The poller was credited its probes up to the fence.
    EXPECT_EQ(t.b.now(), nanoseconds(10) * kChain);
    flag = true;
    t.group.run();
    EXPECT_TRUE(resumed);
  }
}

// Host code between two waits makes a parked predicate true. The send
// bound is re-read at the next wait, so the probe that now succeeds caps
// the other shard's window: b, busy with a 10 ns chain, must not run past
// the event the probe posts to it. Each shard logs its events in
// execution order, which must not depend on the worker count.
using ShardLogs = std::array<std::vector<std::string>, 2>;

ShardLogs run_flipped_poller(int workers) {
  TwoShards t(workers);
  ShardLogs log;
  auto note = [&log](int shard, const char* what, SimTime at) {
    log[static_cast<std::size_t>(shard)].push_back(std::string(what) + "@" +
                                                   std::to_string(at));
  };
  bool flag = false;
  bool arrived = false;
  t.a.spawn(wait_flag(t.a, flag, [&] {
    note(0, "probe", t.a.now());
    const sim::Simulation::Birth birth = t.a.take_birth();
    t.group.post(0, 1, t.a.now() + nanoseconds(100), birth.time, birth.tag,
                 [&] {
                   note(1, "post", t.b.now());
                   arrived = true;
                 });
  }));
  int ticks = 0;
  std::function<void()> tick = [&] {
    note(1, "tick", t.b.now());
    if (++ticks < 100) t.b.schedule(nanoseconds(10), tick);
  };
  t.b.schedule(nanoseconds(5), tick);
  EXPECT_EQ(t.group.run({{1, [&] { return ticks == 10; }}}), Outcome::kFired);
  EXPECT_EQ(t.group.now(), nanoseconds(95));
  flag = true;  // host code: the parked probe at 100 ns now succeeds
  EXPECT_EQ(t.group.run({{1, [&] { return arrived; }}}), Outcome::kFired);
  EXPECT_EQ(t.group.now(), nanoseconds(200));
  t.group.run();
  return log;
}

TEST(ShardGroup, HostFlippedPredicateCapsTheOtherShard) {
  const ShardLogs ref = run_flipped_poller(1);
  EXPECT_EQ(ref[0], std::vector<std::string>{"probe@100000"});
  // The probe at 100 ns posts for 200 ns; b's ticks at 195 and 205 ns
  // bracket the arrival.
  const std::vector<std::string>& b = ref[1];
  const auto at = [&b](const std::string& e) {
    return std::find(b.begin(), b.end(), e) - b.begin();
  };
  ASSERT_LT(at("post@200000"), static_cast<long>(b.size()));
  EXPECT_EQ(at("tick@195000") + 1, at("post@200000"));
  EXPECT_EQ(at("tick@205000"), at("post@200000") + 1);
  EXPECT_EQ(run_flipped_poller(2), ref);
}

TEST(ShardGroup, RunUntilTimeExecutesInclusiveDeadline) {
  TwoShards t(2);
  int count = 0;
  t.a.schedule(nanoseconds(100), [&] { ++count; });
  t.b.schedule(nanoseconds(200), [&] { ++count; });
  t.b.schedule(nanoseconds(201), [&] { ++count; });
  t.group.run({}, nanoseconds(200));
  EXPECT_EQ(count, 2);  // the event exactly at the deadline ran
  EXPECT_EQ(t.group.now(), nanoseconds(200));
  t.group.run();
  EXPECT_EQ(count, 3);
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
  // Every cluster is sharded, so one worker needs the lookahead too.
  cfg.threads = 1;
  EXPECT_FALSE(sys::Cluster::validate(cfg).is_ok());
  cfg.topology = net::Topology::kPair;
  cfg.num_nodes = 2;
  EXPECT_FALSE(sys::Cluster::validate(cfg).is_ok());
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

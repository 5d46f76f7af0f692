// The simulated testbed: N Nodes joined by EXTOLL and/or InfiniBand
// fabrics. The default configuration (two nodes, pair topology) mirrors
// the paper's experimental setup — two nodes with EXTOLL Galibier
// cards, two nodes with IB 4X FDR HCAs; larger counts and the routed
// topologies (ring, full mesh, 2-D torus, fat tree) back the
// multi-node workloads layered on top.
//
// The cluster owns the ONE route-computation pass: it builds the
// fabric plan (net/fabric.h), computes next-hop tables per vertex, and
// pushes next-hop bindings into each NIC's net::Terminal (add_route /
// set_node_id) and the fat tree's switch objects. Terminals relay frames
// for other terminals through their next-hop tables, so non-adjacent
// nodes communicate over multi-hop paths with per-hop serialization +
// flight latency and genuine shared-link contention; on direct-attached
// topologies every route is single-hop and behaviour is identical to
// the pre-fabric link wiring.
//
// Every cluster runs on the parallel discrete-event engine
// (sim/parallel.h): each node owns its own event shard and the network
// links are the shard boundaries, with the smaller of the two backends'
// flight latencies as the conservative lookahead. cfg.threads only sets
// the worker count; execution is deterministic and byte-identical for
// any thread count. Host code drives the cluster through one facade
// (now / run_until / run_for); every wait is a set of per-node
// conditions, each reading state its node owns.
//
// Observability runs on the same engine: the cluster wires an
// obs::ShardSinkHub into the group's sink hooks, so traced / metered /
// flow-tracked runs buffer per-shard and merge deterministically at
// fences — trace, metrics, flow and time-series JSON are byte-identical
// at any thread count. With cfg.sample_every > 0 and an attached
// obs::TimeSeries, the facade additionally segments runs at fixed
// sim-time boundaries and records one telemetry row per boundary
// (per-link utilization / queue depth, per-backend message rate,
// flow-stage quantiles).
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"
#include "net/link.h"
#include "net/topology.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "sys/node.h"

namespace pg::obs {
class ShardSinkHub;
}

namespace pg::sys {

struct ClusterConfig {
  NodeConfig node;
  net::NetConfig extoll_net;
  net::NetConfig ib_net;
  int num_nodes = 2;
  net::Topology topology = net::Topology::kPair;
  /// Worker threads for the event engine: min(threads, num_nodes)
  /// workers execute the one event shard per node (threads = 1 steps
  /// the shards with a single worker). Results and observability output
  /// are identical at every thread count. Every enabled backend needs
  /// positive link latency: it is the synchronization lookahead.
  int threads = 1;
  /// Telemetry sample interval in simulated time; 0 = off. With an
  /// attached obs::TimeSeries the cluster records one sample row per
  /// interval (see obs/timeseries.h). Sampling never changes which
  /// events execute, only where the facade fences between them.
  SimDuration sample_every = 0;
};

class Cluster {
 public:
  /// Checks a config before construction: 2 to 255 nodes, and positive
  /// link parameters (latency included) for every enabled backend.
  static Status validate(const ClusterConfig& cfg);

  /// Aborts (with the validate() message) on an invalid config.
  explicit Cluster(const ClusterConfig& cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The Simulation driving node `i`: node i's shard. Code running
  /// inside node i's events reads and schedules on this clock; host code
  /// between runs uses the facade below.
  sim::Simulation& node_sim(int i);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Bounds-checked: aborts with a diagnostic on a bad index instead of
  /// handing back a dangling reference.
  Node& node(int i);

  /// First link of backend `b` — the only link in the classic two-node
  /// pair, which is what the two-node experiment drivers use; nullptr
  /// when the backend is not enabled.
  net::NetworkLink* link(Backend b);

  /// First-hop egress on backend `b` from node `from` toward node `to`:
  /// the link the frame leaves `from` on (the full path may relay
  /// through further nodes or switches); {nullptr, 0} when `to` is
  /// unreachable (the pair topology's disjoint pairs) or from == to.
  using Route = net::Port;
  Route route(Backend b, int from, int to) const;

  /// The wiring graph and per-vertex next-hop tables (shared by both
  /// backends — they wire the same shape). net::path_hops(fabric_plan(),
  /// routes(), i, j) gives a pair's hop count.
  const net::FabricPlan& fabric_plan() const { return plan_; }
  const net::RouteTables& routes() const { return routes_; }

  /// One transmit direction of one physical link, snapshotted against
  /// the current clock (utilization = serialization occupancy /
  /// elapsed). Labels are "extoll.n0-n1" style: source vertex first.
  struct LinkReport {
    std::string label;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t forwarded_frames = 0;
    std::uint64_t forwarded_bytes = 0;
    std::uint64_t stalls = 0;
    double stall_ns = 0.0;
    double busy_ns = 0.0;
    double utilization = 0.0;
    std::uint64_t queue_depth_p99 = 0;
    std::uint64_t queue_depth_max = 0;
  };
  /// Per-direction reports for every link of `b`, in plan order (side 0
  /// direction first). Safe once the simulation has quiesced.
  std::vector<LinkReport> link_reports(Backend b) const;

  /// Frame-conservation totals for `b`, aggregated over the NICs and
  /// switch objects: sum(link frames) == originated + forwarded and
  /// delivered == originated whenever the fabric has drained.
  net::FabricTotals fabric_totals(Backend b) const;

  /// Publishes per-link congestion observability into the attached
  /// MetricsRegistry (no-op without one): utilization gauges and stall /
  /// frame counters per direction, plus one merged queue-depth
  /// histogram per backend. Call once, after the run quiesces.
  void publish_link_metrics() const;

  // --- Execution facade -----------------------------------------------

  /// The cluster clock: the group's last synchronization fence.
  SimTime now() const { return group_->now(); }

  /// Runs until every per-node condition has fired, stopping where one
  /// serial run would stop on the AND of them; returns false if the
  /// cluster drained, deadlocked or tripped the event limit first.
  /// `conds` index nodes (= shards), at most one per node. Each
  /// predicate must be monotone and read only state its node owns (it is
  /// evaluated on the thread running that node's window): a trigger its
  /// node fires, a counter its node's events advance, its memory.
  bool run_until(std::vector<sim::ShardCond> conds);

  /// Runs events for `d` of simulated time and advances the clock to
  /// now() + d.
  void run_for(SimDuration d);

  /// Determinism fingerprint: total events ever scheduled, summed over
  /// shards.
  std::uint64_t events_scheduled() const { return group_->total_scheduled(); }
  std::uint64_t events_executed() const { return group_->events_executed(); }

 private:
  /// Instantiates one backend's overlay of the fabric plan: a
  /// NetworkLink per edge (labelled, shard-bound), terminal connects for
  /// node endpoints, switch ports for switch endpoints, and the next-hop
  /// fill into terminals and switches.
  void wire_backend(Backend which, const net::NetConfig& net_cfg);

  /// One backend's links (in plan edge order) and switch objects.
  struct Overlay {
    std::vector<std::unique_ptr<net::NetworkLink>> links;
    std::vector<std::unique_ptr<net::Switch>> switches;
  };
  Overlay& overlay(Backend b) { return overlays_[static_cast<int>(b)]; }
  const Overlay& overlay(Backend b) const {
    return overlays_[static_cast<int>(b)];
  }

  /// The sample boundary the facade must pause at next: next_sample_
  /// when a positive interval was configured and a TimeSeries is
  /// attached, otherwise never (the largest SimTime).
  SimTime sample_deadline() const;
  /// The one run loop behind run_until and run_for: ShardGroup::run up to
  /// `goal`, paused at every sample boundary to record a telemetry row.
  sim::ShardGroup::Outcome run_segmented(
      const std::vector<sim::ShardCond>& conds, SimTime goal);
  /// Records one telemetry row at the current (fenced) clock: per-link
  /// utilization / queue depth, per-backend delivery counts and message
  /// rate over the last interval, flow end-to-end and stage quantiles.
  void sample_telemetry();

  std::vector<std::unique_ptr<sim::Simulation>> shard_sims_;
  // Declared before group_ so the hub outlives the workers that hold
  // bindings into it (destroyed after group_ joins them).
  std::unique_ptr<obs::ShardSinkHub> obs_hub_;
  std::unique_ptr<sim::ShardGroup> group_;
  std::vector<std::unique_ptr<Node>> nodes_;
  net::FabricPlan plan_;
  net::RouteTables routes_;
  Overlay overlays_[2];  // index = Backend
  SimDuration sample_every_ = 0;
  SimTime next_sample_ = 0;
  // Delivered-frame totals at the previous sample, per backend
  // (index = Backend), for the message-rate delta.
  std::uint64_t prev_delivered_[2] = {0, 0};
};

}  // namespace pg::sys

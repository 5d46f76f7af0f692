// The simulated testbed: N Nodes joined by EXTOLL and/or InfiniBand
// fabrics. The default configuration (two nodes, pair topology) mirrors
// the paper's experimental setup — two nodes with EXTOLL Galibier
// cards, two nodes with IB 4X FDR HCAs; larger counts and the routed
// topologies (ring, full mesh, 2-D torus, fat tree) back the
// multi-node workloads layered on top.
//
// The cluster owns the ONE route-computation pass: it builds the
// fabric plan (net/fabric.h), computes next-hop tables per vertex, and
// pushes next-hop bindings into the NICs (add_route / set_node_id) and
// the fat tree's switch objects. NICs relay frames for other terminals
// through their next-hop tables, so non-adjacent nodes communicate
// over multi-hop paths with per-hop serialization + flight latency and
// genuine shared-link contention; on direct-attached topologies every
// route is single-hop and behaviour is identical to the pre-fabric
// link wiring.
//
// Routed-topology clusters (and any cluster with cfg.threads > 1) run
// on the parallel discrete-event engine (sim/parallel.h): every node
// owns its own event shard and the network links are the shard
// boundaries, with the smaller of the two backends' flight latencies
// as the conservative lookahead. Execution is deterministic and
// byte-identical to the single-threaded engine for any thread count;
// host code drives both modes through the same facade (now / run_until
// / run_until_each / run_for).
//
// Observability runs on the parallel engine too: when sharded, the
// cluster wires an obs::ShardSinkHub into the group's sink hooks, so
// traced / metered / flow-tracked runs buffer per-shard and merge
// deterministically at fences — trace, metrics, flow and time-series
// JSON are byte-identical at any thread count. With
// cfg.sample_every > 0 and an attached obs::TimeSeries, the facade
// additionally segments runs at fixed sim-time boundaries and records
// one telemetry row per boundary (per-link utilization / queue depth,
// per-backend message rate, flow-stage quantiles).
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

/// The two put/get fabrics every node can carry.
enum class Backend { kExtoll, kIb };

const char* backend_name(Backend b);

struct ClusterConfig {
  NodeConfig node;
  net::NetConfig extoll_net;
  net::NetConfig ib_net;
  int num_nodes = 2;
  net::Topology topology = net::Topology::kPair;
  /// Worker threads for the event engine: min(threads, num_nodes)
  /// workers execute one event shard per node. Routed topologies run
  /// sharded at every thread count (threads = 1 steps the shards with a
  /// single worker), so observability output is independent of T; the
  /// pair topology keeps the classic single-heap engine at threads = 1
  /// for the two-node experiment drivers. threads > 1 requires positive
  /// link latency on every enabled backend (the latency is the
  /// synchronization lookahead).
  int threads = 1;
  /// Telemetry sample interval in simulated time; 0 = off. With an
  /// attached obs::TimeSeries the cluster records one sample row per
  /// interval (see obs/timeseries.h). Sampling never changes which
  /// events execute, only where the facade fences between them.
  SimDuration sample_every = 0;
};

class Cluster {
 public:
  /// Checks a config before construction: at least two nodes, and
  /// positive link parameters for every enabled backend.
  static Status validate(const ClusterConfig& cfg);

  /// Aborts (with the validate() message) on an invalid config.
  explicit Cluster(const ClusterConfig& cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The single-heap engine. Only meaningful in unsharded mode; aborts
  /// otherwise — sharded callers go through the facade below or
  /// node_sim(i).
  sim::Simulation& sim();

  /// True when the cluster runs on per-node event shards.
  bool sharded() const { return group_ != nullptr; }
  sim::ShardGroup* shard_group() { return group_.get(); }

  /// The Simulation driving node `i` (the shared heap when unsharded,
  /// node i's shard otherwise).
  sim::Simulation& node_sim(int i);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Bounds-checked: aborts with a diagnostic on a bad index instead of
  /// handing back a dangling reference.
  Node& node(int i);

  /// First link of each backend — the only link in the classic two-node
  /// pair, which is what the two-node experiment drivers use.
  net::NetworkLink* extoll_link() {
    return extoll_links_.empty() ? nullptr : extoll_links_.front().get();
  }
  net::NetworkLink* ib_link() {
    return ib_links_.empty() ? nullptr : ib_links_.front().get();
  }

  /// First-hop egress from node `from` toward node `to`: the link the
  /// frame leaves `from` on (the full path may relay through further
  /// nodes or switches); {nullptr, 0} when `to` is unreachable (the
  /// pair topology's disjoint pairs) or from == to.
  struct Route {
    net::NetworkLink* link = nullptr;
    int side = 0;
  };
  Route extoll_route(int from, int to) const;
  Route ib_route(int from, int to) const;

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

  // --- Execution facade: identical semantics in both modes -----------

  /// The cluster clock (the group fence time when sharded).
  SimTime now() const {
    return group_ ? group_->now() : sim_.now();
  }

  /// Runs until `predicate` holds; returns false if the event queue
  /// drained or the event limit tripped first. The predicate may read
  /// state anywhere in the cluster; when sharded this runs on the exact
  /// merged-sequential path.
  bool run_until(const std::function<bool()>& predicate);

  /// Runs until every per-node condition has fired (conds index nodes =
  /// shards; monotone, node-local predicates only). Equivalent to
  /// run_until(AND of all), but executes node windows in parallel when
  /// sharded — use this for the hot multi-node phase loops.
  bool run_until_each(std::vector<sim::ShardCond> conds);

  /// Runs events for `d` of simulated time and advances the clock to
  /// now() + d.
  std::uint64_t run_for(SimDuration d);

  /// Determinism fingerprint: total events ever scheduled, summed over
  /// shards when sharded (identical to the single-heap count).
  std::uint64_t events_scheduled() const {
    return group_ ? group_->total_scheduled() : sim_.total_scheduled();
  }
  std::uint64_t events_executed() const {
    return group_ ? group_->events_executed() : sim_.events_executed();
  }

 private:
  /// Instantiates one backend's overlay of the fabric plan: a
  /// NetworkLink per edge (labelled, shard-bound), NIC connects for
  /// terminal endpoints, switch ports for switch endpoints, and the
  /// next-hop fill into NICs and switches.
  void wire_backend(Backend which, const net::NetConfig& net_cfg, bool shard);
  Route first_hop(const std::vector<std::unique_ptr<net::NetworkLink>>& links,
                  int from, int to) const;

  /// True when the facade must segment runs at sample boundaries: a
  /// positive interval was configured and a TimeSeries is attached.
  bool sampling_on() const;
  /// Records one telemetry row at the current (fenced) clock: per-link
  /// utilization / queue depth, per-backend delivery counts and message
  /// rate over the last interval, flow end-to-end and stage quantiles.
  void sample_telemetry();

  sim::Simulation sim_;  // the single heap (unsharded mode)
  std::vector<std::unique_ptr<sim::Simulation>> shard_sims_;
  // Declared before group_ so the hub outlives the workers that hold
  // bindings into it (destroyed after group_ joins them).
  std::unique_ptr<obs::ShardSinkHub> obs_hub_;
  std::unique_ptr<sim::ShardGroup> group_;
  std::vector<std::unique_ptr<Node>> nodes_;
  net::FabricPlan plan_;
  net::RouteTables routes_;
  std::vector<std::unique_ptr<net::NetworkLink>> extoll_links_;
  std::vector<std::unique_ptr<net::NetworkLink>> ib_links_;
  std::vector<std::unique_ptr<net::Switch>> extoll_switches_;
  std::vector<std::unique_ptr<net::Switch>> ib_switches_;
  SimDuration sample_every_ = 0;
  SimTime next_sample_ = 0;
  // Delivered-frame totals at the previous sample, per backend
  // (index = Backend), for the message-rate delta.
  std::uint64_t prev_delivered_[2] = {0, 0};
};

}  // namespace pg::sys

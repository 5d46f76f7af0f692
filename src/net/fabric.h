// The routed fabric layer: turns a wiring plan (net/topology.h) into a
// multi-hop network of terminals (cluster nodes with NICs) and switch
// vertices, with one statically computed next-hop route table per
// vertex.
//
// Vertices 0..num_terminals-1 are the cluster nodes; switch vertices
// (fat tree leaves and spines) follow. Every edge is one physical
// NetworkLink, so each hop pays the link's serialization + flight
// latency, and frames from different flows sharing a link interleave on
// its busy timeline (net/link.h charges the contention).
//
// Routing is computed once, centrally, from the plan:
//   - kTorus2D: dimension-order (column first, shortest wrap direction,
//     ties broken toward +1) — deadlock-free and minimal;
//   - kFatTree: up/down — up to the spine selected by the destination
//     id (static spreading), down to the destination's leaf;
//   - everything else (pair, ring, full mesh, explicit plans): BFS
//     shortest path from each destination, deterministic because the
//     adjacency lists follow edge insertion order and the queue is
//     FIFO. Two runs over the same plan produce identical tables.
//
// PDES legality: every hop crosses a NetworkLink with the backend's
// flight latency, so the per-hop latency is a valid conservative
// lookahead exactly as for single-hop links. Switch vertices are
// assigned to existing node shards deterministically (switch_shard).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/link.h"
#include "net/terminal.h"
#include "net/topology.h"

namespace pg::net {

/// The full wiring graph for a (topology, num_nodes) pair: terminal
/// vertices first, then switch vertices, and the edge list in
/// deterministic plan order. For the direct topologies the edges are
/// exactly plan_links(); the fat tree appends terminal-leaf and
/// leaf-spine edges.
struct FabricPlan {
  Topology topology = Topology::kPair;
  int num_terminals = 0;
  int num_switches = 0;
  std::vector<LinkPlan> edges;  // endpoints are vertex ids
  TorusDims torus;              // kTorus2D only
  FatTreeShape tree;            // kFatTree only

  int num_vertices() const { return num_terminals + num_switches; }
  bool is_switch(int vertex) const { return vertex >= num_terminals; }
  /// "n3" for terminals, "s1" for switches (index within the switches).
  std::string vertex_name(int vertex) const;
};

/// Builds and validates the fabric graph. Errors on invalid topology
/// shapes (torus dimension factoring, fat-tree arity) and on malformed
/// plans (the validate_links rules, extended to switch vertices).
Result<FabricPlan> build_fabric_plan(Topology t, int num_nodes);

/// Static next-hop tables: for every vertex and destination terminal,
/// the edge (index into plan.edges) a frame must take next. -1 for the
/// vertex itself and for unreachable destinations.
class RouteTables {
 public:
  RouteTables() = default;
  RouteTables(int num_vertices, int num_terminals)
      : num_terminals_(num_terminals),
        next_(static_cast<std::size_t>(num_vertices) * num_terminals, -1) {}

  int next_edge(int vertex, int dst_terminal) const {
    return next_[static_cast<std::size_t>(vertex) * num_terminals_ +
                 dst_terminal];
  }
  void set_next_edge(int vertex, int dst_terminal, int edge) {
    next_[static_cast<std::size_t>(vertex) * num_terminals_ + dst_terminal] =
        edge;
  }
  bool reachable(int src_terminal, int dst_terminal) const {
    return src_terminal == dst_terminal ||
           next_edge(src_terminal, dst_terminal) >= 0;
  }
  int num_terminals() const { return num_terminals_; }

 private:
  int num_terminals_ = 0;
  std::vector<std::int32_t> next_;
};

/// Computes the route tables for `plan` with the topology's routing
/// algorithm (dimension-order / up-down / BFS; see file header).
RouteTables compute_routes(const FabricPlan& plan);

/// The hop count of the routed path from `src` to `dst` (0 for src ==
/// dst, -1 when unreachable). Follows the next-hop tables, so it counts
/// exactly the links a frame traverses.
int path_hops(const FabricPlan& plan, const RouteTables& routes, int src,
              int dst);

/// Checks that every ordered terminal pair can reach each other.
/// Deliberately a separate check: the pair topology is legitimately
/// partitioned, while every routed topology must be connected.
Status check_reachable(const FabricPlan& plan, const RouteTables& routes);

/// The event shard a switch vertex runs on: the lowest-numbered
/// adjacent terminal when one exists (fat-tree leaves run beside their
/// first terminal), otherwise vertex id modulo the terminal count
/// (spines spread round-robin). Deterministic by construction — the
/// assignment must not depend on thread count.
int switch_shard(const FabricPlan& plan, int vertex);

/// One switch vertex of a backend overlay: ports onto the incident
/// links, a next-hop table over destination terminals, per-port FIFO
/// arbitration. Input arbitration is arrival order (link deliveries are
/// FIFO per direction and the event engine breaks same-timestamp ties
/// deterministically); output contention is the egress link's busy
/// timeline, which frames from different input ports interleave on.
/// Forwarding itself is cut-through and charges no switch-local delay:
/// the per-hop cost is the next link's serialization + flight latency
/// (NetConfig.latency is documented as wire + switch flight time).
class Switch {
 public:
  Switch(std::string label, int vertex_id)
      : label_(std::move(label)), vertex_(vertex_id) {}

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Wires the next port to (`link`, `side`) and attaches the
  /// forwarding handler there; returns the port's index.
  int add_port(NetworkLink* link, int side);

  /// Routes frames for `dst_terminal` out of `port_index`.
  Status set_next_hop(int dst_terminal, int port_index);

  const std::string& label() const { return label_; }
  int vertex() const { return vertex_; }
  /// Forwarded frames and bytes (a switch originates and delivers none).
  const FabricTotals& totals() const { return totals_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  void forward(int in_port, std::vector<std::uint8_t> bytes, FrameMeta meta);

  std::string label_;
  int vertex_ = 0;
  std::vector<Port> ports_;
  std::vector<std::int32_t> next_hop_;  // dst terminal -> port index, -1 none
  FabricTotals totals_;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace pg::net

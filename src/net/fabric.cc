#include "net/fabric.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace pg::net {
namespace {

/// Adjacency in deterministic edge-insertion order: for each vertex,
/// the (neighbor, edge index) pairs it can transmit on, both the edges
/// it owns side 0 of and the ones it owns side 1 of. Every routing
/// algorithm resolves hops through this list first-match, which is what
/// keeps reversed-pair double links (two-node ring, extent-2 torus
/// dimensions) on the same physical link the legacy first-wins route
/// fill picked.
std::vector<std::vector<std::pair<int, int>>> adjacency(
    const FabricPlan& plan) {
  std::vector<std::vector<std::pair<int, int>>> adj(plan.num_vertices());
  for (std::size_t e = 0; e < plan.edges.size(); ++e) {
    adj[plan.edges[e].a].push_back({plan.edges[e].b, static_cast<int>(e)});
    adj[plan.edges[e].b].push_back({plan.edges[e].a, static_cast<int>(e)});
  }
  return adj;
}

/// First edge (in insertion order) connecting `from` to `to`, or -1.
int edge_between(const std::vector<std::vector<std::pair<int, int>>>& adj,
                 int from, int to) {
  for (const auto& [nbr, edge] : adj[from]) {
    if (nbr == to) return edge;
  }
  return -1;
}

/// Dimension-order next hop on the torus grid: correct the column
/// (row-ring hop) first, then the row. Wrap direction is the shorter
/// way around; exact ties (extent halfway) break toward +1, so the
/// choice never depends on anything but (src, dst).
int torus_next_vertex(const TorusDims& dims, int src, int dst) {
  const int C = dims.cols, R = dims.rows;
  const int sr = src / C, sc = src % C;
  const int dr = dst / C, dc = dst % C;
  if (sc != dc) {
    const int fwd = (dc - sc + C) % C;  // hops going +1 with wrap
    const int nc = (fwd <= C - fwd) ? (sc + 1) % C : (sc + C - 1) % C;
    return sr * C + nc;
  }
  const int fwd = (dr - sr + R) % R;
  const int nr = (fwd <= R - fwd) ? (sr + 1) % R : (sr + R - 1) % R;
  return nr * C + sc;
}

void compute_torus_routes(const FabricPlan& plan,
                          const std::vector<std::vector<std::pair<int, int>>>& adj,
                          RouteTables& routes) {
  for (int src = 0; src < plan.num_terminals; ++src) {
    for (int dst = 0; dst < plan.num_terminals; ++dst) {
      if (src == dst) continue;
      const int next = torus_next_vertex(plan.torus, src, dst);
      routes.set_next_edge(src, dst, edge_between(adj, src, next));
    }
  }
}

void compute_fat_tree_routes(
    const FabricPlan& plan,
    const std::vector<std::vector<std::pair<int, int>>>& adj,
    RouteTables& routes) {
  const int n = plan.num_terminals;
  const FatTreeShape& t = plan.tree;
  const auto leaf_of = [&](int terminal) { return n + terminal / t.half_arity; };
  const auto spine_vertex = [&](int dst) { return n + t.leaves + dst % t.spines; };
  for (int dst = 0; dst < n; ++dst) {
    // Terminals always go up to their leaf.
    for (int src = 0; src < n; ++src) {
      if (src == dst) continue;
      routes.set_next_edge(src, dst, edge_between(adj, src, leaf_of(src)));
    }
    // Leaves go down when the destination is theirs, otherwise up to
    // the destination-selected spine (static spreading: dst % spines).
    for (int li = 0; li < t.leaves; ++li) {
      const int leaf = n + li;
      const int next = (leaf_of(dst) == leaf) ? dst : spine_vertex(dst);
      routes.set_next_edge(leaf, dst, edge_between(adj, leaf, next));
    }
    // Spines always go down to the destination's leaf.
    for (int si = 0; si < t.spines; ++si) {
      const int spine = n + t.leaves + si;
      routes.set_next_edge(spine, dst, edge_between(adj, spine, leaf_of(dst)));
    }
  }
}

/// BFS from each destination outward; a vertex discovered through edge
/// `e` routes toward the destination over `e`. Deterministic: the
/// frontier is a FIFO queue and neighbors expand in edge-insertion
/// order, so equal-length paths resolve to the earliest-planned edge.
void compute_bfs_routes(const FabricPlan& plan,
                        const std::vector<std::vector<std::pair<int, int>>>& adj,
                        RouteTables& routes) {
  std::vector<int> seen(plan.num_vertices());
  for (int dst = 0; dst < plan.num_terminals; ++dst) {
    std::fill(seen.begin(), seen.end(), 0);
    std::deque<int> queue;
    seen[dst] = 1;
    queue.push_back(dst);
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (const auto& [v, edge] : adj[u]) {
        if (seen[v]) continue;
        seen[v] = 1;
        routes.set_next_edge(v, dst, edge);
        queue.push_back(v);
      }
    }
  }
}

}  // namespace

std::string FabricPlan::vertex_name(int vertex) const {
  const bool terminal = vertex < num_terminals;
  std::string name(1, terminal ? 'n' : 's');
  name += std::to_string(terminal ? vertex : vertex - num_terminals);
  return name;
}

Result<FabricPlan> build_fabric_plan(Topology t, int num_nodes) {
  FabricPlan plan;
  plan.topology = t;
  plan.num_terminals = num_nodes;
  if (t == Topology::kFatTree) {
    auto shape = fat_tree_shape(num_nodes);
    if (!shape.is_ok()) return shape.status();
    plan.tree = *shape;
    plan.num_switches = plan.tree.leaves + plan.tree.spines;
    // Terminal uplinks in terminal order (terminal on side 0), then the
    // full leaf-spine bipartite stage (leaf on side 0).
    for (int i = 0; i < num_nodes; ++i) {
      plan.edges.push_back({i, num_nodes + i / plan.tree.half_arity});
    }
    for (int li = 0; li < plan.tree.leaves; ++li) {
      for (int si = 0; si < plan.tree.spines; ++si) {
        plan.edges.push_back(
            {num_nodes + li, num_nodes + plan.tree.leaves + si});
      }
    }
  } else {
    if (t == Topology::kTorus2D) {
      auto dims = torus_dims(num_nodes);
      if (!dims.is_ok()) return dims.status();
      plan.torus = *dims;
    }
    if (Status s = validate_plan(t, num_nodes); !s.is_ok()) return s;
    plan.edges = plan_links(t, num_nodes);
  }
  // The validate_links rules, extended over switch vertices: in-range
  // endpoints, no self-loops, no duplicate ordered pairs.
  if (Status s = [&]() -> Status {
        const int nv = plan.num_vertices();
        std::vector<LinkPlan> as_nodes = plan.edges;
        return validate_links(nv, as_nodes);
      }();
      !s.is_ok()) {
    return s;
  }
  return plan;
}

RouteTables compute_routes(const FabricPlan& plan) {
  RouteTables routes(plan.num_vertices(), plan.num_terminals);
  const auto adj = adjacency(plan);
  switch (plan.topology) {
    case Topology::kTorus2D:
      compute_torus_routes(plan, adj, routes);
      break;
    case Topology::kFatTree:
      compute_fat_tree_routes(plan, adj, routes);
      break;
    default:
      compute_bfs_routes(plan, adj, routes);
      break;
  }
  return routes;
}

int path_hops(const FabricPlan& plan, const RouteTables& routes, int src,
              int dst) {
  if (src == dst) return 0;
  int at = src;
  int hops = 0;
  while (at != dst) {
    const int edge = routes.next_edge(at, dst);
    if (edge < 0 || hops >= plan.num_vertices()) return -1;
    const LinkPlan& e = plan.edges[edge];
    at = (e.a == at) ? e.b : e.a;
    ++hops;
  }
  return hops;
}

Status check_reachable(const FabricPlan& plan, const RouteTables& routes) {
  for (int src = 0; src < plan.num_terminals; ++src) {
    for (int dst = 0; dst < plan.num_terminals; ++dst) {
      if (path_hops(plan, routes, src, dst) < 0) {
        return failed_precondition(
            "node " + std::to_string(src) + " cannot reach node " +
            std::to_string(dst) + " under topology " +
            topology_name(plan.topology) + " with " +
            std::to_string(plan.num_terminals) + " nodes");
      }
    }
  }
  return Status::ok();
}

int switch_shard(const FabricPlan& plan, int vertex) {
  if (vertex < plan.num_terminals) return vertex;
  int lowest = plan.num_vertices();
  for (const LinkPlan& e : plan.edges) {
    if (e.a == vertex && e.b < plan.num_terminals) {
      lowest = std::min(lowest, e.b);
    }
    if (e.b == vertex && e.a < plan.num_terminals) {
      lowest = std::min(lowest, e.a);
    }
  }
  if (lowest < plan.num_terminals) return lowest;
  return vertex % plan.num_terminals;
}

int Switch::add_port(NetworkLink* link, int side) {
  const int index = static_cast<int>(ports_.size());
  ports_.push_back({link, side});
  link->attach(side, [this, index](Frame frame, FrameMeta meta) {
    forward(index, std::move(frame), meta);
  });
  return index;
}

Status Switch::set_next_hop(int dst_terminal, int port_index) {
  if (port_index < 0 || port_index >= static_cast<int>(ports_.size())) {
    return invalid_argument(label_ + ": next hop for node " +
                            std::to_string(dst_terminal) +
                            " references missing port " +
                            std::to_string(port_index));
  }
  if (dst_terminal >= static_cast<int>(next_hop_.size())) {
    next_hop_.resize(dst_terminal + 1, -1);
  }
  if (next_hop_[dst_terminal] >= 0 && next_hop_[dst_terminal] != port_index) {
    return invalid_argument(label_ + ": duplicate next hop for node " +
                            std::to_string(dst_terminal));
  }
  next_hop_[dst_terminal] = port_index;
  return Status::ok();
}

void Switch::forward(int in_port, Frame frame, FrameMeta meta) {
  const Port& in = ports_[in_port];
  const int dst = meta.dst_node;
  if (dst < 0 || dst >= static_cast<int>(next_hop_.size()) ||
      next_hop_[dst] < 0) {
    // Undeliverable at a switch means a route-fill bug; drop loudly in
    // the counter rather than guessing an output port. Still claim the
    // flow so the channel does not leak into the next frame's pop.
    claim_forwarded_flow(in, meta);
    ++frames_dropped_;
    return;
  }
  relay(in, ports_[next_hop_[dst]], std::move(frame), meta, totals_);
}

}  // namespace pg::net

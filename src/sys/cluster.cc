#include "sys/cluster.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/log.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/shard_sink.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace pg::sys {

namespace {

Status check_net(const net::NetConfig& net, const char* which) {
  if (net.bandwidth.bytes_per_second <= 0.0) {
    return invalid_argument(std::string(which) +
                            " link bandwidth must be positive");
  }
  if (net.latency < 0) {
    return invalid_argument(std::string(which) +
                            " link latency must be non-negative");
  }
  if (net.mtu == 0) {
    return invalid_argument(std::string(which) + " link mtu must be positive");
  }
  return Status::ok();
}

/// Test-sweep override: PG_FORCE_THREADS=<n> reruns every cluster with n
/// engine workers, without touching each call site. Determinism makes
/// this safe — results are identical by construction — and it is how CI
/// drives the whole tier-1 suite through the multi-worker paths under
/// TSan.
int forced_threads(const ClusterConfig& cfg) {
  const char* env = std::getenv("PG_FORCE_THREADS");
  if (env == nullptr) return cfg.threads;
  const int forced = std::atoi(env);
  return forced > 1 ? forced : cfg.threads;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kExtoll: return "extoll";
    case Backend::kIb: return "ib";
  }
  return "?";
}

Status Cluster::validate(const ClusterConfig& cfg) {
  if (cfg.num_nodes < 2) {
    return invalid_argument("cluster needs at least 2 nodes");
  }
  if (Status s = net::validate_plan(cfg.topology, cfg.num_nodes); !s.is_ok()) {
    return s;
  }
  if (cfg.node.with_extoll) {
    if (Status s = check_net(cfg.extoll_net, "extoll"); !s.is_ok()) return s;
  }
  if (cfg.node.with_ib) {
    if (Status s = check_net(cfg.ib_net, "ib"); !s.is_ok()) return s;
  }
  if (cfg.threads < 1) {
    return invalid_argument("cluster threads must be >= 1");
  }
  // Every node is an event shard. Sharding across a link needs the
  // link's flight time as lookahead; a zero-latency link would leave no
  // conservative horizon at all.
  if (!cfg.node.with_extoll && !cfg.node.with_ib) {
    return invalid_argument("cluster needs at least one fabric (extoll or ib)");
  }
  if (cfg.node.with_extoll && cfg.extoll_net.latency <= 0) {
    return invalid_argument(
        "extoll link latency must be positive: it is the synchronization "
        "lookahead between node shards");
  }
  if (cfg.node.with_ib && cfg.ib_net.latency <= 0) {
    return invalid_argument(
        "ib link latency must be positive: it is the synchronization "
        "lookahead between node shards");
  }
  if (cfg.num_nodes > 255) {
    return invalid_argument(
        "a cluster supports at most 255 nodes (shard tags are one byte of "
        "the event id)");
  }
  return Status::ok();
}

Cluster::Cluster(const ClusterConfig& cfg) {
  if (Status s = validate(cfg); !s.is_ok()) {
    PG_ERROR("sys", "invalid ClusterConfig: %s", s.message().c_str());
    std::abort();
  }
  sample_every_ = cfg.sample_every;
  next_sample_ = sample_every_;

  shard_sims_.reserve(cfg.num_nodes);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    auto s = std::make_unique<sim::Simulation>();
    s->set_shard_tag(static_cast<std::uint8_t>(i));
    s->set_event_limit(100'000'000);  // storm guard, per shard
    shard_sims_.push_back(std::move(s));
  }
  SimDuration lookahead = 0;
  if (cfg.node.with_extoll) lookahead = cfg.extoll_net.latency;
  if (cfg.node.with_ib) {
    lookahead = lookahead == 0 ? cfg.ib_net.latency
                               : std::min(lookahead, cfg.ib_net.latency);
  }
  sim::ShardGroup::Options opt;
  opt.workers = std::min(forced_threads(cfg), cfg.num_nodes);
  opt.lookahead = lookahead;
  std::vector<sim::Simulation*> shards;
  shards.reserve(shard_sims_.size());
  for (auto& s : shard_sims_) shards.push_back(s.get());
  group_ = std::make_unique<sim::ShardGroup>(std::move(shards), opt);
  // Shard-aware observability: window threads append deferred sink ops
  // into per-shard buffers; the coordinator replays them in event-key
  // order at every fence. Wired unconditionally — with no sinks
  // attached the inline obs helpers bail before deferring, so the
  // buffers stay empty and merge() is a no-op.
  obs_hub_ = std::make_unique<obs::ShardSinkHub>(cfg.num_nodes);
  obs::ShardSinkHub* hub = obs_hub_.get();
  group_->set_sink_hooks(sim::ShardGroup::SinkHooks{
      [hub](int s, sim::Simulation* s_sim) { hub->bind(s, s_sim); },
      [hub] { hub->unbind(); },
      [hub] { hub->merge(); }});
  nodes_.reserve(cfg.num_nodes);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(*shard_sims_[i], cfg.node,
                                            "node" + std::to_string(i)));
  }

  // The one route-computation pass: build the fabric graph, compute the
  // per-vertex next-hop tables, and (below) push next-hop bindings into
  // NICs and switch objects. Both backends share the shape.
  auto plan = net::build_fabric_plan(cfg.topology, cfg.num_nodes);
  if (!plan.is_ok()) {
    PG_ERROR("sys", "fabric plan: %s", plan.status().message().c_str());
    std::abort();
  }
  plan_ = std::move(*plan);
  routes_ = net::compute_routes(plan_);
  if (cfg.topology != net::Topology::kPair) {
    // Every routed topology must be connected; only the pair topology
    // is legitimately partitioned (disjoint two-node islands).
    if (Status s = net::check_reachable(plan_, routes_); !s.is_ok()) {
      PG_ERROR("sys", "fabric routes: %s", s.message().c_str());
      std::abort();
    }
  }
  if (cfg.node.with_extoll) {
    wire_backend(Backend::kExtoll, cfg.extoll_net);
  }
  if (cfg.node.with_ib) {
    wire_backend(Backend::kIb, cfg.ib_net);
  }
}

void Cluster::wire_backend(Backend which, const net::NetConfig& net_cfg) {
  const std::string bname = backend_name(which);
  auto& [links, switches] = overlay(which);
  const int n = plan_.num_terminals;
  for (int v = n; v < plan_.num_vertices(); ++v) {
    switches.push_back(std::make_unique<net::Switch>(
        bname + "." + plan_.vertex_name(v), v));
  }
  // Switch vertices run on existing node shards (deterministic
  // assignment; see net::switch_shard), so the shard count, the
  // lookahead, and which shard posts each cross-shard event stay exactly
  // the per-node scheme pdes_test gates.
  auto vertex_sim = [&](int v) -> sim::Simulation& {
    return *shard_sims_[static_cast<std::size_t>(net::switch_shard(plan_, v))];
  };
  // Parallel links between one vertex pair (a two-node ring, an extent-2
  // torus dimension) get "#k" suffixes from the second one on, so every
  // direction's label is unique.
  std::map<std::pair<int, int>, int> pair_links;
  // Port index of each edge endpoint on its owning switch ([0] = side 0
  // endpoint), for the next-hop fill below.
  std::vector<std::array<int, 2>> edge_port(plan_.edges.size(), {-1, -1});
  for (std::size_t e = 0; e < plan_.edges.size(); ++e) {
    const net::LinkPlan& ep = plan_.edges[e];
    auto link = std::make_unique<net::NetworkLink>(vertex_sim(ep.a), net_cfg);
    link->bind_shards(*group_, net::switch_shard(plan_, ep.a),
                      vertex_sim(ep.a), net::switch_shard(plan_, ep.b),
                      vertex_sim(ep.b));
    const int twin =
        pair_links[{std::min(ep.a, ep.b), std::max(ep.a, ep.b)}]++;
    const std::string suffix = twin == 0 ? "" : "#" + std::to_string(twin);
    link->set_label(0, bname + "." + plan_.vertex_name(ep.a) + "-" +
                           plan_.vertex_name(ep.b) + suffix);
    link->set_label(1, bname + "." + plan_.vertex_name(ep.b) + "-" +
                           plan_.vertex_name(ep.a) + suffix);
    for (int side = 0; side < 2; ++side) {
      const int v = side == 0 ? ep.a : ep.b;
      if (plan_.is_switch(v)) {
        edge_port[e][side] = switches[v - n]->add_port(link.get(), side);
      } else {
        nodes_[v]->terminal(which).connect(link.get(), side);
      }
    }
    links.push_back(std::move(link));
  }
  // Next-hop fill. Unreachable destinations (the pair topology's
  // disjoint islands) simply stay unrouted.
  for (int t = 0; t < n; ++t) {
    net::Terminal& terminal = nodes_[t]->terminal(which);
    terminal.set_node_id(t);
    for (int d = 0; d < n; ++d) {
      if (d == t) continue;
      const Route hop = route(which, t, d);
      if (hop.link == nullptr) continue;
      if (Status s = terminal.add_route(d, hop.link, hop.side); !s.is_ok()) {
        PG_ERROR("sys", "route fill: %s", s.message().c_str());
        std::abort();
      }
    }
  }
  for (auto& sw : switches) {
    for (int d = 0; d < n; ++d) {
      const int e = routes_.next_edge(sw->vertex(), d);
      if (e < 0) continue;
      const int side =
          plan_.edges[static_cast<std::size_t>(e)].a == sw->vertex() ? 0 : 1;
      const Status s =
          sw->set_next_hop(d, edge_port[static_cast<std::size_t>(e)][side]);
      if (!s.is_ok()) {
        PG_ERROR("sys", "switch route fill: %s", s.message().c_str());
        std::abort();
      }
    }
  }
}

Cluster::~Cluster() {
  // Every public run_* merges at its exit fence, so this only catches
  // ops buffered by direct shard_sims_ stepping in tests.
  obs_hub_->merge();
  // Suspended host coroutines point into the nodes (CPUs, NICs, queue
  // readers): free every shard's roots while all of them still exist.
  for (auto& s : shard_sims_) s->destroy_roots();
}

sim::Simulation& Cluster::node_sim(int i) {
  if (i < 0 || i >= num_nodes()) {
    PG_ERROR("sys", "Cluster::node_sim(%d) out of range [0, %d)", i,
             num_nodes());
    std::abort();
  }
  return *shard_sims_[static_cast<std::size_t>(i)];
}

// --- Execution facade ------------------------------------------------
//
// Every run is segmented at fixed sim-time boundaries: run to
// min(goal, next boundary), and at each boundary — a fence, so the
// merged sinks are current — record one telemetry row. Without sampling
// the boundary is "never", so each call runs to its goal in one
// segment. ShardGroup::run guarantees segmentation never changes which
// events execute or in what order, only where the engine pauses.

SimTime Cluster::sample_deadline() const {
  const bool sampling = sample_every_ > 0 && obs::timeseries() != nullptr;
  return sampling ? next_sample_ : sim::ShardGroup::kNever;
}

sim::ShardGroup::Outcome Cluster::run_segmented(
    const std::vector<sim::ShardCond>& conds, SimTime goal) {
  for (;;) {
    const SimTime sample_at = sample_deadline();
    const SimTime boundary = std::min(goal, sample_at);
    // Conditions are monotone (the ShardGroup::run contract), so
    // re-presenting already-fired ones across segments is harmless.
    const sim::ShardGroup::Outcome out = group_->run(conds, boundary);
    if (out != sim::ShardGroup::Outcome::kDeadline) return out;
    if (boundary == sample_at) {
      sample_telemetry();
      next_sample_ += sample_every_;
    }
    if (boundary == goal) return out;
  }
}

bool Cluster::run_until(std::vector<sim::ShardCond> conds) {
  return conds.empty() ||
         run_segmented(conds, sim::ShardGroup::kNever) ==
             sim::ShardGroup::Outcome::kFired;
}

void Cluster::run_for(SimDuration d) { run_segmented({}, now() + d); }

void Cluster::sample_telemetry() {
  obs::TimeSeries* ts = obs::timeseries();
  if (ts == nullptr) return;
  std::map<std::string, double> v;
  const double interval_us =
      static_cast<double>(sample_every_) / static_cast<double>(kMicrosecond);
  for (Backend b : {Backend::kExtoll, Backend::kIb}) {
    if (overlay(b).links.empty()) continue;
    const std::string bname = backend_name(b);
    std::uint64_t frames = 0;
    for (const LinkReport& r : link_reports(b)) {
      v["net." + r.label + ".util"] = r.utilization;
      v["net." + r.label + ".qdepth_p99"] =
          static_cast<double>(r.queue_depth_p99);
      frames += r.frames;
    }
    const net::FabricTotals t = fabric_totals(b);
    v["net." + bname + ".link_frames"] = static_cast<double>(frames);
    v["net." + bname + ".delivered_frames"] =
        static_cast<double>(t.frames_delivered);
    v["net." + bname + ".delivered_bytes"] =
        static_cast<double>(t.bytes_delivered);
    const auto bi = static_cast<std::size_t>(b);
    v["net." + bname + ".msg_rate_per_us"] =
        interval_us > 0.0
            ? static_cast<double>(t.frames_delivered - prev_delivered_[bi]) /
                  interval_us
            : 0.0;
    prev_delivered_[bi] = t.frames_delivered;
  }
  if (const obs::FlowTable* f = obs::flows()) {
    const obs::FlowTable::Breakdown& g = f->current();
    v["flow.completed"] = static_cast<double>(g.completed);
    v["flow.e2e_p50_ns"] = static_cast<double>(g.e2e_ns.percentile(0.50));
    v["flow.e2e_p95_ns"] = static_cast<double>(g.e2e_ns.percentile(0.95));
    v["flow.e2e_p99_ns"] = static_cast<double>(g.e2e_ns.percentile(0.99));
    for (const obs::FlowTable::StageStats& s : g.stages) {
      const std::string base = "flow.stage." + s.name;
      v[base + ".p50_ns"] = static_cast<double>(s.ns.percentile(0.50));
      v[base + ".p95_ns"] = static_cast<double>(s.ns.percentile(0.95));
      v[base + ".p99_ns"] = static_cast<double>(s.ns.percentile(0.99));
    }
  }
  ts->sample(now(), v);
}

Node& Cluster::node(int i) {
  if (i < 0 || i >= num_nodes()) {
    PG_ERROR("sys", "Cluster::node(%d) out of range [0, %d)", i, num_nodes());
    std::abort();
  }
  return *nodes_[static_cast<std::size_t>(i)];
}

net::NetworkLink* Cluster::link(Backend b) {
  const auto& links = overlay(b).links;
  return links.empty() ? nullptr : links.front().get();
}

Cluster::Route Cluster::route(Backend b, int from, int to) const {
  const auto& links = overlay(b).links;
  if (links.empty() || from == to) return Route{};
  if (from < 0 || from >= plan_.num_terminals || to < 0 ||
      to >= plan_.num_terminals) {
    return Route{};
  }
  const int e = routes_.next_edge(from, to);
  if (e < 0) return Route{};
  const net::LinkPlan& ep = plan_.edges[static_cast<std::size_t>(e)];
  return Route{links[static_cast<std::size_t>(e)].get(),
               ep.a == from ? 0 : 1};
}

std::vector<Cluster::LinkReport> Cluster::link_reports(Backend b) const {
  const auto& links = overlay(b).links;
  const double elapsed = static_cast<double>(now());
  std::vector<LinkReport> out;
  out.reserve(links.size() * 2);
  for (const auto& link : links) {
    for (int side = 0; side < 2; ++side) {
      const net::LinkDirStats& s = link->dir_stats(side);
      LinkReport r;
      r.label = link->label(side);
      r.frames = s.frames;
      r.bytes = s.bytes;
      r.forwarded_frames = s.forwarded_frames;
      r.forwarded_bytes = s.forwarded_bytes;
      r.stalls = s.stalls;
      r.stall_ns = static_cast<double>(to_ns(s.stall_time));
      r.busy_ns = static_cast<double>(to_ns(s.busy_time));
      r.utilization =
          elapsed > 0.0 ? static_cast<double>(s.busy_time) / elapsed : 0.0;
      r.queue_depth_p99 = s.queue_depth.percentile(0.99);
      r.queue_depth_max = s.queue_depth.max();
      out.push_back(std::move(r));
    }
  }
  return out;
}

net::FabricTotals Cluster::fabric_totals(Backend b) const {
  net::FabricTotals t;
  const Overlay& o = overlay(b);
  if (o.links.empty()) return t;
  for (const auto& node : nodes_) t += node->terminal(b).totals();
  for (const auto& sw : o.switches) t += sw->totals();
  return t;
}

void Cluster::publish_link_metrics() const {
  obs::MetricsRegistry* m = obs::metrics();
  if (m == nullptr) return;
  for (Backend b : {Backend::kExtoll, Backend::kIb}) {
    const auto& links = overlay(b).links;
    if (links.empty()) continue;
    const std::string bname = backend_name(b);
    obs::Log2Histogram& depth = m->histogram("net." + bname + ".queue_depth");
    std::uint64_t stalls = 0;
    std::uint64_t link_frames = 0;
    for (const LinkReport& r : link_reports(b)) {
      m->gauge("net." + r.label + ".utilization").set(r.utilization);
      m->counter("net." + r.label + ".frames").add(r.frames);
      m->counter("net." + r.label + ".forwarded_frames")
          .add(r.forwarded_frames);
      m->counter("net." + r.label + ".stalls").add(r.stalls);
      stalls += r.stalls;
      link_frames += r.frames;
    }
    for (const auto& link : links) {
      for (int side = 0; side < 2; ++side) {
        depth.merge(link->dir_stats(side).queue_depth);
      }
    }
    m->counter("net." + bname + ".contention_stalls").add(stalls);
    // Frame-conservation audit (fabric_totals()), as metrics: once the
    // fabric has drained, link_frames == frames_originated +
    // frames_forwarded and frames_delivered == frames_originated. A
    // metrics diff that violates either identity means frames were
    // dropped or double-counted somewhere in the relay path.
    const net::FabricTotals t = fabric_totals(b);
    const std::string fab = "net." + bname + ".fabric.";
    m->counter(fab + "frames_originated").add(t.frames_originated);
    m->counter(fab + "bytes_originated").add(t.bytes_originated);
    m->counter(fab + "frames_forwarded").add(t.frames_forwarded);
    m->counter(fab + "bytes_forwarded").add(t.bytes_forwarded);
    m->counter(fab + "frames_delivered").add(t.frames_delivered);
    m->counter(fab + "bytes_delivered").add(t.bytes_delivered);
    m->counter(fab + "link_frames").add(link_frames);
  }
}

}  // namespace pg::sys

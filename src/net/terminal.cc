#include "net/terminal.h"

#include <cassert>
#include <cstdio>

namespace pg::net {
namespace {

/// Stamps the flow stage for one completed link traversal of a routed
/// path: "wire.h<k>", k the 0-based index of the link just crossed.
void stage_wire_hop(obs::FlowId flow, unsigned hop_index, SimTime at) {
  if (flow == 0) return;
  char name[20];
  std::snprintf(name, sizeof(name), "wire.h%u", hop_index);
  obs::flow_stage(flow, "net", name, at);
}

SimTime now_at(const Port& p) { return p.link->endpoint_sim(p.side).now(); }

}  // namespace

void relay(const Port& in, const Port& out, Frame frame, FrameMeta meta,
           FabricTotals& totals) {
  const obs::FlowId flow = claim_forwarded_flow(in, meta);
  // hops counts completed traversals, so the incoming link is hops - 1.
  stage_wire_hop(flow, meta.hops - 1u, now_at(in));
  ++totals.frames_forwarded;
  totals.bytes_forwarded += frame.size();
  out.link->send(out.side, std::move(frame), flow, meta);
}

void Terminal::connect(NetworkLink* link, int side) {
  if (default_.link == nullptr) default_ = Port{link, side};
  link->attach(side, [this, link, side](Frame frame, FrameMeta meta) {
    receive(Port{link, side}, std::move(frame), meta);
  });
}

Status Terminal::add_route(int dst_node, NetworkLink* link, int side) {
  for (const auto& [node, port] : routes_) {
    if (node == dst_node) {
      return invalid_argument(
          name_ + ": duplicate route for node " + std::to_string(dst_node) +
          " (the route pass must resolve each destination to one next hop)");
    }
  }
  routes_.push_back({dst_node, Port{link, side}});
  return Status::ok();
}

Port Terminal::route_for(int dst_node) const {
  if (dst_node >= 0) {
    for (const auto& [node, port] : routes_) {
      if (node == dst_node) return port;
    }
  }
  return default_;
}

void Terminal::send(int dst_node, Frame frame, obs::FlowId flow,
                    const Port& hop) {
  const Port out = hop.link != nullptr ? hop : route_for(dst_node);
  assert(out.link && "terminal not connected");
  FrameMeta meta;
  if (dst_node >= 0) meta.dst_node = static_cast<std::int16_t>(dst_node);
  if (node_id_ >= 0) meta.src_node = static_cast<std::int16_t>(node_id_);
  ++totals_.frames_originated;
  totals_.bytes_originated += frame.size();
  out.link->send(out.side, std::move(frame), flow, meta);
}

void Terminal::receive(const Port& in, Frame frame, FrameMeta meta) {
  if (meta.dst_node >= 0 && node_id_ >= 0 && meta.dst_node != node_id_) {
    const Port out = route_for(meta.dst_node);
    assert(out.link && "relay without an egress link");
    relay(in, out, std::move(frame), meta, totals_);
    return;
  }
  ++totals_.frames_delivered;
  totals_.bytes_delivered += frame.size();
  deliver_(std::move(frame), Arrival{in, meta});
}

obs::FlowId Terminal::claim_flow(const Arrival& at) const {
  const obs::FlowId flow = obs::flow_pop(obs::flow_key(
      at.port.link, static_cast<std::uint64_t>(1 - at.port.side)));
  if (at.meta.hops > 1) {
    stage_wire_hop(flow, at.meta.hops - 1u, now_at(at.port));
  } else {
    obs::flow_stage(flow, "net", "wire", now_at(at.port));
  }
  return flow;
}

}  // namespace pg::net

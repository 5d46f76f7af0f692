// The fabric side of a NIC: what both NIC models (EXTOLL's RMA unit and
// the IB HCA) share below their completion mechanisms.
//
// A Terminal owns the node's links, its id in the fabric, and its
// next-hop list. Frames leave through send(), which stamps the routing
// metadata and counts the origination. Frames arriving for another
// terminal are relayed un-decoded (the NIC-as-router path of ring and
// torus topologies, the same step a fat-tree Switch runs); frames for
// this terminal are counted as delivered and handed to the NIC, which
// decodes them and claims the message lifecycle of a last frame through
// claim_flow(). The FabricTotals these steps keep are what the cluster
// reconciles against the per-link counters.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/link.h"
#include "obs/flow.h"

namespace pg::net {

/// One side of a link: where a terminal or switch port transmits from
/// and receives on.
struct Port {
  NetworkLink* link = nullptr;
  int side = 0;
};

/// Aggregated frame-conservation totals for one backend's overlay.
/// Every frame is originated exactly once (a NIC's first-hop send),
/// forwarded hops-1 times, and delivered exactly once, so
///   sum over links of frames_sent == originated + forwarded
///   delivered == originated
/// and the same for bytes — the reconciliation the multihop sweep
/// hard-checks against the per-link snapshots. Byte counts are frame
/// bytes (header + payload), matching the link counters.
struct FabricTotals {
  std::uint64_t frames_originated = 0;
  std::uint64_t bytes_originated = 0;
  std::uint64_t frames_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_delivered = 0;

  FabricTotals& operator+=(const FabricTotals& o) {
    frames_originated += o.frames_originated;
    bytes_originated += o.bytes_originated;
    frames_forwarded += o.frames_forwarded;
    bytes_forwarded += o.bytes_forwarded;
    frames_delivered += o.frames_delivered;
    bytes_delivered += o.bytes_delivered;
    return *this;
  }
};

/// Pops the FlowId a forwarded frame carries on the ingress flow
/// channel, if any, so the forwarder can re-attach it to the egress
/// send. `in.side` is the side the forwarder is attached to (the sender
/// pushed under the opposite side's key).
inline obs::FlowId claim_forwarded_flow(const Port& in,
                                        const FrameMeta& meta) {
  if (!meta.flow_attached) return 0;
  return obs::flow_pop(
      obs::flow_key(in.link, static_cast<std::uint64_t>(1 - in.side)));
}

/// One relay hop, shared by NIC-relaying terminals and switches: claims
/// the lifecycle the frame carries, closes its incoming wire hop (multi-
/// hop routes label every hop "wire.h<k>", k the 0-based link index, the
/// same value the per-link trace span records as "hop"), counts the
/// forward and sends the frame un-decoded out of `out`. Cut-through: the
/// per-hop cost is the egress link's serialization + flight latency.
void relay(const Port& in, const Port& out, Frame frame, FrameMeta meta,
           FabricTotals& totals);

/// A frame delivered to this terminal: the port it arrived on and the
/// metadata it carried.
struct Arrival {
  Port port;
  FrameMeta meta;
};

class Terminal {
 public:
  /// Receives the frames addressed to this terminal (or direct-attached
  /// frames with no destination).
  using Deliver =
      std::function<void(Frame, const Arrival&)>;

  /// `name` prefixes routing errors; `deliver` is the NIC's decoder.
  Terminal(std::string name, Deliver deliver)
      : name_(std::move(name)), deliver_(std::move(deliver)) {}

  Terminal(const Terminal&) = delete;
  Terminal& operator=(const Terminal&) = delete;

  /// Wires this terminal to `side` of the link. The first link connected
  /// becomes the default port (where frames with no route go), which
  /// preserves the classic two-node behaviour; further links extend the
  /// terminal into a multi-node fabric and are reached via add_route.
  void connect(NetworkLink* link, int side);

  /// Declares that frames for `dst_node` leave through (`link`, `side`)
  /// — a next-hop binding, not a path: multi-hop destinations point at
  /// the first link of the route and intermediate terminals relay. A
  /// second registration for the same node is a hard error (it would
  /// silently shadow the first); redundant topologies like the two-node
  /// ring stay legal because the central route pass in sys::Cluster
  /// resolves them to ONE next hop per destination before calling this.
  Status add_route(int dst_node, NetworkLink* link, int side);

  /// This terminal's id in the fabric, stamped into outgoing frame
  /// metadata so relays can steer and replies can route home. Unset (-1)
  /// preserves the direct-attached testbed behaviour.
  void set_node_id(int id) { node_id_ = id; }
  int node_id() const { return node_id_; }

  /// First-hop transmit toward `dst_node` (< 0: direct-attached), out of
  /// `hop` when given, else out of route_for(dst_node): stamps the
  /// frame's routing metadata and counts the origination. `flow`, when
  /// nonzero, rides with the frame for wire correlation at the receiver.
  void send(int dst_node, Frame frame, obs::FlowId flow, const Port& hop = {});

  /// The final-hop claim of the lifecycle a message's last frame carries:
  /// the sender queued it under (link, sender side), and delivery is FIFO
  /// per direction, so this pop pairs with exactly that send. Stamps the
  /// wire stage — "wire" for single-hop deliveries, "wire.h<k>" for the
  /// final hop of a routed path, as the relays labelled theirs.
  obs::FlowId claim_flow(const Arrival& at) const;

  const FabricTotals& totals() const { return totals_; }

 private:
  /// The next hop toward `dst_node`; dst_node < 0 or an unrouted id
  /// falls back to the default (first-connected) port.
  Port route_for(int dst_node) const;
  void receive(const Port& in, Frame frame, FrameMeta meta);

  std::string name_;
  Deliver deliver_;
  Port default_;  // first connect
  int node_id_ = -1;
  std::vector<std::pair<int, Port>> routes_;  // insertion-ordered next hops
  FabricTotals totals_;
};

}  // namespace pg::net

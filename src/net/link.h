// Point-to-point network link between two endpoints (NIC ports or
// fabric switch ports).
//
// Duplex, FIFO per direction, with analytic serialization (bandwidth +
// per-packet framing overhead) and flight latency. Both networks in the
// paper guarantee in-order delivery on a connection, which the
// poll-on-last-payload-element optimization depends on; FIFO links give
// us that ordering globally.
//
// A Frame is a NIC-encoded header plus a payload slice: the payload bytes
// a DMA read filled travel as they are, never re-encoded into one byte
// vector, and the wire size is header + payload.
//
// A FrameMeta rides next to every frame (in the delivery event capture,
// never in the wire bytes, so timing is byte-identical with or without
// it): the destination terminal it steers routed fabrics by, the source
// terminal replies route back to, and the hop count taken so far.
// Frames from different flows that share a link genuinely contend: each
// send queues behind the direction's busy timeline, and the wait is
// accounted as a contention stall in the per-direction stats.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "common/bitops.h"
#include "common/units.h"
#include "mem/payload.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace pg::net {

struct NetConfig {
  Bandwidth bandwidth = gigabytes_per_second(1.0);
  SimDuration latency = nanoseconds(600);  // wire + switch flight time
  std::uint32_t mtu = 4096;                // payload per network packet
  std::uint32_t header_bytes = 16;         // framing per packet
};

/// What a link carries: a header the sending NIC encodes in place (its
/// wire format; at most kMaxHeaderBytes) and the payload slice behind it.
struct Frame {
  static constexpr std::size_t kMaxHeaderBytes = 44;
  std::array<std::uint8_t, kMaxHeaderBytes> header{};
  std::uint8_t header_len = 0;
  mem::Payload payload;

  /// Bytes on the wire (before per-packet framing).
  std::uint64_t size() const { return header_len + payload.size(); }
};

/// Routing metadata that travels with a frame. dst_node < 0 means the
/// frame is direct-attached/legacy traffic: it is always delivered to
/// whatever sits on the other side of the link, exactly the pre-fabric
/// behaviour.
struct FrameMeta {
  std::int16_t dst_node = -1;  // destination terminal (cluster node id)
  std::int16_t src_node = -1;  // originating terminal, for routed replies
  std::uint8_t hops = 0;       // link traversals completed before this send
  /// True when the sender queued a FlowId on this (link, side) flow
  /// channel; forwarding hops must pop and re-push it.
  bool flow_attached = false;
};

/// Per-direction transmit statistics, maintained passively (no events,
/// no observability sinks required). `queue_depth` samples, at each
/// send, how many earlier frames were still serializing on this
/// direction — the egress queue the new frame lines up behind.
struct LinkDirStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t forwarded_frames = 0;  // sends with hops > 0 (fabric relays)
  std::uint64_t forwarded_bytes = 0;
  std::uint64_t stalls = 0;        // sends that found the direction busy
  SimDuration stall_time = 0;      // total wait behind earlier frames
  SimDuration busy_time = 0;       // total serialization occupancy
  obs::Log2Histogram queue_depth;  // frames ahead at each send
};

class NetworkLink {
 public:
  using Handler = std::function<void(Frame, FrameMeta)>;

  NetworkLink(sim::Simulation& sim, NetConfig cfg) : cfg_(cfg) {
    sides_[0].sim = &sim;
    sides_[1].sim = &sim;
  }

  /// Registers the frame handler for `side` (0 or 1).
  void attach(int side, Handler handler) {
    sides_[side].handler = std::move(handler);
  }

  /// Human-readable name for `side`'s transmit direction, e.g.
  /// "extoll.n0-n1". Labelled directions emit per-frame Perfetto spans
  /// on their own track when a trace recorder is attached.
  void set_label(int side, std::string label) {
    sides_[side].label = std::move(label);
  }
  const std::string& label(int side) const { return sides_[side].label; }

  /// Splits the two endpoints across event shards: side 0 runs on
  /// `shard_a` / side 1 on `shard_b`, and deliveries between different
  /// shards go through the sending shard's outbox in the group
  /// (ShardGroup::post) instead of a shared heap. The link's flight
  /// latency is what makes this legal — it is the group's lookahead.
  /// Sender-side state (busy_until, byte counters) is owned by the
  /// sending shard throughout.
  void bind_shards(sim::ShardGroup& group, int shard_a,
                   sim::Simulation& sim_a, int shard_b,
                   sim::Simulation& sim_b) {
    group_ = &group;
    shard_of_[0] = shard_a;
    shard_of_[1] = shard_b;
    sides_[0].sim = &sim_a;
    sides_[1].sim = &sim_b;
  }

  /// Sends a frame from `side` to the opposite side. Frames from one side
  /// are delivered in order. `flow`, when nonzero, annotates the wire
  /// hop of that message lifecycle; it rides next to the frame, never
  /// inside it, so the wire timing is byte-identical either way.
  /// `meta` likewise rides in the event capture: the receiving handler
  /// sees it with `hops` incremented by this traversal.
  void send(int side, Frame frame, obs::FlowId flow = 0, FrameMeta meta = {}) {
    Side& sender = sides_[side];
    Direction& dir = sender.tx;
    sim::Simulation& ssim = *sender.sim;
    const std::uint64_t packets =
        std::max<std::uint64_t>(1, div_ceil(frame.size(), cfg_.mtu));
    const std::uint64_t wire_bytes =
        frame.size() + packets * cfg_.header_bytes;
    const SimTime now = ssim.now();
    const SimTime start = std::max(now, dir.busy_until);
    dir.busy_until = start + cfg_.bandwidth.transfer_time(wire_bytes);
    dir.stats.bytes += frame.size();
    ++dir.stats.frames;
    // Contention + occupancy accounting (passive; no events scheduled).
    if (start > now) {
      ++dir.stats.stalls;
      dir.stats.stall_time += start - now;
    }
    dir.stats.busy_time += dir.busy_until - start;
    while (!dir.pending.empty() && dir.pending.front() <= now) {
      dir.pending.pop_front();
    }
    dir.stats.queue_depth.record(dir.pending.size());
    dir.pending.push_back(dir.busy_until);
    if (meta.hops > 0) {
      ++dir.stats.forwarded_frames;
      dir.stats.forwarded_bytes += frame.size();
    }
    if (obs::enabled() && !sender.label.empty()) {
      obs::span(sender.label.c_str(), "net", meta.hops > 0 ? "fwd" : "tx",
                start, dir.busy_until,
                {{"bytes", frame.size()},
                 {"dst", meta.dst_node},
                 {"hop", meta.hops}});
    }
    meta.flow_attached = flow != 0;
    if (flow != 0) {
      // The frame's flow crosses nodes here: hand it to the receiver's
      // pop via the (link, sender-side) channel.
      obs::flow_push(obs::flow_key(this, static_cast<std::uint64_t>(side)),
                     flow);
    }
    const int other = 1 - side;
    const SimTime deliver_at = dir.busy_until + cfg_.latency;
    ++meta.hops;
    auto deliver = [this, other, meta, frame = std::move(frame)]() mutable {
      if (sides_[other].handler) {
        sides_[other].handler(std::move(frame), meta);
      }
    };
    static_assert(sizeof(deliver) <= sim::InlineFn::kInlineSize,
                  "a frame delivery must not allocate");
    if (group_ == nullptr || shard_of_[side] == shard_of_[other]) {
      sides_[other].sim->schedule_at(deliver_at, std::move(deliver));
    } else {
      // Crossing shards: the delivery carries this side's birth stamp,
      // so it interleaves with the receiver's same-timestamp events in
      // exactly the order one global scheduling counter would give.
      const sim::Simulation::Birth birth = ssim.take_birth();
      group_->post(shard_of_[side], shard_of_[other], deliver_at, birth.time,
                   birth.tag, std::move(deliver));
    }
  }

  std::uint64_t bytes_sent(int side) const {
    return sides_[side].tx.stats.bytes;
  }
  std::uint64_t frames_sent(int side) const {
    return sides_[side].tx.stats.frames;
  }
  /// Transmit-direction statistics for `side` (the direction side ->
  /// 1-side). Safe to read once the simulation has quiesced.
  const LinkDirStats& dir_stats(int side) const {
    return sides_[side].tx.stats;
  }
  const NetConfig& config() const { return cfg_; }

  /// The Simulation driving `side`'s endpoint — the context its
  /// attached handler runs in (switch forwarders read the clock here).
  sim::Simulation& endpoint_sim(int side) const { return *sides_[side].sim; }

 private:
  struct Direction {
    SimTime busy_until = 0;
    LinkDirStats stats;
    std::deque<SimTime> pending;  // serialization-end times of queued frames
  };
  struct Side {
    Handler handler;
    Direction tx;
    sim::Simulation* sim = nullptr;
    std::string label;
  };

  NetConfig cfg_;
  Side sides_[2];
  sim::ShardGroup* group_ = nullptr;
  int shard_of_[2] = {0, 0};
};

}  // namespace pg::net

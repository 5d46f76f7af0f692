#include "nic/extoll/rma_unit.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::extoll {

using mem::Addr;
using mem::AddressMap;

// ---------------------------------------------------------------------------
// Frame codec.

net::Frame ExtollNic::Frame::encode() const {
  net::Frame wire;
  std::uint8_t* h = wire.header.data();
  wire.header_len = 32;
  h[0] = static_cast<std::uint8_t>(kind);
  h[1] = port;
  h[2] = static_cast<std::uint8_t>((last ? 1 : 0) | (notify_completer ? 2 : 0));
  h[3] = 0;
  std::memcpy(h + 4, &total_size, 4);
  std::memcpy(h + 8, &offset, 8);
  std::memcpy(h + 16, &src_nla, 8);
  std::memcpy(h + 24, &dst_nla, 8);
  wire.payload = payload;
  return wire;
}

Result<ExtollNic::Frame> ExtollNic::Frame::decode(net::Frame wire) {
  if (wire.header_len < 32) {
    return invalid_argument("EXTOLL frame shorter than header");
  }
  const std::uint8_t* h = wire.header.data();
  Frame f;
  f.kind = static_cast<Kind>(h[0]);
  f.port = h[1];
  f.last = (h[2] & 1) != 0;
  f.notify_completer = (h[2] & 2) != 0;
  std::memcpy(&f.total_size, h + 4, 4);
  std::memcpy(&f.offset, h + 8, 8);
  std::memcpy(&f.src_nla, h + 16, 8);
  std::memcpy(&f.dst_nla, h + 24, 8);
  f.payload = std::move(wire.payload);
  return f;
}

// ---------------------------------------------------------------------------
// Construction / wiring.

ExtollNic::ExtollNic(sim::Simulation& sim, pcie::Fabric& fabric,
                     mem::MemoryDomain& memory, mem::BumpAllocator& host_arena,
                     ExtollConfig cfg, std::string name)
    : sim_(sim),
      fabric_(fabric),
      memory_(memory),
      cfg_(cfg),
      name_(std::move(name)),
      terminal_(name_, [this](net::Frame wire, const net::Arrival& at) {
        on_frame(std::move(wire), at);
      }) {
  endpoint_id_ = fabric_.attach(name_, this, cfg_.pcie_link);
  fabric_.claim_range(endpoint_id_, AddressMap::kExtollBarBase,
                      AddressMap::kExtollBarSize);
  dma_ = std::make_unique<pcie::DmaEngine>(sim_, fabric_, endpoint_id_,
                                           cfg_.dma);
  ports_.resize(cfg_.num_ports);
  // The driver pre-allocates notification structures in kernel memory at
  // load time; ports get theirs assigned at open_port.
  for (PortState& port : ports_) {
    for (NotifQueue* q : {&port.req_queue, &port.cmp_queue}) {
      q->entries = cfg_.notif_queue_entries;
      q->slot_base =
          host_arena.alloc(q->entries * kNotificationBytes, 64);
      q->rp_addr = host_arena.alloc(8, 8);
    }
  }
}

ExtollNic::~ExtollNic() = default;

SimDuration ExtollNic::core_cycles(std::uint32_t n) const {
  const double period_ps = 1e12 / cfg_.core_clock_hz;
  return static_cast<SimDuration>(period_ps * n);
}

// ---------------------------------------------------------------------------
// Driver-level API.

Result<PortInfo> ExtollNic::open_port(std::uint32_t port) {
  if (port >= cfg_.num_ports) {
    return out_of_range("open_port: port id beyond NIC capability");
  }
  PortState& state = ports_[port];
  if (state.opened) {
    return already_exists("open_port: port already open");
  }
  state.opened = true;
  PortInfo info;
  info.port = port;
  info.requester_page =
      AddressMap::kExtollBarBase + port * kRequesterPageSize;
  info.req_queue_base = state.req_queue.slot_base;
  info.req_rp_addr = state.req_queue.rp_addr;
  info.cmp_queue_base = state.cmp_queue.slot_base;
  info.cmp_rp_addr = state.cmp_queue.rp_addr;
  info.queue_entries = cfg_.notif_queue_entries;
  return info;
}

Result<Nla> ExtollNic::register_memory(Addr base, std::uint64_t length,
                                       mem::Access access) {
  return atu_.register_region(base, length, access);
}

Status ExtollNic::deregister_memory(Nla nla) { return atu_.deregister(nla); }

Status ExtollNic::relocate_notification_queues(
    std::uint32_t port, Addr req_base, Addr req_rp, Addr cmp_base,
    Addr cmp_rp, std::uint32_t entries) {
  if (port >= cfg_.num_ports || !ports_[port].opened) {
    return not_found("relocate: port not open");
  }
  if (entries == 0 || !is_power_of_two(entries)) {
    return invalid_argument("relocate: entries must be a power of two");
  }
  if (!memory_.backed(req_base, entries * kNotificationBytes) ||
      !memory_.backed(cmp_base, entries * kNotificationBytes) ||
      !memory_.backed(req_rp, 4) || !memory_.backed(cmp_rp, 4)) {
    return invalid_argument("relocate: queues must be DRAM-backed");
  }
  PortState& state = ports_[port];
  if (state.gated) {
    return failed_precondition("relocate: WR in flight on this port");
  }
  state.req_queue = NotifQueue{req_base, req_rp, entries, 0, {}};
  state.cmp_queue = NotifQueue{cmp_base, cmp_rp, entries, 0, {}};
  return Status::ok();
}

void ExtollNic::post_work_request(const WorkRequest& wr) {
  if (wr.port >= cfg_.num_ports || !ports_[wr.port].opened) {
    ++protocol_violations_;
    PG_WARN("extoll", "%s: WR to closed port %u", name_.c_str(), wr.port);
    return;
  }
  if (wr.size == 0 ||
      (wr.cmd != RmaCmd::kPut && wr.cmd != RmaCmd::kGet)) {
    ++protocol_violations_;
    PG_WARN("extoll", "%s: malformed WR on port %u", name_.c_str(), wr.port);
    return;
  }
  PortState& port = ports_[wr.port];
  if (port.gated) {
    // Software posted a second WR before the requester freed the page.
    ++protocol_violations_;
    PG_WARN("extoll", "%s: WR posted to gated port %u", name_.c_str(),
            wr.port);
    return;
  }
  port.gated = true;
  port.wr_posted_at = sim_.now();
  // The poster queued this WR's lifecycle under the port's requester
  // page (host drivers push before their MMIO writes; GPU-built WRs are
  // minted at the first staging write). Accepting the WR ends the post
  // stage. Direct callers that queued nothing leave flow == 0.
  port.flow = obs::flow_pop(obs::flow_key(
      &fabric_, AddressMap::kExtollBarBase + wr.port * kRequesterPageSize));
  obs::flow_stage(port.flow, name_.c_str(), "post", sim_.now());
  if (obs::metrics()) {
    obs::count(wr.cmd == RmaCmd::kPut ? "extoll.puts_posted"
                                      : "extoll.gets_posted");
  }
  if (obs::enabled()) {
    obs::instant(name_.c_str(), "rma", "wr-posted", sim_.now(),
                 {{"port", wr.port},
                  {"cmd", wr.cmd == RmaCmd::kPut ? "put" : "get"},
                  {"size", wr.size}});
  }
  requester_fifo_.push_back(wr);
  pump_requester();
}

// ---------------------------------------------------------------------------
// Requester.

void ExtollNic::pump_requester() {
  if (requester_busy_ || requester_fifo_.empty()) return;
  requester_busy_ = true;
  const WorkRequest wr = requester_fifo_.front();
  requester_fifo_.pop_front();
  sim_.schedule(core_cycles(cfg_.wr_decode_cycles), [this, wr] {
    // Decode complete; the requester can accept the next descriptor while
    // this one's payload streams.
    requester_busy_ = false;
    if (wr.cmd == RmaCmd::kPut) {
      auto src = atu_.translate(wr.src_nla, wr.size, mem::Access::kRead);
      if (!src.is_ok()) {
        ++translation_faults_;
        PG_WARN("extoll", "%s: put source translation fault", name_.c_str());
        requester_finished(wr);
      } else {
        execute_put(wr, *src);
      }
    } else {
      execute_get(wr);
    }
    pump_requester();
  });
}

void ExtollNic::execute_put(const WorkRequest& wr, Addr src_addr) {
  // Stream the payload in segments: DMA-pull a segment, push it through
  // the 64-bit core datapath, hand it to the link. The pull of segment
  // k+1 overlaps the push of segment k (the hardware streams), so a
  // single large put approaches min(pull rate, core rate, link rate)
  // instead of their serial sum. Every segment frame carries the routing
  // metadata (each is a separate frame on the wire, so each must steer
  // at relays).
  const obs::FlowId flow = ports_[wr.port].flow;
  Frame f;
  f.kind = Frame::Kind::kPutSegment;
  f.port = wr.port;
  f.total_size = wr.size;
  f.src_nla = wr.src_nla;
  f.dst_nla = wr.dst_nla;
  f.notify_completer = wr.notify_completer;
  dma_->stream(
      src_addr, wr.size, cfg_.segment_bytes, flow,
      [this, wr, f](std::uint64_t offset, bool last, mem::Payload data) {
        const SimTime start = std::max(sim_.now(), datapath_busy_until_);
        datapath_busy_until_ = start + core_rate().transfer_time(data.size());
        Frame seg = f;
        seg.offset = offset;
        seg.last = last;
        seg.payload = std::move(data);
        // The capture fills the event's inline buffer exactly, so the
        // flow is read at send time: the port stays gated, holding this
        // WR's flow, until requester_finished.
        sim_.schedule_at(datapath_busy_until_, [this, wr, seg = std::move(seg)] {
          // The last segment carries the lifecycle across the wire;
          // requester_finished (same instant) closes the nic_fetch
          // stage, so wire begins exactly here.
          terminal_.send(wr.dst_node, seg.encode(),
                         seg.last ? ports_[wr.port].flow : 0);
          if (seg.last) requester_finished(wr);
        });
      });
}

void ExtollNic::execute_get(const WorkRequest& wr) {
  Frame f;
  f.kind = Frame::Kind::kGetRequest;
  f.port = wr.port;
  f.total_size = wr.size;
  f.src_nla = wr.src_nla;  // remote side's source
  f.dst_nla = wr.dst_nla;  // our local destination
  f.notify_completer = wr.notify_completer;
  f.last = true;
  terminal_.send(wr.dst_node, f.encode(), ports_[wr.port].flow);
  requester_finished(wr);
}

void ExtollNic::requester_finished(const WorkRequest& wr) {
  PortState& port = ports_[wr.port];
  port.gated = false;  // the requester page can take the next WR
  // Decode + payload pull + datapath drain: the NIC is done touching
  // this message locally (its wire/remote stages continue elsewhere).
  obs::flow_stage(port.flow, name_.c_str(), "nic_fetch", sim_.now());
  if (obs::metrics()) {
    obs::observe("extoll.wr_requester_ns",
                 static_cast<std::uint64_t>(
                     to_ns(sim_.now() - port.wr_posted_at)));
  }
  if (obs::enabled()) {
    obs::span(name_.c_str(), "rma", "wr-requester", port.wr_posted_at,
              sim_.now(), {{"port", wr.port}, {"size", wr.size}});
  }
  if (wr.notify_requester) {
    Notification n;
    n.unit = NotifyUnit::kRequester;
    n.port = wr.port;
    n.size = wr.size;
    n.seq = ++port.req_seq;
    n.nla = wr.src_nla;
    write_notification(port, port.req_queue, n);
  }
}

// ---------------------------------------------------------------------------
// Completer / responder.

void ExtollNic::on_frame(net::Frame wire, const net::Arrival& at) {
  auto frame = Frame::decode(std::move(wire));
  if (!frame.is_ok()) {
    ++protocol_violations_;
    PG_ERROR("extoll", "%s: undecodable frame", name_.c_str());
    return;
  }
  // The last data-bearing frame of a message carries its lifecycle.
  const obs::FlowId flow = frame->last ? terminal_.claim_flow(at) : 0;
  switch (frame->kind) {
    case Frame::Kind::kPutSegment:
      complete_segment(std::move(*frame), flow, puts_completed_,
                       "extoll.puts_completed", "put-complete");
      break;
    case Frame::Kind::kGetRequest:
      handle_get_request(*frame, at, flow);
      break;
    case Frame::Kind::kGetResponse:
      complete_segment(std::move(*frame), flow, gets_completed_,
                       "extoll.gets_completed", "get-complete");
      break;
  }
}

void ExtollNic::complete_segment(Frame f, obs::FlowId flow,
                                 std::uint64_t& completed, const char* metric,
                                 const char* label) {
  auto dst = atu_.translate(f.dst_nla + f.offset, f.payload.size(),
                            mem::Access::kWrite);
  if (!dst.is_ok()) {
    ++translation_faults_;
    PG_WARN("extoll", "%s: %s destination translation fault", name_.c_str(),
            f.kind == Frame::Kind::kPutSegment ? "put" : "get");
    return;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(f.payload.size());
  const SimTime start = std::max(sim_.now(), completer_busy_until_);
  completer_busy_until_ = start + core_cycles(cfg_.completer_cycles) +
                          core_rate().transfer_time(len);
  // Runs once the segment landed; the last one completes the transfer.
  // It carries frame metadata only, not another copy of the data.
  std::function<void()> landed = [] {};
  if (f.last) {
    landed = [this, &completed, metric, label, flow, port = f.port,
              size = f.total_size, notify = f.notify_completer,
              nla = f.dst_nla, tail = *dst + len - 1] {
      ++completed;
      obs::flow_stage(flow, name_.c_str(), "remote_dma", sim_.now());
      if (obs::metrics()) obs::count(metric);
      if (obs::enabled()) {
        obs::instant(name_.c_str(), "rma", label, sim_.now(),
                     {{"port", port}, {"size", size}});
      }
      PortState& ps = ports_[port];
      if (notify && ps.opened) {
        Notification n;
        n.unit = NotifyUnit::kCompleter;
        n.port = port;
        n.size = size;
        n.seq = ++ps.cmp_seq;
        n.nla = nla;
        write_notification(ps, ps.cmp_queue, n, flow);
      } else if (flow != 0) {
        // No notification: the consumer detects arrival by polling the
        // payload's final bytes, so park the lifecycle under the last
        // written address for the poll loop to claim.
        obs::flow_push(obs::flow_key(&fabric_, tail), flow);
      }
    };
  }
  sim_.schedule_at(completer_busy_until_,
                   [this, dst = *dst, payload = std::move(f.payload), flow,
                    landed = std::move(landed)]() mutable {
                     dma_->write(dst, std::move(payload), std::move(landed),
                                 flow);
                   });
}

void ExtollNic::handle_get_request(const Frame& f, const net::Arrival& at,
                                   obs::FlowId flow) {
  auto src =
      atu_.translate(f.src_nla, f.total_size, mem::Access::kRead);
  if (!src.is_ok()) {
    ++translation_faults_;
    PG_WARN("extoll", "%s: get source translation fault", name_.c_str());
    return;
  }
  // The completer pulls the data and hands it to the responder, which
  // streams response segments back to the requesting terminal — routed
  // home when the request names one (on direct-attached pairs the route
  // resolves to the arrival link, the legacy behaviour), otherwise over
  // the arrival link.
  const bool routed = at.meta.src_node >= 0 && terminal_.node_id() >= 0;
  const int reply_to = routed ? at.meta.src_node : -1;
  const net::Port hop = routed ? net::Port{} : at.port;
  Frame resp = f;  // same port, size, NLAs and notify flag
  resp.kind = Frame::Kind::kGetResponse;
  dma_->stream(
      *src, f.total_size, cfg_.segment_bytes, flow,
      [this, resp, hop, reply_to, flow](std::uint64_t offset, bool last,
                                        mem::Payload data) {
        const SimTime start = std::max(sim_.now(), responder_busy_until_);
        responder_busy_until_ = start + core_cycles(cfg_.responder_cycles) +
                                core_rate().transfer_time(data.size());
        Frame seg = resp;
        seg.offset = offset;
        seg.last = last;
        seg.payload = std::move(data);
        sim_.schedule_at(responder_busy_until_, [this, hop, reply_to, flow,
                                                 seg = std::move(seg)] {
          const bool last = seg.last;
          if (last) {
            // The responder's pull + push is the remote half of the
            // get's fetch work; the response's wire leg accumulates into
            // the same "wire" stage.
            obs::flow_stage(flow, name_.c_str(), "nic_fetch", sim_.now());
          }
          terminal_.send(reply_to, seg.encode(), last ? flow : 0, hop);
        });
      });
}

// ---------------------------------------------------------------------------
// Notifications.

void ExtollNic::write_notification(PortState& port, NotifQueue& queue,
                                   const Notification& n, obs::FlowId flow) {
  // The NIC sees read-pointer updates as MMIO writes from the consumer;
  // modelled as a zero-time peek of the pointer cell.
  const std::uint32_t rp = memory_.read_u32(queue.rp_addr);
  if (queue.wp - rp >= queue.entries) {
    ++notifications_dropped_;
    PG_ERROR("extoll", "%s: notification queue overflow (port %u)",
             name_.c_str(), n.port);
    return;
  }
  const Addr slot =
      queue.slot_base + (queue.wp % queue.entries) * kNotificationBytes;
  ++queue.wp;
  mem::Payload bytes = fabric_.payloads().acquire(kNotificationBytes);
  const std::uint64_t w0 = n.encode_word0();
  const std::uint64_t w1 = n.encode_word1();
  std::memcpy(bytes.writable().data(), &w0, 8);
  std::memcpy(bytes.writable().data() + 8, &w1, 8);
  ++notifications_written_;
  // When a sink is attached, ride the delivery callback to mark the moment
  // the notification lands in host memory (the consumer's poll target).
  std::function<void()> on_delivered;
  if (obs::enabled() || obs::metrics() || flow != 0) {
    const bool requester = n.unit == NotifyUnit::kRequester;
    const SimTime t_posted = port.wr_posted_at;
    const std::uint8_t nport = n.port;
    const std::uint32_t nsize = n.size;
    on_delivered = [this, requester, t_posted, nport, nsize, flow, slot] {
      // The notification slot just landed: close notify_write and park
      // the lifecycle under the slot address for whichever consumer
      // (host spin loop or GPU kernel) polls it.
      obs::flow_stage(flow, name_.c_str(), "notify_write", sim_.now());
      obs::flow_push(obs::flow_key(&fabric_, slot), flow);
      if (obs::metrics()) {
        obs::count("extoll.notifications");
        if (requester) {
          obs::observe("extoll.wr_to_notify_ns",
                       static_cast<std::uint64_t>(
                           to_ns(sim_.now() - t_posted)));
        }
      }
      if (obs::enabled()) {
        if (requester) {
          obs::span(name_.c_str(), "rma", "wr-to-notify", t_posted,
                    sim_.now(), {{"port", nport}, {"size", nsize}});
        } else {
          obs::instant(name_.c_str(), "rma", "cmp-notify-delivered",
                       sim_.now(), {{"port", nport}, {"size", nsize}});
        }
      }
    };
  }
  sim_.schedule(core_cycles(cfg_.notification_cycles),
                [this, slot, bytes = std::move(bytes),
                 cb = std::move(on_delivered)]() mutable {
                  fabric_.write(endpoint_id_, slot, std::move(bytes),
                                std::move(cb));
                });
}

// ---------------------------------------------------------------------------
// PCIe endpoint: the BAR requester pages.

void ExtollNic::inbound_write(Addr addr, std::span<const std::uint8_t> data) {
  assert(addr >= AddressMap::kExtollBarBase);
  const std::uint64_t offset = addr - AddressMap::kExtollBarBase;
  const std::uint32_t port_id =
      static_cast<std::uint32_t>(offset / kRequesterPageSize);
  const std::uint64_t word_off = offset % kRequesterPageSize;
  if (port_id >= cfg_.num_ports || data.size() != 8 || word_off > 16 ||
      word_off % 8 != 0) {
    ++protocol_violations_;
    PG_WARN("extoll", "%s: stray BAR write at +0x%llx (%zu bytes)",
            name_.c_str(), static_cast<unsigned long long>(offset),
            data.size());
    return;
  }
  PortState& port = ports_[port_id];
  std::uint64_t value = 0;
  std::memcpy(&value, data.data(), 8);
  const unsigned word = static_cast<unsigned>(word_off / 8);
  if (word == 0) {
    // First staging word of a WR. Host drivers queued the lifecycle
    // before their MMIO writes; a GPU-built WR announces itself here,
    // so mint its flow now - the post stage then covers the BAR write
    // serialization the device actually pays.
    obs::flow_ensure_parked(obs::flow_key(&fabric_, addr - word_off),
                            sim_.now());
  }
  port.staging[word] = value;
  port.staged_mask |= static_cast<std::uint8_t>(1u << word);
  if (word_off == kWrWord2Offset) {
    if (port.staged_mask != 0b111) {
      ++protocol_violations_;
      PG_WARN("extoll", "%s: WR kicked with incomplete staging on port %u",
              name_.c_str(), port_id);
      port.staged_mask = 0;
      return;
    }
    port.staged_mask = 0;
    WorkRequest wr = WorkRequest::decode(port.staging[0], port.staging[1],
                                         port.staging[2]);
    wr.port = static_cast<std::uint8_t>(port_id);  // page implies the port
    post_work_request(wr);
  }
}

SimTime ExtollNic::inbound_read(SimTime arrival, Addr /*addr*/,
                                std::span<std::uint8_t> out) {
  // The requester pages are write-only; reads return zeros (and would be
  // a software bug worth noticing).
  PG_WARN("extoll", "%s: read from write-only BAR", name_.c_str());
  std::fill(out.begin(), out.end(), 0);
  return arrival + core_cycles(4);
}

}  // namespace pg::extoll

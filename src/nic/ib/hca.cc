#include "nic/ib/hca.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/log.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::ib {

using mem::Addr;
using mem::AddressMap;

namespace {

const char* opcode_name(WqeOpcode op) {
  switch (op) {
    case WqeOpcode::kRdmaWrite: return "rdma-write";
    case WqeOpcode::kRdmaRead: return "rdma-read";
    case WqeOpcode::kSend: return "send";
    case WqeOpcode::kRdmaWriteImm: return "rdma-write-imm";
    case WqeOpcode::kInvalid: break;
  }
  return "invalid";
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame codec. Header is 44 bytes.

net::Frame Hca::Frame::encode() const {
  net::Frame wire;
  std::uint8_t* h = wire.header.data();
  wire.header_len = 44;
  h[0] = static_cast<std::uint8_t>(kind);
  h[1] = last ? 1 : 0;
  h[2] = static_cast<std::uint8_t>(status);
  h[3] = 0;
  std::memcpy(h + 4, &dst_qpn, 4);
  std::memcpy(h + 8, &total, 4);
  std::memcpy(h + 12, &imm, 4);
  std::memcpy(h + 16, &psn, 4);
  std::memcpy(h + 20, &offset, 8);
  std::memcpy(h + 28, &raddr, 8);
  std::memcpy(h + 36, &rkey, 4);
  wire.payload = payload;
  return wire;
}

Result<Hca::Frame> Hca::Frame::decode(net::Frame wire) {
  if (wire.header_len < 44) {
    return invalid_argument("IB frame shorter than header");
  }
  const std::uint8_t* h = wire.header.data();
  Frame f;
  f.kind = static_cast<Kind>(h[0]);
  f.last = h[1] != 0;
  f.status = static_cast<WcStatus>(h[2]);
  std::memcpy(&f.dst_qpn, h + 4, 4);
  std::memcpy(&f.total, h + 8, 4);
  std::memcpy(&f.imm, h + 12, 4);
  std::memcpy(&f.psn, h + 16, 4);
  std::memcpy(&f.offset, h + 20, 8);
  std::memcpy(&f.raddr, h + 28, 8);
  std::memcpy(&f.rkey, h + 36, 4);
  f.payload = std::move(wire.payload);
  return f;
}

// ---------------------------------------------------------------------------
// Construction.

Hca::Hca(sim::Simulation& sim, pcie::Fabric& fabric, mem::MemoryDomain& memory,
         HcaConfig cfg, std::string name)
    : sim_(sim),
      fabric_(fabric),
      memory_(memory),
      cfg_(cfg),
      name_(std::move(name)),
      terminal_(name_, [this](net::Frame wire, const net::Arrival& at) {
        on_frame(std::move(wire), at);
      }) {
  endpoint_id_ = fabric_.attach(name_, this, cfg_.pcie_link);
  fabric_.claim_range(endpoint_id_, AddressMap::kIbUarBase,
                      AddressMap::kIbUarSize);
  dma_ = std::make_unique<pcie::DmaEngine>(sim_, fabric_, endpoint_id_,
                                           cfg_.dma);
  qps_.resize(cfg_.max_qps);
  cqs_.resize(cfg_.max_cqs);
}

Hca::~Hca() = default;

void Hca::link_send(const Qp& qp, net::Frame frame, obs::FlowId flow) {
  terminal_.send(qp.remote_node, std::move(frame), flow, qp.route);
}

SimTime Hca::occupy_engine(SimDuration service) {
  const SimTime start = std::max(sim_.now(), engine_busy_until_);
  engine_busy_until_ = start + service;
  return engine_busy_until_;
}

// ---------------------------------------------------------------------------
// Resource API.

Result<Mr> Hca::reg_mr(Addr base, std::uint64_t length, mem::Access access) {
  auto reg = mr_table_.register_region(base, length, access);
  if (!reg.is_ok()) return reg.status();
  return Mr{reg->key, reg->key};
}

Status Hca::dereg_mr(std::uint32_t lkey) { return mr_table_.deregister(lkey); }

Result<CqInfo> Hca::create_cq(Addr buffer, std::uint32_t entries) {
  if (entries == 0) return invalid_argument("create_cq: zero entries");
  if (!memory_.backed(buffer, entries * kCqeBytes + kCqTailBytes)) {
    return invalid_argument("create_cq: buffer not in DRAM-backed memory");
  }
  for (std::uint32_t id = 0; id < cqs_.size(); ++id) {
    if (cqs_[id].used) continue;
    Cq& cq = cqs_[id];
    cq.used = true;
    cq.pi = 0;
    cq.info = CqInfo{id, buffer, entries, buffer + entries * kCqeBytes};
    return cq.info;
  }
  return resource_exhausted("create_cq: all CQs in use");
}

Result<QpInfo> Hca::create_qp(Addr sq_buffer, std::uint32_t sq_entries,
                              Addr rq_buffer, std::uint32_t rq_entries,
                              std::uint32_t send_cq, std::uint32_t recv_cq) {
  if (sq_entries == 0 || rq_entries == 0) {
    return invalid_argument("create_qp: zero-entry queues");
  }
  if (!memory_.backed(sq_buffer, sq_entries * kSendWqeBytes) ||
      !memory_.backed(rq_buffer, rq_entries * kRecvWqeBytes)) {
    return invalid_argument("create_qp: ring not in DRAM-backed memory");
  }
  if (send_cq >= cqs_.size() || !cqs_[send_cq].used || recv_cq >= cqs_.size() ||
      !cqs_[recv_cq].used) {
    return not_found("create_qp: unknown completion queue");
  }
  // qpn 0 stays reserved (as on real hardware).
  for (std::uint32_t qpn = 1; qpn < qps_.size(); ++qpn) {
    if (qps_[qpn].used) continue;
    Qp& qp = qps_[qpn];
    qp = Qp{};
    qp.used = true;
    qp.info = QpInfo{qpn,      sq_buffer, sq_entries,
                     rq_buffer, rq_entries, sq_doorbell_addr(qpn),
                     rq_doorbell_addr(qpn), send_cq,   recv_cq};
    return qp.info;
  }
  return resource_exhausted("create_qp: all QPs in use");
}

Status Hca::connect_qp(std::uint32_t qpn, std::uint32_t remote_qpn) {
  return connect_qp(qpn, remote_qpn, nullptr, 0);
}

Status Hca::connect_qp(std::uint32_t qpn, std::uint32_t remote_qpn,
                       net::NetworkLink* link, int side, int remote_node) {
  if (qpn >= qps_.size() || !qps_[qpn].used) {
    return not_found("connect_qp: unknown QP");
  }
  if (link != nullptr && qps_[qpn].route.link != nullptr) {
    return invalid_argument(
        name_ + ": QP " + std::to_string(qpn) +
        " is already routed; re-routing a connected QP would silently "
        "repoint its egress");
  }
  qps_[qpn].remote_qpn = remote_qpn;
  qps_[qpn].route = net::Port{link, side};
  qps_[qpn].remote_node = remote_node;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Doorbells.

void Hca::inbound_write(Addr addr, std::span<const std::uint8_t> data) {
  assert(addr >= AddressMap::kIbUarBase);
  const std::uint64_t offset = addr - AddressMap::kIbUarBase;
  const std::uint32_t qpn = static_cast<std::uint32_t>(offset / kUarBytesPerQp);
  const bool is_rq = (offset % kUarBytesPerQp) >= 8;
  if (qpn >= qps_.size() || !qps_[qpn].used || data.size() < 4) {
    PG_WARN("ib", "%s: stray doorbell write at +0x%llx", name_.c_str(),
            static_cast<unsigned long long>(offset));
    return;
  }
  std::uint32_t value = 0;
  std::memcpy(&value, data.data(), 4);
  Qp& qp = qps_[qpn];
  if (obs::metrics()) obs::count("ib.doorbells");
  if (obs::enabled()) {
    obs::instant(name_.c_str(), "uar",
                 is_rq ? "rq-doorbell" : "sq-doorbell", sim_.now(),
                 {{"qpn", qpn}, {"tail", value}});
  }
  if (is_rq) {
    qp.rq_tail = value;
    return;
  }
  // GPU-posted WQEs have no host-side announcement: start their message
  // lifecycle when the doorbell lands. Host-posted WQEs queued a flow at
  // post time, so their channel is non-empty and nothing is minted.
  obs::flow_ensure_parked(obs::flow_key(&fabric_, sq_doorbell_addr(qpn)),
                          sim_.now());
  qp.sq_tail = value;
  kick_sq(qpn);
}

SimTime Hca::inbound_read(SimTime arrival, Addr /*addr*/,
                          std::span<std::uint8_t> out) {
  PG_WARN("ib", "%s: read from write-only UAR", name_.c_str());
  std::fill(out.begin(), out.end(), 0);
  return arrival + nanoseconds(100);
}

// ---------------------------------------------------------------------------
// Send-queue engine.

void Hca::kick_sq(std::uint32_t qpn) {
  Qp& qp = qps_[qpn];
  if (qp.sq_running) return;
  qp.sq_running = true;
  sq_step(qpn);
}

void Hca::sq_step(std::uint32_t qpn) {
  Qp& qp = qps_[qpn];
  if (qp.sq_head == qp.sq_tail) {
    qp.sq_running = false;
    return;
  }
  const Addr slot =
      qp.info.sq_buffer + (qp.sq_head % qp.info.sq_entries) * kSendWqeBytes;
  const SimTime t_fetch = sim_.now();
  // The message lifecycle opened at post time waits on this QP's doorbell
  // channel; picking it up here closes the post stage. WQEs the host
  // driver never announced (e.g. GPU-posted rings) start their lifecycle
  // at the fetch instead, with an empty post stage.
  const obs::FlowId flow = obs::flow_pop_or_begin(
      obs::flow_key(&fabric_, sq_doorbell_addr(qpn)), t_fetch);
  obs::flow_stage(flow, name_.c_str(), "post", t_fetch);
  // Fetch the WQE across PCIe (host memory, or the P2P path when the ring
  // lives in GPU memory).
  dma_->read(slot, kSendWqeBytes,
             [this, qpn, slot, t_fetch, flow](mem::Payload bytes) {
               Qp& qp = qps_[qpn];
               if (obs::metrics()) {
                 obs::count("ib.wqe_fetches");
                 obs::observe("ib.wqe_fetch_ns",
                              static_cast<std::uint64_t>(
                                  to_ns(sim_.now() - t_fetch)));
               }
               if (obs::enabled()) {
                 obs::span(name_.c_str(), "sq", "wqe-fetch", t_fetch,
                           sim_.now(), {{"qpn", qpn}, {"slot", slot}});
               }
               if (!send_wqe_stamp_valid(bytes.data())) {
                 ++stamp_errors_;
                 PG_ERROR("ib", "%s: unstamped WQE on QP %u (head %u)",
                          name_.c_str(), qpn, qp.sq_head);
                 qp.sq_running = false;
                 return;
               }
               const SendWqe wqe = decode_send_wqe(bytes.data());
               const SimTime ready = occupy_engine(cfg_.wqe_process);
               sim_.schedule_at(ready, [this, qpn, wqe, flow] {
                 Qp& qp = qps_[qpn];
                 ++qp.sq_head;
                 obs::flow_stage(flow, name_.c_str(), "nic_fetch",
                                 sim_.now());
                 execute_wqe(qpn, wqe, flow, [this, qpn] { sq_step(qpn); });
               });
             },
             flow);
}

void Hca::execute_wqe(std::uint32_t qpn, const SendWqe& wqe, obs::FlowId flow,
                      std::function<void()> done) {
  Qp& qp = qps_[qpn];
  const std::uint32_t psn = qp.next_psn++;
  ++messages_sent_;

  auto protection_fault = [&](const char* what) {
    ++protection_errors_;
    PG_WARN("ib", "%s: %s on QP %u", name_.c_str(), what, qpn);
    // Local protection errors always complete with an error CQE.
    write_cqe(qp.info.send_cq,
              Cqe{wqe.wr_id, qpn, wqe.byte_len, wqe.opcode,
                  WcStatus::kProtectionError, false, wqe.imm});
    done();
  };

  switch (wqe.opcode) {
    case WqeOpcode::kRdmaWrite:
    case WqeOpcode::kRdmaWriteImm:
    case WqeOpcode::kSend: {
      Addr src = 0;
      if (wqe.byte_len > 0) {
        auto check = mr_table_.check(wqe.lkey, wqe.laddr, wqe.byte_len,
                                     mem::Access::kRead);
        if (!check.is_ok()) {
          protection_fault("lkey validation failed");
          return;
        }
        src = wqe.laddr;
      }
      qp.await_ack.push_back(PendingAck{psn, wqe.wr_id, wqe.opcode,
                                        wqe.byte_len, wqe.signaled,
                                        sim_.now()});
      const Frame::Kind kind = wqe.opcode == WqeOpcode::kRdmaWrite
                                   ? Frame::Kind::kWrite
                                   : (wqe.opcode == WqeOpcode::kRdmaWriteImm
                                          ? Frame::Kind::kWriteImm
                                          : Frame::Kind::kSend);
      stream_message(qpn, kind, wqe, src, psn, flow, std::move(done));
      return;
    }
    case WqeOpcode::kRdmaRead: {
      auto check = mr_table_.check(wqe.lkey, wqe.laddr, wqe.byte_len,
                                   mem::Access::kWrite);
      if (!check.is_ok()) {
        protection_fault("read lkey validation failed");
        return;
      }
      qp.pending_reads[psn] =
          PendingRead{wqe.laddr, wqe.wr_id, wqe.byte_len, wqe.signaled};
      Frame f;
      f.kind = Frame::Kind::kReadReq;
      f.last = true;
      f.dst_qpn = qp.remote_qpn;
      f.total = wqe.byte_len;
      f.psn = psn;
      f.raddr = wqe.raddr;
      f.rkey = wqe.rkey;
      link_send(qp, f.encode(), flow);
      done();
      return;
    }
    case WqeOpcode::kInvalid:
      protection_fault("invalid opcode");
      return;
  }
}

void Hca::stream_message(std::uint32_t qpn, Frame::Kind kind,
                         const SendWqe& wqe, Addr src, std::uint32_t psn,
                         obs::FlowId flow, std::function<void()> done) {
  Qp& qp = qps_[qpn];
  Frame f;
  f.kind = kind;
  f.last = true;
  f.dst_qpn = qp.remote_qpn;
  f.total = wqe.byte_len;
  f.imm = wqe.imm;
  f.psn = psn;
  f.raddr = wqe.raddr;
  f.rkey = wqe.rkey;
  // Zero-length messages (e.g. write-with-immediate used purely for
  // synchronization) are a single header-only frame.
  if (wqe.byte_len == 0) {
    link_send(qp, f.encode(), flow);
    done();
    return;
  }
  dma_->stream(src, wqe.byte_len, cfg_.segment_bytes, flow,
               [this, qpn, f, flow, done = std::move(done)](
                   std::uint64_t offset, bool last, mem::Payload data) {
                 Frame seg = f;
                 seg.offset = offset;
                 seg.last = last;
                 seg.payload = std::move(data);
                 link_send(qps_[qpn], seg.encode(), last ? flow : 0);
                 if (last) done();
               });
}

// ---------------------------------------------------------------------------
// Receive side.

void Hca::on_frame(net::Frame wire, const net::Arrival& at) {
  auto frame = Frame::decode(std::move(wire));
  if (!frame.is_ok()) {
    PG_ERROR("ib", "%s: undecodable frame", name_.c_str());
    return;
  }
  if (frame->dst_qpn >= qps_.size() || !qps_[frame->dst_qpn].used) {
    PG_WARN("ib", "%s: frame for unknown QP %u", name_.c_str(),
            frame->dst_qpn);
    return;
  }
  // The last data-bearing frame of a message carries its lifecycle;
  // ACK/NAK frames never do.
  obs::FlowId flow = 0;
  if (frame->last && frame->kind != Frame::Kind::kAck &&
      frame->kind != Frame::Kind::kNak) {
    flow = terminal_.claim_flow(at);
  }
  switch (frame->kind) {
    case Frame::Kind::kWrite:
      handle_write_segment(*frame, /*with_imm=*/false, flow);
      break;
    case Frame::Kind::kWriteImm:
      handle_write_segment(*frame, /*with_imm=*/true, flow);
      break;
    case Frame::Kind::kSend:
      handle_send_segment(*frame, flow);
      break;
    case Frame::Kind::kReadReq:
      handle_read_request(*frame, flow);
      break;
    case Frame::Kind::kReadResp:
      handle_read_response(*frame, flow);
      break;
    case Frame::Kind::kAck:
      handle_ack(*frame, /*nak=*/false);
      break;
    case Frame::Kind::kNak:
      handle_ack(*frame, /*nak=*/true);
      break;
  }
}

void Hca::handle_write_segment(const Frame& f, bool with_imm,
                               obs::FlowId flow) {
  Qp& qp = qps_[f.dst_qpn];
  auto deliver_tail = [this, f, with_imm, flow, &qp] {
    if (!f.last) return;
    ++messages_delivered_;
    obs::flow_stage(flow, name_.c_str(), "remote_dma", sim_.now());
    if (with_imm) {
      // Write-with-immediate consumes a receive WQE (whose address may be
      // unused) and produces a receive completion carrying the immediate.
      fetch_recv_wqe(qp, [this, f, flow, &qp](Result<RecvWqe> recv) {
        if (!recv.is_ok()) {
          ++rnr_errors_;
          send_nak(f.dst_qpn, f.psn, WcStatus::kRnrError);
          return;
        }
        write_cqe(qp.info.recv_cq,
                  Cqe{recv->wr_id, qp.info.qpn, f.total,
                      WqeOpcode::kRdmaWriteImm, WcStatus::kSuccess, true,
                      f.imm},
                  flow);
        send_ack(f.dst_qpn, f.psn);
      });
    } else {
      // Plain writes raise no completion at the target: a device-side
      // poller detects arrival by spinning on the payload's tail bytes,
      // so the lifecycle waits on the last written byte's channel.
      if (flow != 0 && f.total > 0) {
        obs::flow_push(obs::flow_key(&fabric_, f.raddr + f.total - 1), flow);
      }
      send_ack(f.dst_qpn, f.psn);
    }
  };

  if (f.payload.empty()) {
    deliver_tail();
    return;
  }
  auto check = mr_table_.check(f.rkey, f.raddr + f.offset, f.payload.size(),
                               mem::Access::kWrite);
  if (!check.is_ok()) {
    ++protection_errors_;
    if (f.last) send_nak(f.dst_qpn, f.psn, WcStatus::kProtectionError);
    return;
  }
  dma_->write(f.raddr + f.offset, f.payload,
              [deliver_tail] { deliver_tail(); }, f.last ? flow : 0);
}

void Hca::handle_send_segment(const Frame& f, obs::FlowId flow) {
  Qp& qp = qps_[f.dst_qpn];
  if (qp.dropping && qp.dropping_psn == f.psn) {
    if (f.last) qp.dropping = false;
    return;
  }
  if (f.offset == 0 && !qp.recv_active) {
    // First segment: consume a receive WQE, then deliver.
    fetch_recv_wqe(qp, [this, f, flow, &qp](Result<RecvWqe> recv) {
      if (!recv.is_ok()) {
        ++rnr_errors_;
        qp.dropping = !f.last;
        qp.dropping_psn = f.psn;
        send_nak(f.dst_qpn, f.psn, WcStatus::kRnrError);
        return;
      }
      if (recv->len < f.total) {
        ++protection_errors_;
        qp.dropping = !f.last;
        qp.dropping_psn = f.psn;
        send_nak(f.dst_qpn, f.psn, WcStatus::kProtectionError);
        return;
      }
      qp.recv_active = true;
      qp.active_recv = *recv;
      deliver_send_payload(f, flow);
    });
    return;  // delivery continues from the RQ-fetch callback
  }
  if (!qp.recv_active) {
    // Segments beyond the first of a message we failed to match.
    return;
  }
  deliver_send_payload(f, flow);
}

void Hca::deliver_send_payload(const Frame& f, obs::FlowId flow) {
  Qp& qp = qps_[f.dst_qpn];
  const RecvWqe recv = qp.active_recv;
  auto finish = [this, f, flow, &qp, recv] {
    if (!f.last) return;
    qp.recv_active = false;
    ++messages_delivered_;
    obs::flow_stage(flow, name_.c_str(), "remote_dma", sim_.now());
    write_cqe(qp.info.recv_cq,
              Cqe{recv.wr_id, qp.info.qpn, f.total, WqeOpcode::kSend,
                  WcStatus::kSuccess, true, f.imm},
              flow);
    send_ack(f.dst_qpn, f.psn);
  };
  if (f.payload.empty()) {
    finish();
    return;
  }
  auto check = mr_table_.check(recv.lkey, recv.addr + f.offset,
                               f.payload.size(), mem::Access::kWrite);
  if (!check.is_ok()) {
    ++protection_errors_;
    qp.recv_active = false;
    if (f.last) send_nak(f.dst_qpn, f.psn, WcStatus::kProtectionError);
    return;
  }
  dma_->write(recv.addr + f.offset, f.payload, [finish] { finish(); },
              f.last ? flow : 0);
}

void Hca::handle_read_request(const Frame& f, obs::FlowId flow) {
  Qp& qp = qps_[f.dst_qpn];
  auto check =
      mr_table_.check(f.rkey, f.raddr, f.total, mem::Access::kRead);
  if (!check.is_ok()) {
    ++protection_errors_;
    send_nak(f.dst_qpn, f.psn, WcStatus::kProtectionError);
    return;
  }
  // Stream response segments back.
  Frame resp;
  resp.kind = Frame::Kind::kReadResp;
  resp.dst_qpn = qp.remote_qpn;
  resp.total = f.total;
  resp.psn = f.psn;
  dma_->stream(
      f.raddr, f.total, cfg_.segment_bytes, flow,
      [this, qpn = f.dst_qpn, resp, flow](std::uint64_t offset, bool last,
                                          mem::Payload data) {
        Frame seg = resp;
        seg.offset = offset;
        seg.last = last;
        seg.payload = std::move(data);
        if (last) {
          // Responder-side source fetch accumulates into the lifecycle's
          // nic_fetch stage.
          obs::flow_stage(flow, name_.c_str(), "nic_fetch", sim_.now());
        }
        link_send(qps_[qpn], seg.encode(), last ? flow : 0);
      });
}

void Hca::handle_read_response(const Frame& f, obs::FlowId flow) {
  Qp& qp = qps_[f.dst_qpn];
  auto it = qp.pending_reads.find(f.psn);
  if (it == qp.pending_reads.end()) {
    PG_WARN("ib", "%s: read response with unknown PSN %u", name_.c_str(),
            f.psn);
    return;
  }
  const PendingRead pending = it->second;
  dma_->write(
      pending.laddr + f.offset, f.payload,
      [this, f, flow, &qp, pending] {
        if (!f.last) return;
        qp.pending_reads.erase(f.psn);
        ++messages_delivered_;
        obs::flow_stage(flow, name_.c_str(), "remote_dma", sim_.now());
        if (pending.signaled) {
          write_cqe(qp.info.send_cq,
                    Cqe{pending.wr_id, qp.info.qpn, pending.byte_len,
                        WqeOpcode::kRdmaRead, WcStatus::kSuccess, false, 0},
                    flow);
        }
      },
      f.last ? flow : 0);
}

void Hca::handle_ack(const Frame& f, bool nak) {
  Qp& qp = qps_[f.dst_qpn];
  const SimTime ready = occupy_engine(cfg_.ack_process);
  sim_.schedule_at(ready, [this, f, nak, &qp] {
    if (qp.await_ack.empty() || qp.await_ack.front().psn != f.psn) {
      PG_WARN("ib", "%s: unexpected %s for PSN %u", name_.c_str(),
              nak ? "NAK" : "ACK", f.psn);
      return;
    }
    const PendingAck pending = qp.await_ack.front();
    qp.await_ack.pop_front();
    complete_local(qp.info.qpn, pending,
                   nak ? f.status : WcStatus::kSuccess);
  });
}

void Hca::complete_local(std::uint32_t qpn, const PendingAck& pending,
                         WcStatus status) {
  Qp& qp = qps_[qpn];
  if (obs::metrics()) {
    obs::observe("ib.wqe_to_cqe_ns",
                 static_cast<std::uint64_t>(
                     to_ns(sim_.now() - pending.t_posted)));
  }
  if (obs::enabled()) {
    obs::span(name_.c_str(), "sq", opcode_name(pending.opcode),
              pending.t_posted, sim_.now(),
              {{"qpn", qpn},
               {"bytes", pending.byte_len},
               {"ok", status == WcStatus::kSuccess}});
  }
  // Errors always complete; successes only when signaled.
  if (pending.signaled || status != WcStatus::kSuccess) {
    // The send completion is its own short lifecycle leg: it begins when
    // the ACK retires the WR and ends when the application's CQ poll
    // observes the CQE. For device-driven queues that poll rides PCIe -
    // the poll_cq cost the paper's Table II singles out.
    const obs::FlowId cflow =
        status == WcStatus::kSuccess ? obs::flow_begin(sim_.now()) : 0;
    write_cqe(qp.info.send_cq,
              Cqe{pending.wr_id, qpn, pending.byte_len, pending.opcode,
                  status, false, 0},
              cflow);
  }
}

void Hca::send_ack(std::uint32_t origin_qpn, std::uint32_t psn) {
  Frame ack;
  ack.kind = Frame::Kind::kAck;
  ack.last = true;
  ack.dst_qpn = qps_[origin_qpn].remote_qpn;
  ack.psn = psn;
  link_send(qps_[origin_qpn], ack.encode());
}

void Hca::send_nak(std::uint32_t origin_qpn, std::uint32_t psn,
                   WcStatus status) {
  Frame nak;
  nak.kind = Frame::Kind::kNak;
  nak.last = true;
  nak.dst_qpn = qps_[origin_qpn].remote_qpn;
  nak.psn = psn;
  nak.status = status;
  link_send(qps_[origin_qpn], nak.encode());
}

void Hca::fetch_recv_wqe(Qp& qp, std::function<void(Result<RecvWqe>)> cb) {
  if (qp.rq_head == qp.rq_tail) {
    cb(not_found("receive queue empty"));
    return;
  }
  const Addr slot =
      qp.info.rq_buffer + (qp.rq_head % qp.info.rq_entries) * kRecvWqeBytes;
  ++qp.rq_head;
  const SimTime ready = occupy_engine(cfg_.recv_lookup);
  sim_.schedule_at(ready, [this, slot, cb = std::move(cb)] {
    dma_->read(slot, kRecvWqeBytes,
               [cb = std::move(cb)](mem::Payload bytes) {
                 cb(decode_recv_wqe(bytes.data()));
               });
  });
}

// ---------------------------------------------------------------------------
// Completions.

void Hca::write_cqe(std::uint32_t cq_id, const Cqe& cqe, obs::FlowId flow) {
  assert(cq_id < cqs_.size() && cqs_[cq_id].used);
  Cq& cq = cqs_[cq_id];
  const std::uint32_t ci = memory_.read_u32(cq.info.ci_addr);
  if (cq.pi - ci >= cq.info.entries) {
    ++cq_overflows_;
    PG_ERROR("ib", "%s: CQ %u overflow", name_.c_str(), cq_id);
    return;
  }
  const Addr slot = cq.info.buffer + (cq.pi % cq.info.entries) * kCqeBytes;
  ++cq.pi;
  const auto bytes = encode_cqe(cqe);
  ++cqes_written_;
  if (obs::metrics()) obs::count("ib.cqes");
  if (obs::enabled()) {
    obs::instant(name_.c_str(), "cq", "cqe", sim_.now(),
                 {{"cq", cq_id},
                  {"opcode", opcode_name(cqe.opcode)},
                  {"ok", cqe.status == WcStatus::kSuccess}});
  }
  std::function<void()> on_delivered;
  if (flow != 0) {
    // The poller spins on the CQE's valid word; queue the lifecycle on
    // that address once the slot write lands.
    on_delivered = [this, flow, slot] {
      obs::flow_stage(flow, name_.c_str(), "notify_write", sim_.now());
      obs::flow_push(obs::flow_key(&fabric_, slot + kCqeValidOffset), flow);
    };
  }
  fabric_.write(endpoint_id_, slot, fabric_.payloads().copy(bytes),
                std::move(on_delivered));
}

}  // namespace pg::ib

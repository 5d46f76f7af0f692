#include "putget/gpu_aware.h"

#include "common/log.h"
#include "putget/setup.h"
#include "putget/stats.h"

namespace pg::putget {

using gpu::Assembler;
using gpu::Cmp;
using gpu::Program;
using gpu::Reg;
using gpu::Sreg;
using mem::Addr;

// ---------------------------------------------------------------------------
// Claim 2: warp-collaborative posting.

void emit_ib_post_send_warp(Assembler& a, const IbPostSendRegs& regs,
                            const IbPostSendTemplate& tmpl, Reg s0, Reg s1,
                            Reg s2, Reg s3, Reg s4, Reg s5) {
  const Reg qpc = regs.qpc;
  const Reg tid = s0;
  const Reg v = s5;
  const Reg pred = s1;
  const Reg tmp = s4;

  // Static WQE words, big-endian-converted at build time (the warp path
  // subsumes the paper's static-conversion optimization).
  const std::uint64_t w_ctrl =
      static_cast<std::uint64_t>(tmpl.opcode) |
      (static_cast<std::uint64_t>(tmpl.signaled ? 1 : 0) << 8) |
      (static_cast<std::uint64_t>(host_to_be32(tmpl.byte_len)) << 32);
  const std::uint64_t w_keys =
      static_cast<std::uint64_t>(host_to_be32(tmpl.lkey)) |
      (static_cast<std::uint64_t>(host_to_be32(tmpl.rkey)) << 32);
  const std::uint64_t w_imm_base = host_to_be32(tmpl.imm);

  a.sreg(tid, Sreg::kTidX);
  a.ld(s2, qpc, kQpcSqPi, 8);  // producer index (uniform load)

  // Each lane composes its own WQE word branch-free: the per-lane value
  // is a sum of predicate-masked terms (pred in {0,1}).
  a.movi(v, 0);
  auto term_const = [&](int lane, std::uint64_t value) {
    a.setpi(Cmp::kEq, pred, tid, lane);
    a.movi(tmp, static_cast<std::int64_t>(value));
    a.mul(tmp, tmp, pred);
    a.or_(v, v, tmp);
  };
  // word 0: control segment.
  term_const(0, w_ctrl);
  // word 1: laddr (BE64), dynamic.
  a.setpi(Cmp::kEq, pred, tid, 1);
  a.bswap64(tmp, regs.laddr);
  a.mul(tmp, tmp, pred);
  a.or_(v, v, tmp);
  // word 2: keys.
  term_const(2, w_keys);
  // word 3: raddr (BE64), dynamic.
  a.setpi(Cmp::kEq, pred, tid, 3);
  a.bswap64(tmp, regs.raddr);
  a.mul(tmp, tmp, pred);
  a.or_(v, v, tmp);
  // word 4: wr_id (host order), dynamic.
  a.setpi(Cmp::kEq, pred, tid, 4);
  a.mul(tmp, regs.wr_id, pred);
  a.or_(v, v, tmp);
  // word 5: imm | producer index << 32.
  a.setpi(Cmp::kEq, pred, tid, 5);
  a.andi(tmp, s2, 0xFFFFFFFFll);
  a.shli(tmp, tmp, 32);
  a.ori(tmp, tmp, static_cast<std::int64_t>(w_imm_base));
  a.mul(tmp, tmp, pred);
  a.or_(v, v, tmp);
  // word 6: validity stamp. word 7 stays zero.
  term_const(6, static_cast<std::uint64_t>(ib::kWqeStampValid));

  // Slot address: base + (pi & mask) * 64 + tid * 8, then ONE coalesced
  // warp store publishes the whole 64-byte WQE.
  a.ld(s3, qpc, kQpcSqBuffer, 8);
  a.ld(tmp, qpc, kQpcSqMask, 8);
  a.and_(tmp, s2, tmp);
  a.shli(tmp, tmp, 6);
  a.add(s3, s3, tmp);
  a.shli(pred, tid, 3);
  a.add(s3, s3, pred);
  a.st(s3, v, 0, 8);
  a.membar_sys();

  // Publication is inherently single-writer: lane 0 bumps the producer
  // index and rings the doorbell.
  const std::string end = a.fresh_label("post_end");
  a.ssy(end);
  a.setpi(Cmp::kNe, pred, tid, 0);
  a.bra_if(pred, end);
  a.addi(s2, s2, 1);
  a.st(qpc, s2, kQpcSqPi, 8);
  a.ld(tmp, qpc, kQpcSqDoorbell, 8);
  a.st(tmp, s2, 0, 4);
  a.bind(end);
}

Program build_ib_pingpong_warp_kernel(const IbPingPongConfig& cfg) {
  Assembler a(cfg.initiator ? "ib_warp_pingpong_initiator"
                            : "ib_warp_pingpong_responder");
  const Reg iter(8), qpc(9), laddr(10), raddr(11), wr_id(12);
  const Reg send_tag(13), recv_tag(14), stats(15), tag(16), status(17);
  const Reg t0(18), t1(19), post_sum(20), poll_sum(21), tmp(22);
  const Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  const Reg iter_start(30), post_time(31);

  a.movi(iter, 0);
  a.movi(qpc, static_cast<std::int64_t>(cfg.qp_context));
  a.movi(laddr, static_cast<std::int64_t>(cfg.laddr));
  a.movi(raddr, static_cast<std::int64_t>(cfg.raddr));
  a.movi(send_tag, static_cast<std::int64_t>(cfg.send_tag_addr));
  a.movi(recv_tag, static_cast<std::int64_t>(cfg.recv_tag_addr));
  a.movi(stats, static_cast<std::int64_t>(cfg.stats_addr));
  a.movi(post_sum, 0);
  a.movi(poll_sum, 0);

  a.sreg(t0, Sreg::kClock);
  a.st(stats, t0, kStatTStart, 8);

  IbPostSendTemplate tmpl = cfg.wqe;
  tmpl.preswap_static_fields = true;
  const IbPostSendRegs post_regs{qpc, laddr, raddr, wr_id};
  const std::string loop = a.fresh_label("iter_loop");
  a.bind(loop);
  a.sreg(iter_start, Sreg::kClock);
  a.addi(tag, iter, 1);

  auto send_side = [&] {
    a.st(send_tag, tag, 0, cfg.tag_width);
    a.mov(wr_id, iter);
    a.sreg(t0, Sreg::kClock);
    emit_ib_post_send_warp(a, post_regs, tmpl, s0, s1, s2, s3, s4, s5);
    a.sreg(t1, Sreg::kClock);
    a.sub(post_time, t1, t0);
    a.add(post_sum, post_sum, post_time);
  };
  auto recv_side = [&] {
    emit_poll_equals(a, recv_tag, tag, cfg.tag_width, s0, s1);
  };

  if (cfg.initiator) {
    send_side();
    recv_side();
  } else {
    recv_side();
    send_side();
  }
  // Retire the local completion (uniform across lanes).
  emit_ib_poll_cq(a, qpc, status, s0, s1, s2, s3, s4, s5);

  a.sreg(tmp, Sreg::kClock);
  a.sub(tmp, tmp, iter_start);
  a.sub(tmp, tmp, post_time);
  a.add(poll_sum, poll_sum, tmp);

  a.addi(iter, iter, 1);
  a.setpi(Cmp::kLtU, s0, iter, cfg.iterations);
  a.bra_if(s0, loop);

  a.sreg(t1, Sreg::kClock);
  a.st(stats, t1, kStatTEnd, 8);
  a.st(stats, post_sum, kStatPostSum, 8);
  a.st(stats, poll_sum, kStatPollSum, 8);
  a.st(stats, iter, kStatIterations, 8);
  a.exit();
  auto p = a.finish();
  assert(p.is_ok() && "warp pingpong kernel failed to assemble");
  return std::move(p).value();
}

PingPongResult run_ib_pingpong_warp(const sys::ClusterConfig& cfg,
                                    std::uint32_t size,
                                    std::uint32_t iterations) {
  PingPongResult result;
  result.iterations = iterations;
  sys::Cluster cluster(cfg);
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  auto pair = IbPair::create(cluster, QueueLocation::kGpuMemory, size, 808);
  if (!pair.is_ok()) return result;
  IbPair& p = *pair;
  const unsigned tag_width = size >= 8 ? 8 : 4;

  const Addr stats0 = n0.gpu_heap().alloc(kStatsBytes, 64);
  const Addr stats1 = n1.gpu_heap().alloc(kStatsBytes, 64);
  const Addr table0 = make_qp_table(n0, p.ep0.qp().qpn, 8);
  const Addr table1 = make_qp_table(n1, p.ep1.qp().qpn, 8);
  const Addr qpc0 = make_qp_device_context(n0, p.ep0, table0, 8);
  const Addr qpc1 = make_qp_device_context(n1, p.ep1, table1, 8);

  auto make_cfg = [&](bool initiator) {
    IbPingPongConfig c;
    c.initiator = initiator;
    c.iterations = iterations;
    c.wqe.opcode = ib::WqeOpcode::kRdmaWrite;
    c.wqe.signaled = true;
    c.wqe.byte_len = size;
    c.tag_width = tag_width;
    if (initiator) {
      c.wqe.lkey = p.mr_send0.lkey;
      c.wqe.rkey = p.mr_recv1.rkey;
      c.qp_context = qpc0;
      c.laddr = p.send0;
      c.raddr = p.recv1;
      c.send_tag_addr = p.send0 + size - tag_width;
      c.recv_tag_addr = p.recv0 + size - tag_width;
      c.stats_addr = stats0;
    } else {
      c.wqe.lkey = p.mr_send1.lkey;
      c.wqe.rkey = p.mr_recv0.rkey;
      c.qp_context = qpc1;
      c.laddr = p.send1;
      c.raddr = p.recv0;
      c.send_tag_addr = p.send1 + size - tag_width;
      c.recv_tag_addr = p.recv1 + size - tag_width;
      c.stats_addr = stats1;
    }
    return c;
  };
  const Program prog0 = build_ib_pingpong_warp_kernel(make_cfg(true));
  const Program prog1 = build_ib_pingpong_warp_kernel(make_cfg(false));
  const gpu::PerfCounters before = n0.gpu().counters_snapshot();
  sim::Trigger done0, done1;
  launch_with_trigger(
      n0.gpu(), {.program = &prog0, .threads_per_block = 8, .params = {}},
      done0);
  launch_with_trigger(
      n1.gpu(), {.program = &prog1, .threads_per_block = 8, .params = {}},
      done1);
  if (!run_to(cluster, {{0, [&] { return done0.fired(); }},
                          {1, [&] { return done1.fired(); }}})) {
    PG_ERROR("exp", "warp-collaborative ib pingpong did not converge");
    return result;
  }
  result.gpu0 = n0.gpu().counters_snapshot() - before;
  const DeviceStats st = read_device_stats(n0.memory(), stats0);
  result.half_rtt_us = st.span_ns() / 1000.0 / (2.0 * iterations);
  result.post_sum_us = st.post_sum_ns / 1000.0;
  result.poll_sum_us = st.poll_sum_ns / 1000.0;
  result.payload_ok = ranges_equal(n0, p.send0, n1, p.recv1, size) &&
                      ranges_equal(n1, p.send1, n0, p.recv0, size);
  return result;
}

// ---------------------------------------------------------------------------
// Claim 3: EXTOLL notifications in GPU memory.

PingPongResult run_extoll_pingpong_gpu_notifications(
    const sys::ClusterConfig& cfg, std::uint32_t size,
    std::uint32_t iterations) {
  PingPongResult result;
  result.iterations = iterations;
  sys::Cluster cluster(cfg);
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  auto setup = ExtollPair::create(cluster, 0, size);
  if (!setup.is_ok()) return result;
  ExtollPair& s = *setup;

  // Relocate the notification queues into each node's GPU memory: the
  // polled slots become device-local, and the NIC's DMA writes invalidate
  // the covered L2 lines on arrival.
  const std::uint32_t entries = 1024;
  struct GpuQueues {
    Addr req_base, req_rp, cmp_base, cmp_rp;
  };
  auto relocate = [&](sys::Node& n) -> Result<GpuQueues> {
    GpuQueues q;
    q.req_base = n.gpu_heap().alloc(entries * extoll::kNotificationBytes, 64);
    q.req_rp = n.gpu_heap().alloc(8, 8);
    q.cmp_base = n.gpu_heap().alloc(entries * extoll::kNotificationBytes, 64);
    q.cmp_rp = n.gpu_heap().alloc(8, 8);
    Status st = n.extoll().relocate_notification_queues(
        0, q.req_base, q.req_rp, q.cmp_base, q.cmp_rp, entries);
    if (!st.is_ok()) return st;
    return q;
  };
  auto q0 = relocate(n0);
  auto q1 = relocate(n1);
  if (!q0.is_ok() || !q1.is_ok()) return result;

  extoll::WorkRequest wr0;
  wr0.cmd = extoll::RmaCmd::kPut;
  wr0.port = 0;
  wr0.size = size;
  wr0.notify_requester = true;
  wr0.notify_completer = true;
  wr0.src_nla = s.send0_nla;
  wr0.dst_nla = s.recv1_nla;
  extoll::WorkRequest wr1 = wr0;
  wr1.src_nla = s.send1_nla;
  wr1.dst_nla = s.recv0_nla;

  const unsigned tag_width = size >= 8 ? 8 : 4;
  const Addr stats0 = n0.gpu_heap().alloc(kStatsBytes, 64);
  const Addr stats1 = n1.gpu_heap().alloc(kStatsBytes, 64);
  auto make_cfg = [&](bool initiator) {
    ExtollPingPongConfig c;
    c.initiator = initiator;
    c.mode = TransferMode::kGpuDirect;  // still notification-driven...
    c.iterations = iterations;
    c.wr = ExtollWrTemplate{0, size, true, true};
    c.queue_entry_mask = entries - 1;
    c.tag_width = tag_width;
    if (initiator) {
      c.bar_page = s.port0.info().requester_page;
      c.src_nla = wr0.src_nla;
      c.dst_nla = wr0.dst_nla;
      c.req_queue_base = q0->req_base;  // ...but the queues live on-GPU
      c.req_rp_cell = q0->req_rp;
      c.cmp_queue_base = q0->cmp_base;
      c.cmp_rp_cell = q0->cmp_rp;
      c.send_tag_addr = s.send0 + size - tag_width;
      c.recv_tag_addr = s.recv0 + size - tag_width;
      c.stats_addr = stats0;
    } else {
      c.bar_page = s.port1.info().requester_page;
      c.src_nla = wr1.src_nla;
      c.dst_nla = wr1.dst_nla;
      c.req_queue_base = q1->req_base;
      c.req_rp_cell = q1->req_rp;
      c.cmp_queue_base = q1->cmp_base;
      c.cmp_rp_cell = q1->cmp_rp;
      c.send_tag_addr = s.send1 + size - tag_width;
      c.recv_tag_addr = s.recv1 + size - tag_width;
      c.stats_addr = stats1;
    }
    return c;
  };
  const Program prog0 = build_extoll_pingpong_kernel(make_cfg(true));
  const Program prog1 = build_extoll_pingpong_kernel(make_cfg(false));
  const gpu::PerfCounters before = n0.gpu().counters_snapshot();
  sim::Trigger done0, done1;
  launch_with_trigger(n0.gpu(), {.program = &prog0, .params = {}}, done0);
  launch_with_trigger(n1.gpu(), {.program = &prog1, .params = {}}, done1);
  if (!run_to(cluster, {{0, [&] { return done0.fired(); }},
                          {1, [&] { return done1.fired(); }}})) {
    PG_ERROR("exp", "gpu-notification extoll pingpong did not converge");
    return result;
  }
  result.gpu0 = n0.gpu().counters_snapshot() - before;
  const DeviceStats st = read_device_stats(n0.memory(), stats0);
  result.half_rtt_us = st.span_ns() / 1000.0 / (2.0 * iterations);
  result.post_sum_us = st.post_sum_ns / 1000.0;
  result.poll_sum_us = st.poll_sum_ns / 1000.0;
  result.payload_ok = ranges_equal(n0, s.send0, n1, s.recv1, size) &&
                      ranges_equal(n1, s.send1, n0, s.recv0, size);
  return result;
}

}  // namespace pg::putget

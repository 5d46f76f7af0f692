#include "putget/transport.h"

#include <utility>

#include "putget/device_lib.h"
#include "putget/extoll_host.h"
#include "putget/ib_host.h"
#include "putget/stats.h"

namespace pg::putget {

namespace {

using extoll::RmaCmd;
using extoll::WorkRequest;
using ib::RecvWqe;
using ib::SendWqe;
using ib::WqeOpcode;
using mem::Addr;

}  // namespace

// ===========================================================================
// EXTOLL
// ===========================================================================

std::string ExtollTransport::pingpong_label(TransferMode mode,
                                            std::uint32_t size) const {
  return op_label("extoll-pingpong", mode, size);
}

std::string ExtollTransport::bandwidth_label(TransferMode mode,
                                             std::uint32_t size) const {
  return op_label("extoll-bandwidth", mode, size);
}

std::string ExtollTransport::rate_label(RateVariant v,
                                        std::uint32_t size) const {
  return op_label("extoll-msgrate", rate_variant_name(v), size);
}

const char* ExtollTransport::diag_tag(TransferMode mode) const {
  return transfer_mode_name(mode);
}

host::HostCpu& ExtollTransport::cpu(int side) {
  return cluster_->node(side).cpu();
}

ExtollHostPort& ExtollTransport::port(std::uint32_t c, int side) {
  return side == 0 ? conns_[c].pair.port0 : conns_[c].pair.port1;
}

const WorkRequest& ExtollTransport::wr(std::uint32_t c, int side) const {
  return side == 0 ? conns_[c].wr0 : conns_[c].wr1;
}

Status ExtollTransport::setup_pingpong(sys::Cluster& cluster,
                                       const sys::ClusterConfig& cfg,
                                       std::uint32_t size,
                                       bool use_notifications) {
  cluster_ = &cluster;
  size_ = size;
  qmask_ = cfg.node.extoll.notif_queue_entries - 1;
  auto setup = ExtollPair::create(cluster, 0, size);
  if (!setup.is_ok()) return setup.status();
  ExtollPair& s = *setup;

  WorkRequest wr0;  // node0 -> node1
  wr0.cmd = RmaCmd::kPut;
  wr0.port = 0;
  wr0.size = size;
  wr0.notify_requester = use_notifications;
  wr0.notify_completer = use_notifications;
  wr0.src_nla = s.send0_nla;
  wr0.dst_nla = s.recv1_nla;
  WorkRequest wr1 = wr0;  // node1 -> node0
  wr1.src_nla = s.send1_nla;
  wr1.dst_nla = s.recv0_nla;
  conns_.push_back(Conn{std::move(*setup), wr0, wr1, 0});
  return Status::ok();
}

Status ExtollTransport::setup_stream(sys::Cluster& cluster,
                                     const sys::ClusterConfig& cfg,
                                     std::uint32_t size) {
  cluster_ = &cluster;
  size_ = size;
  qmask_ = cfg.node.extoll.notif_queue_entries - 1;
  auto setup = ExtollPair::create(cluster, 0, size);
  if (!setup.is_ok()) return setup.status();
  ExtollPair& s = *setup;

  WorkRequest wr0;
  wr0.cmd = RmaCmd::kPut;
  wr0.port = 0;
  wr0.size = size;
  wr0.notify_requester = true;
  wr0.notify_completer = true;
  wr0.src_nla = s.send0_nla;
  wr0.dst_nla = s.recv1_nla;
  conns_.push_back(Conn{std::move(*setup), wr0, wr0, 0});
  return Status::ok();
}

Status ExtollTransport::add_rate_conn(sys::Cluster& cluster,
                                      const sys::ClusterConfig& cfg,
                                      std::uint32_t index,
                                      std::uint32_t size) {
  cluster_ = &cluster;
  size_ = size;
  qmask_ = cfg.node.extoll.notif_queue_entries - 1;
  auto setup = ExtollPair::create(cluster, index, size);
  if (!setup.is_ok()) return setup.status();
  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = static_cast<std::uint8_t>(index);
  wr.size = size;
  wr.notify_requester = true;
  wr.notify_completer = false;
  wr.src_nla = setup->send0_nla;
  wr.dst_nla = setup->recv1_nla;
  conns_.push_back(Conn{std::move(*setup), wr, wr,
                        cluster.node(0).gpu_heap().alloc(kStatsBytes, 64)});
  return Status::ok();
}

sim::CoTask ExtollTransport::prepost_rx(std::uint32_t, int, std::uint64_t) {
  co_return;  // puts land without a posted receive
}

sim::CoTask ExtollTransport::post(std::uint32_t c, int side, std::uint64_t) {
  return port(c, side).post(cpu(side), wr(c, side));
}

sim::CoTask ExtollTransport::wait_tx(std::uint32_t c, int side) {
  return port(c, side).wait_requester(cpu(side));
}

sim::CoTask ExtollTransport::wait_rx(std::uint32_t c, int side) {
  return port(c, side).wait_completer(cpu(side));
}

bool ExtollTransport::tx_pending(std::uint32_t c) {
  return port(c, 0).requester_notifications().pending(cpu(0));
}

void ExtollTransport::consume_tx(std::uint32_t c) {
  (void)port(c, 0).requester_notifications().consume(cpu(0));
}

sim::CoTask ExtollTransport::rate_post(std::uint32_t c, std::uint64_t) {
  host::HostCpu& hc = cpu(0);
  co_await hc.touch_dram();
  co_await port(c, 0).post(hc, wr(c, 0));
}

Addr ExtollTransport::rate_stats(std::uint32_t c) const {
  return conns_[c].stats;
}

Transport::GpuPingPongPlan ExtollTransport::build_gpu_pingpong(
    TransferMode mode, std::uint32_t size, std::uint32_t iterations) {
  sys::Node& n0 = cluster_->node(0);
  sys::Node& n1 = cluster_->node(1);
  const Conn& conn = conns_[0];
  const ExtollPair& s = conn.pair;
  const Addr stats0 = n0.gpu_heap().alloc(kStatsBytes, 64);
  const Addr stats1 = n1.gpu_heap().alloc(kStatsBytes, 64);
  const unsigned tag_width = size >= 8 ? 8 : 4;
  ExtollWrTemplate tmpl{conn.wr0.port, conn.wr0.size,
                        conn.wr0.notify_requester, conn.wr0.notify_completer};
  auto make_cfg = [&](bool initiator) {
    ExtollPingPongConfig c;
    c.initiator = initiator;
    c.mode = mode;
    c.iterations = iterations;
    c.wr = tmpl;
    c.queue_entry_mask = qmask_;
    c.tag_width = tag_width;
    if (initiator) {
      c.bar_page = s.port0.info().requester_page;
      c.src_nla = conn.wr0.src_nla;
      c.dst_nla = conn.wr0.dst_nla;
      c.req_queue_base = s.port0.info().req_queue_base;
      c.req_rp_cell = s.port0.info().req_rp_addr;
      c.cmp_queue_base = s.port0.info().cmp_queue_base;
      c.cmp_rp_cell = s.port0.info().cmp_rp_addr;
      c.send_tag_addr = s.send0 + size - tag_width;
      c.recv_tag_addr = s.recv0 + size - tag_width;
      c.stats_addr = stats0;
    } else {
      c.bar_page = s.port1.info().requester_page;
      c.src_nla = conn.wr1.src_nla;
      c.dst_nla = conn.wr1.dst_nla;
      c.req_queue_base = s.port1.info().req_queue_base;
      c.req_rp_cell = s.port1.info().req_rp_addr;
      c.cmp_queue_base = s.port1.info().cmp_queue_base;
      c.cmp_rp_cell = s.port1.info().cmp_rp_addr;
      c.send_tag_addr = s.send1 + size - tag_width;
      c.recv_tag_addr = s.recv1 + size - tag_width;
      c.stats_addr = stats1;
    }
    return c;
  };
  GpuPingPongPlan plan;
  plan.prog0 = build_extoll_pingpong_kernel(make_cfg(true));
  plan.prog1 = build_extoll_pingpong_kernel(make_cfg(false));
  plan.stats0 = stats0;
  return plan;
}

Transport::GpuStreamPlan ExtollTransport::build_gpu_stream(
    TransferMode, std::uint32_t, std::uint32_t messages) {
  sys::Node& n0 = cluster_->node(0);
  sys::Node& n1 = cluster_->node(1);
  const Conn& conn = conns_[0];
  const ExtollPair& s = conn.pair;
  const Addr stats_send = n0.gpu_heap().alloc(kStatsBytes, 64);
  const Addr stats_recv = n1.gpu_heap().alloc(kStatsBytes, 64);
  const Addr table = n0.gpu_heap().alloc(48, 64);
  n0.memory().write_u64(table + 0, s.port0.info().requester_page);
  n0.memory().write_u64(table + 8, conn.wr0.src_nla);
  n0.memory().write_u64(table + 16, conn.wr0.dst_nla);
  n0.memory().write_u64(table + 24, s.port0.info().req_queue_base);
  n0.memory().write_u64(table + 32, s.port0.info().req_rp_addr);
  n0.memory().write_u64(table + 40, stats_send);
  ExtollStreamConfig scfg;
  scfg.messages = messages;
  scfg.wr = ExtollWrTemplate{conn.wr0.port, conn.wr0.size, true, true};
  scfg.queue_entry_mask = qmask_;
  ExtollDrainConfig dcfg;
  dcfg.notifications = messages;
  dcfg.cmp_queue_base = s.port1.info().cmp_queue_base;
  dcfg.cmp_rp_cell = s.port1.info().cmp_rp_addr;
  dcfg.queue_entry_mask = qmask_;
  dcfg.stats_addr = stats_recv;
  GpuStreamPlan plan;
  plan.sender = build_extoll_stream_kernel(scfg);
  plan.sender_params = {table};
  plan.has_receiver = true;
  plan.receiver = build_extoll_drain_kernel(dcfg);
  plan.stats_send = stats_send;
  plan.stats_recv = stats_recv;
  return plan;
}

void ExtollTransport::build_rate_gpu(RateVariant) {
  sys::Node& n0 = cluster_->node(0);
  const std::uint32_t pairs = static_cast<std::uint32_t>(conns_.size());
  rate_table_ = n0.gpu_heap().alloc(48 * pairs, 64);
  for (std::uint32_t i = 0; i < pairs; ++i) {
    const Addr row = rate_table_ + i * 48;
    n0.memory().write_u64(row + 0, conns_[i].pair.port0.info().requester_page);
    n0.memory().write_u64(row + 8, conns_[i].wr0.src_nla);
    n0.memory().write_u64(row + 16, conns_[i].wr0.dst_nla);
    n0.memory().write_u64(row + 24, conns_[i].pair.port0.info().req_queue_base);
    n0.memory().write_u64(row + 32, conns_[i].pair.port0.info().req_rp_addr);
    n0.memory().write_u64(row + 40, conns_[i].stats);
  }
  // Port is encoded per row via the BAR page; the template's port field
  // is unused by the BAR path (the page implies the port).
  ExtollStreamConfig scfg;
  scfg.messages = 1;
  scfg.wr = ExtollWrTemplate{0, size_, true, false};
  scfg.queue_entry_mask = qmask_;
  rate_prog_ = build_extoll_stream_kernel(scfg);
}

void ExtollTransport::launch_rate_round(std::function<void()> on_done) {
  sys::Node& n0 = cluster_->node(0);
  n0.gpu().launch({.program = &rate_prog_,
                   .blocks = static_cast<std::uint32_t>(conns_.size()),
                   .params = {rate_table_}},
                  std::move(on_done));
}

void ExtollTransport::launch_rate_stream(std::uint32_t c,
                                         std::function<void()> on_done) {
  sys::Node& n0 = cluster_->node(0);
  n0.gpu().launch_stream(c,
                         {.program = &rate_prog_,
                          .params = {rate_table_ + c * 48}},
                         std::move(on_done));
}

bool ExtollTransport::payload_ok_bidir(std::uint32_t size) {
  const ExtollPair& s = conns_[0].pair;
  return ranges_equal(cluster_->node(0), s.send0, cluster_->node(1), s.recv1,
                      size) &&
         ranges_equal(cluster_->node(1), s.send1, cluster_->node(0), s.recv0,
                      size);
}

bool ExtollTransport::payload_ok_stream(std::uint32_t size, std::uint32_t) {
  const ExtollPair& s = conns_[0].pair;
  return ranges_equal(cluster_->node(0), s.send0, cluster_->node(1), s.recv1,
                      size);
}

// ===========================================================================
// InfiniBand
// ===========================================================================

std::string IbTransport::pingpong_label(TransferMode mode,
                                        std::uint32_t size) const {
  return op_label("ib-pingpong", transfer_mode_name(mode), size) + "/" +
         queue_location_name(location_);
}

std::string IbTransport::bandwidth_label(TransferMode mode,
                                         std::uint32_t size) const {
  return op_label("ib-bandwidth", transfer_mode_name(mode), size) + "/" +
         queue_location_name(location_);
}

std::string IbTransport::rate_label(RateVariant v, std::uint32_t size) const {
  return op_label("ib-msgrate", rate_variant_name(v), size);
}

const char* IbTransport::diag_tag(TransferMode) const {
  return queue_location_name(location_);
}

host::HostCpu& IbTransport::cpu(int side) {
  return cluster_->node(side).cpu();
}

IbHostEndpoint& IbTransport::ep(std::uint32_t c, int side) {
  return side == 0 ? conns_[c].pair.ep0 : conns_[c].pair.ep1;
}

Status IbTransport::setup_pingpong(sys::Cluster& cluster,
                                   const sys::ClusterConfig&,
                                   std::uint32_t size, bool) {
  cluster_ = &cluster;
  size_ = size;
  auto pair = IbPair::create(cluster, location_, size, 404);
  if (!pair.is_ok()) return pair.status();
  IbPair& p = *pair;

  // Host protocols synchronize on write-with-immediate (the host cannot
  // poll GPU memory, as the paper notes); no send-side CQE.
  SendWqe wqe0;
  wqe0.opcode = WqeOpcode::kRdmaWriteImm;
  wqe0.signaled = false;
  wqe0.byte_len = size;
  wqe0.laddr = p.send0;
  wqe0.lkey = p.mr_send0.lkey;
  wqe0.raddr = p.recv1;
  wqe0.rkey = p.mr_recv1.rkey;
  SendWqe wqe1 = wqe0;
  wqe1.laddr = p.send1;
  wqe1.lkey = p.mr_send1.lkey;
  wqe1.raddr = p.recv0;
  wqe1.rkey = p.mr_recv0.rkey;
  conns_.push_back(Conn{std::move(*pair), wqe0, wqe1, false, 0, 0});
  return Status::ok();
}

Status IbTransport::setup_stream(sys::Cluster& cluster,
                                 const sys::ClusterConfig&,
                                 std::uint32_t size) {
  cluster_ = &cluster;
  size_ = size;
  auto pair = IbPair::create(cluster, location_, size, 505);
  if (!pair.is_ok()) return pair.status();
  IbPair& p = *pair;

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaWrite;
  wqe.signaled = true;
  wqe.byte_len = size;
  wqe.laddr = p.send0;
  wqe.lkey = p.mr_send0.lkey;
  wqe.raddr = p.recv1;
  wqe.rkey = p.mr_recv1.rkey;
  conns_.push_back(Conn{std::move(*pair), wqe, wqe, true, 0, 0});
  return Status::ok();
}

Status IbTransport::add_rate_conn(sys::Cluster& cluster,
                                  const sys::ClusterConfig&,
                                  std::uint32_t index, std::uint32_t size) {
  cluster_ = &cluster;
  size_ = size;
  sys::Node& n0 = cluster.node(0);
  auto pair = IbPair::create(cluster, location_, size, 700 + index);
  if (!pair.is_ok()) return pair.status();
  const Addr table = make_qp_table(n0, pair->ep0.qp().qpn, 8);
  Conn c{std::move(*pair), SendWqe{}, SendWqe{}, true,
         n0.gpu_heap().alloc(kStatsBytes, 64), 0};
  c.qpc = make_qp_device_context(n0, c.pair.ep0, table, 8);
  c.wqe0.opcode = WqeOpcode::kRdmaWrite;
  c.wqe0.signaled = true;
  c.wqe0.byte_len = size;
  c.wqe0.laddr = c.pair.send0;
  c.wqe0.lkey = c.pair.mr_send0.lkey;
  c.wqe0.raddr = c.pair.recv1;
  c.wqe0.rkey = c.pair.mr_recv1.rkey;
  c.wqe1 = c.wqe0;
  conns_.push_back(std::move(c));
  return Status::ok();
}

sim::CoTask IbTransport::prepost_rx(std::uint32_t c, int side,
                                    std::uint64_t seq) {
  RecvWqe recv;
  recv.wr_id = seq;
  recv.lkey = (side == 0 ? conns_[c].pair.mr_recv0 : conns_[c].pair.mr_recv1)
                  .lkey;
  return ep(c, side).post_recv(cpu(side), recv);
}

sim::CoTask IbTransport::post(std::uint32_t c, int side, std::uint64_t seq) {
  SendWqe w = side == 0 ? conns_[c].wqe0 : conns_[c].wqe1;
  w.wr_id = seq;
  return ep(c, side).post_send(cpu(side), w);
}

sim::CoTask IbTransport::wait_tx(std::uint32_t c, int side) {
  if (!conns_[c].tx_signaled) co_return;  // unsignaled descriptors
  co_await ep(c, side).wait_cqe(cpu(side));
}

sim::CoTask IbTransport::wait_rx(std::uint32_t c, int side) {
  // Wait for the receive completion; send completions drained in
  // passing end their own lifecycle legs inside the consume.
  ib::Cqe cqe;
  do {
    co_await ep(c, side).wait_cqe(cpu(side), &cqe);
  } while (!cqe.is_recv);
}

bool IbTransport::tx_pending(std::uint32_t c) {
  return ep(c, 0).cq().pending(cpu(0));
}

void IbTransport::consume_tx(std::uint32_t c) {
  (void)ep(c, 0).cq().consume(cpu(0));
}

sim::CoTask IbTransport::rate_post(std::uint32_t c, std::uint64_t seq) {
  return post(c, 0, seq);
}

Addr IbTransport::rate_stats(std::uint32_t c) const { return conns_[c].stats; }

Transport::GpuPingPongPlan IbTransport::build_gpu_pingpong(
    TransferMode, std::uint32_t size, std::uint32_t iterations) {
  sys::Node& n0 = cluster_->node(0);
  sys::Node& n1 = cluster_->node(1);
  const IbPair& p = conns_[0].pair;
  // GPU-driven: the queue location is the experiment variable; pong
  // detection is always a device-memory payload poll (in-order RC).
  const Addr stats0 = n0.gpu_heap().alloc(kStatsBytes, 64);
  const Addr stats1 = n1.gpu_heap().alloc(kStatsBytes, 64);
  const Addr table0 = make_qp_table(n0, p.ep0.qp().qpn, 8);
  const Addr table1 = make_qp_table(n1, p.ep1.qp().qpn, 8);
  const Addr qpc0 = make_qp_device_context(n0, conns_[0].pair.ep0, table0, 8);
  const Addr qpc1 = make_qp_device_context(n1, conns_[0].pair.ep1, table1, 8);
  const unsigned tag_width = size >= 8 ? 8 : 4;

  auto make_cfg = [&](bool initiator) {
    IbPingPongConfig c;
    c.initiator = initiator;
    c.iterations = iterations;
    c.wqe.opcode = WqeOpcode::kRdmaWrite;
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
  GpuPingPongPlan plan;
  plan.prog0 = build_ib_pingpong_kernel(make_cfg(true));
  plan.prog1 = build_ib_pingpong_kernel(make_cfg(false));
  plan.stats0 = stats0;
  return plan;
}

Transport::GpuStreamPlan IbTransport::build_gpu_stream(
    TransferMode, std::uint32_t size, std::uint32_t messages) {
  sys::Node& n0 = cluster_->node(0);
  const IbPair& p = conns_[0].pair;
  const Addr stats0 = n0.gpu_heap().alloc(kStatsBytes, 64);
  const Addr table0 = make_qp_table(n0, p.ep0.qp().qpn, 8);
  const Addr qpc0 = make_qp_device_context(n0, conns_[0].pair.ep0, table0, 8);
  const Addr params = n0.gpu_heap().alloc(32, 64);
  n0.memory().write_u64(params + 0, qpc0);
  n0.memory().write_u64(params + 8, p.send0);
  n0.memory().write_u64(params + 16, p.recv1);
  n0.memory().write_u64(params + 24, stats0);
  IbStreamConfig scfg;
  scfg.messages = messages;
  scfg.window = 16;
  scfg.wqe.opcode = WqeOpcode::kRdmaWrite;
  scfg.wqe.signaled = true;
  scfg.wqe.byte_len = size;
  scfg.wqe.lkey = p.mr_send0.lkey;
  scfg.wqe.rkey = p.mr_recv1.rkey;
  GpuStreamPlan plan;
  plan.sender = build_ib_stream_kernel(scfg);
  plan.sender_params = {params};
  plan.stats_send = stats0;
  return plan;
}

void IbTransport::build_rate_gpu(RateVariant) {
  sys::Node& n0 = cluster_->node(0);
  const std::uint32_t pairs = static_cast<std::uint32_t>(conns_.size());
  // Keys can differ per connection, so each connection gets its own
  // program with its row baked in via the parameter.
  rate_table_ = n0.gpu_heap().alloc(32 * pairs, 64);
  rate_progs_.reserve(pairs);
  for (std::uint32_t i = 0; i < pairs; ++i) {
    const Addr row = rate_table_ + i * 32;
    n0.memory().write_u64(row + 0, conns_[i].qpc);
    n0.memory().write_u64(row + 8, conns_[i].pair.send0);
    n0.memory().write_u64(row + 16, conns_[i].pair.recv1);
    n0.memory().write_u64(row + 24, conns_[i].stats);
    IbStreamConfig scfg;
    scfg.messages = 1;
    scfg.window = 16;
    IbPostSendTemplate t;
    t.opcode = WqeOpcode::kRdmaWrite;
    t.signaled = true;
    t.byte_len = size_;
    t.lkey = conns_[i].pair.mr_send0.lkey;
    t.rkey = conns_[i].pair.mr_recv1.rkey;
    scfg.wqe = t;
    rate_progs_.push_back(build_ib_stream_kernel(scfg));
  }
}

void IbTransport::launch_rate_round(std::function<void()> on_done) {
  sys::Node& n0 = cluster_->node(0);
  const std::uint32_t pairs = static_cast<std::uint32_t>(conns_.size());
  auto remaining = std::make_shared<std::uint32_t>(pairs);
  auto done = std::make_shared<std::function<void()>>(std::move(on_done));
  for (std::uint32_t i = 0; i < pairs; ++i) {
    n0.gpu().launch({.program = &rate_progs_[i],
                     .params = {rate_table_ + i * 32}},
                    [remaining, done] {
                      if (--*remaining == 0) (*done)();
                    });
  }
}

void IbTransport::launch_rate_stream(std::uint32_t c,
                                     std::function<void()> on_done) {
  sys::Node& n0 = cluster_->node(0);
  n0.gpu().launch_stream(c,
                         {.program = &rate_progs_[c],
                          .params = {rate_table_ + c * 32}},
                         std::move(on_done));
}

bool IbTransport::payload_ok_bidir(std::uint32_t size) {
  const IbPair& p = conns_[0].pair;
  return ranges_equal(cluster_->node(0), p.send0, cluster_->node(1), p.recv1,
                      size) &&
         ranges_equal(cluster_->node(1), p.send1, cluster_->node(0), p.recv0,
                      size);
}

bool IbTransport::payload_ok_stream(std::uint32_t size,
                                    std::uint32_t messages) {
  const IbPair& p = conns_[0].pair;
  return ranges_equal(cluster_->node(0), p.send0, cluster_->node(1), p.recv1,
                      size) &&
         cluster_->node(1).hca().messages_delivered() >= messages;
}

}  // namespace pg::putget

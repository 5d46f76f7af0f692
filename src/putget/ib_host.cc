#include "putget/ib_host.h"

namespace pg::putget {

Result<IbHostEndpoint> IbHostEndpoint::create(sys::Node& node,
                                              const Options& options) {
  mem::BumpAllocator& heap = options.location == QueueLocation::kGpuMemory
                                 ? node.gpu_heap()
                                 : node.host_heap();
  const mem::Addr cq_buf = heap.alloc(
      options.cq_entries * ib::kCqeBytes + ib::kCqTailBytes, 64);
  auto cq = node.hca().create_cq(cq_buf, options.cq_entries);
  if (!cq.is_ok()) return cq.status();

  const mem::Addr sq_buf =
      heap.alloc(options.sq_entries * ib::kSendWqeBytes, 64);
  const mem::Addr rq_buf =
      heap.alloc(options.rq_entries * ib::kRecvWqeBytes, 64);
  auto qp = node.hca().create_qp(sq_buf, options.sq_entries, rq_buf,
                                 options.rq_entries, cq->cq_id, cq->cq_id);
  if (!qp.is_ok()) return qp.status();
  return IbHostEndpoint(node, *qp, *cq);
}

void IbHostEndpoint::connect(IbHostEndpoint& a, IbHostEndpoint& b) {
  (void)a.node_->hca().connect_qp(a.qp_.qpn, b.qp_.qpn);
  (void)b.node_->hca().connect_qp(b.qp_.qpn, a.qp_.qpn);
}

sim::CoTask IbHostEndpoint::post_send(host::HostCpu& cpu, ib::SendWqe wqe) {
  wqe.index = sq_pi_;
  // Open this message's lifecycle before the WQE build; the HCA pops it
  // (keyed by this QP's doorbell) when it fetches the WQE, closing the
  // post stage.
  obs::flow_push(obs::flow_key(&cpu.fabric(), qp_.sq_doorbell),
                 obs::flow_begin(cpu.sim().now()));
  // Building the WQE (field packing + endian conversion) is cheap on the
  // CPU: one descriptor-build charge.
  co_await cpu.build_descriptor();
  cpu.store_bytes(qp_.sq_buffer + (sq_pi_ % qp_.sq_entries) * ib::kSendWqeBytes,
                  ib::encode_send_wqe(wqe));
  ++sq_pi_;
  co_await cpu.mmio_write_u64(qp_.sq_doorbell, sq_pi_);
}

sim::CoTask IbHostEndpoint::post_recv(host::HostCpu& cpu, ib::RecvWqe wqe) {
  co_await cpu.build_descriptor();
  cpu.store_bytes(qp_.rq_buffer + (rq_pi_ % qp_.rq_entries) * ib::kRecvWqeBytes,
                  ib::encode_recv_wqe(wqe));
  ++rq_pi_;
  co_await cpu.mmio_write_u64(qp_.rq_doorbell, rq_pi_);
}

sim::CoTask IbHostEndpoint::wait_cqe(host::HostCpu& cpu, ib::Cqe* out) {
  co_await cpu.poll_until(
      [this, &cpu] { return cq_reader_.pending(cpu); });
  co_await cpu.touch_dram();
  const ib::Cqe cqe = cq_reader_.consume(cpu);
  if (out) *out = cqe;
}

}  // namespace pg::putget

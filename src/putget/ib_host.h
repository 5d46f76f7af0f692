// Host-side InfiniBand verbs endpoint: ibv_post_send / ibv_post_recv /
// ibv_poll_cq as the CPU runs them, over the simulated HCA.
//
// Queue rings and CQs are allocated from host or GPU memory according to
// QueueLocation - the paper's buffer-placement variable. The CPU writes
// WQEs (with the big-endian conversion folded into the cheap cached
// descriptor build), rings the doorbell, and polls CQEs with cached
// loads when the CQ is host-resident.
//
// A host-posted WQE/RQE is a zero-time store into the ring wherever the
// ring lives (HostCpu::store_bytes); only the doorbell crosses PCIe.
// Its cost is the descriptor-build charge, and the HCA cannot fetch the
// entry before the doorbell lands behind it.
#pragma once

#include <cstdint>

#include "host/cpu.h"
#include "nic/ib/hca.h"
#include "obs/flow.h"
#include "putget/modes.h"
#include "sim/coro.h"
#include "sys/node.h"

namespace pg::putget {

/// Software-side completion-queue consumer.
class CqReader {
 public:
  CqReader() = default;
  explicit CqReader(const ib::CqInfo& info)
      : info_(info), slot_(info.buffer) {}

  /// Cached: pending() runs once per modeled poll probe, so the slot
  /// address is maintained at consume() time instead of recomputing
  /// ci % entries on the spin loop's hot path.
  mem::Addr current_slot() const { return slot_; }

  /// One probe of the valid marker (host side: a cached/DRAM load; note
  /// that when the CQ lives in GPU memory the host cannot poll it - the
  /// limitation the paper works around with write-with-immediate).
  bool pending(const host::HostCpu& cpu) const {
    return cpu.load_u64(current_slot() + ib::kCqeValidOffset) != 0;
  }

  /// Reads the CQE, invalidates the slot, advances the consumer index.
  /// The message lifecycle parked under the slot's valid marker (recv
  /// CQEs and signaled send completions carry one) ends here: this is
  /// the poll that observed it.
  ib::Cqe consume(host::HostCpu& cpu) {
    const mem::Addr valid = current_slot() + ib::kCqeValidOffset;
    std::uint8_t bytes[ib::kCqeBytes];
    cpu.load_bytes(current_slot(), bytes);
    cpu.store_u64(valid, 0);
    ++ci_;
    slot_ = info_.buffer + (ci_ % info_.entries) * ib::kCqeBytes;
    cpu.store_u32(info_.ci_addr, ci_);
    const obs::FlowId flow = obs::flow_pop(obs::flow_key(&cpu.fabric(), valid));
    obs::flow_stage(flow, "host", "poll_detect", cpu.sim().now());
    obs::flow_end(flow, "host", cpu.sim().now());
    return ib::decode_cqe(bytes);
  }

  std::uint32_t consumed() const { return ci_; }
  const ib::CqInfo& info() const { return info_; }

 private:
  ib::CqInfo info_;
  std::uint32_t ci_ = 0;
  mem::Addr slot_ = 0;  // == buffer + (ci_ % entries) * kCqeBytes
};

/// One connected QP + CQ, with software produce/consume state.
class IbHostEndpoint {
 public:
  struct Options {
    std::uint32_t sq_entries = 256;
    std::uint32_t rq_entries = 256;
    std::uint32_t cq_entries = 1024;
    QueueLocation location = QueueLocation::kHostMemory;
  };

  /// Allocates rings on `node` per `options` and creates the CQ/QP.
  static Result<IbHostEndpoint> create(sys::Node& node,
                                       const Options& options);

  /// RC-connects two endpoints (out-of-band exchange, zero sim time).
  static void connect(IbHostEndpoint& a, IbHostEndpoint& b);

  const ib::QpInfo& qp() const { return qp_; }
  CqReader& cq() { return cq_reader_; }
  sys::Node& node() { return *node_; }

  /// Registers memory with this endpoint's HCA.
  Result<ib::Mr> reg_mr(mem::Addr base, std::uint64_t length,
                        mem::Access access) {
    return node_->hca().reg_mr(base, length, access);
  }

  // Host primitives. Each is a lazy CoTask: awaiting one runs its body
  // inline on the caller's schedule (no extra events); Simulation::spawn
  // runs one fire-and-forget.

  /// ibv_post_send from the host: stamps+writes the WQE into the ring and
  /// rings the SQ doorbell.
  sim::CoTask post_send(host::HostCpu& cpu, ib::SendWqe wqe);

  /// ibv_post_recv from the host.
  sim::CoTask post_recv(host::HostCpu& cpu, ib::RecvWqe wqe);

  /// ibv_poll_cq loop: polls until a CQE arrives, consumes it into *out
  /// (when given).
  sim::CoTask wait_cqe(host::HostCpu& cpu, ib::Cqe* out = nullptr);

 private:
  IbHostEndpoint(sys::Node& node, const ib::QpInfo& qp,
                 const ib::CqInfo& cq)
      : node_(&node), qp_(qp), cq_reader_(cq) {}

  sys::Node* node_;
  ib::QpInfo qp_;
  CqReader cq_reader_;
  std::uint32_t sq_pi_ = 0;
  std::uint32_t rq_pi_ = 0;
};

}  // namespace pg::putget

// InfiniBand HCA model: queue pairs, completion queues, doorbells, WQE
// fetch engine, and the RC (reliable connection) protocol over the link.
//
// The control path follows the two-step posting scheme the paper
// contrasts with EXTOLL's single BAR write:
//   1. software writes a WQE into the send queue - a ring buffer living
//      in HOST or GPU memory (the placement the paper varies in Table II),
//   2. software rings the QP's doorbell (MMIO write into the UAR page),
//   3. the HCA DMA-reads the WQE from the ring (crossing PCIe again -
//      and riding the peer-to-peer path when the ring lives in GPU
//      memory), validates it, and executes it.
//
// Completions are CQEs DMA-written into a completion queue that also
// lives in host or GPU memory; remote operations complete at the
// requester when the ACK returns (RC semantics). Send/receive requires a
// posted receive; a send without one fails with an RNR error, as the
// paper notes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "mem/memory_domain.h"
#include "mem/registration.h"
#include "net/terminal.h"
#include "nic/ib/wqe.h"
#include "obs/flow.h"
#include "pcie/dma.h"
#include "pcie/fabric.h"
#include "sim/simulation.h"

namespace pg::ib {

struct HcaConfig {
  std::uint32_t max_qps = 128;
  std::uint32_t max_cqs = 128;
  SimDuration wqe_process = nanoseconds(350);   // per-WQE engine occupancy
  SimDuration recv_lookup = nanoseconds(200);   // RQ element fetch overhead
  SimDuration ack_process = nanoseconds(120);
  std::uint32_t segment_bytes = 64 * KiB;
  pcie::DmaConfig dma;
  pcie::LinkConfig pcie_link;
};

struct Mr {
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

struct CqInfo {
  std::uint32_t cq_id = 0;
  mem::Addr buffer = 0;       // entries * kCqeBytes, caller-allocated
  std::uint32_t entries = 0;
  mem::Addr ci_addr = 0;      // consumer-index cell (buffer + entries*32)
};

struct QpInfo {
  std::uint32_t qpn = 0;
  mem::Addr sq_buffer = 0;
  std::uint32_t sq_entries = 0;
  mem::Addr rq_buffer = 0;
  std::uint32_t rq_entries = 0;
  mem::Addr sq_doorbell = 0;  // UAR address: write the new producer count
  mem::Addr rq_doorbell = 0;
  std::uint32_t send_cq = 0;
  std::uint32_t recv_cq = 0;
};

/// Space each CQ consumer must reserve beyond the slots: the consumer
/// index cell the HCA reads for overflow detection.
constexpr std::uint64_t kCqTailBytes = 64;

class Hca : public pcie::Endpoint {
 public:
  Hca(sim::Simulation& sim, pcie::Fabric& fabric, mem::MemoryDomain& memory,
      HcaConfig cfg, std::string name);
  ~Hca() override;

  /// The HCA's fabric side: sys::Cluster wires links, the node id and
  /// the next-hop bindings through it (QPs without a route of their own
  /// send through the first link connected, the classic two-node peer),
  /// and it relays frames addressed to other terminals.
  net::Terminal& terminal() { return terminal_; }
  const net::Terminal& terminal() const { return terminal_; }

  // --- verbs-level resource API (state only; callers charge CPU time) ------

  Result<Mr> reg_mr(mem::Addr base, std::uint64_t length, mem::Access access);
  Status dereg_mr(std::uint32_t lkey);

  /// `buffer` must hold entries*kCqeBytes + kCqTailBytes, in host or GPU
  /// memory.
  Result<CqInfo> create_cq(mem::Addr buffer, std::uint32_t entries);

  /// Buffers are caller-allocated rings (host or GPU memory).
  Result<QpInfo> create_qp(mem::Addr sq_buffer, std::uint32_t sq_entries,
                           mem::Addr rq_buffer, std::uint32_t rq_entries,
                           std::uint32_t send_cq, std::uint32_t recv_cq);

  /// RC pairing (performed out of band on both sides). The default
  /// overload sends through the first-connected link; the routed
  /// overload pins all of the QP's traffic (data, read responses, ACKs)
  /// to first-hop (`link`, `side`) toward `remote_node`, which is what
  /// N-node topologies use — relays along the way steer by the node id.
  /// Routing an already-routed QP is a hard error (it would silently
  /// repoint the connection's egress).
  Status connect_qp(std::uint32_t qpn, std::uint32_t remote_qpn);
  Status connect_qp(std::uint32_t qpn, std::uint32_t remote_qpn,
                    net::NetworkLink* link, int side, int remote_node = -1);

  const HcaConfig& config() const { return cfg_; }
  std::uint64_t cqes_written() const { return cqes_written_; }
  std::uint64_t cq_overflows() const { return cq_overflows_; }
  std::uint64_t rnr_errors() const { return rnr_errors_; }
  std::uint64_t protection_errors() const { return protection_errors_; }
  std::uint64_t stamp_errors() const { return stamp_errors_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }

  // --- pcie::Endpoint (doorbell pages) --------------------------------------
  void inbound_write(mem::Addr addr,
                     std::span<const std::uint8_t> data) override;
  SimTime inbound_read(SimTime arrival, mem::Addr addr,
                       std::span<std::uint8_t> out) override;

 private:
  struct Frame {
    enum class Kind : std::uint8_t {
      kWrite = 1,
      kWriteImm = 2,
      kSend = 3,
      kReadReq = 4,
      kReadResp = 5,
      kAck = 6,
      kNak = 7,
    };
    Kind kind = Kind::kWrite;
    bool last = false;
    std::uint32_t dst_qpn = 0;
    std::uint32_t total = 0;
    std::uint32_t imm = 0;
    std::uint32_t psn = 0;
    std::uint64_t offset = 0;
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    WcStatus status = WcStatus::kSuccess;  // for NAK
    std::vector<std::uint8_t> payload;

    std::vector<std::uint8_t> encode() const;
    static Result<Frame> decode(const std::vector<std::uint8_t>& bytes);
  };

  struct PendingAck {
    std::uint32_t psn = 0;
    std::uint64_t wr_id = 0;
    WqeOpcode opcode = WqeOpcode::kInvalid;
    std::uint32_t byte_len = 0;
    bool signaled = false;
    SimTime t_posted = 0;  // WQE execution start (observability span)
  };

  struct PendingRead {
    std::uint64_t laddr = 0;
    std::uint64_t wr_id = 0;
    std::uint32_t byte_len = 0;
    bool signaled = false;
  };

  struct Qp {
    bool used = false;
    QpInfo info;
    std::uint32_t remote_qpn = 0;
    // Egress port for this QP's frames; a null link = the terminal's.
    net::Port route;
    int remote_node = -1;  // peer terminal id (routed fabrics only)
    // Send queue: producer count from doorbells, consumer count in HCA.
    std::uint32_t sq_tail = 0;
    std::uint32_t sq_head = 0;
    bool sq_running = false;
    // Receive queue.
    std::uint32_t rq_tail = 0;
    std::uint32_t rq_head = 0;
    // RC state.
    std::uint32_t next_psn = 1;
    std::deque<PendingAck> await_ack;
    std::unordered_map<std::uint32_t, PendingRead> pending_reads;
    // Receiver-side: the recv WQE consumed by an in-flight SEND.
    bool recv_active = false;
    RecvWqe active_recv;
    std::uint32_t dropping_psn = 0;  // message being discarded after RNR
    bool dropping = false;
  };

  struct Cq {
    bool used = false;
    CqInfo info;
    std::uint32_t pi = 0;  // producer index
  };

  void kick_sq(std::uint32_t qpn);
  void sq_step(std::uint32_t qpn);
  void execute_wqe(std::uint32_t qpn, const SendWqe& wqe, obs::FlowId flow,
                   std::function<void()> done);
  void stream_message(std::uint32_t qpn, Frame::Kind kind, const SendWqe& wqe,
                      mem::Addr src, std::uint32_t psn, obs::FlowId flow,
                      std::function<void()> done);
  /// Decodes a frame the terminal delivered to this HCA.
  void on_frame(std::vector<std::uint8_t> bytes, const net::Arrival& at);
  void handle_write_segment(const Frame& f, bool with_imm, obs::FlowId flow);
  void handle_send_segment(const Frame& f, obs::FlowId flow);
  void deliver_send_payload(const Frame& f, obs::FlowId flow);
  void handle_read_request(const Frame& f, obs::FlowId flow);
  void handle_read_response(const Frame& f, obs::FlowId flow);
  void handle_ack(const Frame& f, bool nak);
  void send_ack(std::uint32_t origin_qpn, std::uint32_t psn);
  void send_nak(std::uint32_t origin_qpn, std::uint32_t psn, WcStatus status);
  void fetch_recv_wqe(Qp& qp, std::function<void(Result<RecvWqe>)> cb);
  /// Sends a frame through the QP's route, or the terminal's next hop
  /// toward the peer when the QP has none (the default port for unrouted
  /// peers). `flow`, when nonzero, rides with the frame for wire
  /// correlation at the receiver (only last frames of a message carry it).
  void link_send(const Qp& qp, std::vector<std::uint8_t> bytes,
                 obs::FlowId flow = 0);
  /// `flow`, when nonzero, is the message lifecycle this completion
  /// closes: its notify_write stage is stamped when the CQE slot write
  /// lands, and the flow is queued for the slot's poller.
  void write_cqe(std::uint32_t cq_id, const Cqe& cqe, obs::FlowId flow = 0);
  void complete_local(std::uint32_t qpn, const PendingAck& pending,
                      WcStatus status);

  SimTime occupy_engine(SimDuration service);

  sim::Simulation& sim_;
  pcie::Fabric& fabric_;
  mem::MemoryDomain& memory_;
  HcaConfig cfg_;
  std::string name_;
  pcie::EndpointId endpoint_id_ = 0;
  std::unique_ptr<pcie::DmaEngine> dma_;
  mem::RegistrationTable mr_table_;
  net::Terminal terminal_;

  std::vector<Qp> qps_;
  std::vector<Cq> cqs_;
  SimTime engine_busy_until_ = 0;

  std::uint64_t cqes_written_ = 0;
  std::uint64_t cq_overflows_ = 0;
  std::uint64_t rnr_errors_ = 0;
  std::uint64_t protection_errors_ = 0;
  std::uint64_t stamp_errors_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

/// UAR layout: each QP owns 16 bytes; +0 is the SQ doorbell, +8 the RQ
/// doorbell.
constexpr std::uint64_t kUarBytesPerQp = 16;

inline mem::Addr sq_doorbell_addr(std::uint32_t qpn) {
  return mem::AddressMap::kIbUarBase + qpn * kUarBytesPerQp;
}
inline mem::Addr rq_doorbell_addr(std::uint32_t qpn) {
  return mem::AddressMap::kIbUarBase + qpn * kUarBytesPerQp + 8;
}

}  // namespace pg::ib

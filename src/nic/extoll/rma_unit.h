// The EXTOLL RMA unit: requester, completer and responder pipelines, the
// BAR requester pages, and the kernel-pinned notification queues.
//
// Model highlights, mapped to the paper's description (Sec. III):
//  - A WR is posted by writing three 64-bit words to the port's requester
//    page in the BAR; the third word starts the transfer. One WR per port
//    may be in flight; the requester notification signals that the
//    requester can accept another WR (reposting earlier is a protocol
//    violation that the model counts).
//  - Notifications (128 bit) are written by the hardware into per-port
//    queues allocated in kernel (system) memory at driver load time; they
//    cannot be moved to GPU memory. Consumers must free slots (zero them
//    and advance the read pointer) before the queue overflows.
//  - The core is a 157 MHz FPGA with a 64-bit datapath: descriptor decode
//    and payload movement are charged at that rate.
//  - Payloads are pulled/pushed by a segmenting DMA engine, so reading
//    from GPU memory rides the peer-to-peer path with its bandwidth
//    ceiling.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mem/allocator.h"
#include "mem/memory_domain.h"
#include "net/terminal.h"
#include "obs/flow.h"
#include "nic/extoll/atu.h"
#include "nic/extoll/rma_types.h"
#include "pcie/dma.h"
#include "pcie/fabric.h"
#include "sim/simulation.h"

namespace pg::extoll {

struct ExtollConfig {
  std::uint32_t num_ports = 32;
  std::uint32_t notif_queue_entries = 4096;
  double core_clock_hz = 157e6;     // Galibier FPGA
  std::uint32_t datapath_bytes = 8; // 64-bit internal datapath
  std::uint32_t wr_decode_cycles = 48;
  std::uint32_t completer_cycles = 40;
  std::uint32_t responder_cycles = 32;
  std::uint32_t notification_cycles = 12;
  std::uint32_t segment_bytes = 64 * KiB;  // internal streaming granule
  pcie::DmaConfig dma;
  pcie::LinkConfig pcie_link;
};

/// Everything software needs to drive one port.
struct PortInfo {
  std::uint32_t port = 0;
  mem::Addr requester_page = 0;  // BAR address to write WRs to
  // Requester-notification queue (slots, entry count, read-pointer cell).
  mem::Addr req_queue_base = 0;
  mem::Addr req_rp_addr = 0;
  // Completer-notification queue.
  mem::Addr cmp_queue_base = 0;
  mem::Addr cmp_rp_addr = 0;
  std::uint32_t queue_entries = 0;
};

class ExtollNic : public pcie::Endpoint {
 public:
  /// `host_arena` provides the kernel-pinned system memory the driver
  /// would have reserved for notification queues.
  ExtollNic(sim::Simulation& sim, pcie::Fabric& fabric,
            mem::MemoryDomain& memory, mem::BumpAllocator& host_arena,
            ExtollConfig cfg, std::string name);
  ~ExtollNic() override;

  /// The NIC's fabric side: sys::Cluster wires links, the node id and
  /// the next-hop bindings through it (WRs with dst_node = -1 go to the
  /// first link connected, the classic two-node peer), and it relays
  /// frames addressed to other terminals.
  net::Terminal& terminal() { return terminal_; }
  const net::Terminal& terminal() const { return terminal_; }

  // --- driver-level API (state only; callers charge CPU time) --------------

  Result<PortInfo> open_port(std::uint32_t port);
  Result<Nla> register_memory(mem::Addr base, std::uint64_t length,
                              mem::Access access);
  Status deregister_memory(Nla nla);

  /// EXTENSION (paper Sec. VI, claim 3): relocate an open port's
  /// notification queues to caller-provided memory - in particular GPU
  /// memory, so a device-side consumer polls locally instead of over
  /// PCIe. The production Galibier cannot do this (queues are pinned in
  /// kernel memory at driver load); this models the interface change the
  /// paper argues future NICs need. Each base must provide
  /// entries*16 bytes of slots; the rp cells hold the consumer's read
  /// pointers. Pending notifications must be drained first (wp resets).
  Status relocate_notification_queues(std::uint32_t port,
                                      mem::Addr req_base, mem::Addr req_rp,
                                      mem::Addr cmp_base, mem::Addr cmp_rp,
                                      std::uint32_t entries);

  /// Injects a WR directly (tests / host fast path both still pay for the
  /// BAR write through HostCpu::mmio_write; this entry point is the
  /// post-BAR decode).
  void post_work_request(const WorkRequest& wr);

  const ExtollConfig& config() const { return cfg_; }
  std::uint64_t notifications_written() const { return notifications_written_; }
  std::uint64_t notifications_dropped() const { return notifications_dropped_; }
  std::uint64_t protocol_violations() const { return protocol_violations_; }
  std::uint64_t translation_faults() const { return translation_faults_; }
  std::uint64_t puts_completed() const { return puts_completed_; }
  std::uint64_t gets_completed() const { return gets_completed_; }

  // --- pcie::Endpoint -------------------------------------------------------
  void inbound_write(mem::Addr addr,
                     std::span<const std::uint8_t> data) override;
  SimTime inbound_read(SimTime arrival, mem::Addr addr,
                       std::span<std::uint8_t> out) override;

 private:
  struct NotifQueue {
    mem::Addr slot_base = 0;
    mem::Addr rp_addr = 0;
    std::uint32_t entries = 0;
    std::uint32_t wp = 0;
    std::array<std::uint16_t, 1> _pad{};
  };
  struct PortState {
    bool opened = false;
    bool gated = false;  // WR in flight; repost before notification = bug
    std::uint64_t staging[3] = {0, 0, 0};
    std::uint8_t staged_mask = 0;
    std::uint16_t req_seq = 0;
    std::uint16_t cmp_seq = 0;
    SimTime wr_posted_at = 0;  // accept time of the in-flight WR (obs span)
    obs::FlowId flow = 0;      // lifecycle of the in-flight WR (one per port)
    NotifQueue req_queue;
    NotifQueue cmp_queue;
  };

  /// Wire frame exchanged between two RMA units.
  struct Frame {
    enum class Kind : std::uint8_t {
      kPutSegment = 1,
      kGetRequest = 2,
      kGetResponse = 3,
    };
    Kind kind = Kind::kPutSegment;
    std::uint8_t port = 0;
    bool last = false;
    bool notify_completer = false;
    std::uint32_t total_size = 0;
    std::uint64_t offset = 0;  // segment offset within the transfer
    Nla src_nla = 0;
    Nla dst_nla = 0;
    std::vector<std::uint8_t> payload;

    std::vector<std::uint8_t> encode() const;
    static Result<Frame> decode(const std::vector<std::uint8_t>& bytes);
  };

  SimDuration core_cycles(std::uint32_t n) const;
  Bandwidth core_rate() const {
    return Bandwidth{cfg_.core_clock_hz * cfg_.datapath_bytes};
  }

  void pump_requester();
  void execute_put(const WorkRequest& wr, mem::Addr src_addr);
  void execute_get(const WorkRequest& wr);
  void requester_finished(const WorkRequest& wr);
  /// Decodes a frame the terminal delivered to this NIC.
  void on_frame(std::vector<std::uint8_t> bytes, const net::Arrival& at);
  void handle_put_segment(const Frame& f, obs::FlowId flow);
  /// Get responses route back to the requesting terminal when the
  /// request carried one (meta.src_node >= 0); direct-attached requests
  /// keep the legacy reply-on-arrival-link path, which routed adjacent
  /// traffic also reduces to.
  void handle_get_request(const Frame& f, const net::Arrival& at,
                          obs::FlowId flow);
  void handle_get_response(const Frame& f, obs::FlowId flow);

  /// DMA-writes a notification into `queue` (posted; ordered behind the
  /// payload because callers invoke it from the payload's delivery
  /// callback). `flow`, when nonzero, is the message lifecycle this
  /// notification completes: its notify_write stage is stamped when the
  /// slot write lands, and the flow is queued for the slot's poller.
  void write_notification(PortState& port, NotifQueue& queue,
                          const Notification& n, obs::FlowId flow = 0);

  sim::Simulation& sim_;
  pcie::Fabric& fabric_;
  mem::MemoryDomain& memory_;
  ExtollConfig cfg_;
  std::string name_;
  pcie::EndpointId endpoint_id_ = 0;
  std::unique_ptr<pcie::DmaEngine> dma_;
  Atu atu_;
  net::Terminal terminal_;

  std::vector<PortState> ports_;
  std::deque<WorkRequest> requester_fifo_;
  bool requester_busy_ = false;
  SimTime datapath_busy_until_ = 0;
  SimTime completer_busy_until_ = 0;
  SimTime responder_busy_until_ = 0;

  std::uint64_t notifications_written_ = 0;
  std::uint64_t notifications_dropped_ = 0;
  std::uint64_t protocol_violations_ = 0;
  std::uint64_t translation_faults_ = 0;
  std::uint64_t puts_completed_ = 0;
  std::uint64_t gets_completed_ = 0;
};

}  // namespace pg::extoll

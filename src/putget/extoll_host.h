// Host-side EXTOLL RMA endpoint: the CPU flavour of the put/get API.
//
// This is the conventional (pre-GPU) usage of the RMA unit that the
// paper's host-controlled and host-assisted modes run: the CPU builds the
// 192-bit WR, writes it to the port's BAR page, and consumes 128-bit
// notifications from the kernel-pinned queues with cached polling.
#pragma once

#include <cstdint>
#include <optional>

#include "host/cpu.h"
#include "nic/extoll/rma_unit.h"
#include "obs/flow.h"
#include "sim/coro.h"

namespace pg::putget {

/// Consumer-side view of one notification queue: tracks the read index,
/// checks slot validity, frees slots (zeroes them, bumps the read
/// pointer) - the protocol the paper describes and whose cost it
/// measures.
class NotificationReader {
 public:
  NotificationReader() = default;
  NotificationReader(mem::Addr slot_base, mem::Addr rp_addr,
                     std::uint32_t entries)
      : slot_base_(slot_base), rp_addr_(rp_addr), entries_(entries),
        slot_(slot_base) {}

  /// Cached: pending() runs once per modeled poll probe, so the slot
  /// address is maintained at consume() time instead of recomputing
  /// index % entries on the spin loop's hot path.
  mem::Addr current_slot() const { return slot_; }

  /// Host-side check: is a notification pending? (One cached read.)
  bool pending(const host::HostCpu& cpu) const {
    return extoll::Notification::valid_word0(cpu.load_u64(current_slot()));
  }

  /// Host-side consume: read both words, zero the slot, advance the read
  /// pointer. Caller must have seen pending(). The message lifecycle the
  /// NIC parked under the slot (completer notifications carry one;
  /// requester notifications never do) ends here: this is the poll that
  /// observed it.
  extoll::Notification consume(host::HostCpu& cpu) {
    const mem::Addr slot = current_slot();
    const std::uint64_t w0 = cpu.load_u64(slot);
    const std::uint64_t w1 = cpu.load_u64(slot + 8);
    cpu.store_u64(slot, 0);
    cpu.store_u64(slot + 8, 0);
    ++index_;
    slot_ = slot_base_ + (index_ % entries_) * extoll::kNotificationBytes;
    cpu.store_u32(rp_addr_, index_);
    const obs::FlowId flow = obs::flow_pop(obs::flow_key(&cpu.fabric(), slot));
    obs::flow_stage(flow, "host", "poll_detect", cpu.sim().now());
    obs::flow_end(flow, "host", cpu.sim().now());
    return extoll::Notification::decode(w0, w1);
  }

  std::uint32_t consumed() const { return index_; }
  mem::Addr slot_base() const { return slot_base_; }
  mem::Addr rp_addr() const { return rp_addr_; }
  std::uint32_t entries() const { return entries_; }

 private:
  mem::Addr slot_base_ = 0;
  mem::Addr rp_addr_ = 0;
  std::uint32_t entries_ = 0;
  std::uint32_t index_ = 0;   // next slot to inspect
  mem::Addr slot_ = 0;        // == slot_base_ + (index_ % entries_) * bytes
};

/// One opened RMA port driven from the host.
class ExtollHostPort {
 public:
  /// Opens `port` on `nic` (driver call; charge cpu.driver_call() when
  /// timing matters).
  static Result<ExtollHostPort> open(extoll::ExtollNic& nic,
                                     std::uint32_t port);

  const extoll::PortInfo& info() const { return info_; }
  NotificationReader& requester_notifications() { return req_reader_; }
  NotificationReader& completer_notifications() { return cmp_reader_; }

  // Host primitives. Each is a lazy CoTask: awaiting one runs its body
  // inline on the caller's schedule (no extra events); sim::spawn runs
  // one fire-and-forget.

  /// Builds the WR and writes its three words to the BAR page.
  /// The third write kicks the transfer.
  sim::CoTask post(host::HostCpu& cpu, extoll::WorkRequest wr);

  /// Polls the requester queue until a notification arrives, consumes it.
  sim::CoTask wait_requester(host::HostCpu& cpu);

  /// Polls the completer queue until a notification arrives, consumes it.
  sim::CoTask wait_completer(host::HostCpu& cpu);

 private:
  ExtollHostPort(extoll::PortInfo info)
      : info_(info),
        req_reader_(info.req_queue_base, info.req_rp_addr,
                    info.queue_entries),
        cmp_reader_(info.cmp_queue_base, info.cmp_rp_addr,
                    info.queue_entries) {}

  extoll::PortInfo info_;
  NotificationReader req_reader_;
  NotificationReader cmp_reader_;
};

}  // namespace pg::putget

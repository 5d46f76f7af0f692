// The host CPU model.
//
// Host-side control code runs as coroutines whose awaits charge the CPU
// cost model. The paper's point of comparison is that all these costs are
// small on a CPU: descriptors are built in cached memory in ~100 ns, an
// MMIO doorbell write costs one write-combined store, and polling host
// memory hits the cache. The same operations issued from a GPU thread
// cost microseconds - that asymmetry is the paper.
//
// State access (loads/stores to the node's own DRAM) is immediate;
// crossing the fabric (MMIO writes, stores into GPU memory) is posted
// through the PCIe model from the root complex. One exception: the
// host drivers write queue-ring entries with the zero-time stores
// below wherever the ring lives (see store_bytes).
#pragma once

#include <cstdint>
#include <functional>

#include "mem/memory_domain.h"
#include "pcie/fabric.h"
#include "sim/coro.h"
#include "sim/simulation.h"

namespace pg::host {

struct CpuConfig {
  SimDuration mmio_write_cost = nanoseconds(120);   // WC buffer flush
  SimDuration descriptor_build_cost = nanoseconds(100);
  SimDuration cached_poll_interval = nanoseconds(60);
  SimDuration dram_touch_cost = nanoseconds(25);
  SimDuration driver_call_cost = microseconds(1);   // ioctl-ish entry
};

class HostCpu {
 public:
  HostCpu(sim::Simulation& sim, pcie::Fabric& fabric, CpuConfig cfg)
      : sim_(sim), fabric_(fabric), cfg_(cfg) {}

  sim::Simulation& sim() { return sim_; }
  const CpuConfig& config() const { return cfg_; }

  // --- time charges (co_await these) ---------------------------------------

  [[nodiscard]] sim::Delay delay(SimDuration d) { return {sim_, d}; }
  [[nodiscard]] sim::Delay build_descriptor() {
    return {sim_, cfg_.descriptor_build_cost};
  }
  [[nodiscard]] sim::Delay touch_dram() { return {sim_, cfg_.dram_touch_cost}; }
  [[nodiscard]] sim::Delay driver_call() { return {sim_, cfg_.driver_call_cost}; }

  /// Issues a posted 64-bit MMIO write (also used for stores into GPU
  /// memory) and charges the CPU-side cost. The write lands later via the
  /// fabric; awaiting this only waits out the CPU cost, as on hardware.
  [[nodiscard]] sim::Delay mmio_write_u64(mem::Addr addr, std::uint64_t value) {
    std::vector<std::uint8_t> bytes(8);
    std::memcpy(bytes.data(), &value, 8);
    fabric_.write(pcie::kRootComplex, addr, std::move(bytes));
    return {sim_, cfg_.mmio_write_cost};
  }

  /// Posted write of a byte buffer (descriptor-sized MMIO bursts).
  [[nodiscard]] sim::Delay mmio_write(mem::Addr addr,
                                      std::vector<std::uint8_t> bytes) {
    fabric_.write(pcie::kRootComplex, addr, std::move(bytes));
    return {sim_, cfg_.mmio_write_cost};
  }

  /// Polls until `predicate` holds, probing at the cached-poll interval
  /// (host-memory polling: each probe is an L1 hit plus pipeline cost).
  /// Between real events the poller waits parked off the event heap, so
  /// `predicate` must only read state (no side effects, no clock); see
  /// sim::PollUntil.
  [[nodiscard]] sim::PollUntil poll_until(std::function<bool()> predicate) {
    return {sim_, std::move(predicate), cfg_.cached_poll_interval,
            cfg_.cached_poll_interval};
  }

  // --- zero-time state access (own DRAM; cost charged via touch_dram) ------

  std::uint64_t load_u64(mem::Addr addr) const {
    return fabric_.memory().read_u64(addr);
  }
  std::uint32_t load_u32(mem::Addr addr) const {
    return fabric_.memory().read_u32(addr);
  }
  void store_u64(mem::Addr addr, std::uint64_t v) {
    fabric_.memory().write_u64(addr, v);
  }
  void store_u32(mem::Addr addr, std::uint32_t v) {
    fabric_.memory().write_u32(addr, v);
  }
  /// Also writes host-posted WQEs/RQEs into their ring, even one in GPU
  /// memory: the entry's cost is the descriptor-build charge, and the
  /// NIC cannot fetch it before the doorbell posted behind it lands.
  void store_bytes(mem::Addr addr, std::span<const std::uint8_t> bytes) {
    fabric_.memory().write(addr, bytes);
  }
  void load_bytes(mem::Addr addr, std::span<std::uint8_t> bytes) const {
    fabric_.memory().read(addr, bytes);
  }

  pcie::Fabric& fabric() { return fabric_; }

 private:
  sim::Simulation& sim_;
  pcie::Fabric& fabric_;
  CpuConfig cfg_;
};

}  // namespace pg::host

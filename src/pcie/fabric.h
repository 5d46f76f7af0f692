// The per-node PCIe fabric: endpoints, address routing, and the
// posted-write / split-read transaction machinery.
//
// Topology is a single root complex (host memory controller + CPU) with
// one duplex link per endpoint (GPU, NIC). A transaction from endpoint A
// to endpoint B crosses A's upstream link and B's downstream link; a
// transaction to host DRAM crosses only A's upstream link plus the memory
// controller latency. The host CPU issues from the root, so its MMIO
// writes cross only the target's downstream link.
//
// Reads are split transactions: a request TLP travels to the target, the
// target serves it (possibly queuing - see GpuP2pReadServer), and
// completion TLPs carry the data back. Writes are posted: they occupy the
// wire and complete at the target without a response.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mem/address_map.h"
#include "mem/memory_domain.h"
#include "mem/payload.h"
#include "pcie/link.h"
#include "sim/simulation.h"

namespace pg::pcie {

using mem::Addr;

/// Devices implement this to receive inbound fabric traffic.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// A posted write has arrived. The device applies side effects
  /// (BAR doorbell kick, DRAM store + cache invalidation, ...).
  virtual void inbound_write(Addr addr, std::span<const std::uint8_t> data) = 0;

  /// A read request has arrived at `arrival`. The device fills `out`
  /// (sampling its state now) and returns the time at which the data is
  /// ready to leave, >= arrival. Queuing inside the device (e.g. the GPU's
  /// peer-to-peer read unit) is expressed by returning a later time.
  virtual SimTime inbound_read(SimTime arrival, Addr addr,
                               std::span<std::uint8_t> out) = 0;
};

using EndpointId = std::uint32_t;
/// The root complex: host CPU + memory controller.
constexpr EndpointId kRootComplex = 0;

struct FabricConfig {
  SimDuration host_dram_latency = nanoseconds(90);
  /// Extra turnaround charged inside every endpoint for request decode /
  /// completion assembly (covers on-chip queues we do not model).
  SimDuration endpoint_turnaround = nanoseconds(60);
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, mem::MemoryDomain& memory, FabricConfig cfg);

  /// Attaches a device behind a fresh duplex link; returns its id.
  EndpointId attach(std::string name, Endpoint* device, LinkConfig link_cfg);

  /// Routes [base, base+size) to the given endpoint (BARs; the GPU claims
  /// its DRAM aperture so peers reach device memory through it).
  void claim_range(EndpointId id, Addr base, std::uint64_t size);

  /// Posted write of `data` to `addr`, issued by `src` (kRootComplex for
  /// the CPU). `data` may be a slice of a larger payload: the DMA engine
  /// chunks one payload into many TLPs that all alias its storage.
  /// `on_delivered`, if given, runs when the write lands at the target
  /// (simulated time has advanced).
  void write(EndpointId src, Addr addr, mem::Payload data,
             std::function<void()> on_delivered = {});

  /// Split read of `into.size()` bytes at `addr`, issued by `src`. The
  /// target serves the read straight into `into` (a fresh payload, or a
  /// slice of the requester's); `on_data` gets it back when the
  /// completion arrives at the issuer.
  void read(EndpointId src, Addr addr, mem::Payload into,
            std::function<void(mem::Payload)> on_data);

  /// This node's payload storage: every payload a read fills or a device
  /// posts on this node comes from here.
  mem::PayloadPool& payloads() { return payloads_; }

  /// Immediate, zero-time access to host DRAM for the CPU (the CPU's own
  /// loads/stores do not cross the fabric; their cost lives in the CPU
  /// model).
  mem::MemoryDomain& memory() { return memory_; }

  sim::Simulation& sim() { return sim_; }

  /// Wire statistics for tests and the ablation benches.
  std::uint64_t upstream_bytes(EndpointId id) const;
  std::uint64_t transactions() const { return transactions_; }

 private:
  struct Port {
    std::string name;
    Endpoint* device = nullptr;  // null for the root complex
    std::unique_ptr<Link> up;    // endpoint -> root
    std::unique_ptr<Link> down;  // root -> endpoint
  };

  struct Claim {
    Addr base;
    std::uint64_t size;
    EndpointId owner;
  };

  /// Endpoint owning `addr`, or kRootComplex when it is host DRAM.
  /// Returns false when the address routes nowhere.
  bool route(Addr addr, EndpointId& out) const;

  /// Serves a read at the routing target, returning data-ready time.
  SimTime serve_read(EndpointId target, SimTime arrival, Addr addr,
                     std::span<std::uint8_t> out);

  /// Applies a write at the routing target.
  void apply_write(EndpointId target, Addr addr,
                   std::span<const std::uint8_t> data);

  mem::PayloadPool payloads_;
  sim::Simulation& sim_;
  mem::MemoryDomain& memory_;
  FabricConfig cfg_;
  std::vector<Port> ports_;
  std::vector<Claim> claims_;
  std::uint64_t transactions_ = 0;
};

}  // namespace pg::pcie

// One simulated node: host CPU + DRAM, a GPU, and the NICs, all hanging
// off the node's PCIe fabric, plus the memory arenas experiments allocate
// from.
#pragma once

#include <memory>
#include <string>

#include "gpu/device.h"
#include "host/cpu.h"
#include "mem/allocator.h"
#include "mem/memory_domain.h"
#include "nic/extoll/rma_unit.h"
#include "nic/ib/hca.h"
#include "pcie/fabric.h"
#include "sim/simulation.h"

namespace pg::sys {

/// The two put/get fabrics every node can carry.
enum class Backend { kExtoll, kIb };

const char* backend_name(Backend b);

struct NodeConfig {
  pcie::FabricConfig fabric;
  host::CpuConfig cpu;
  gpu::GpuConfig gpu;
  extoll::ExtollConfig extoll;
  ib::HcaConfig ib;
  bool with_extoll = true;
  bool with_ib = true;
};

class Node {
 public:
  Node(sim::Simulation& sim, const NodeConfig& cfg, const std::string& name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }

  mem::MemoryDomain& memory() { return memory_; }
  pcie::Fabric& fabric() { return fabric_; }
  host::HostCpu& cpu() { return cpu_; }
  gpu::Gpu& gpu() { return *gpu_; }
  extoll::ExtollNic& extoll() { return *extoll_; }
  ib::Hca& hca() { return *hca_; }
  /// The fabric side of `b`'s NIC (links, node id, next hops, relay).
  net::Terminal& terminal(Backend b) {
    return b == Backend::kExtoll ? extoll_->terminal() : hca_->terminal();
  }
  bool has_extoll() const { return extoll_ != nullptr; }
  bool has_ib() const { return hca_ != nullptr; }

  /// User allocations in host memory (pinned buffers, rings on host).
  mem::BumpAllocator& host_heap() { return host_heap_; }
  /// User allocations in GPU memory (cudaMalloc stand-in).
  mem::BumpAllocator& gpu_heap() { return gpu_heap_; }

 private:
  std::string name_;
  mem::MemoryDomain memory_;
  pcie::Fabric fabric_;
  host::HostCpu cpu_;
  // Host DRAM layout: lower 3 GiB user heap, top 1 GiB kernel arena for
  // driver structures (EXTOLL notification queues).
  mem::BumpAllocator host_heap_;
  mem::BumpAllocator kernel_arena_;
  mem::BumpAllocator gpu_heap_;
  std::unique_ptr<gpu::Gpu> gpu_;
  std::unique_ptr<extoll::ExtollNic> extoll_;
  std::unique_ptr<ib::Hca> hca_;
};

}  // namespace pg::sys

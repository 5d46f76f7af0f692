// The simulated GPU: SMs interpreting PTX-lite warps, an L2 cache, the
// device-memory hierarchy, kernel launch/stream management, performance
// counters, and the PCIe endpoint personality (peer-to-peer BAR aperture
// over device memory).
//
// Timing model (defaults tuned in sys/testbed.cc):
//   - Instruction issue: `issue_cycles` per instruction for a dependent
//     single-warp instruction stream. This deliberately models the LOW
//     single-thread performance the paper keeps pointing at: a lone GPU
//     thread grinding through ibv_post_send's ~442 instructions pays
//     ~10 cycles each, which is where the high GPU-side posting cost in
//     Figs. 4/5 comes from.
//   - Device-memory loads go through the L2 tag model: hits cost
//     `l2_hit_cycles`, misses add `dram_extra_cycles`.
//   - System-memory (and MMIO) accesses cross the PCIe fabric: loads are
//     split transactions (~1.2 us round trip with default links), stores
//     are posted.
//   - Inter-warp issue contention is not modelled; contention appears at
//     the L2/fabric/NIC where the paper's experiments actually stress it.
//   - Spin loops on device memory (the pollOnGPU tail poll, the bufOnGPU
//     CQE spin) cost one event per probe only until they reach a fixed
//     point. When a loop's load (marked at predecode, gpu/program.h)
//     hits in L2 with the mask unchanged and every register its body
//     writes equal to one iteration earlier, the next completion is
//     exactly one period away (body issue + l2_hit_cycles), and the warp
//     parks on a sim::Poller under that completion's birth key instead of
//     scheduling it. It wakes, as a real event on the probe lattice, at
//     the first probe where the loaded bytes differ from the parked
//     sample or a loaded line left the L2; every skipped probe is
//     credited in closed form (counters, L2 LRU, gpu.l2_loads, events).
//     System-memory and MMIO polls stay explicit (real PCIe reads that
//     contend for the link), and so does every warp while a trace
//     recorder or flow tracker is attached (per-probe instants and flow
//     scans), which makes each traced run an explicit-probe reference.
//
// Coherence: the L2 is tags-only; data is always sampled from the backing
// store at access-completion time. Inbound DMA writes invalidate matching
// L2 lines, so polling loops pay a miss on the first probe after data
// lands - the effect the paper's dev2dev-pollOnGPU variant exploits.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/counters.h"
#include "gpu/kernel.h"
#include "gpu/l2cache.h"
#include "gpu/warp.h"
#include "mem/memory_domain.h"
#include "pcie/fabric.h"
#include "pcie/p2p.h"
#include "sim/simulation.h"

namespace pg::gpu {

struct GpuConfig {
  SimDuration clock_period = picoseconds(1000);  // 1 GHz
  std::uint32_t issue_cycles = 10;   // dependent-issue interval per instr
  std::uint32_t l2_hit_cycles = 120;
  std::uint32_t dram_extra_cycles = 280;  // added to hit path on miss
  std::uint32_t shared_cycles = 30;
  std::uint32_t atom_cycles = 360;
  std::uint32_t membar_cycles = 180;
  std::uint32_t barrier_cycles = 40;
  std::uint32_t max_inline_steps = 64;   // instrs per scheduler slice
  /// Non-posted PCIe read credits: at most this many system-memory /
  /// MMIO loads in flight GPU-wide. Many warps polling host memory
  /// concurrently serialize here, which is one of the effects that keeps
  /// GPU-controlled message rates below host-controlled ones (Fig. 2).
  std::uint32_t max_outstanding_sysmem_reads = 4;
  /// Extra per-load cost of the zero-copy (host-mapped) read path: GPU
  /// MMU / BAR windowing overhead on top of the raw PCIe round trip.
  /// Kepler-class hardware pays ~1.2 us per host-memory probe; this knob
  /// plus the fabric flight reproduces that.
  SimDuration sysmem_read_extra = nanoseconds(800);
  /// Write-combine flush delay for MMIO stores: a GPU thread's stores to
  /// an uncached BAR page linger in the WC buffer before reaching PCIe.
  SimDuration mmio_store_flush = nanoseconds(400);
  SimDuration launch_overhead = microseconds(6);
  std::uint64_t shared_mem_per_block = 64 * KiB;
  L2Config l2;
  pcie::P2pConfig p2p;
  pcie::LinkConfig link;  // the GPU's PCIe link to the root complex
};

class Gpu : public pcie::Endpoint {
 public:
  /// Constructs the GPU and attaches it to `fabric` (claiming the
  /// GPU-DRAM aperture).
  Gpu(sim::Simulation& sim, pcie::Fabric& fabric, mem::MemoryDomain& memory,
      GpuConfig cfg, std::string name);

  ~Gpu() override;  // out of line: private impl types are incomplete here
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  using DoneFn = std::function<void()>;

  /// Asynchronous kernel launch; `done` fires when the last block
  /// retires. Launch overhead is charged before the first instruction.
  void launch(const KernelLaunch& kl, DoneFn done = {});

  /// Launch into a stream: kernels in the same stream serialize, kernels
  /// in different streams run concurrently (the paper's dev2dev-kernels
  /// message-rate configuration).
  void launch_stream(std::uint32_t stream, const KernelLaunch& kl,
                     DoneFn done = {});

  const PerfCounters& counters() const { return counters_; }
  PerfCounters counters_snapshot() const { return counters_; }

  L2Cache& l2() { return l2_; }
  const std::string& name() const { return name_; }

  // --- pcie::Endpoint -------------------------------------------------------
  void inbound_write(mem::Addr addr,
                     std::span<const std::uint8_t> data) override;
  SimTime inbound_read(SimTime arrival, mem::Addr addr,
                       std::span<std::uint8_t> out) override;

 private:
  struct LaunchState;
  struct BlockState;
  struct WarpExec;
  struct StreamState;
  class SpinPoller;

  void start_launch(std::shared_ptr<LaunchState> ls);
  void run_warp(std::shared_ptr<WarpExec> w);
  /// Completion of a device-memory load: samples every lane, then
  /// resumes the warp.
  void complete_l2_load(const std::shared_ptr<WarpExec>& w,
                        const Decoded& in);
  void retire_warp(const std::shared_ptr<WarpExec>& w, SimDuration dt);

  SimDuration cycles(std::uint32_t n) const {
    return static_cast<SimDuration>(n) * cfg_.clock_period;
  }
  SimDuration issue_cost() const { return cycles(cfg_.issue_cycles); }

  /// Issues a system-memory/MMIO read through the non-posted credit gate.
  void sysmem_read(mem::Addr addr, std::uint32_t len,
                   std::function<void(std::vector<std::uint8_t>)> cb);
  void pump_sysmem_reads();

  /// If a message lifecycle is parked under any loaded lane address (a
  /// notification slot, CQE valid word, or the payload's tail), this
  /// load is the poll that detected its arrival: stamp poll_detect and
  /// end the first parked flow found, probing lanes in order. One
  /// deferred-friendly scan per load — whether a key holds a flow is
  /// only knowable at merge time under the sharded engine.
  void flow_poll_detect(const WarpExec& w, unsigned width);
  void flow_poll_detect(mem::Addr addr, unsigned width);

  /// Memory helpers (state access; timing handled by callers).
  std::uint64_t load_backed(const WarpExec& w, mem::Addr addr,
                            unsigned width) const;
  void store_backed(WarpExec& w, mem::Addr addr, unsigned width,
                    std::uint64_t value);

  /// Executes LD for the warp; returns true if the warp was suspended
  /// (continuation scheduled or parked) and the caller must stop the
  /// inline slice. `iterated`: the slice ran exactly one pass of the
  /// load's spin loop since the load's previous completion.
  bool exec_load(const std::shared_ptr<WarpExec>& w, const Decoded& in,
                 SimDuration& dt, bool iterated);

  // Spin-loop parking (see the timing model above).
  /// Records the registers the spin body writes; true when this issue
  /// repeats the previous one (iterated, same mask, same registers).
  /// Called at every issue of a spin load.
  bool spin_repeats(WarpExec& w, const Decoded& in, bool iterated);
  void park_spin(const std::shared_ptr<WarpExec>& w, const Decoded& in,
                 SimDuration period);
  /// Wake predicate: a loaded lane's bytes changed or a loaded line left
  /// the L2. Side-effect free, never reads the clock.
  bool spin_woken(const WarpExec& w) const;
  void wake_spin(WarpExec& w);
  void credit_spin(const WarpExec& w, std::uint64_t probes);
  void exec_store(const std::shared_ptr<WarpExec>& w, const Decoded& in,
                  SimDuration& dt);
  bool exec_atomic(const std::shared_ptr<WarpExec>& w, const Decoded& in,
                   SimDuration& dt);

  sim::Simulation& sim_;
  pcie::Fabric& fabric_;
  mem::MemoryDomain& memory_;
  GpuConfig cfg_;
  std::string name_;
  L2Cache l2_;
  pcie::GpuP2pReadServer p2p_;
  pcie::EndpointId endpoint_id_ = 0;
  PerfCounters counters_;
  std::uint32_t active_kernels_ = 0;
  std::uint64_t next_warp_id_ = 0;
  std::unordered_map<std::uint32_t, std::unique_ptr<StreamState>> streams_;

  struct SysmemReadJob {
    mem::Addr addr;
    std::uint32_t len;
    std::function<void(std::vector<std::uint8_t>)> cb;
  };
  std::uint32_t sysmem_reads_in_flight_ = 0;
  std::deque<SysmemReadJob> sysmem_read_queue_;
  // Parked spinning warps: no event holds them while they wait, so the
  // GPU does.
  std::vector<std::shared_ptr<WarpExec>> spinning_;
};

}  // namespace pg::gpu

#include "gpu/device.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/bitops.h"
#include "common/log.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::gpu {

using mem::Addr;
using mem::AddressMap;
using mem::Space;

namespace {

/// Sets `sectors` to the 32 B sectors that the lanes' `width`-byte
/// accesses touch, ascending and unique. Unit-stride lanes (each address
/// the previous one plus `width`) cover one byte range, whose sectors are
/// emitted directly. Otherwise a sector equal to the last one added is
/// dropped as it is made, so warp-uniform accesses, which arrive
/// ascending, need no sort.
template <typename Lanes>
void coalesce_sectors(const Lanes& lanes, unsigned width,
                      std::vector<std::uint64_t>& sectors) {
  sectors.clear();
  bool unit_stride = true;
  for (std::size_t i = 1; i < lanes.size() && unit_stride; ++i) {
    unit_stride = lanes[i].addr == lanes[i - 1].addr + width;
  }
  if (unit_stride) {
    const std::uint64_t last = (lanes.back().addr + width - 1) / 32;
    for (std::uint64_t s = lanes.front().addr / 32; s <= last; ++s) {
      sectors.push_back(s);
    }
    return;
  }
  for (const auto& la : lanes) {
    const std::uint64_t last = (la.addr + width - 1) / 32;
    for (std::uint64_t s = la.addr / 32; s <= last; ++s) {
      if (sectors.empty() || sectors.back() != s) sectors.push_back(s);
    }
  }
  if (!std::is_sorted(sectors.begin(), sectors.end())) {
    std::sort(sectors.begin(), sectors.end());
    sectors.erase(std::unique(sectors.begin(), sectors.end()), sectors.end());
  }
}

/// The `T`-sized little-endian value at `p`, zero-extended (ld.uN).
template <typename T>
std::uint64_t load_le(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// load_le of a run-time width (1, 2, 4 or 8): a fixed-size copy per
/// width, never a libc call with a variable length.
std::uint64_t load_le(const std::uint8_t* p, unsigned width) {
  switch (width) {
    case 1: return load_le<std::uint8_t>(p);
    case 2: return load_le<std::uint16_t>(p);
    case 4: return load_le<std::uint32_t>(p);
    default: return load_le<std::uint64_t>(p);
  }
}

/// Sets `rd` of every lane in `lanes` to its `T`-sized load from one
/// page, whose bytes for address `lo` start at `base`.
template <typename T, typename Lanes>
void load_lanes(WarpState& ws, unsigned rd, const Lanes& lanes,
                const std::uint8_t* base, Addr lo) {
  for (const auto& la : lanes) {
    ws.set_reg(la.lane, rd, load_le<T>(base + (la.addr - lo)));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures.

struct Gpu::LaunchState {
  KernelLaunch kl;
  const Decoded* code = nullptr;  // predecoded stream (owned by Program)
  unsigned num_regs = 0;          // registers per lane of every warp
  DoneFn done;
  std::uint32_t blocks_remaining = 0;
  SimTime t_launch = 0;  // host-side launch time (observability span)
};

struct Gpu::BlockState {
  std::shared_ptr<LaunchState> launch;
  std::uint32_t block_index = 0;
  std::uint32_t warps_alive = 0;
  std::vector<WarpExec*> barrier_parked;
  std::unique_ptr<mem::SparseMemory> shared;  // made at the first store
};

struct Gpu::WarpExec {
  WarpExec(unsigned lanes, unsigned num_regs) : state(lanes, num_regs) {}

  /// Back to a fresh warp of `lanes` x `num_regs` for the next launch.
  /// The scratch vectors and the poller are kept: every use rewrites
  /// the former, and a retired warp's poller is not parked.
  void reset(unsigned lanes, unsigned num_regs) {
    state.reset(lanes, num_regs);
    resumed_pc = -1;
    spin_mask = 0;
    spin_regs.clear();
    spin_load = nullptr;
    spin_sample.clear();
  }

  WarpState state;
  std::shared_ptr<BlockState> block;
  std::uint32_t warp_in_block = 0;
  std::uint64_t warp_global_id = 0;

  struct LaneAccess {
    unsigned lane;
    mem::Addr addr;
    std::uint64_t value = 0;  // store data
  };
  // Per-warp scratch for gathering lane accesses and coalescing sectors.
  // Reused across instructions so the steady-state interpreter does not
  // allocate. Safe for deferred reads: memory ops that schedule a
  // continuation (global/sysmem loads, atomics) park the warp until the
  // continuation runs, so the scratch cannot be clobbered meanwhile.
  // Posted stores copy what they need instead (and never the warp).
  std::vector<LaneAccess> scratch;
  std::vector<std::uint64_t> sectors;

  // Spin-loop parking. resumed_pc: the spin load whose completion began
  // the running slice (-1 otherwise). spin_mask / spin_regs: the last
  // issue of a spin load, with the registers its body writes
  // (lane-major). While parked, spin_load is the load and spin_sample
  // the bytes under each loaded lane.
  int resumed_pc = -1;
  LaneMask spin_mask = 0;
  std::vector<std::uint64_t> spin_regs;
  const Decoded* spin_load = nullptr;
  std::vector<std::uint64_t> spin_sample;
  std::unique_ptr<SpinPoller> poller;  // made at the first park
};

/// A parked spin loop: its probes are the loop load's completions.
class Gpu::SpinPoller final : public sim::Poller {
 public:
  SpinPoller(Gpu& gpu, WarpExec& w, SimDuration period)
      : Poller(gpu.sim_, [this] { return gpu_.spin_woken(w_); }, period),
        gpu_(gpu),
        w_(w) {}

  void wait(SimDuration period) {
    interval_ = period;
    park();
  }

 private:
  void probe() override { gpu_.wake_spin(w_); }
  void skipped(std::uint64_t probes) override {
    gpu_.credit_spin(w_, probes);
  }

  Gpu& gpu_;
  WarpExec& w_;
};

struct Gpu::StreamState {
  bool busy = false;
  std::deque<std::function<void()>> queue;
};

// ---------------------------------------------------------------------------
// Construction and launches.

Gpu::~Gpu() = default;

Gpu::Gpu(sim::Simulation& sim, pcie::Fabric& fabric, mem::MemoryDomain& memory,
         GpuConfig cfg, std::string name)
    : sim_(sim),
      fabric_(fabric),
      memory_(memory),
      cfg_(cfg),
      name_(std::move(name)),
      l2_(cfg.l2),
      p2p_(cfg.p2p) {
  endpoint_id_ = fabric_.attach(name_, this, cfg_.link);
  fabric_.claim_range(endpoint_id_, AddressMap::kGpuDramBase,
                      AddressMap::kGpuDramSize);
}

void Gpu::launch(const KernelLaunch& kl, DoneFn done) {
  assert(kl.program != nullptr);
  assert(kl.blocks >= 1 && kl.threads_per_block >= 1);
  assert(kl.params.size() <= kMaxParams);
  ++active_kernels_;
  ++counters_.kernels_launched;
  auto ls = std::make_shared<LaunchState>();
  ls->kl = kl;
  // Predecode once per launch; repeated launches of the same Program hit
  // the cache. The vector is stable, so the raw pointer stays valid.
  ls->code = kl.program->decoded().data();
  // r0-r3 and the parameters are written at launch even if unnamed.
  ls->num_regs = std::max<unsigned>(kl.program->num_regs(),
                                    kFirstParamReg + kl.params.size());
  ls->done = std::move(done);
  ls->blocks_remaining = kl.blocks;
  ls->t_launch = sim_.now();
  sim_.schedule(cfg_.launch_overhead,
                [this, ls = std::move(ls)] { start_launch(ls); });
}

void Gpu::launch_stream(std::uint32_t stream, const KernelLaunch& kl,
                        DoneFn done) {
  auto& slot = streams_[stream];
  if (!slot) slot = std::make_unique<StreamState>();
  StreamState* st = slot.get();
  auto run = [this, kl, done = std::move(done), st]() mutable {
    launch(kl, [this, done = std::move(done), st]() {
      if (done) done();
      if (st->queue.empty()) {
        st->busy = false;
      } else {
        auto next = std::move(st->queue.front());
        st->queue.pop_front();
        next();
      }
    });
  };
  if (st->busy) {
    st->queue.push_back(std::move(run));
  } else {
    st->busy = true;
    run();
  }
}

Gpu::WarpExec& Gpu::acquire_warp(unsigned lanes, unsigned num_regs) {
  if (free_warps_.empty()) {
    warps_.push_back(std::make_unique<WarpExec>(lanes, num_regs));
    return *warps_.back();
  }
  WarpExec& w = *free_warps_.back();
  free_warps_.pop_back();
  w.reset(lanes, num_regs);
  return w;
}

void Gpu::start_launch(const std::shared_ptr<LaunchState>& ls) {
  const KernelLaunch& kl = ls->kl;
  for (std::uint32_t b = 0; b < kl.blocks; ++b) {
    auto block = std::make_shared<BlockState>();
    block->launch = ls;
    block->block_index = b;
    const std::uint32_t warps =
        static_cast<std::uint32_t>(div_ceil(kl.threads_per_block, kWarpSize));
    block->warps_alive = warps;
    ++counters_.blocks_launched;
    for (std::uint32_t wi = 0; wi < warps; ++wi) {
      const unsigned lanes = std::min<std::uint32_t>(
          kWarpSize, kl.threads_per_block - wi * kWarpSize);
      WarpExec* w = &acquire_warp(lanes, ls->num_regs);
      w->block = block;
      w->warp_in_block = wi;
      w->warp_global_id = next_warp_id_++;
      ++counters_.warps_launched;
      // Initialize registers, one register across all lanes at a time.
      WarpState& ws = w->state;
      for (unsigned lane = 0; lane < lanes; ++lane) {
        ws.set_reg(lane, 0, wi * kWarpSize + lane);  // tid.x
      }
      ws.fill_reg(1, b);                     // ctaid.x
      ws.fill_reg(2, kl.threads_per_block);  // ntid.x
      ws.fill_reg(3, kl.blocks);             // nctaid.x
      for (std::size_t p = 0; p < kl.params.size(); ++p) {
        ws.fill_reg(kFirstParamReg + static_cast<unsigned>(p), kl.params[p]);
      }
      sim_.schedule(0, [this, w] { run_warp(*w); });
    }
  }
}

void Gpu::retire_warp(WarpExec& w, SimDuration dt) {
  BlockState& block = *w.block;
  assert(block.warps_alive > 0);
  --block.warps_alive;
  // A warp exiting may complete a barrier the remaining warps wait on
  // (CUDA forbids this; we resolve it rather than deadlock, and warn).
  if (block.warps_alive > 0 &&
      block.barrier_parked.size() == block.warps_alive) {
    PG_WARN("gpu", "block %u: warp exited while siblings wait at barrier",
            block.block_index);
    release_barrier(block, dt);
  }
  if (block.warps_alive == 0) {
    auto ls = block.launch;
    assert(ls->blocks_remaining > 0);
    --ls->blocks_remaining;
    if (ls->blocks_remaining == 0) {
      sim_.schedule(dt, [this, ls] {
        assert(active_kernels_ > 0);
        --active_kernels_;
        if (obs::metrics()) {
          obs::count("gpu.kernels");
          obs::observe("gpu.kernel_ns",
                       static_cast<std::uint64_t>(
                           to_ns(sim_.now() - ls->t_launch)));
        }
        if (obs::enabled()) {
          obs::span(name_.c_str(), "kernel", "kernel", ls->t_launch,
                    sim_.now(),
                    {{"blocks", ls->kl.blocks},
                     {"threads_per_block", ls->kl.threads_per_block}});
        }
        if (ls->done) ls->done();
      });
    }
  }
  w.block.reset();
  free_warps_.push_back(&w);
}

void Gpu::release_barrier(BlockState& block, SimDuration dt) {
  sim_.schedule(dt + cycles(cfg_.barrier_cycles),
                [this, parked = std::exchange(block.barrier_parked, {})] {
                  for (WarpExec* p : parked) run_warp(*p);
                });
}

// ---------------------------------------------------------------------------
// Backing-store access helpers.

namespace {

/// Width-dispatched, zero-extending load from a SparseMemory (the
/// in-page typed fast path; ld.uN semantics).
std::uint64_t sparse_load(const mem::SparseMemory& m, std::uint64_t off,
                          unsigned width) {
  switch (width) {
    case 1: return m.read_u8(off);
    case 2: return m.read_u16(off);
    case 4: return m.read_u32(off);
    default: return m.read_u64(off);
  }
}

void sparse_store(mem::SparseMemory& m, std::uint64_t off, unsigned width,
                  std::uint64_t v) {
  switch (width) {
    case 1: m.write_u8(off, static_cast<std::uint8_t>(v)); break;
    case 2: m.write_u16(off, static_cast<std::uint16_t>(v)); break;
    case 4: m.write_u32(off, static_cast<std::uint32_t>(v)); break;
    default: m.write_u64(off, v); break;
  }
}

}  // namespace

std::uint64_t Gpu::load_backed(const WarpExec& w, Addr addr,
                               unsigned width) const {
  if (AddressMap::classify(addr) == Space::kGpuShared) {
    const std::uint64_t offset = addr - AddressMap::kGpuSharedBase;
    assert(offset + width <= cfg_.shared_mem_per_block &&
           "shared-memory access out of block allocation");
    const mem::SparseMemory* shared = w.block->shared.get();
    return shared != nullptr ? sparse_load(*shared, offset, width) : 0;
  }
  return memory_.load_scalar(addr, width);
}

void Gpu::store_backed(WarpExec& w, Addr addr, unsigned width,
                       std::uint64_t value) {
  if (AddressMap::classify(addr) == Space::kGpuShared) {
    const std::uint64_t offset = addr - AddressMap::kGpuSharedBase;
    assert(offset + width <= cfg_.shared_mem_per_block &&
           "shared-memory access out of block allocation");
    std::unique_ptr<mem::SparseMemory>& shared = w.block->shared;
    if (!shared) {
      shared = std::make_unique<mem::SparseMemory>(cfg_.shared_mem_per_block);
    }
    sparse_store(*shared, offset, width, value);
    return;
  }
  memory_.store_scalar(addr, width, value);
}

// ---------------------------------------------------------------------------
// Memory instruction execution.

void Gpu::flow_poll_detect(const WarpExec& w, unsigned width) {
  // Producers park lifecycles under either the polled word's base
  // address (notification slots, CQE valid words) or the last written
  // payload byte (tag polls load the tail, so base + width - 1). The
  // probe order — lanes in order, base before tail — fixes which flow a
  // multi-lane poll detects when several are parked.
  if (obs::flows() == nullptr) return;
  std::uint64_t keys[2 * kWarpSize];
  std::size_t n = 0;
  for (const auto& la : w.scratch) {
    keys[n++] = obs::flow_key(&fabric_, la.addr);
    keys[n++] = obs::flow_key(&fabric_, la.addr + width - 1);
  }
  obs::flow_poll_scan(name_.c_str(), sim_.now(), keys, n);
}

void Gpu::flow_poll_detect(mem::Addr addr, unsigned width) {
  if (obs::flows() == nullptr) return;
  const std::uint64_t keys[2] = {
      obs::flow_key(&fabric_, addr),
      obs::flow_key(&fabric_, addr + width - 1)};
  obs::flow_poll_scan(name_.c_str(), sim_.now(), keys, 2);
}

bool Gpu::exec_load(WarpExec& w, const Decoded& in, SimDuration& dt,
                    bool iterated) {
  using LaneAccess = WarpExec::LaneAccess;
  WarpState& ws = w.state;
  std::vector<LaneAccess>& lanes = w.scratch;
  lanes.clear();
  ws.for_each_active([&](unsigned lane) {
    lanes.push_back({lane, ws.reg(lane, in.ra) + in.imm});
  });
  counters_.memory_accesses += lanes.size();
  const Space space = AddressMap::classify(lanes.front().addr);
#ifndef NDEBUG
  for (const auto& la : lanes) {
    assert(AddressMap::classify(la.addr) == space &&
           "warp load straddles address spaces");
  }
#endif

  if (space == Space::kGpuShared) {
    counters_.shared_reads += lanes.size();
    for (const auto& la : lanes) {
      ws.set_reg(la.lane, in.rd, load_backed(w, la.addr, in.width));
    }
    dt += cycles(cfg_.shared_cycles);
    ws.set_pc(ws.pc() + 1);
    return false;
  }

  if (space == Space::kGpuDram) {
    if (in.width == 8) {
      counters_.globmem_read64 += lanes.size();
    } else {
      counters_.globmem_read_other += lanes.size();
    }
    // Coalesce into unique 32B sectors; each is one L2 read request.
    std::vector<std::uint64_t>& sectors = w.sectors;
    coalesce_sectors(lanes, in.width, sectors);
    bool all_hit = true;
    for (std::uint64_t s : sectors) {
      const bool hit = l2_.access(s * 32, /*is_write=*/false);
      ++counters_.l2_read_requests;
      if (hit) {
        ++counters_.l2_read_hits;
      } else {
        ++counters_.l2_read_misses;
        all_hit = false;
      }
    }
    const SimDuration latency =
        cycles(cfg_.l2_hit_cycles + (all_hit ? 0 : cfg_.dram_extra_cycles));
    if (obs::metrics()) {
      obs::count("gpu.l2_loads");
      if (!all_hit) obs::count("gpu.l2_load_misses");
    }
    if (obs::enabled()) {
      obs::instant(name_.c_str(), "poll", "l2-read", sim_.now() + dt,
                   {{"addr", lanes.front().addr}, {"hit", all_hit}});
    }
    // A spin loop at its fixed point: the completion this issue would
    // schedule is one period away and changes nothing, and so is every
    // one after it until the polled bytes or lines change. Park under
    // that completion's key instead (tracing and flow scans want every
    // probe as a real event, so those runs stay explicit).
    if (in.spin_len != 0 && spin_repeats(w, in, iterated && all_hit) &&
        !obs::enabled() && obs::flows() == nullptr) {
      park_spin(w, in, dt + latency);
      return true;
    }
    // Sample at completion: NIC writes landing during the access latency
    // are observed, matching hardware where the L2 serves the request.
    // The warp is parked, so the continuation reads w.scratch in place.
    sim_.schedule(dt + latency,
                  [this, w = &w, &in] { complete_l2_load(*w, in); });
    return true;
  }

  // System memory or MMIO: split transactions over PCIe.
  {
    std::vector<std::uint64_t>& sectors = w.sectors;
    coalesce_sectors(lanes, in.width, sectors);
    counters_.sysmem_read_transactions += sectors.size();
    if (obs::metrics()) {
      obs::count("gpu.sysmem_loads");
    }
    if (obs::enabled()) {
      obs::instant(name_.c_str(), "poll", "sysmem-read", sim_.now() + dt,
                   {{"addr", lanes.front().addr}, {"lanes", lanes.size()}});
    }
    auto pending = std::make_shared<std::size_t>(lanes.size());
    // Zero-copy path overhead (GPU MMU / BAR window) before the request
    // reaches the fabric. The warp is parked; w->scratch stays valid
    // until the last per-lane completion below.
    sim_.schedule(dt + cfg_.sysmem_read_extra, [this, w = &w, &in, pending] {
      for (const auto& la : w->scratch) {
        sysmem_read(
            la.addr, in.width,
            [this, w, lane = la.lane, addr = la.addr, &in,
             pending](mem::Payload data) {
              assert(data.size() == std::size_t{in.width});
              w->state.set_reg(lane, in.rd, load_le(data.data(), in.width));
              // PCIe-read polling (the paper's direct mode): this
              // completion samples host memory, so it detects any
              // lifecycle parked under the polled address.
              flow_poll_detect(addr, in.width);
              if (--*pending == 0) {
                w->state.set_pc(w->state.pc() + 1);
                run_warp(*w);
              }
            });
      }
    });
    return true;
  }
}

void Gpu::complete_l2_load(WarpExec& w, const Decoded& in) {
  const std::vector<WarpExec::LaneAccess>& lns = w.scratch;
  // Coalesced fast path: when every active lane hits one backing page
  // (the common case: warp-uniform polls and unit-stride accesses),
  // resolve the page once instead of per lane. Data-only; every counter
  // was already updated at issue.
  Addr lo = lns.front().addr;
  Addr hi = lo;
  for (const auto& la : lns) {
    lo = std::min(lo, la.addr);
    hi = std::max(hi, la.addr);
  }
  const std::uint64_t off = lo - AddressMap::kGpuDramBase;
  const std::uint64_t len = hi + in.width - lo;
  const mem::SparseMemory& dram = memory_.gpu_dram();
  if (off / mem::SparseMemory::kPageSize ==
      (off + len - 1) / mem::SparseMemory::kPageSize) {
    if (const std::uint8_t* base = dram.span_in_page(off, len)) {
      WarpState& ws = w.state;
      switch (in.width) {
        case 1: load_lanes<std::uint8_t>(ws, in.rd, lns, base, lo); break;
        case 2: load_lanes<std::uint16_t>(ws, in.rd, lns, base, lo); break;
        case 4: load_lanes<std::uint32_t>(ws, in.rd, lns, base, lo); break;
        default: load_lanes<std::uint64_t>(ws, in.rd, lns, base, lo); break;
      }
    } else {  // page absent: reads as zero
      for (const auto& la : lns) w.state.set_reg(la.lane, in.rd, 0);
    }
  } else {
    for (const auto& la : lns) {
      w.state.set_reg(la.lane, in.rd, load_backed(w, la.addr, in.width));
    }
  }
  // The sample above reflects every write landed by now, so if a
  // lifecycle is parked under a polled lane this is the load that
  // detected it.
  flow_poll_detect(w, in.width);
  if (in.spin_len != 0) w.resumed_pc = w.state.pc();
  w.state.set_pc(w.state.pc() + 1);
  run_warp(w);
}

// ---------------------------------------------------------------------------
// Spin-loop parking.

bool Gpu::spin_repeats(WarpExec& w, const Decoded& in, bool iterated) {
  // Only the registers the body writes can differ between two issues of
  // its load: everything else the body reads is constant. So equal
  // written registers (and an equal sample) make the next iteration a
  // copy of the last one. Every spin-load issue records, so when this
  // slice iterated, the record is this load's previous issue.
  const WarpState& ws = w.state;
  const Decoded* body = w.block->launch->code + in.target;
  bool same = iterated && w.spin_mask == ws.mask();
  std::vector<std::uint64_t>& regs = w.spin_regs;
  std::size_t i = 0;
  ws.for_each_active([&](unsigned lane) {
    // The closing branch (the last op) writes nothing.
    for (unsigned k = 0; k + 1 < in.spin_len; ++k) {
      const std::uint64_t v = ws.reg(lane, body[k].rd);
      if (i == regs.size()) {
        regs.push_back(v);
        same = false;
      } else if (regs[i] != v) {
        regs[i] = v;
        same = false;
      }
      ++i;
    }
  });
  regs.resize(i);
  w.spin_mask = ws.mask();
  return same;
}

void Gpu::park_spin(WarpExec& w, const Decoded& in, SimDuration period) {
  w.spin_load = &in;
  // Nothing ran since the completion that sampled these bytes.
  w.spin_sample.clear();
  for (const auto& la : w.scratch) {
    w.spin_sample.push_back(memory_.load_scalar(la.addr, in.width));
  }
  if (!w.poller) w.poller = std::make_unique<SpinPoller>(*this, w, period);
  w.poller->wait(period);
  spinning_.push_back(&w);
}

bool Gpu::spin_woken(const WarpExec& w) const {
  const unsigned width = w.spin_load->width;
  for (std::size_t i = 0; i < w.scratch.size(); ++i) {
    if (memory_.load_scalar(w.scratch[i].addr, width) != w.spin_sample[i]) {
      return true;
    }
  }
  return std::any_of(w.sectors.begin(), w.sectors.end(),
                     [this](std::uint64_t s) { return !l2_.holds(s * 32); });
}

void Gpu::wake_spin(WarpExec& w) {
  const auto it = std::find(spinning_.begin(), spinning_.end(), &w);
  assert(it != spinning_.end());
  *it = spinning_.back();
  spinning_.pop_back();
  complete_l2_load(w, *w.spin_load);
}

void Gpu::credit_spin(const WarpExec& w, std::uint64_t probes) {
  // Each skipped probe is one completion plus one pass of the body: every
  // body instruction on every active lane, one uniform branch, and the
  // next issue of the load, whose sectors all hit.
  const Decoded& in = *w.spin_load;
  const std::uint64_t lanes = w.scratch.size();
  const std::uint64_t sectors = w.sectors.size();
  counters_.instructions_executed += probes * in.spin_len * lanes;
  counters_.branches += probes;
  counters_.memory_accesses += probes * lanes;
  if (in.width == 8) {
    counters_.globmem_read64 += probes * lanes;
  } else {
    counters_.globmem_read_other += probes * lanes;
  }
  counters_.l2_read_requests += probes * sectors;
  counters_.l2_read_hits += probes * sectors;
  // LRU: only the last probe's touches decide the lines' stamps.
  l2_.credit_hits((probes - 1) * sectors);
  for (std::uint64_t s : w.sectors) {
    [[maybe_unused]] const bool hit = l2_.access(s * 32, /*is_write=*/false);
    assert(hit && "a parked spin loop's line left the L2");
  }
  if (obs::metrics()) obs::count("gpu.l2_loads", probes);
}

void Gpu::exec_store(WarpExec& w, const Decoded& in, SimDuration& dt) {
  using LaneAccess = WarpExec::LaneAccess;
  WarpState& ws = w.state;
  // Stores do not park the warp (they are posted), so the deferred apply
  // below must own its lane data instead of borrowing w.scratch: a later
  // instruction in the same inline slice could clobber the scratch before
  // the posted write lands, and the warp may retire before it does.
  // Single-lane stores (the device library's steady state) capture the
  // one access by value - no allocation.
  std::vector<LaneAccess>& lanes = w.scratch;
  lanes.clear();
  ws.for_each_active([&](unsigned lane) {
    lanes.push_back(
        {lane, ws.reg(lane, in.ra) + in.imm, ws.reg(lane, in.rb)});
  });
  counters_.memory_accesses += lanes.size();
  const Space space = AddressMap::classify(lanes.front().addr);
#ifndef NDEBUG
  for (const auto& la : lanes) {
    assert(AddressMap::classify(la.addr) == space &&
           "warp store straddles address spaces");
  }
#endif

  if (space == Space::kGpuShared) {
    counters_.shared_writes += lanes.size();
    for (const auto& la : lanes) {
      store_backed(w, la.addr, in.width, la.value);
    }
    ws.set_pc(ws.pc() + 1);
    return;
  }

  if (space == Space::kGpuDram) {
    if (in.width == 8) {
      counters_.globmem_write64 += lanes.size();
    } else {
      counters_.globmem_write_other += lanes.size();
    }
    std::vector<std::uint64_t>& sectors = w.sectors;
    coalesce_sectors(lanes, in.width, sectors);
    counters_.l2_write_requests += sectors.size();
    for (std::uint64_t s : sectors) {
      (void)l2_.access(s * 32, /*is_write=*/true);  // write-allocate
    }
    // Posted into the memory pipeline: visible after the issue slice.
    const unsigned width = in.width;
    if (lanes.size() == 1) {
      const LaneAccess la = lanes.front();
      sim_.schedule(dt, [this, la, width] {
        memory_.store_scalar(la.addr, width, la.value);
      });
    } else {
      sim_.schedule(dt, [this, lns = std::vector<LaneAccess>(lanes), width] {
        for (const auto& la : lns) {
          memory_.store_scalar(la.addr, width, la.value);
        }
      });
    }
    ws.set_pc(ws.pc() + 1);
    return;
  }

  // System memory or MMIO: posted PCIe writes (this is how a GPU thread
  // posts an EXTOLL WR to the BAR or rings the IB doorbell).
  {
    std::vector<std::uint64_t>& sectors = w.sectors;
    coalesce_sectors(lanes, in.width, sectors);
    counters_.sysmem_write_transactions += sectors.size();
    const unsigned width = in.width;
    // Stores to MMIO (NIC BAR / doorbells) sit in the write-combine
    // buffer before flushing to PCIe; plain host-memory stores post
    // immediately.
    const SimDuration flush =
        AddressMap::is_mmio(lanes.front().addr) ? cfg_.mmio_store_flush : 0;
    if (lanes.size() == 1) {
      const LaneAccess la = lanes.front();
      sim_.schedule(dt + flush, [this, la, width] {
        fabric_.write(endpoint_id_, la.addr, value_payload(la.value, width));
      });
    } else {
      sim_.schedule(dt + flush, [this, lns = std::vector<LaneAccess>(lanes),
                                 width] {
        for (const auto& la : lns) {
          fabric_.write(endpoint_id_, la.addr, value_payload(la.value, width));
        }
      });
    }
    ws.set_pc(ws.pc() + 1);
    return;
  }
}

bool Gpu::exec_atomic(WarpExec& w, const Decoded& in, SimDuration& dt) {
  WarpState& ws = w.state;
  std::vector<WarpExec::LaneAccess>& lanes = w.scratch;
  lanes.clear();
  ws.for_each_active([&](unsigned lane) {
    lanes.push_back(
        {lane, ws.reg(lane, in.ra) + in.imm, ws.reg(lane, in.rb)});
  });
  counters_.memory_accesses += lanes.size();
  assert(AddressMap::classify(lanes.front().addr) == Space::kGpuDram &&
         "atomics are supported on device global memory only");
  counters_.globmem_read64 += lanes.size();
  counters_.globmem_write64 += lanes.size();
  std::vector<std::uint64_t>& sectors = w.sectors;
  coalesce_sectors(lanes, 1, sectors);  // the sector of each address
  counters_.l2_write_requests += sectors.size();
  for (std::uint64_t s : sectors) (void)l2_.access(s * 32, true);

  const bool is_add = in.op == XOp::kAtomAdd;
  // The read-modify-write executes atomically inside one event at
  // completion time; lanes apply in lane order (hardware serializes
  // same-address lane conflicts too). The warp is parked, so the
  // continuation reads w->scratch in place.
  sim_.schedule(dt + cycles(cfg_.atom_cycles), [this, w = &w, &in, is_add] {
    for (const auto& la : w->scratch) {
      const std::uint64_t old = load_backed(*w, la.addr, 8);
      const std::uint64_t next = is_add ? old + la.value : la.value;
      store_backed(*w, la.addr, 8, next);
      w->state.set_reg(la.lane, in.rd, old);
    }
    w->state.set_pc(w->state.pc() + 1);
    run_warp(*w);
  });
  return true;
}

// ---------------------------------------------------------------------------
// Non-posted read credit gate.

void Gpu::sysmem_read(Addr addr, std::uint32_t len,
                      std::function<void(mem::Payload)> cb) {
  sysmem_read_queue_.push_back(SysmemReadJob{addr, len, std::move(cb)});
  pump_sysmem_reads();
}

void Gpu::pump_sysmem_reads() {
  while (sysmem_reads_in_flight_ < cfg_.max_outstanding_sysmem_reads &&
         !sysmem_read_queue_.empty()) {
    SysmemReadJob job = std::move(sysmem_read_queue_.front());
    sysmem_read_queue_.pop_front();
    ++sysmem_reads_in_flight_;
    fabric_.read(endpoint_id_, job.addr, fabric_.payloads().acquire(job.len),
                 [this, cb = std::move(job.cb)](mem::Payload data) {
                   assert(sysmem_reads_in_flight_ > 0);
                   --sysmem_reads_in_flight_;
                   cb(std::move(data));
                   pump_sysmem_reads();
                 });
  }
}

// ---------------------------------------------------------------------------
// The interpreter.

void Gpu::run_warp(WarpExec& w) {
  WarpState& ws = w.state;
  // The predecoded stream: secondary decode (cmp/cond/sreg dispatch,
  // immediate casts) happened once at launch, so every case below lands
  // directly on its operation with no nested per-lane switch.
  const Decoded* const code = w.block->launch->code;
#ifndef NDEBUG
  const std::size_t code_size = w.block->launch->kl.program->size();
#endif
  SimDuration dt = 0;
  unsigned steps = 0;
  // The spin load whose completion began this slice, while the slice
  // stays inside that load's loop body.
  int resumed = std::exchange(w.resumed_pc, -1);
  while (steps < cfg_.max_inline_steps) {
    if (ws.done()) {
      retire_warp(w, dt);
      return;
    }
    if (ws.maybe_reconverge()) continue;
    assert(static_cast<std::size_t>(ws.pc()) < code_size);
    const Decoded& in = code[ws.pc()];
    if (resumed >= 0) {
      const Decoded& ld = code[resumed];
      if (ws.pc() < ld.target || ws.pc() >= ld.target + ld.spin_len) {
        resumed = -1;
      }
    }
    counters_.instructions_executed += ws.active_count();
    dt += issue_cost();
    ++steps;

    auto alu = [&](auto&& fn) {
      ws.for_each_active([&](unsigned lane) {
        ws.set_reg(lane, in.rd, fn(lane));
      });
      ws.set_pc(ws.pc() + 1);
    };
    auto ra = [&](unsigned lane) { return ws.reg(lane, in.ra); };
    auto rb = [&](unsigned lane) { return ws.reg(lane, in.rb); };
    auto sra = [&](unsigned lane) {
      return static_cast<std::int64_t>(ws.reg(lane, in.ra));
    };
    auto srb = [&](unsigned lane) {
      return static_cast<std::int64_t>(ws.reg(lane, in.rb));
    };
    const std::uint64_t imm = in.imm;
    const auto simm = static_cast<std::int64_t>(imm);

    switch (in.op) {
      case XOp::kNop:
        ws.set_pc(ws.pc() + 1);
        break;
      case XOp::kMovI:
        alu([&](unsigned) { return imm; });
        break;
      case XOp::kMov:
        alu([&](unsigned lane) { return ra(lane); });
        break;
      case XOp::kAdd:
        alu([&](unsigned lane) { return ra(lane) + rb(lane); });
        break;
      case XOp::kAddI:
        alu([&](unsigned lane) { return ra(lane) + imm; });
        break;
      case XOp::kSub:
        alu([&](unsigned lane) { return ra(lane) - rb(lane); });
        break;
      case XOp::kMul:
        alu([&](unsigned lane) { return ra(lane) * rb(lane); });
        break;
      case XOp::kMulI:
        alu([&](unsigned lane) { return ra(lane) * imm; });
        break;
      case XOp::kShlI:
        alu([&](unsigned lane) { return ra(lane) << imm; });
        break;
      case XOp::kShrI:
        alu([&](unsigned lane) { return ra(lane) >> imm; });
        break;
      case XOp::kAnd:
        alu([&](unsigned lane) { return ra(lane) & rb(lane); });
        break;
      case XOp::kAndI:
        alu([&](unsigned lane) { return ra(lane) & imm; });
        break;
      case XOp::kOr:
        alu([&](unsigned lane) { return ra(lane) | rb(lane); });
        break;
      case XOp::kOrI:
        alu([&](unsigned lane) { return ra(lane) | imm; });
        break;
      case XOp::kXor:
        alu([&](unsigned lane) { return ra(lane) ^ rb(lane); });
        break;
      case XOp::kNot:
        alu([&](unsigned lane) { return ~ra(lane); });
        break;
      case XOp::kBswap32:
        alu([&](unsigned lane) {
          return static_cast<std::uint64_t>(
              byteswap32(static_cast<std::uint32_t>(ra(lane))));
        });
        break;
      case XOp::kBswap64:
        alu([&](unsigned lane) { return byteswap64(ra(lane)); });
        break;
      case XOp::kSetpEq:
        alu([&](unsigned lane) -> std::uint64_t {
          return ra(lane) == rb(lane);
        });
        break;
      case XOp::kSetpNe:
        alu([&](unsigned lane) -> std::uint64_t {
          return ra(lane) != rb(lane);
        });
        break;
      case XOp::kSetpLt:
        alu([&](unsigned lane) -> std::uint64_t {
          return sra(lane) < srb(lane);
        });
        break;
      case XOp::kSetpLe:
        alu([&](unsigned lane) -> std::uint64_t {
          return sra(lane) <= srb(lane);
        });
        break;
      case XOp::kSetpGt:
        alu([&](unsigned lane) -> std::uint64_t {
          return sra(lane) > srb(lane);
        });
        break;
      case XOp::kSetpGe:
        alu([&](unsigned lane) -> std::uint64_t {
          return sra(lane) >= srb(lane);
        });
        break;
      case XOp::kSetpLtU:
        alu([&](unsigned lane) -> std::uint64_t {
          return ra(lane) < rb(lane);
        });
        break;
      case XOp::kSetpGeU:
        alu([&](unsigned lane) -> std::uint64_t {
          return ra(lane) >= rb(lane);
        });
        break;
      case XOp::kSetpEqI:
        alu([&](unsigned lane) -> std::uint64_t { return ra(lane) == imm; });
        break;
      case XOp::kSetpNeI:
        alu([&](unsigned lane) -> std::uint64_t { return ra(lane) != imm; });
        break;
      case XOp::kSetpLtI:
        alu([&](unsigned lane) -> std::uint64_t { return sra(lane) < simm; });
        break;
      case XOp::kSetpLeI:
        alu([&](unsigned lane) -> std::uint64_t { return sra(lane) <= simm; });
        break;
      case XOp::kSetpGtI:
        alu([&](unsigned lane) -> std::uint64_t { return sra(lane) > simm; });
        break;
      case XOp::kSetpGeI:
        alu([&](unsigned lane) -> std::uint64_t { return sra(lane) >= simm; });
        break;
      case XOp::kSetpLtUI:
        alu([&](unsigned lane) -> std::uint64_t { return ra(lane) < imm; });
        break;
      case XOp::kSetpGeUI:
        alu([&](unsigned lane) -> std::uint64_t { return ra(lane) >= imm; });
        break;
      case XOp::kSregTid:
        alu([&](unsigned lane) -> std::uint64_t {
          return w.warp_in_block * kWarpSize + lane;
        });
        break;
      case XOp::kSregCtaid:
        alu([&](unsigned) -> std::uint64_t { return w.block->block_index; });
        break;
      case XOp::kSregNtid:
        alu([&](unsigned) -> std::uint64_t {
          return w.block->launch->kl.threads_per_block;
        });
        break;
      case XOp::kSregNctaid:
        alu([&](unsigned) -> std::uint64_t {
          return w.block->launch->kl.blocks;
        });
        break;
      case XOp::kSregClock:
        alu([&](unsigned) {
          return static_cast<std::uint64_t>((sim_.now() + dt) / kNanosecond);
        });
        break;
      case XOp::kSregWarpId:
        alu([&](unsigned) { return w.warp_global_id; });
        break;
      case XOp::kBraAlways:
        ++counters_.branches;
        if (ws.branch(ws.mask(), in.target)) ++counters_.divergent_branches;
        break;
      case XOp::kBraIfTrue:
      case XOp::kBraIfFalse: {
        const bool want = in.op == XOp::kBraIfTrue;
        LaneMask taken = 0;
        ws.for_each_active([&](unsigned lane) {
          if ((ws.reg(lane, in.ra) != 0) == want) taken |= (1u << lane);
        });
        ++counters_.branches;
        if (ws.branch(taken, in.target)) ++counters_.divergent_branches;
        break;
      }
      case XOp::kSsy:
        ws.push_sync(in.target);
        ws.set_pc(ws.pc() + 1);
        break;
      case XOp::kCall:
        ws.call(in.target);
        break;
      case XOp::kRet:
        ws.ret();
        break;
      case XOp::kExit:
        ws.exit_active();
        break;
      case XOp::kMembarSys:
        dt += cycles(cfg_.membar_cycles);
        ws.set_pc(ws.pc() + 1);
        break;
      case XOp::kBarSync: {
        ws.set_pc(ws.pc() + 1);
        BlockState& block = *w.block;
        block.barrier_parked.push_back(&w);
        if (block.barrier_parked.size() == block.warps_alive) {
          release_barrier(block, dt);
        }
        return;  // parked until the barrier releases
      }
      case XOp::kLd:
        if (exec_load(w, in, dt, resumed == ws.pc())) return;
        break;
      case XOp::kSt:
        exec_store(w, in, dt);
        break;
      case XOp::kAtomAdd:
      case XOp::kAtomExch:
        if (exec_atomic(w, in, dt)) return;
        break;
    }
  }
  // Inline slice exhausted: yield to the event loop (lets DMA traffic and
  // other warps interleave at a bounded granularity).
  sim_.schedule(dt, [this, w = &w] { run_warp(*w); });
}

// ---------------------------------------------------------------------------
// PCIe endpoint personality.

void Gpu::inbound_write(Addr addr, std::span<const std::uint8_t> data) {
  assert(AddressMap::in_gpu_dram(addr) && "inbound write outside GPU DRAM");
  memory_.write(addr, data);
  // Coherence action: incoming DMA invalidates covered L2 lines, so the
  // next device-side poll misses once and observes the new data.
  l2_.invalidate_range(addr, data.size());
}

SimTime Gpu::inbound_read(SimTime arrival, Addr addr,
                          std::span<std::uint8_t> out) {
  assert(AddressMap::in_gpu_dram(addr) && "inbound read outside GPU DRAM");
  memory_.read(addr, out);
  return p2p_.serve(arrival, addr, out.size());
}

}  // namespace pg::gpu

// End-to-end tests of the GPU device model: program execution, memory
// spaces, L2 behaviour, counters, barriers, atomics, streams, and the
// PCIe endpoint personality.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gpu/assembler.h"
#include "gpu/device.h"
#include "mem/memory_domain.h"
#include "obs/flow.h"
#include "pcie/fabric.h"
#include "sim/simulation.h"

namespace pg::gpu {
namespace {

using mem::Addr;
using mem::AddressMap;

constexpr Addr kScratch = AddressMap::kGpuDramBase + 0x10000;
constexpr Addr kHostScratch = AddressMap::kHostDramBase + 0x10000;

struct GpuFixture {
  sim::Simulation sim;
  mem::MemoryDomain memory;
  pcie::Fabric fabric{sim, memory, pcie::FabricConfig{}};
  GpuConfig cfg;
  std::unique_ptr<Gpu> gpu;

  GpuFixture() { gpu = std::make_unique<Gpu>(sim, fabric, memory, cfg, "gpu0"); }

  /// Launches and runs to completion; returns simulated kernel duration
  /// (including launch overhead). Drains the event queue afterwards so
  /// posted (fire-and-forget) writes have landed before assertions.
  SimDuration run(const KernelLaunch& kl) {
    const SimTime start = sim.now();
    bool finished = false;
    SimTime end = start;
    gpu->launch(kl, [&] {
      finished = true;
      end = sim.now();
    });
    sim.set_event_limit(sim.events_executed() + 5'000'000);
    sim.run_until_condition([&] { return finished; });
    EXPECT_TRUE(finished) << "kernel did not finish";
    sim.run();
    return end - start;
  }

  Program make(Assembler& a) {
    auto p = a.finish();
    EXPECT_TRUE(p.is_ok()) << p.status().to_string();
    return std::move(p).value();
  }
};

TEST(GpuDevice, ComputesAndStoresToDeviceMemory) {
  GpuFixture f;
  Assembler a("store42");
  const Reg addr(4), v(8);
  a.movi(v, 40);
  a.addi(v, v, 2);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch}});
  EXPECT_EQ(f.memory.read_u64(kScratch), 42u);
}

TEST(GpuDevice, LoadsFromDeviceMemory) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 123456789);
  Assembler a("load");
  const Reg src(4), dst(5), v(8);
  a.ld(v, src, 0, 8);
  a.addi(v, v, 1);
  a.st(dst, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch, kScratch + 64}});
  EXPECT_EQ(f.memory.read_u64(kScratch + 64), 123456790u);
}

TEST(GpuDevice, NarrowWidthsZeroExtend) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 0xFFFFFFFFFFFFFFFFull);
  Assembler a("narrow");
  const Reg src(4), dst(5), v(8);
  a.ld(v, src, 0, 1);
  a.st(dst, v, 0, 8);
  a.ld(v, src, 0, 4);
  a.st(dst, v, 8, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch, kScratch + 64}});
  EXPECT_EQ(f.memory.read_u64(kScratch + 64), 0xFFull);
  EXPECT_EQ(f.memory.read_u64(kScratch + 72), 0xFFFFFFFFull);
}

TEST(GpuDevice, PropertyAluMatchesHostArithmetic) {
  // Random straight-line ALU programs, checked against a host-side
  // evaluation of the same operations.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    GpuFixture f;
    Assembler a("fuzz");
    std::array<std::uint64_t, 8> model{};  // host model of r8..r15
    for (unsigned i = 0; i < 8; ++i) {
      const std::uint64_t seed = rng.next_u64();
      model[i] = seed;
      a.movi(Reg(8 + i), static_cast<std::int64_t>(seed));
    }
    for (int op = 0; op < 30; ++op) {
      const unsigned d = static_cast<unsigned>(rng.next_below(8));
      const unsigned x = static_cast<unsigned>(rng.next_below(8));
      const unsigned y = static_cast<unsigned>(rng.next_below(8));
      switch (rng.next_below(8)) {
        case 0:
          a.add(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] + model[y];
          break;
        case 1:
          a.sub(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] - model[y];
          break;
        case 2:
          a.mul(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] * model[y];
          break;
        case 3:
          a.xor_(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] ^ model[y];
          break;
        case 4:
          a.and_(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] & model[y];
          break;
        case 5:
          a.or_(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] | model[y];
          break;
        case 6: {
          const int sh = static_cast<int>(rng.next_below(64));
          a.shli(Reg(8 + d), Reg(8 + x), sh);
          model[d] = model[x] << sh;
          break;
        }
        case 7:
          a.bswap64(Reg(8 + d), Reg(8 + x));
          model[d] = byteswap64(model[x]);
          break;
      }
    }
    for (unsigned i = 0; i < 8; ++i) {
      a.st(Reg(4), Reg(8 + i), static_cast<std::int64_t>(i * 8), 8);
    }
    a.exit();
    Program p = f.make(a);
    f.run({.program = &p, .params = {kScratch}});
    for (unsigned i = 0; i < 8; ++i) {
      ASSERT_EQ(f.memory.read_u64(kScratch + i * 8), model[i])
          << "trial " << trial << " reg " << i;
    }
  }
}

TEST(GpuDevice, TidAndCtaidDistinguishThreads) {
  GpuFixture f;
  // Each thread writes its global id to out[gid].
  Assembler a("ids");
  const Reg out(4), tid(8), ctaid(9), ntid(10), gid(11), addr(12);
  a.sreg(tid, Sreg::kTidX);
  a.sreg(ctaid, Sreg::kCtaidX);
  a.sreg(ntid, Sreg::kNtidX);
  a.mul(gid, ctaid, ntid);
  a.add(gid, gid, tid);
  a.muli(addr, gid, 8);
  a.add(addr, addr, out);
  a.st(addr, gid, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 3, .threads_per_block = 4,
         .params = {kScratch}});
  for (std::uint64_t g = 0; g < 12; ++g) {
    EXPECT_EQ(f.memory.read_u64(kScratch + g * 8), g);
  }
}

TEST(GpuDevice, CountersTrackInstructionsPerLane) {
  GpuFixture f;
  Assembler a("count");
  a.movi(Reg(8), 1);
  a.movi(Reg(9), 2);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 1, .threads_per_block = 8, .params = {}});
  // 3 instructions x 8 threads.
  EXPECT_EQ(f.gpu->counters().instructions_executed, 24u);
  EXPECT_TRUE(f.gpu->counters().consistent());
}

TEST(GpuDevice, L2HitsOnRepeatedPolling) {
  GpuFixture f;
  // Poll a devmem flag 100 times (it stays 0), then exit.
  Assembler a("poll");
  const Reg flag(4), n(8), v(9), pred(10);
  a.movi(n, 0);
  a.bind("loop");
  a.ld(v, flag, 0, 8);
  a.addi(n, n, 1);
  a.setpi(Cmp::kLt, pred, n, 100);
  a.bra_if(pred, "loop");
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch}});
  const PerfCounters& c = f.gpu->counters();
  EXPECT_EQ(c.l2_read_requests, 100u);
  EXPECT_EQ(c.l2_read_misses, 1u);  // only the first probe misses
  EXPECT_EQ(c.l2_read_hits, 99u);
  EXPECT_EQ(c.globmem_read64, 100u);
  EXPECT_EQ(c.sysmem_read_transactions, 0u);
  EXPECT_TRUE(c.consistent());
}

TEST(GpuDevice, InboundDmaWriteInvalidatesPolledLine) {
  GpuFixture f;
  // Device polls devmem flag until it becomes 7.
  Assembler a("poll_flag");
  const Reg flag(4), v(8), pred(9);
  a.bind("loop");
  a.ld(v, flag, 0, 8);
  a.setpi(Cmp::kNe, pred, v, 7);
  a.bra_if(pred, "loop");
  a.exit();
  Program p = f.make(a);
  bool finished = false;
  f.gpu->launch({.program = &p, .params = {kScratch}},
                [&] { finished = true; });
  // Simulate a NIC completer landing data+flag some time later.
  f.sim.schedule(microseconds(30), [&] {
    std::uint8_t bytes[8] = {7, 0, 0, 0, 0, 0, 0, 0};
    f.gpu->inbound_write(kScratch, bytes);
  });
  f.sim.set_event_limit(5'000'000);
  f.sim.run_until_condition([&] { return finished; });
  ASSERT_TRUE(finished);
  EXPECT_GE(f.sim.now(), microseconds(30));
  EXPECT_GT(f.gpu->l2().invalidations(), 0u);
  // Polls mostly hit in L2. (The probe that observes the new value may
  // have been tagged before the invalidation landed — its data is
  // sampled at completion — so only the first probe is guaranteed to
  // miss.)
  EXPECT_GE(f.gpu->counters().l2_read_misses, 1u);
  EXPECT_GT(f.gpu->counters().l2_read_hits, 10u);
}

TEST(GpuDevice, SysmemAccessesCrossTheFabric) {
  GpuFixture f;
  f.memory.write_u64(kHostScratch, 0x5150);
  Assembler a("sysmem");
  const Reg src(4), dst(5), v(8);
  a.ld(v, src, 0, 8);         // sysmem read
  a.addi(v, v, 1);
  a.st(dst, v, 0, 8);         // sysmem write
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kHostScratch, kHostScratch + 64}});
  EXPECT_EQ(f.memory.read_u64(kHostScratch + 64), 0x5151u);
  EXPECT_EQ(f.gpu->counters().sysmem_read_transactions, 1u);
  EXPECT_EQ(f.gpu->counters().sysmem_write_transactions, 1u);
  EXPECT_EQ(f.gpu->counters().l2_read_requests, 0u);  // sysmem bypasses L2
}

TEST(GpuDevice, SysmemPollIsMuchSlowerThanDevmemPoll) {
  // The paper's central EXTOLL observation, reproduced at the probe
  // level: one system-memory probe costs a PCIe round trip, one
  // device-memory probe costs an L2 hit.
  auto probe_time = [](Addr flag_addr) {
    GpuFixture f;
    Assembler a("probes");
    const Reg flag(4), v(8), n(9), pred(10);
    a.movi(n, 0);
    a.bind("loop");
    a.ld(v, flag, 0, 8);
    a.addi(n, n, 1);
    a.setpi(Cmp::kLt, pred, n, 200);
    a.bra_if(pred, "loop");
    a.exit();
    auto p = a.finish();
    EXPECT_TRUE(p.is_ok());
    Program prog = std::move(p).value();
    return f.run({.program = &prog, .params = {flag_addr}});
  };
  const SimDuration devmem = probe_time(kScratch);
  const SimDuration sysmem = probe_time(kHostScratch);
  EXPECT_GT(sysmem, 3 * devmem);
}

TEST(GpuDevice, SharedMemoryIsPerBlock) {
  GpuFixture f;
  // Each block writes its id into shared[0], then copies shared[0] to
  // out[ctaid]. Blocks must not see each other's shared memory.
  Assembler a("shared");
  const Reg out(4), ctaid(8), sh(9), v(10), addr(11);
  a.sreg(ctaid, Sreg::kCtaidX);
  a.movi(sh, static_cast<std::int64_t>(AddressMap::kGpuSharedBase));
  a.st(sh, ctaid, 0, 8);
  a.ld(v, sh, 0, 8);
  a.muli(addr, ctaid, 8);
  a.add(addr, addr, out);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 4, .params = {kScratch}});
  for (std::uint64_t b = 0; b < 4; ++b) {
    EXPECT_EQ(f.memory.read_u64(kScratch + b * 8), b);
  }
  EXPECT_EQ(f.gpu->counters().shared_reads, 4u);
  EXPECT_EQ(f.gpu->counters().shared_writes, 4u);
}

TEST(GpuDevice, BarrierSynchronizesWarpsInABlock) {
  GpuFixture f;
  // 64 threads = 2 warps. Each thread writes tid to shared[tid], then
  // after a barrier reads shared[63 - tid] and stores it to out[tid].
  Assembler a("barrier");
  const Reg out(4), tid(8), sh(9), addr(10), v(11), rev(12);
  a.sreg(tid, Sreg::kTidX);
  a.movi(sh, static_cast<std::int64_t>(AddressMap::kGpuSharedBase));
  a.muli(addr, tid, 8);
  a.add(addr, addr, sh);
  a.st(addr, tid, 0, 8);
  a.bar_sync();
  a.movi(rev, 63);
  a.sub(rev, rev, tid);
  a.muli(addr, rev, 8);
  a.add(addr, addr, sh);
  a.ld(v, addr, 0, 8);
  a.muli(addr, tid, 8);
  a.add(addr, addr, out);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 1, .threads_per_block = 64,
         .params = {kScratch}});
  for (std::uint64_t t = 0; t < 64; ++t) {
    ASSERT_EQ(f.memory.read_u64(kScratch + t * 8), 63 - t) << "tid " << t;
  }
}

TEST(GpuDevice, AtomicAddAggregatesAcrossBlocks) {
  GpuFixture f;
  Assembler a("atomics");
  const Reg ctr(4), one(8), old(9);
  a.movi(one, 1);
  a.atom_add(old, ctr, one, 0);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 16, .threads_per_block = 1,
         .params = {kScratch}});
  EXPECT_EQ(f.memory.read_u64(kScratch), 16u);
}

TEST(GpuDevice, AtomicExchangeReturnsOldValue) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 99);
  Assembler a("exch");
  const Reg ctr(4), nv(8), old(9);
  a.movi(nv, 7);
  a.atom_exch(old, ctr, nv, 0);
  a.st(ctr, old, 8, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch}});
  EXPECT_EQ(f.memory.read_u64(kScratch), 7u);
  EXPECT_EQ(f.memory.read_u64(kScratch + 8), 99u);
}

TEST(GpuDevice, DivergentBranchCountersAndSemantics) {
  GpuFixture f;
  // Odd threads add 100, even threads add 200; all store to out[tid].
  Assembler a("diverge");
  const Reg out(4), tid(8), parity(9), v(10), addr(11);
  a.sreg(tid, Sreg::kTidX);
  a.andi(parity, tid, 1);
  a.ssy("join");
  a.bra_if(parity, "odd");
  a.movi(v, 200);
  a.bra("join");
  a.bind("odd");
  a.movi(v, 100);
  a.bind("join");
  a.add(v, v, tid);
  a.muli(addr, tid, 8);
  a.add(addr, addr, out);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 1, .threads_per_block = 8,
         .params = {kScratch}});
  for (std::uint64_t t = 0; t < 8; ++t) {
    const std::uint64_t expect = (t & 1 ? 100 : 200) + t;
    ASSERT_EQ(f.memory.read_u64(kScratch + t * 8), expect) << t;
  }
  EXPECT_GE(f.gpu->counters().divergent_branches, 1u);
}

TEST(GpuDevice, KernelsInOneStreamSerialize) {
  GpuFixture f;
  // Kernel increments out[0] by reading+adding (racy across concurrent
  // kernels, safe when serialized).
  Assembler a("inc");
  const Reg out(4), v(8);
  a.ld(v, out, 0, 8);
  a.addi(v, v, 1);
  a.st(out, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  int done_count = 0;
  for (int i = 0; i < 5; ++i) {
    f.gpu->launch_stream(3, {.program = &p, .params = {kScratch}},
                         [&] { ++done_count; });
  }
  f.sim.run_until_condition([&] { return done_count == 5; });
  EXPECT_EQ(done_count, 5);
  EXPECT_EQ(f.memory.read_u64(kScratch), 5u);
}

TEST(GpuDevice, DistinctStreamsOverlap) {
  GpuFixture f;
  // A long-polling kernel in stream 1; a short kernel in stream 2 must
  // complete while stream 1 is still running.
  Assembler la("long_poll");
  {
    const Reg flag(4), v(8), pred(9);
    la.bind("loop");
    la.ld(v, flag, 0, 8);
    la.setpi(Cmp::kNe, pred, v, 1);
    la.bra_if(pred, "loop");
    la.exit();
  }
  auto long_p = la.finish();
  ASSERT_TRUE(long_p.is_ok());
  Assembler sa("short_store");
  {
    const Reg out(4), v(8);
    sa.movi(v, 11);
    sa.st(out, v, 0, 8);
    sa.exit();
  }
  auto short_p = sa.finish();
  ASSERT_TRUE(short_p.is_ok());

  bool long_done = false, short_done = false;
  SimTime short_time = 0;
  f.gpu->launch_stream(1, {.program = &long_p.value(), .params = {kScratch}},
                       [&] { long_done = true; });
  f.gpu->launch_stream(2,
                       {.program = &short_p.value(), .params = {kScratch + 64}},
                       [&] {
                         short_done = true;
                         short_time = f.sim.now();
                       });
  // Release the long kernel at 200us.
  f.sim.schedule(microseconds(200), [&] {
    std::uint8_t bytes[8] = {1, 0, 0, 0, 0, 0, 0, 0};
    f.gpu->inbound_write(kScratch, bytes);
  });
  f.sim.set_event_limit(20'000'000);
  f.sim.run_until_condition([&] { return long_done && short_done; });
  ASSERT_TRUE(long_done && short_done);
  EXPECT_LT(short_time, microseconds(100));  // overlapped, not serialized
}

TEST(GpuDevice, PeerReadServesCurrentData) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 0xABCD);
  std::uint8_t out[8] = {};
  const SimTime ready = f.gpu->inbound_read(1000, kScratch, out);
  std::uint64_t v = 0;
  std::memcpy(&v, out, 8);
  EXPECT_EQ(v, 0xABCDu);
  EXPECT_GT(ready, 1000);
}

TEST(GpuDevice, LaunchOverheadDelaysExecution) {
  GpuFixture f;
  Assembler a("noop");
  a.exit();
  Program p = f.make(a);
  const SimDuration took = f.run({.program = &p, .params = {}});
  EXPECT_GE(took, f.cfg.launch_overhead);
}

// ---------------------------------------------------------------------------
// Parked spin loops. A warp whose device-memory spin loop reaches a fixed
// point waits off the event heap and is credited per skipped probe
// (gpu/device.h). An attached flow tracker keeps every probe explicit, so
// each scenario below runs both ways and everything observable must match.

/// What a spin scenario can observe.
struct SpinOutcome {
  PerfCounters c;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_invalidations = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  SimTime now = 0;
  bool limit_hit = false;
  std::vector<std::uint64_t> log;  // scenario-specific observations
  std::uint64_t checks = 0;        // run-loop predicate calls: real events
};

/// Runs `scenario` on a fresh GPU, with every probe explicit or not.
SpinOutcome run_spin(bool explicit_probes,
                     const std::function<void(GpuFixture&, SpinOutcome&)>&
                         scenario) {
  obs::FlowTable flows;
  struct Detach {
    ~Detach() { obs::attach_flows(nullptr); }
  } detach;
  if (explicit_probes) obs::attach_flows(&flows);
  GpuFixture f;
  SpinOutcome out;
  scenario(f, out);
  out.c = f.gpu->counters();
  out.l2_hits = f.gpu->l2().hits();
  out.l2_misses = f.gpu->l2().misses();
  out.l2_invalidations = f.gpu->l2().invalidations();
  out.scheduled = f.sim.total_scheduled();
  out.executed = f.sim.events_executed();
  out.now = f.sim.now();
  out.limit_hit = f.sim.event_limit_hit();
  return out;
}

void expect_same_counters(const PerfCounters& got, const PerfCounters& ref) {
  EXPECT_EQ(got.instructions_executed, ref.instructions_executed);
  EXPECT_EQ(got.memory_accesses, ref.memory_accesses);
  EXPECT_EQ(got.sysmem_read_transactions, ref.sysmem_read_transactions);
  EXPECT_EQ(got.sysmem_write_transactions, ref.sysmem_write_transactions);
  EXPECT_EQ(got.globmem_read64, ref.globmem_read64);
  EXPECT_EQ(got.globmem_write64, ref.globmem_write64);
  EXPECT_EQ(got.globmem_read_other, ref.globmem_read_other);
  EXPECT_EQ(got.globmem_write_other, ref.globmem_write_other);
  EXPECT_EQ(got.l2_read_requests, ref.l2_read_requests);
  EXPECT_EQ(got.l2_read_hits, ref.l2_read_hits);
  EXPECT_EQ(got.l2_read_misses, ref.l2_read_misses);
  EXPECT_EQ(got.l2_write_requests, ref.l2_write_requests);
  EXPECT_EQ(got.branches, ref.branches);
  EXPECT_EQ(got.divergent_branches, ref.divergent_branches);
}

/// Runs the scenario parked and explicit, expects identical outcomes and
/// returns both (parked first).
std::pair<SpinOutcome, SpinOutcome> expect_parked_matches_explicit(
    const std::function<void(GpuFixture&, SpinOutcome&)>& scenario) {
  const SpinOutcome ref = run_spin(true, scenario);
  const SpinOutcome got = run_spin(false, scenario);
  expect_same_counters(got.c, ref.c);
  EXPECT_EQ(got.l2_hits, ref.l2_hits);
  EXPECT_EQ(got.l2_misses, ref.l2_misses);
  EXPECT_EQ(got.l2_invalidations, ref.l2_invalidations);
  EXPECT_EQ(got.scheduled, ref.scheduled);
  EXPECT_EQ(got.executed, ref.executed);
  EXPECT_EQ(got.now, ref.now);
  EXPECT_EQ(got.limit_hit, ref.limit_hit);
  EXPECT_EQ(got.log, ref.log);
  return {got, ref};
}

/// Spins until the word at param 0 equals param 1, then stores the clock
/// to param 2.
Program spin_until_equal(GpuFixture& f) {
  Assembler a("spin_until_equal");
  const Reg flag(4), want(5), out(6), v(8), pred(9), t(10);
  a.bind("spin");
  a.ld(v, flag, 0, 8);
  a.setp(Cmp::kNe, pred, v, want);
  a.bra_if(pred, "spin");
  a.sreg(t, Sreg::kClock);
  a.st(out, t, 0, 8);
  a.exit();
  return f.make(a);
}

SimDuration cycles_of(const GpuConfig& cfg, std::uint32_t n) {
  return static_cast<SimDuration>(n) * cfg.clock_period;
}

/// Completion time of probe m of spin_until_equal launched at t = 0: the
/// first (cold) probe misses, every later one is one hit period on.
SimTime spin_probe(const GpuConfig& cfg, int m) {
  const SimDuration first = cfg.launch_overhead +
                            cycles_of(cfg, cfg.issue_cycles + cfg.l2_hit_cycles +
                                               cfg.dram_extra_cycles);
  const SimDuration period = cycles_of(cfg, 3 * cfg.issue_cycles +
                                                cfg.l2_hit_cycles);
  return first + m * period;
}

/// An inbound DMA write of `value` to `addr` at `at`.
void dma_at(GpuFixture& f, SimTime at, Addr addr, std::uint64_t value) {
  f.sim.schedule_at(at, [&f, addr, value] {
    std::uint8_t bytes[8];
    std::memcpy(bytes, &value, 8);
    f.gpu->inbound_write(addr, bytes);
  });
}

/// Launches, runs until the kernel finishes, logs its stored clock.
void launch_and_finish(GpuFixture& f, SpinOutcome& out, const Program& p,
                       std::vector<std::uint64_t> params, Addr result) {
  bool finished = false;
  f.gpu->launch({.program = &p, .params = std::move(params)},
                [&finished] { finished = true; });
  f.sim.set_event_limit(5'000'000);
  EXPECT_TRUE(f.sim.run_until_condition([&] {
    ++out.checks;
    return finished;
  }));
  f.sim.run();
  out.log.push_back(f.memory.read_u64(result));
}

TEST(GpuSpinPark, WakeOnProbeLatticePointFollowsBirthOrder) {
  // A write landing exactly on probe 40's completion time: born before
  // that probe it runs first and probe 40 sees it; born after, probe 40
  // samples the old word and probe 41 exits.
  enum class Birth { kAtStart, kRelayAtProbe39, kAfterProbe39 };
  std::vector<std::uint64_t> ends;
  for (Birth b : {Birth::kAtStart, Birth::kRelayAtProbe39,
                  Birth::kAfterProbe39}) {
    SCOPED_TRACE(static_cast<int>(b));
    const auto [got, ref] = expect_parked_matches_explicit(
        [b](GpuFixture& f, SpinOutcome& out) {
          const Program p = spin_until_equal(f);
          const SimTime p39 = spin_probe(f.cfg, 39);
          const SimTime p40 = spin_probe(f.cfg, 40);
          if (b == Birth::kAtStart) {
            dma_at(f, p40, kScratch, 7);
          } else {
            // The relay at p39 runs before probe 39 (born earlier) and
            // mints the write's tag first; one picosecond later it runs
            // after probe 39, and the write is born later than probe 40.
            const SimTime relay = b == Birth::kRelayAtProbe39 ? p39 : p39 + 1;
            f.sim.schedule_at(relay,
                              [&f, p40] { dma_at(f, p40, kScratch, 7); });
          }
          launch_and_finish(f, out, p, {kScratch, 7, kScratch + 256},
                            kScratch + 256);
        });
    ends.push_back(ref.log.at(0));
    EXPECT_LT(got.checks * 4, ref.checks) << "the spin never parked";
  }
  EXPECT_EQ(ends[0], ends[1]);
  EXPECT_LT(ends[1], ends[2]);  // one probe period later
}

TEST(GpuSpinPark, WakeBetweenLatticePoints) {
  for (SimDuration off : {nanoseconds(1), nanoseconds(70), nanoseconds(149)}) {
    SCOPED_TRACE(off);
    const auto [got, ref] =
        expect_parked_matches_explicit([off](GpuFixture& f, SpinOutcome& out) {
          const Program p = spin_until_equal(f);
          dma_at(f, spin_probe(f.cfg, 40) + off, kScratch, 7);
          launch_and_finish(f, out, p, {kScratch, 7, kScratch + 256},
                            kScratch + 256);
        });
    EXPECT_LT(got.checks * 4, ref.checks) << "the spin never parked";
  }
}

TEST(GpuSpinPark, SameValueWriteCostsOneMissThenReparks) {
  const auto [got, ref] =
      expect_parked_matches_explicit([](GpuFixture& f, SpinOutcome& out) {
        const Program p = spin_until_equal(f);
        // Rewrites the zero the warp polls: only the line is invalidated.
        dma_at(f, spin_probe(f.cfg, 20) + nanoseconds(70), kScratch, 0);
        dma_at(f, spin_probe(f.cfg, 400) + nanoseconds(30), kScratch, 7);
        launch_and_finish(f, out, p, {kScratch, 7, kScratch + 256},
                          kScratch + 256);
      });
  // The cold probe and the one after the rewrite; the final write lands
  // after the exiting load issued (its completion samples the 7).
  EXPECT_EQ(ref.c.l2_read_misses, 2u);
  // Parked before the rewrite and again after it.
  EXPECT_LT(got.checks * 10, ref.checks) << "the spin did not re-park";
}

TEST(GpuSpinPark, DivergingLanesLeaveOneByOne) {
  // Four lanes each wait for their own word; the words arrive one at a
  // time, so the closing branch diverges and the still-waiting lanes
  // re-park with a smaller mask each time.
  const auto [got, ref] =
      expect_parked_matches_explicit([](GpuFixture& f, SpinOutcome& out) {
        Assembler a("diverging_spin");
        const Reg base(4), result(5), tid(8), addr(9), v(10), pred(11),
            t(12);
        a.sreg(tid, Sreg::kTidX);
        a.shli(addr, tid, 3);
        a.add(addr, addr, base);
        a.ssy("done");
        a.bind("spin");
        a.ld(v, addr, 0, 8);
        a.setpi(Cmp::kEq, pred, v, 0);
        a.bra_if(pred, "spin");
        a.bind("done");
        a.sreg(t, Sreg::kClock);
        a.shli(addr, tid, 3);
        a.add(addr, addr, result);
        a.st(addr, t, 0, 8);
        a.exit();
        const Program p = f.make(a);
        int k = 0;
        for (std::uint64_t lane : {2, 0, 3, 1}) {
          dma_at(f, microseconds(10 + 5 * k++) + 7, kScratch + lane * 8, 1);
        }
        bool finished = false;
        f.gpu->launch({.program = &p, .threads_per_block = 4,
                       .params = {kScratch, kScratch + 4096}},
                      [&finished] { finished = true; });
        f.sim.set_event_limit(5'000'000);
        EXPECT_TRUE(f.sim.run_until_condition([&] {
          ++out.checks;
          return finished;
        }));
        f.sim.run();
        for (Addr lane = 0; lane < 4; ++lane) {
          out.log.push_back(f.memory.read_u64(kScratch + 4096 + lane * 8));
        }
      });
  EXPECT_EQ(ref.c.divergent_branches, 3u);
  EXPECT_LT(got.checks * 4, ref.checks) << "the spin never parked";
}

TEST(GpuSpinPark, StoreFromAnotherKernelWakesTheSpinner) {
  // A device store hits the polled line (write-allocate) without
  // invalidating it, so only the changed bytes can wake the warp.
  const auto [got, ref] =
      expect_parked_matches_explicit([](GpuFixture& f, SpinOutcome& out) {
        const Program p = spin_until_equal(f);
        Assembler a("writer");
        const Reg flag(4), v(8);
        a.movi(v, 7);
        a.st(flag, v, 0, 8);
        a.exit();
        const Program writer = f.make(a);
        f.sim.schedule_at(microseconds(9) + 1, [&f, &writer] {
          f.gpu->launch({.program = &writer, .params = {kScratch}});
        });
        launch_and_finish(f, out, p, {kScratch, 7, kScratch + 256},
                          kScratch + 256);
      });
  EXPECT_EQ(ref.c.l2_read_misses, 1u);
  EXPECT_LT(got.checks * 4, ref.checks) << "the spin never parked";
}

TEST(GpuSpinPark, WideSpinWatchesEverySectorAndLine) {
  // 32 lanes poll 32 consecutive words: 8 sectors over 2 L2 lines. A
  // same-value rewrite of the second line alone must wake the warp.
  const auto [got, ref] =
      expect_parked_matches_explicit([](GpuFixture& f, SpinOutcome& out) {
        Assembler a("wide_spin");
        const Reg base(4), out_addr(5), tid(8), addr(9), v(10), pred(11);
        a.sreg(tid, Sreg::kTidX);
        a.shli(addr, tid, 3);
        a.add(addr, addr, base);
        a.bind("spin");
        a.ld(v, addr, 0, 8);
        a.setpi(Cmp::kEq, pred, v, 0);
        a.bra_if(pred, "spin");
        a.st(out_addr, tid, 0, 8);
        a.exit();
        const Program p = f.make(a);
        dma_at(f, microseconds(12) + 3, kScratch + 128, 0);
        f.sim.schedule_at(microseconds(20) + 5, [&f] {
          std::vector<std::uint8_t> ones(256, 1);
          f.gpu->inbound_write(kScratch, ones);
        });
        bool finished = false;
        f.gpu->launch({.program = &p, .threads_per_block = 32,
                       .params = {kScratch, kScratch + 4096}},
                      [&finished] { finished = true; });
        f.sim.set_event_limit(5'000'000);
        EXPECT_TRUE(f.sim.run_until_condition([&] {
          ++out.checks;
          return finished;
        }));
        out.log.push_back(f.sim.now());
      });
  // One per line cold, one for the rewritten line; the final write lands
  // after the exiting load issued.
  EXPECT_EQ(ref.c.l2_read_misses, 3u);
  EXPECT_LT(got.checks * 4, ref.checks) << "the spin never parked";
}

TEST(GpuSpinPark, TwoSpinnersInOneSetEvictInSkippedProbeOrder) {
  // Warps 0 and 1 spin on lines A and B of one L2 set, with 160 ns and
  // 150 ns periods. A third kernel's single 15-lane load then fills the
  // set's 14 free ways and evicts the least recently probed of A and B.
  // That spinner misses once, and its refill evicts the other spinner
  // unless that one probed since the fill. Which spinner goes first
  // depends on where the fill lands in the skipped probes' merged order.
  const std::uint64_t set_stride = 128ull * 128;  // line size x sets
  const Addr kResults = kScratch + 8192;           // another set
  std::set<std::uint64_t> misses;
  for (int step = 0; step < 32; ++step) {
    SCOPED_TRACE(step);
    const SimTime fill_at = microseconds(3) + nanoseconds(10) * step;
    const auto [got, ref] = expect_parked_matches_explicit(
        [&](GpuFixture& f, SpinOutcome& out) {
          Assembler a("set_spinners");
          const Reg base(4), result(5), tid(8), w(9), addr(10), v(11),
              pred(12), t(13), copy(14);
          a.sreg(tid, Sreg::kTidX);
          a.shri(w, tid, 5);
          a.muli(addr, w, static_cast<std::int64_t>(set_stride));
          a.add(addr, addr, base);
          a.setpi(Cmp::kEq, pred, w, 0);
          a.bra_if(pred, "spin0");
          a.bind("spin1");
          a.ld(v, addr, 0, 8);
          a.setpi(Cmp::kEq, pred, v, 0);
          a.bra_if(pred, "spin1");
          a.bra("done");
          a.bind("spin0");
          a.ld(v, addr, 0, 8);
          a.mov(copy, v);
          a.setpi(Cmp::kEq, pred, copy, 0);
          a.bra_if(pred, "spin0");
          a.bind("done");
          a.sreg(t, Sreg::kClock);
          a.shli(addr, w, 3);
          a.add(addr, addr, result);
          a.st(addr, t, 0, 8);
          a.exit();
          const Program spin = f.make(a);

          Assembler fa("set_fill");
          const Reg fbase(4), ftid(8), faddr(9), fv(10);
          fa.sreg(ftid, Sreg::kTidX);
          fa.muli(faddr, ftid, static_cast<std::int64_t>(set_stride));
          fa.add(faddr, faddr, fbase);
          fa.ld(fv, faddr, 0, 8);
          fa.exit();
          const Program fill = f.make(fa);

          int done = 0;
          f.gpu->launch({.program = &spin, .threads_per_block = 64,
                         .params = {kScratch, kResults}},
                        [&done] { ++done; });
          f.sim.schedule_at(fill_at, [&] {
            f.gpu->launch({.program = &fill, .threads_per_block = 15,
                           .params = {kScratch + 2 * set_stride}},
                          [&done] { ++done; });
          });
          dma_at(f, fill_at + microseconds(10), kScratch, 1);
          dma_at(f, fill_at + microseconds(10), kScratch + set_stride, 1);
          f.sim.set_event_limit(5'000'000);
          EXPECT_TRUE(f.sim.run_until_condition([&] {
            ++out.checks;
            return done == 2;
          }));
          f.sim.run();
          out.log = {f.memory.read_u64(kResults),
                     f.memory.read_u64(kResults + 8),
                     f.gpu->counters().l2_read_misses};
        });
    EXPECT_LT(got.checks * 4, ref.checks) << "the spins never parked";
    misses.insert(ref.log[2]);
  }
  // The sweep meets both orders: one spinner evicted (A and B cold, 15
  // fill lines, one refill) and both (a second refill).
  EXPECT_EQ(misses, (std::set<std::uint64_t>{18, 19}));
}

TEST(GpuSpinPark, LeavingTheLoopInsideTheSliceIsNotAnIteration) {
  // The spin exits at once (the flag already equals `want`) and an outer
  // loop re-enters it within the same slice. The load then repeats its
  // registers, but the slice was no single pass of the spin loop, so the
  // warp must stay explicit and count all 50 outer iterations.
  const auto [got, ref] =
      expect_parked_matches_explicit([](GpuFixture& f, SpinOutcome& out) {
        Assembler a("reentry");
        const Reg flag(4), want(5), result(6), n(8), v(9), pred(10), more(11);
        a.movi(n, 0);
        a.bind("spin");
        a.ld(v, flag, 0, 8);
        a.setp(Cmp::kNe, pred, v, want);
        a.bra_if(pred, "spin");
        a.addi(n, n, 1);
        a.setpi(Cmp::kLt, more, n, 50);
        a.bra_if(more, "spin");
        a.st(result, n, 0, 8);
        a.exit();
        const Program p = f.make(a);
        launch_and_finish(f, out, p, {kScratch, 0, kScratch + 256},
                          kScratch + 256);
      });
  EXPECT_EQ(got.log.at(0), 50u);
  EXPECT_EQ(got.c.branches, 100u);
}

TEST(GpuSpinPark, RunUntilDeadlinesCutSkippedProbesExactly) {
  expect_parked_matches_explicit([](GpuFixture& f, SpinOutcome& out) {
    const Program p = spin_until_equal(f);
    dma_at(f, spin_probe(f.cfg, 300) + 9, kScratch, 7);
    bool finished = false;
    f.gpu->launch({.program = &p, .params = {kScratch, 7, kScratch + 256}},
                  [&finished] { finished = true; });
    // Deadlines on, just before and just after probe lattice points.
    for (int m : {3, 50, 51, 120, 299, 300}) {
      for (SimDuration d : {-1, 0, 1}) {
        f.sim.run_until(spin_probe(f.cfg, m) + d);
        out.log.push_back(f.gpu->counters().instructions_executed);
        out.log.push_back(f.gpu->counters().l2_read_hits);
        out.log.push_back(f.sim.total_scheduled());
        out.log.push_back(f.sim.events_executed());
      }
    }
    f.sim.run();
    EXPECT_TRUE(finished);
    out.log.push_back(f.memory.read_u64(kScratch + 256));
  });
}

TEST(GpuSpinPark, EventLimitTripsInsideSkippedProbes) {
  for (std::uint64_t limit : {5u, 17u, 40u, 41u, 200u}) {
    SCOPED_TRACE(limit);
    const auto [got, ref] = expect_parked_matches_explicit(
        [limit](GpuFixture& f, SpinOutcome& out) {
          const Program p = spin_until_equal(f);
          dma_at(f, spin_probe(f.cfg, 500), kScratch, 7);
          f.gpu->launch(
              {.program = &p, .params = {kScratch, 7, kScratch + 256}});
          f.sim.set_event_limit(limit);
          f.sim.run();
          out.log.push_back(f.gpu->counters().instructions_executed);
        });
    EXPECT_TRUE(ref.limit_hit);
    EXPECT_EQ(ref.executed, limit);
  }
}

TEST(GpuSpinPark, SpinOnUnwrittenFlagReportsDeadlock) {
  // Nothing will ever write the flag and nothing else is pending: the
  // parked warp cannot succeed, so the run stops with the deadlock
  // diagnostic instead of spinning into the event limit.
  GpuFixture f;
  const Program p = spin_until_equal(f);
  f.gpu->launch({.program = &p, .params = {kScratch, 7, kScratch + 256}});
  f.sim.set_event_limit(10'000'000);
  f.sim.run();
  EXPECT_TRUE(f.sim.event_limit_hit());
  EXPECT_LT(f.sim.events_executed(), 100u);
  EXPECT_TRUE(f.sim.stalled());
  // The same kernel with every probe explicit spins to the limit.
  obs::FlowTable flows;
  obs::attach_flows(&flows);
  GpuFixture g;
  const Program q = spin_until_equal(g);
  g.gpu->launch({.program = &q, .params = {kScratch, 7, kScratch + 256}});
  g.sim.set_event_limit(10'000);
  g.sim.run();
  obs::attach_flows(nullptr);
  EXPECT_TRUE(g.sim.event_limit_hit());
  EXPECT_EQ(g.sim.events_executed(), 10'000u);
}

}  // namespace
}  // namespace pg::gpu

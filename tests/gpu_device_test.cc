// End-to-end tests of the GPU device model: program execution, memory
// spaces, L2 behaviour, counters, barriers, atomics, streams, and the
// PCIe endpoint personality.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "gpu/assembler.h"
#include "gpu/device.h"
#include "mem/memory_domain.h"
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

}  // namespace
}  // namespace pg::gpu

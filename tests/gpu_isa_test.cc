// Tests for the PTX-lite ISA layer: assembler, program validation,
// warp divergence bookkeeping, and ALU semantics (property-tested against
// host arithmetic).
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "gpu/assembler.h"
#include "gpu/program.h"
#include "gpu/warp.h"

namespace pg::gpu {
namespace {

TEST(Assembler, EmitsAndResolvesLabels) {
  Assembler a("loop_test");
  const Reg r0(8), r1(9);
  a.movi(r0, 0);
  a.movi(r1, 10);
  a.bind("loop");
  a.addi(r0, r0, 1);
  a.setp(Cmp::kLt, Reg(10), r0, r1);
  a.bra_if(Reg(10), "loop");
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  EXPECT_EQ(prog->size(), 6u);
  // The backward branch targets instruction 2 (after the two movi).
  EXPECT_EQ(prog->at(4).target, 2);
}

TEST(Assembler, UnboundLabelFails) {
  Assembler a("bad");
  a.bra("nowhere");
  a.exit();
  auto prog = a.finish();
  EXPECT_FALSE(prog.is_ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kNotFound);
}

TEST(Assembler, FreshLabelsAreUnique) {
  Assembler a("x");
  EXPECT_NE(a.fresh_label("l"), a.fresh_label("l"));
}

TEST(Program, ValidateRejectsEmptyAndExitless) {
  EXPECT_FALSE(Program("empty", {}).validate().is_ok());
  EXPECT_FALSE(
      Program("no_exit", {Instr{.op = Op::kNop}}).validate().is_ok());
  EXPECT_TRUE(
      Program("ok", {Instr{.op = Op::kExit}}).validate().is_ok());
}

TEST(Program, ValidateRejectsBadWidth) {
  Instr bad_ld{.op = Op::kLd, .rd = 1, .ra = 2, .width = 3};
  EXPECT_FALSE(
      Program("w", {bad_ld, Instr{.op = Op::kExit}}).validate().is_ok());
}

TEST(Program, DisassemblyIsReadable) {
  Assembler a("disasm");
  a.movi(Reg(5), 42);
  a.ld(Reg(6), Reg(5), 16, 4);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok());
  const std::string text = prog->disassemble();
  EXPECT_NE(text.find("movi r5, 42"), std::string::npos);
  EXPECT_NE(text.find("ld.u32 r6, [r5+16]"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
}

// --- WarpState divergence ----------------------------------------------------

TEST(Program, MarksTheLoadOfEverySpinLoop) {
  // Each loop starts with its load; returns the spin_len marked anywhere
  // in the program (0: not a spin loop).
  const Reg addr(4), v(8), p(9), t(10), w(11);
  auto spin_len_of = [&](const std::function<void(Assembler&)>& body,
                         bool forward = false) {
    Assembler a("loop");
    a.bind("head");
    a.ld(v, addr, 0, 8);
    body(a);
    if (forward) {
      a.bra_if(p, "out");
      a.bind("out");
    } else {
      a.bra_if(p, "head");
    }
    a.exit();
    auto prog = a.finish();
    EXPECT_TRUE(prog.is_ok());
    unsigned marked = 0;
    for (const Decoded& d : prog->decoded()) marked += d.spin_len;
    const Decoded& ld = prog->decoded()[0];
    EXPECT_EQ(ld.spin_len, marked) << "only the first load may be marked";
    if (ld.spin_len != 0) EXPECT_EQ(ld.target, 0);
    return marked;
  };
  // The device library's poll: ld / setp / bra.
  EXPECT_EQ(spin_len_of([&](Assembler& a) { a.setpi(Cmp::kEq, p, v, 0); }),
            3u);
  // ALU ops and non-clock special registers may ride along.
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.andi(v, v, 0xFF);
              a.sreg(w, Sreg::kTidX);
              a.setp(Cmp::kNe, p, v, w);
            }),
            5u);
  // No clock read, second load, store, atomic, membar or other branch.
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.sreg(t, Sreg::kClock);
              a.setpi(Cmp::kEq, p, v, 0);
            }),
            0u);
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.ld(w, addr, 8, 8);
              a.setp(Cmp::kEq, p, v, w);
            }),
            0u);
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.st(addr, v, 8, 8);
              a.setpi(Cmp::kEq, p, v, 0);
            }),
            0u);
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.atom_add(w, addr, v, 8);
              a.setpi(Cmp::kEq, p, v, 0);
            }),
            0u);
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.membar_sys();
              a.setpi(Cmp::kEq, p, v, 0);
            }),
            0u);
  EXPECT_EQ(spin_len_of([&](Assembler& a) {
              a.bra_if(w, "skip");
              a.bind("skip");
              a.setpi(Cmp::kEq, p, v, 0);
            }),
            0u);
  // A forward branch closes no loop.
  EXPECT_EQ(spin_len_of([&](Assembler& a) { a.setpi(Cmp::kEq, p, v, 0); },
                        /*forward=*/true),
            0u);
}

TEST(WarpState, StartsWithRequestedLanes) {
  WarpState w4(4);
  EXPECT_EQ(w4.mask(), 0xFu);
  EXPECT_EQ(w4.active_count(), 4u);
  WarpState w32(32);
  EXPECT_EQ(w32.mask(), 0xFFFFFFFFu);
}

TEST(WarpState, UniformBranchDoesNotDiverge) {
  WarpState w(4);
  EXPECT_FALSE(w.branch(w.mask(), 10));
  EXPECT_EQ(w.pc(), 10);
  EXPECT_FALSE(w.branch(0, 20));
  EXPECT_EQ(w.pc(), 11);
}

TEST(WarpState, DivergeAndReconverge) {
  // Program shape:
  //   0: ssy 5
  //   1: bra (lanes 0,1 taken -> 3)
  //   2: (else side) ...
  //   3: (then side) ...
  //   5: reconvergence point
  WarpState w(4);
  w.push_sync(5);
  w.set_pc(1);
  EXPECT_TRUE(w.branch(0b0011, 3));
  // Taken side runs first.
  EXPECT_EQ(w.pc(), 3);
  EXPECT_EQ(w.mask(), 0b0011u);
  // Taken side reaches the reconvergence point.
  w.set_pc(5);
  EXPECT_TRUE(w.maybe_reconverge());
  // Now the else fragment runs.
  EXPECT_EQ(w.pc(), 2);
  EXPECT_EQ(w.mask(), 0b1100u);
  w.set_pc(5);
  EXPECT_TRUE(w.maybe_reconverge());
  // Everyone merged.
  EXPECT_EQ(w.pc(), 5);
  EXPECT_EQ(w.mask(), 0b1111u);
  EXPECT_EQ(w.divergence_depth(), 0u);
}

TEST(WarpState, ExitInsideDivergentRegion) {
  WarpState w(2);
  w.push_sync(9);
  w.set_pc(1);
  EXPECT_TRUE(w.branch(0b01, 4));
  // Lane 0 (taken) exits.
  w.exit_active();
  // Lane 1's fragment becomes active.
  EXPECT_EQ(w.mask(), 0b10u);
  EXPECT_EQ(w.pc(), 2);
  w.set_pc(9);
  EXPECT_TRUE(w.maybe_reconverge());
  EXPECT_EQ(w.mask(), 0b10u);  // only the survivor merges
  w.exit_active();
  EXPECT_TRUE(w.done());
}

TEST(WarpState, AllLanesExitEverywhere) {
  WarpState w(2);
  w.push_sync(9);
  w.set_pc(1);
  EXPECT_TRUE(w.branch(0b01, 4));
  w.exit_active();  // taken lane dies
  w.exit_active();  // fall-through lane dies too
  EXPECT_TRUE(w.done());
}

TEST(WarpState, NestedDivergence) {
  WarpState w(4);
  w.push_sync(20);
  w.set_pc(1);
  EXPECT_TRUE(w.branch(0b0011, 10));  // outer split, taken={0,1}
  // Inner split among lanes {0,1}.
  w.push_sync(15);
  w.set_pc(11);
  EXPECT_TRUE(w.branch(0b0001, 13));
  EXPECT_EQ(w.mask(), 0b0001u);
  w.set_pc(15);
  EXPECT_TRUE(w.maybe_reconverge());
  EXPECT_EQ(w.mask(), 0b0010u);
  w.set_pc(15);
  EXPECT_TRUE(w.maybe_reconverge());
  EXPECT_EQ(w.mask(), 0b0011u);  // inner merged
  EXPECT_EQ(w.pc(), 15);
  w.set_pc(20);
  EXPECT_TRUE(w.maybe_reconverge());
  EXPECT_EQ(w.mask(), 0b1100u);  // outer else side
  w.set_pc(20);
  EXPECT_TRUE(w.maybe_reconverge());
  EXPECT_EQ(w.mask(), 0b1111u);
  EXPECT_EQ(w.pc(), 20);
}

TEST(WarpState, CallAndRet) {
  WarpState w(1);
  w.set_pc(5);
  w.call(100);
  EXPECT_EQ(w.pc(), 100);
  EXPECT_EQ(w.call_depth(), 1u);
  w.call(200);
  EXPECT_EQ(w.pc(), 200);
  w.ret();
  EXPECT_EQ(w.pc(), 101);
  w.ret();
  EXPECT_EQ(w.pc(), 6);
  EXPECT_EQ(w.call_depth(), 0u);
}

}  // namespace
}  // namespace pg::gpu

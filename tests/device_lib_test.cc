// Unit tests for the GPU-resident put/get library: the emitted routines
// are validated in isolation against a cluster harness, including their
// instruction/memory footprints.
#include <gtest/gtest.h>

#include "putget/device_lib.h"
#include "putget/ib_experiments.h"
#include "putget/extoll_host.h"
#include "putget/ib_host.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg::putget {
namespace {

using gpu::Assembler;
using gpu::Program;
using gpu::Reg;
using mem::Addr;

struct Harness {
  sys::Cluster cluster{sys::default_testbed()};
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);

  /// Runs a single-thread kernel on node0 to completion and drains.
  bool run_kernel(const Program& prog) {
    bool done = false;
    n0.gpu().launch({.program = &prog, .params = {}}, [&] { done = true; });
    const bool ok = cluster.run_until([&] { return done; });
    cluster.run_for(microseconds(100));
    return ok;
  }
};

TEST(DeviceLib, ExtollPostPutEmitsThreeBarStores) {
  Harness h;
  auto port = ExtollHostPort::open(h.n0.extoll(), 0);
  auto peer = ExtollHostPort::open(h.n1.extoll(), 0);
  ASSERT_TRUE(port.is_ok() && peer.is_ok());
  const Addr src = h.n0.gpu_heap().alloc(4096);
  const Addr dst = h.n1.gpu_heap().alloc(4096);
  auto src_nla = h.n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  auto dst_nla = h.n1.extoll().register_memory(dst, 4096, mem::Access::kWrite);
  h.n0.memory().write_u64(src, 0xFACEull);

  Assembler a("one_put");
  const Reg bar(8), s(9), d(10), scratch(11);
  a.movi(bar, static_cast<std::int64_t>(port->info().requester_page));
  a.movi(s, static_cast<std::int64_t>(*src_nla));
  a.movi(d, static_cast<std::int64_t>(*dst_nla));
  emit_extoll_post_put(a, bar, s, d, ExtollWrTemplate{0, 64, false, false},
                       scratch);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok());

  const auto before = h.n0.gpu().counters_snapshot();
  ASSERT_TRUE(h.run_kernel(*prog));
  const auto delta = h.n0.gpu().counters_snapshot() - before;
  // Exactly three 64-bit BAR stores (one per WR word).
  EXPECT_EQ(delta.sysmem_write_transactions, 3u);
  // The put actually executed.
  EXPECT_EQ(h.n1.extoll().puts_completed(), 1u);
  EXPECT_EQ(h.n1.memory().read_u64(dst), 0xFACEull);
}

TEST(DeviceLib, PollEqualsSeesDmaWrite) {
  Harness h;
  const Addr flag = h.n0.gpu_heap().alloc(8, 8);
  Assembler a("poll_flag");
  const Reg addr(8), expected(9), s0(10), s1(11);
  a.movi(addr, static_cast<std::int64_t>(flag));
  a.movi(expected, 99);
  emit_poll_equals(a, addr, expected, 8, s0, s1);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok());

  bool done = false;
  h.n0.gpu().launch({.program = &prog.value(), .params = {}},
                    [&] { done = true; });
  h.cluster.node_sim(0).schedule(microseconds(40), [&] {
    std::uint8_t bytes[8] = {99, 0, 0, 0, 0, 0, 0, 0};
    h.n0.gpu().inbound_write(flag, bytes);
  });
  ASSERT_TRUE(h.cluster.run_until([&] { return done; }));
  EXPECT_GE(h.cluster.now(), microseconds(40));
}

TEST(DeviceLib, NotificationConsumeUpdatesReadPointer) {
  Harness h;
  auto port0 = ExtollHostPort::open(h.n0.extoll(), 0);
  auto port1 = ExtollHostPort::open(h.n1.extoll(), 0);
  ASSERT_TRUE(port0.is_ok() && port1.is_ok());
  const Addr src = h.n0.gpu_heap().alloc(4096);
  const Addr dst = h.n1.gpu_heap().alloc(4096);
  auto src_nla = h.n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  auto dst_nla = h.n1.extoll().register_memory(dst, 4096, mem::Access::kWrite);

  // Host posts a put with a requester notification; the GPU kernel polls
  // and consumes it.
  extoll::WorkRequest wr;
  wr.cmd = extoll::RmaCmd::kPut;
  wr.port = 0;
  wr.size = 64;
  wr.notify_requester = true;
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;
  auto post = sim::spawn(port0->post(h.n0.cpu(), wr));

  Assembler a("consume_one");
  const Reg base(8), idx(9), rp(10), s0(11), s1(12), s2(13);
  a.movi(base, static_cast<std::int64_t>(port0->info().req_queue_base));
  a.movi(idx, 0);
  a.movi(rp, static_cast<std::int64_t>(port0->info().req_rp_addr));
  const std::uint32_t mask = port0->info().queue_entries - 1;
  emit_extoll_poll_consume_notification(
      a, DeviceNotifQueue{base, idx, rp, mask}, s0, s1, s2);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok());
  ASSERT_TRUE(h.run_kernel(*prog));
  // The slot was freed (zeroed) and the read pointer advanced to 1.
  EXPECT_EQ(h.n0.memory().read_u64(port0->info().req_queue_base), 0u);
  EXPECT_EQ(h.n0.memory().read_u32(port0->info().req_rp_addr), 1u);
}

TEST(DeviceLib, PostSendProducesDecodableWqe) {
  Harness h;
  IbHostEndpoint::Options opts;
  opts.location = QueueLocation::kGpuMemory;
  auto ep0 = IbHostEndpoint::create(h.n0, opts);
  auto ep1 = IbHostEndpoint::create(h.n1, opts);
  ASSERT_TRUE(ep0.is_ok() && ep1.is_ok());
  IbHostEndpoint::connect(*ep0, *ep1);
  const Addr src = h.n0.gpu_heap().alloc(4096);
  const Addr dst = h.n1.gpu_heap().alloc(4096);
  auto mr0 = ep0->reg_mr(src, 4096, mem::Access::kReadWrite);
  auto mr1 = ep1->reg_mr(dst, 4096, mem::Access::kReadWrite);
  h.n0.memory().write_u64(src, 0xABCDEF);

  // Device context.
  const Addr qpc = h.n0.gpu_heap().alloc(kQpContextBytes, 64);
  auto& m = h.n0.memory();
  m.write_u64(qpc + kQpcSqBuffer, ep0->qp().sq_buffer);
  m.write_u64(qpc + kQpcSqMask, ep0->qp().sq_entries - 1);
  m.write_u64(qpc + kQpcSqDoorbell, ep0->qp().sq_doorbell);
  m.write_u64(qpc + kQpcCqBuffer, ep0->cq().info().buffer);
  m.write_u64(qpc + kQpcCqMask, ep0->cq().info().entries - 1);
  m.write_u64(qpc + kQpcCqCiCell, ep0->cq().info().ci_addr);

  IbPostSendTemplate tmpl;
  tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
  tmpl.signaled = true;
  tmpl.byte_len = 256;
  tmpl.lkey = mr0->lkey;
  tmpl.rkey = mr1->rkey;

  Assembler a("one_post");
  const Reg qpc_r(8), laddr(9), raddr(10), wr_id(11);
  const Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  a.movi(qpc_r, static_cast<std::int64_t>(qpc));
  a.movi(laddr, static_cast<std::int64_t>(src));
  a.movi(raddr, static_cast<std::int64_t>(dst));
  a.movi(wr_id, 777);
  emit_ib_post_send(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0, s1, s2, s3,
                    s4, s5);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok());
  ASSERT_TRUE(h.run_kernel(*prog));

  // The WQE in the ring decodes back to exactly what was posted.
  std::uint8_t wqe_bytes[ib::kSendWqeBytes];
  h.n0.memory().read(ep0->qp().sq_buffer, wqe_bytes);
  ASSERT_TRUE(ib::send_wqe_stamp_valid(wqe_bytes));
  const ib::SendWqe wqe = ib::decode_send_wqe(wqe_bytes);
  EXPECT_EQ(wqe.opcode, ib::WqeOpcode::kRdmaWrite);
  EXPECT_TRUE(wqe.signaled);
  EXPECT_EQ(wqe.byte_len, 256u);
  EXPECT_EQ(wqe.laddr, src);
  EXPECT_EQ(wqe.raddr, dst);
  EXPECT_EQ(wqe.lkey, mr0->lkey);
  EXPECT_EQ(wqe.rkey, mr1->rkey);
  EXPECT_EQ(wqe.wr_id, 777u);
  // The producer index was published in the QP structure.
  EXPECT_EQ(h.n0.memory().read_u64(qpc + kQpcSqPi), 1u);
  // The doorbell fired and the HCA executed the write.
  EXPECT_EQ(h.n1.memory().read_u64(dst), 0xABCDEFull);
  // The CQE landed in the (GPU-resident) completion queue.
  std::uint8_t cqe_bytes[ib::kCqeBytes];
  h.n0.memory().read(ep0->cq().info().buffer, cqe_bytes);
  EXPECT_TRUE(ib::cqe_valid(cqe_bytes));
  EXPECT_EQ(ib::decode_cqe(cqe_bytes).wr_id, 777u);
}

TEST(DeviceLib, PingPongKernelsAssembleForAllShapes) {
  // Builder-level sanity across the parameter space (no execution).
  for (bool initiator : {true, false}) {
    for (TransferMode mode :
         {TransferMode::kGpuDirect, TransferMode::kGpuPollDevice}) {
      ExtollPingPongConfig c;
      c.initiator = initiator;
      c.mode = mode;
      c.iterations = 3;
      c.queue_entry_mask = 4095;
      c.tag_width = 4;
      const Program p = build_extoll_pingpong_kernel(c);
      EXPECT_TRUE(p.validate().is_ok());
      EXPECT_GT(p.size(), 20u);
    }
    IbPingPongConfig ic;
    ic.initiator = initiator;
    ic.iterations = 3;
    const Program ip = build_ib_pingpong_kernel(ic);
    EXPECT_TRUE(ip.validate().is_ok());
    EXPECT_GT(ip.size(), 100u);
  }
  const Program stream = build_extoll_stream_kernel(ExtollStreamConfig{});
  EXPECT_TRUE(stream.validate().is_ok());
  const Program drain = build_extoll_drain_kernel(ExtollDrainConfig{});
  EXPECT_TRUE(drain.validate().is_ok());
  const Program ib_stream = build_ib_stream_kernel(IbStreamConfig{});
  EXPECT_TRUE(ib_stream.validate().is_ok());
  const Program assisted = build_assisted_loop_kernel(AssistedLoopConfig{});
  EXPECT_TRUE(assisted.validate().is_ok());
}

TEST(DeviceLib, PostSendCostReflectsWeakSingleThread) {
  // The device-side post must take microseconds on one GPU thread - the
  // paper's central quantitative point about GPU-driven IB.
  Harness h;
  const auto counts = measure_verbs_instruction_counts(
      sys::ib_testbed(), QueueLocation::kGpuMemory);
  EXPECT_GT(counts.post_send_instructions, 100u);
  EXPECT_GT(counts.poll_cq_instructions, 50u);
  // Posting is heavier than polling, as in the paper (442 vs 283).
  EXPECT_GT(counts.post_send_instructions, counts.poll_cq_instructions);
}

}  // namespace
}  // namespace pg::putget

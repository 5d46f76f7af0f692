// Tests for the Sec.-VI extension prototypes: warp-collaborative posting
// and GPU-resident EXTOLL notification queues.
#include <gtest/gtest.h>

#include "putget/gpu_aware.h"
#include "putget/ib_experiments.h"
#include "putget/setup.h"
#include "sys/testbed.h"

namespace pg::putget {
namespace {

TEST(GpuAware, WarpPostProducesIdenticalWqe) {
  // The 8-lane collaborative post must publish byte-identical WQEs to the
  // single-thread path.
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  auto pair = IbPair::create(cluster, QueueLocation::kGpuMemory, 256, 5);
  ASSERT_TRUE(pair.is_ok());
  const mem::Addr table = make_qp_table(n0, pair->ep0.qp().qpn, 8);
  const mem::Addr qpc = make_qp_device_context(n0, pair->ep0, table, 8);

  IbPostSendTemplate tmpl;
  tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
  tmpl.signaled = true;
  tmpl.byte_len = 256;
  tmpl.lkey = pair->mr_send0.lkey;
  tmpl.rkey = pair->mr_recv1.rkey;
  tmpl.imm = 0x42;

  gpu::Assembler a("warp_post_once");
  const gpu::Reg qpc_r(9), laddr(10), raddr(11), wr_id(12);
  const gpu::Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  a.movi(qpc_r, static_cast<std::int64_t>(qpc));
  a.movi(laddr, static_cast<std::int64_t>(pair->send0));
  a.movi(raddr, static_cast<std::int64_t>(pair->recv1));
  a.movi(wr_id, 31337);
  emit_ib_post_send_warp(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0, s1, s2,
                         s3, s4, s5);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();

  bool done = false;
  n0.gpu().launch({.program = &prog.value(), .threads_per_block = 8,
                   .params = {}},
                  [&] { done = true; });
  ASSERT_TRUE(cluster.run_until([&] { return done; }));
  cluster.run_for(microseconds(100));

  std::uint8_t bytes[ib::kSendWqeBytes];
  n0.memory().read(pair->ep0.qp().sq_buffer, bytes);
  ASSERT_TRUE(ib::send_wqe_stamp_valid(bytes));
  const ib::SendWqe wqe = ib::decode_send_wqe(bytes);
  EXPECT_EQ(wqe.opcode, ib::WqeOpcode::kRdmaWrite);
  EXPECT_TRUE(wqe.signaled);
  EXPECT_EQ(wqe.byte_len, 256u);
  EXPECT_EQ(wqe.laddr, pair->send0);
  EXPECT_EQ(wqe.raddr, pair->recv1);
  EXPECT_EQ(wqe.lkey, pair->mr_send0.lkey);
  EXPECT_EQ(wqe.rkey, pair->mr_recv1.rkey);
  EXPECT_EQ(wqe.imm, 0x42u);
  EXPECT_EQ(wqe.wr_id, 31337u);
  // The doorbell fired exactly once (lane 0): the HCA executed the write.
  EXPECT_EQ(n0.hca().messages_sent(), 1u);
  // And the payload landed at the peer.
  EXPECT_TRUE(ranges_equal(n0, pair->send0, cluster.node(1), pair->recv1,
                           256));
}

TEST(GpuAware, WarpPingPongMovesCorrectBytes) {
  auto r = run_ib_pingpong_warp(sys::ib_testbed(), 1024, 10);
  EXPECT_TRUE(r.payload_ok);
  EXPECT_GT(r.half_rtt_us, 0.5);
}

TEST(GpuAware, WarpPostingIsSubstantiallyCheaper) {
  const auto cfg = sys::ib_testbed();
  const auto classic = run_ib_pingpong(cfg, TransferMode::kGpuDirect,
                                       QueueLocation::kGpuMemory, 64, 20);
  const auto warp = run_ib_pingpong_warp(cfg, 64, 20);
  ASSERT_TRUE(classic.payload_ok && warp.payload_ok);
  // Claim 2: posting cost drops by at least 2x and latency improves.
  EXPECT_LT(warp.post_sum_us, 0.5 * classic.post_sum_us);
  EXPECT_LT(warp.half_rtt_us, classic.half_rtt_us);
}

TEST(GpuAware, GpuNotificationsEliminateSysmemPolling) {
  const auto cfg = sys::extoll_testbed();
  const auto sysq = run_extoll_pingpong(cfg, TransferMode::kGpuDirect, 64,
                                        20);
  const auto gpuq = run_extoll_pingpong_gpu_notifications(cfg, 64, 20);
  ASSERT_TRUE(sysq.payload_ok && gpuq.payload_ok);
  // Claim 3: zero system-memory reads, L2-resident polling, and the
  // latency gap to host-controlled closes.
  EXPECT_GT(sysq.gpu0.sysmem_read_transactions, 100u);
  EXPECT_EQ(gpuq.gpu0.sysmem_read_transactions, 0u);
  EXPECT_GT(gpuq.gpu0.l2_read_hits, 100u);
  EXPECT_LT(gpuq.half_rtt_us, sysq.half_rtt_us);
}

TEST(GpuAware, RelocationValidatesItsArguments) {
  sys::Cluster cluster(sys::extoll_testbed());
  sys::Node& n0 = cluster.node(0);
  auto port = ExtollHostPort::open(n0.extoll(), 0);
  ASSERT_TRUE(port.is_ok());
  const mem::Addr base = n0.gpu_heap().alloc(1024 * 16, 64);
  const mem::Addr rp = n0.gpu_heap().alloc(8, 8);
  // Closed port.
  EXPECT_FALSE(n0.extoll()
                   .relocate_notification_queues(5, base, rp, base, rp, 1024)
                   .is_ok());
  // Non-power-of-two entries.
  EXPECT_FALSE(n0.extoll()
                   .relocate_notification_queues(0, base, rp, base, rp, 1000)
                   .is_ok());
  // Non-DRAM target.
  EXPECT_FALSE(n0.extoll()
                   .relocate_notification_queues(
                       0, mem::AddressMap::kExtollBarBase, rp, base, rp, 1024)
                   .is_ok());
  // Valid.
  EXPECT_TRUE(n0.extoll()
                  .relocate_notification_queues(0, base, rp, base + 8192, rp,
                                                512)
                  .is_ok());
}

TEST(GpuAware, PreswappedPostIsCheaperAndEquivalent) {
  // The ablation's two variants must produce the same wire bytes.
  for (bool preswap : {false, true}) {
    sys::Cluster cluster(sys::ib_testbed());
    sys::Node& n0 = cluster.node(0);
    auto pair = IbPair::create(cluster, QueueLocation::kGpuMemory, 64, 9);
    ASSERT_TRUE(pair.is_ok());
    const mem::Addr table = make_qp_table(n0, pair->ep0.qp().qpn, 8);
    const mem::Addr qpc = make_qp_device_context(n0, pair->ep0, table, 8);
    IbPostSendTemplate tmpl;
    tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
    tmpl.signaled = true;
    tmpl.byte_len = 64;
    tmpl.lkey = pair->mr_send0.lkey;
    tmpl.rkey = pair->mr_recv1.rkey;
    tmpl.preswap_static_fields = preswap;
    gpu::Assembler a("post");
    const gpu::Reg qpc_r(9), laddr(10), raddr(11), wr_id(12);
    const gpu::Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
    a.movi(qpc_r, static_cast<std::int64_t>(qpc));
    a.movi(laddr, static_cast<std::int64_t>(pair->send0));
    a.movi(raddr, static_cast<std::int64_t>(pair->recv1));
    a.movi(wr_id, 7);
    emit_ib_post_send(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0, s1, s2, s3,
                      s4, s5);
    a.exit();
    auto prog = a.finish();
    ASSERT_TRUE(prog.is_ok());
    bool done = false;
    n0.gpu().launch({.program = &prog.value(), .params = {}},
                    [&] { done = true; });
    ASSERT_TRUE(cluster.run_until([&] { return done; }));
    cluster.run_for(microseconds(100));
    std::uint8_t bytes[ib::kSendWqeBytes];
    n0.memory().read(pair->ep0.qp().sq_buffer, bytes);
    const ib::SendWqe wqe = ib::decode_send_wqe(bytes);
    EXPECT_EQ(wqe.byte_len, 64u) << "preswap=" << preswap;
    EXPECT_EQ(wqe.lkey, pair->mr_send0.lkey) << "preswap=" << preswap;
    EXPECT_EQ(wqe.rkey, pair->mr_recv1.rkey) << "preswap=" << preswap;
    EXPECT_EQ(wqe.laddr, pair->send0) << "preswap=" << preswap;
  }
}

}  // namespace
}  // namespace pg::putget

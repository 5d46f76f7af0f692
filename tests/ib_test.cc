// Integration tests for the InfiniBand HCA driven through the host verbs
// endpoint, across the two-node cluster.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "putget/ib_host.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

using ib::Cqe;
using ib::RecvWqe;
using ib::SendWqe;
using ib::WcStatus;
using ib::WqeOpcode;
using putget::IbHostEndpoint;
using putget::QueueLocation;
using sys::Cluster;

struct IbFixture {
  Cluster cluster{sys::ib_testbed()};
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);

  IbHostEndpoint::Options opts;
  std::optional<IbHostEndpoint> ep0;
  std::optional<IbHostEndpoint> ep1;

  void connect(QueueLocation loc = QueueLocation::kHostMemory) {
    opts.location = loc;
    auto a = IbHostEndpoint::create(n0, opts);
    auto b = IbHostEndpoint::create(n1, opts);
    ASSERT_TRUE(a.is_ok() && b.is_ok());
    ep0.emplace(*a);
    ep1.emplace(*b);
    IbHostEndpoint::connect(*ep0, *ep1);
  }

  std::vector<std::uint8_t> fill(sys::Node& node, mem::Addr addr,
                                 std::uint64_t len, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = rng.next_byte();
    node.memory().write(addr, data);
    return data;
  }
};

TEST(Ib, WqeCodecRoundTrips) {
  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaWrite;
  wqe.signaled = true;
  wqe.byte_len = 123456;
  wqe.laddr = 0x0000010000001234ull;
  wqe.lkey = 7;
  wqe.rkey = 9;
  wqe.raddr = 0x0000010000ABCDEFull;
  wqe.wr_id = 42;
  wqe.imm = 0xCAFE;
  wqe.index = 3;
  const auto bytes = ib::encode_send_wqe(wqe);
  EXPECT_TRUE(ib::send_wqe_stamp_valid(bytes.data()));
  const SendWqe back = ib::decode_send_wqe(bytes.data());
  EXPECT_EQ(back.opcode, wqe.opcode);
  EXPECT_EQ(back.signaled, wqe.signaled);
  EXPECT_EQ(back.byte_len, wqe.byte_len);
  EXPECT_EQ(back.laddr, wqe.laddr);
  EXPECT_EQ(back.lkey, wqe.lkey);
  EXPECT_EQ(back.rkey, wqe.rkey);
  EXPECT_EQ(back.raddr, wqe.raddr);
  EXPECT_EQ(back.wr_id, wqe.wr_id);
  EXPECT_EQ(back.imm, wqe.imm);
  EXPECT_EQ(back.index, wqe.index);
  // Big-endian on the wire: the length field's bytes are swapped.
  std::uint32_t len_raw;
  std::memcpy(&len_raw, bytes.data() + 4, 4);
  EXPECT_EQ(len_raw, host_to_be32(wqe.byte_len));
}

TEST(Ib, CqeAndRecvCodecsRoundTrip) {
  Cqe cqe;
  cqe.wr_id = 11;
  cqe.qpn = 5;
  cqe.byte_len = 2048;
  cqe.opcode = WqeOpcode::kSend;
  cqe.status = WcStatus::kRnrError;
  cqe.is_recv = true;
  cqe.imm = 0xBEEF;
  const auto bytes = ib::encode_cqe(cqe);
  EXPECT_TRUE(ib::cqe_valid(bytes.data()));
  const Cqe back = ib::decode_cqe(bytes.data());
  EXPECT_EQ(back.wr_id, cqe.wr_id);
  EXPECT_EQ(back.status, cqe.status);
  EXPECT_EQ(back.is_recv, cqe.is_recv);
  EXPECT_EQ(back.imm, cqe.imm);

  RecvWqe rwqe;
  rwqe.addr = 0x0000010000000100ull;
  rwqe.lkey = 3;
  rwqe.len = 4096;
  rwqe.wr_id = 77;
  const auto rbytes = ib::encode_recv_wqe(rwqe);
  const RecvWqe rback = ib::decode_recv_wqe(rbytes.data());
  EXPECT_EQ(rback.addr, rwqe.addr);
  EXPECT_EQ(rback.lkey, rwqe.lkey);
  EXPECT_EQ(rback.len, rwqe.len);
  EXPECT_EQ(rback.wr_id, rwqe.wr_id);
}

TEST(Ib, RdmaWriteDeliversAndCompletes) {
  IbFixture f;
  f.connect();
  const mem::Addr src = f.n0.gpu_heap().alloc(64 * KiB);
  const mem::Addr dst = f.n1.gpu_heap().alloc(64 * KiB);
  auto mr0 = f.ep0->reg_mr(src, 64 * KiB, mem::Access::kReadWrite);
  auto mr1 = f.ep1->reg_mr(dst, 64 * KiB, mem::Access::kReadWrite);
  ASSERT_TRUE(mr0.is_ok() && mr1.is_ok());
  const auto payload = f.fill(f.n0, src, 10'000, 42);

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaWrite;
  wqe.signaled = true;
  wqe.byte_len = 10'000;
  wqe.laddr = src;
  wqe.lkey = mr0->lkey;
  wqe.raddr = dst;
  wqe.rkey = mr1->rkey;
  wqe.wr_id = 1;

  Cqe cqe;
  sim::Trigger done;
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &cqe), &done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return done.fired(); }}}));

  EXPECT_EQ(cqe.status, WcStatus::kSuccess);
  EXPECT_EQ(cqe.wr_id, 1u);
  std::vector<std::uint8_t> got(payload.size());
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(f.n1.hca().messages_delivered(), 1u);
}

TEST(Ib, RdmaReadPullsRemoteData) {
  IbFixture f;
  f.connect();
  const mem::Addr remote = f.n1.gpu_heap().alloc(32 * KiB);
  const mem::Addr local = f.n0.gpu_heap().alloc(32 * KiB);
  auto mr0 = f.ep0->reg_mr(local, 32 * KiB, mem::Access::kReadWrite);
  auto mr1 = f.ep1->reg_mr(remote, 32 * KiB, mem::Access::kReadWrite);
  const auto payload = f.fill(f.n1, remote, 20'000, 7);

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaRead;
  wqe.signaled = true;
  wqe.byte_len = 20'000;
  wqe.laddr = local;
  wqe.lkey = mr0->lkey;
  wqe.raddr = remote;
  wqe.rkey = mr1->rkey;
  wqe.wr_id = 2;

  Cqe cqe;
  sim::Trigger done;
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &cqe), &done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return done.fired(); }}}));
  EXPECT_EQ(cqe.status, WcStatus::kSuccess);
  std::vector<std::uint8_t> got(payload.size());
  f.n0.memory().read(local, got);
  EXPECT_EQ(got, payload);
}

TEST(Ib, SendRecvMatchesPostedReceive) {
  IbFixture f;
  f.connect();
  const mem::Addr src = f.n0.host_heap().alloc(4096);
  const mem::Addr dst = f.n1.host_heap().alloc(4096);
  auto mr0 = f.ep0->reg_mr(src, 4096, mem::Access::kReadWrite);
  auto mr1 = f.ep1->reg_mr(dst, 4096, mem::Access::kReadWrite);
  const auto payload = f.fill(f.n0, src, 1000, 17);

  RecvWqe recv;
  recv.addr = dst;
  recv.lkey = mr1->lkey;
  recv.len = 4096;
  recv.wr_id = 55;
  f.n1.cpu().sim().spawn(f.ep1->post_recv(f.n1.cpu(), recv));

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kSend;
  wqe.signaled = true;
  wqe.byte_len = 1000;
  wqe.laddr = src;
  wqe.lkey = mr0->lkey;
  wqe.wr_id = 3;

  Cqe send_cqe, recv_cqe;
  sim::Trigger send_done, recv_done;
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &send_cqe), &send_done);
  f.n1.cpu().sim().spawn(f.ep1->wait_cqe(f.n1.cpu(), &recv_cqe), &recv_done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return send_done.fired(); }},
                                   {1, [&] { return recv_done.fired(); }}}));

  EXPECT_EQ(send_cqe.status, WcStatus::kSuccess);
  EXPECT_EQ(recv_cqe.status, WcStatus::kSuccess);
  EXPECT_EQ(recv_cqe.wr_id, 55u);
  EXPECT_TRUE(recv_cqe.is_recv);
  std::vector<std::uint8_t> got(payload.size());
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, payload);
}

TEST(Ib, SendWithoutReceiveFailsRnr) {
  IbFixture f;
  f.connect();
  const mem::Addr src = f.n0.host_heap().alloc(4096);
  auto mr0 = f.ep0->reg_mr(src, 4096, mem::Access::kReadWrite);

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kSend;
  wqe.signaled = true;
  wqe.byte_len = 100;
  wqe.laddr = src;
  wqe.lkey = mr0->lkey;
  wqe.wr_id = 4;

  Cqe cqe;
  sim::Trigger done;
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &cqe), &done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return done.fired(); }}}));
  EXPECT_EQ(cqe.status, WcStatus::kRnrError);
  EXPECT_EQ(f.n1.hca().rnr_errors(), 1u);
}

TEST(Ib, WriteWithImmediateCompletesBothSides) {
  IbFixture f;
  f.connect();
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  const mem::Addr dst = f.n1.gpu_heap().alloc(4096);
  auto mr0 = f.ep0->reg_mr(src, 4096, mem::Access::kReadWrite);
  auto mr1 = f.ep1->reg_mr(dst, 4096, mem::Access::kReadWrite);
  const auto payload = f.fill(f.n0, src, 512, 77);

  // Receive with address zero: the write carries all placement info.
  RecvWqe recv;
  recv.wr_id = 66;
  f.n1.cpu().sim().spawn(f.ep1->post_recv(f.n1.cpu(), recv));

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaWriteImm;
  wqe.signaled = true;
  wqe.byte_len = 512;
  wqe.laddr = src;
  wqe.lkey = mr0->lkey;
  wqe.raddr = dst;
  wqe.rkey = mr1->rkey;
  wqe.imm = 0x1234;
  wqe.wr_id = 5;

  Cqe send_cqe, recv_cqe;
  sim::Trigger send_done, recv_done;
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &send_cqe), &send_done);
  f.n1.cpu().sim().spawn(f.ep1->wait_cqe(f.n1.cpu(), &recv_cqe), &recv_done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return send_done.fired(); }},
                                   {1, [&] { return recv_done.fired(); }}}));
  EXPECT_EQ(send_cqe.status, WcStatus::kSuccess);
  EXPECT_EQ(recv_cqe.status, WcStatus::kSuccess);
  EXPECT_EQ(recv_cqe.imm, 0x1234u);
  std::vector<std::uint8_t> got(payload.size());
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, payload);
}

TEST(Ib, ProtectionErrorOnBadRkey) {
  IbFixture f;
  f.connect();
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  auto mr0 = f.ep0->reg_mr(src, 4096, mem::Access::kReadWrite);

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaWrite;
  wqe.signaled = true;
  wqe.byte_len = 100;
  wqe.laddr = src;
  wqe.lkey = mr0->lkey;
  wqe.raddr = mem::AddressMap::kGpuDramBase;
  wqe.rkey = 4242;  // bogus
  wqe.wr_id = 6;

  Cqe cqe;
  sim::Trigger done;
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &cqe), &done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return done.fired(); }}}));
  EXPECT_EQ(cqe.status, WcStatus::kProtectionError);
  EXPECT_EQ(f.n1.hca().protection_errors(), 1u);
}

TEST(Ib, QueuesOnGpuMemoryWork) {
  IbFixture f;
  f.connect(QueueLocation::kGpuMemory);
  EXPECT_TRUE(mem::AddressMap::in_gpu_dram(f.ep0->qp().sq_buffer));
  EXPECT_TRUE(mem::AddressMap::in_gpu_dram(f.ep0->cq().info().buffer));
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  const mem::Addr dst = f.n1.gpu_heap().alloc(4096);
  auto mr0 = f.ep0->reg_mr(src, 4096, mem::Access::kReadWrite);
  auto mr1 = f.ep1->reg_mr(dst, 4096, mem::Access::kReadWrite);
  const auto payload = f.fill(f.n0, src, 2048, 123);

  SendWqe wqe;
  wqe.opcode = WqeOpcode::kRdmaWrite;
  wqe.signaled = true;
  wqe.byte_len = 2048;
  wqe.laddr = src;
  wqe.lkey = mr0->lkey;
  wqe.raddr = dst;
  wqe.rkey = mr1->rkey;
  wqe.wr_id = 7;

  // Host-side polling of a GPU-resident CQ is not possible on the real
  // testbed (the Mellanox patch forbids it); in the model we verify the
  // data path and the CQE landing in GPU memory instead.
  f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe));
  f.cluster.run_for(milliseconds(2));
  std::vector<std::uint8_t> got(payload.size());
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(f.n0.hca().cqes_written(), 1u);
  // The CQE really is in GPU memory.
  std::uint8_t cqe_bytes[ib::kCqeBytes];
  f.n0.memory().read(f.ep0->cq().info().buffer, cqe_bytes);
  EXPECT_TRUE(ib::cqe_valid(cqe_bytes));
}

TEST(Ib, ManyMessagesAllDeliveredInOrder) {
  IbFixture f;
  f.connect();
  const std::uint64_t region = 1 * MiB;
  const mem::Addr src = f.n0.gpu_heap().alloc(region);
  const mem::Addr dst = f.n1.gpu_heap().alloc(region);
  auto mr0 = f.ep0->reg_mr(src, region, mem::Access::kReadWrite);
  auto mr1 = f.ep1->reg_mr(dst, region, mem::Access::kReadWrite);

  Rng rng(888);
  std::vector<std::uint8_t> image(region, 0);
  constexpr int kMessages = 20;
  Cqe cqe;
  // Post all messages; only the last is signaled (typical batching).
  for (int i = 0; i < kMessages; ++i) {
    const std::uint32_t size =
        static_cast<std::uint32_t>(1 + rng.next_below(30'000));
    const std::uint64_t off = rng.next_below(region - size);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = rng.next_byte();
    f.n0.memory().write(src + off, data);
    std::copy(data.begin(), data.end(), image.begin() + off);

    SendWqe wqe;
    wqe.opcode = WqeOpcode::kRdmaWrite;
    wqe.signaled = i == kMessages - 1;
    wqe.byte_len = size;
    wqe.laddr = src + off;
    wqe.lkey = mr0->lkey;
    wqe.raddr = dst + off;
    wqe.rkey = mr1->rkey;
    wqe.wr_id = static_cast<std::uint64_t>(i);
    sim::Trigger posted;
    f.n0.cpu().sim().spawn(f.ep0->post_send(f.n0.cpu(), wqe), &posted);
    // Drain the posting coroutine before reusing the stack slot.
    f.cluster.run_until({{0, [&] { return posted.fired(); }}});
  }
  sim::Trigger done;
  f.n0.cpu().sim().spawn(f.ep0->wait_cqe(f.n0.cpu(), &cqe), &done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return done.fired(); }}}));
  EXPECT_EQ(cqe.wr_id, static_cast<std::uint64_t>(kMessages - 1));
  // After the signaled last message completes, every earlier write must
  // be in place (RC ordering).
  std::vector<std::uint8_t> got(region);
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, image);
  EXPECT_EQ(f.n1.hca().messages_delivered(),
            static_cast<std::uint64_t>(kMessages));
}

}  // namespace
}  // namespace pg

// Integration tests for the EXTOLL RMA unit driven from the host CPU,
// across the two-node cluster.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "putget/extoll_host.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

using extoll::RmaCmd;
using extoll::WorkRequest;
using putget::ExtollHostPort;
using sys::Cluster;

struct ExtollFixture {
  Cluster cluster{sys::extoll_testbed()};
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);

  /// Fills GPU memory on `node` with `len` deterministic bytes.
  std::vector<std::uint8_t> fill_gpu(sys::Node& node, mem::Addr addr,
                                     std::uint64_t len, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = rng.next_byte();
    node.memory().write(addr, data);
    return data;
  }

  bool run_for(SimDuration d) {
    cluster.run_for(d);
    return true;
  }
};

TEST(Extoll, OpenPortAndRegister) {
  ExtollFixture f;
  auto port = ExtollHostPort::open(f.n0.extoll(), 0);
  ASSERT_TRUE(port.is_ok());
  EXPECT_EQ(port->info().requester_page, mem::AddressMap::kExtollBarBase);
  EXPECT_GT(port->info().queue_entries, 0u);
  // Ports are exclusive.
  EXPECT_FALSE(ExtollHostPort::open(f.n0.extoll(), 0).is_ok());
  // Out-of-range port.
  EXPECT_FALSE(ExtollHostPort::open(f.n0.extoll(), 10'000).is_ok());

  auto nla = f.n0.extoll().register_memory(
      f.n0.gpu_heap().alloc(4096), 4096, mem::Access::kReadWrite);
  ASSERT_TRUE(nla.is_ok());
}

TEST(Extoll, HostControlledPutDeliversGpuToGpu) {
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 1);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 1);
  ASSERT_TRUE(port0.is_ok() && port1.is_ok());

  const mem::Addr src = f.n0.gpu_heap().alloc(64 * KiB);
  const mem::Addr dst = f.n1.gpu_heap().alloc(64 * KiB);
  auto src_nla =
      f.n0.extoll().register_memory(src, 64 * KiB, mem::Access::kReadWrite);
  auto dst_nla =
      f.n1.extoll().register_memory(dst, 64 * KiB, mem::Access::kReadWrite);
  ASSERT_TRUE(src_nla.is_ok() && dst_nla.is_ok());

  const auto payload = f.fill_gpu(f.n0, src, 5000, 77);

  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 1;
  wr.size = 5000;
  wr.notify_requester = true;
  wr.notify_completer = true;
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;

  sim::Trigger req_done, cmp_done;
  f.n0.cpu().sim().spawn(port0->post(f.n0.cpu(), wr));
  f.n0.cpu().sim().spawn(port0->wait_requester(f.n0.cpu()), &req_done);
  f.n1.cpu().sim().spawn(port1->wait_completer(f.n1.cpu()), &cmp_done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return req_done.fired(); }},
                                   {1, [&] { return cmp_done.fired(); }}}));

  std::vector<std::uint8_t> got(payload.size());
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(f.n1.extoll().puts_completed(), 1u);
  EXPECT_EQ(f.n0.extoll().protocol_violations(), 0u);
}

TEST(Extoll, PutLandsInOrderSoLastByteSignalsCompletion) {
  // The pollOnGPU optimization depends on in-order delivery: when the
  // last payload byte is visible, everything before it must be too.
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 0);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 0);
  ASSERT_TRUE(port0.is_ok() && port1.is_ok());
  const std::uint64_t size = 300 * KiB;  // multiple internal segments
  const mem::Addr src = f.n0.gpu_heap().alloc(size);
  const mem::Addr dst = f.n1.gpu_heap().alloc(size);
  auto src_nla = f.n0.extoll().register_memory(src, size, mem::Access::kRead);
  auto dst_nla = f.n1.extoll().register_memory(dst, size, mem::Access::kWrite);
  ASSERT_TRUE(src_nla.is_ok() && dst_nla.is_ok());
  const auto payload = f.fill_gpu(f.n0, src, size, 99);

  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 0;
  wr.size = static_cast<std::uint32_t>(size);
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;
  f.n0.cpu().sim().spawn(port0->post(f.n0.cpu(), wr));

  // Watch for the last byte; whenever it is set, the whole payload must
  // be correct.
  const std::uint8_t last = payload.back();
  bool checked = false;
  // Node 1 owns the destination memory: its condition runs after each of
  // its events.
  f.cluster.run_until({{1, [&] {
    std::uint8_t b = 0;
    f.n1.memory().read(dst + size - 1, {&b, 1});
    if (b == last) {
      std::vector<std::uint8_t> got(size);
      f.n1.memory().read(dst, got);
      EXPECT_EQ(got, payload);
      checked = true;
      return true;
    }
    return false;
  }}});
  EXPECT_TRUE(checked);
}

TEST(Extoll, GetPullsRemoteData) {
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 2);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 2);
  ASSERT_TRUE(port0.is_ok() && port1.is_ok());
  const mem::Addr remote_src = f.n1.gpu_heap().alloc(8 * KiB);
  const mem::Addr local_dst = f.n0.gpu_heap().alloc(8 * KiB);
  auto src_nla =
      f.n1.extoll().register_memory(remote_src, 8 * KiB, mem::Access::kRead);
  auto dst_nla =
      f.n0.extoll().register_memory(local_dst, 8 * KiB, mem::Access::kWrite);
  ASSERT_TRUE(src_nla.is_ok() && dst_nla.is_ok());
  const auto payload = f.fill_gpu(f.n1, remote_src, 8 * KiB, 1234);

  WorkRequest wr;
  wr.cmd = RmaCmd::kGet;
  wr.port = 2;
  wr.size = 8 * KiB;
  wr.notify_completer = true;  // origin learns when data landed
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;

  sim::Trigger done;
  f.n0.cpu().sim().spawn(port0->post(f.n0.cpu(), wr));
  f.n0.cpu().sim().spawn(port0->wait_completer(f.n0.cpu()), &done);
  ASSERT_TRUE(f.cluster.run_until({{0, [&] { return done.fired(); }}}));

  std::vector<std::uint8_t> got(payload.size());
  f.n0.memory().read(local_dst, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(f.n0.extoll().gets_completed(), 1u);
}

TEST(Extoll, PropertyRandomPutSizesAndOffsets) {
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 3);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 3);
  ASSERT_TRUE(port0.is_ok() && port1.is_ok());
  const std::uint64_t region = 2 * MiB;
  const mem::Addr src = f.n0.gpu_heap().alloc(region);
  const mem::Addr dst = f.n1.gpu_heap().alloc(region);
  auto src_nla =
      f.n0.extoll().register_memory(src, region, mem::Access::kRead);
  auto dst_nla =
      f.n1.extoll().register_memory(dst, region, mem::Access::kWrite);
  ASSERT_TRUE(src_nla.is_ok() && dst_nla.is_ok());

  Rng rng(5150);
  for (int iter = 0; iter < 12; ++iter) {
    const std::uint32_t size =
        static_cast<std::uint32_t>(1 + rng.next_below(100'000));
    const std::uint64_t src_off = rng.next_below(region - size);
    const std::uint64_t dst_off = rng.next_below(region - size);
    const auto payload = f.fill_gpu(f.n0, src + src_off, size, 9000 + iter);

    WorkRequest wr;
    wr.cmd = RmaCmd::kPut;
    wr.port = 3;
    wr.size = size;
    wr.notify_requester = true;
    wr.notify_completer = true;
    wr.src_nla = *src_nla + src_off;
    wr.dst_nla = *dst_nla + dst_off;

    sim::Trigger req_done, cmp_done;
    f.n0.cpu().sim().spawn(port0->post(f.n0.cpu(), wr));
    f.n0.cpu().sim().spawn(port0->wait_requester(f.n0.cpu()), &req_done);
    f.n1.cpu().sim().spawn(port1->wait_completer(f.n1.cpu()), &cmp_done);
    ASSERT_TRUE(f.cluster.run_until({{0, [&] { return req_done.fired(); }},
                                     {1, [&] { return cmp_done.fired(); }}}))
        << "iteration " << iter;

    std::vector<std::uint8_t> got(size);
    f.n1.memory().read(dst + dst_off, got);
    ASSERT_EQ(got, payload) << "iteration " << iter << " size " << size;
  }
  EXPECT_EQ(f.n1.extoll().puts_completed(), 12u);
  EXPECT_EQ(f.n0.extoll().notifications_dropped(), 0u);
}

TEST(Extoll, RepostWhileGatedIsAProtocolViolation) {
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 4);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 4);
  ASSERT_TRUE(port0.is_ok() && port1.is_ok());
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  const mem::Addr dst = f.n1.gpu_heap().alloc(4096);
  auto src_nla = f.n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  auto dst_nla = f.n1.extoll().register_memory(dst, 4096, mem::Access::kWrite);

  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 4;
  wr.size = 4096;
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;
  // Two back-to-back posts without waiting for the requester
  // notification: the second must be rejected and counted.
  f.n0.extoll().post_work_request(wr);
  f.n0.extoll().post_work_request(wr);
  EXPECT_EQ(f.n0.extoll().protocol_violations(), 1u);
}

TEST(Extoll, MalformedWorkRequestsRejected) {
  ExtollFixture f;
  auto port = ExtollHostPort::open(f.n0.extoll(), 5);
  ASSERT_TRUE(port.is_ok());
  WorkRequest zero_size;
  zero_size.cmd = RmaCmd::kPut;
  zero_size.port = 5;
  zero_size.size = 0;
  f.n0.extoll().post_work_request(zero_size);
  EXPECT_EQ(f.n0.extoll().protocol_violations(), 1u);

  WorkRequest closed_port;
  closed_port.cmd = RmaCmd::kPut;
  closed_port.port = 9;  // never opened
  closed_port.size = 64;
  f.n0.extoll().post_work_request(closed_port);
  EXPECT_EQ(f.n0.extoll().protocol_violations(), 2u);
}

TEST(Extoll, TranslationFaultOnUnregisteredTarget) {
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 6);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 6);
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  auto src_nla = f.n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  ASSERT_TRUE(src_nla.is_ok());

  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 6;
  wr.size = 4096;
  wr.src_nla = *src_nla;
  wr.dst_nla = extoll::make_nla(999, 0);  // bogus remote key
  f.n0.extoll().post_work_request(wr);
  f.run_for(microseconds(100));
  EXPECT_EQ(f.n1.extoll().translation_faults(), 1u);
  EXPECT_EQ(f.n1.extoll().puts_completed(), 0u);
}

TEST(Extoll, ReadBeyondRegistrationFaults) {
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 7);
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  auto src_nla = f.n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  ASSERT_TRUE(src_nla.is_ok());
  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 7;
  wr.size = 8192;  // larger than the registration
  wr.src_nla = *src_nla;
  wr.dst_nla = extoll::make_nla(1, 0);
  f.n0.extoll().post_work_request(wr);
  f.run_for(microseconds(50));
  EXPECT_EQ(f.n0.extoll().translation_faults(), 1u);
}

TEST(Extoll, NotificationQueueOverflowDetected) {
  // Shrink the queue and never consume: the NIC must detect and count
  // drops rather than corrupting memory.
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.node.extoll.notif_queue_entries = 4;
  Cluster cluster(cfg);
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  auto port0 = ExtollHostPort::open(n0.extoll(), 0);
  auto port1 = ExtollHostPort::open(n1.extoll(), 0);
  const mem::Addr src = n0.gpu_heap().alloc(4096);
  const mem::Addr dst = n1.gpu_heap().alloc(4096);
  auto src_nla = n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  auto dst_nla = n1.extoll().register_memory(dst, 4096, mem::Access::kWrite);

  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 0;
  wr.size = 64;
  wr.notify_completer = true;
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;
  for (int i = 0; i < 8; ++i) {
    n0.extoll().post_work_request(wr);
    cluster.run_for(microseconds(50));
  }
  EXPECT_EQ(n1.extoll().puts_completed(), 8u);
  EXPECT_GT(n1.extoll().notifications_dropped(), 0u);
}

TEST(Extoll, BarWritesViaFabricKickTransfers) {
  // Full path: CPU MMIO writes -> BAR staging -> requester, rather than
  // the post_work_request fast path.
  ExtollFixture f;
  auto port0 = ExtollHostPort::open(f.n0.extoll(), 8);
  auto port1 = ExtollHostPort::open(f.n1.extoll(), 8);
  const mem::Addr src = f.n0.gpu_heap().alloc(4096);
  const mem::Addr dst = f.n1.gpu_heap().alloc(4096);
  auto src_nla = f.n0.extoll().register_memory(src, 4096, mem::Access::kRead);
  auto dst_nla = f.n1.extoll().register_memory(dst, 4096, mem::Access::kWrite);
  const auto payload = f.fill_gpu(f.n0, src, 256, 31337);

  WorkRequest wr;
  wr.cmd = RmaCmd::kPut;
  wr.port = 8;
  wr.size = 256;
  wr.src_nla = *src_nla;
  wr.dst_nla = *dst_nla;
  sim::Trigger posted;
  f.n0.cpu().sim().spawn(port0->post(f.n0.cpu(), wr), &posted);
  f.run_for(milliseconds(1));
  std::vector<std::uint8_t> got(256);
  f.n1.memory().read(dst, got);
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(posted.fired());
}

}  // namespace
}  // namespace pg

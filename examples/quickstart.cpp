// Quickstart: one-sided put/get between two simulated nodes over the
// EXTOLL RMA fabric, driven from the host CPUs.
//
// Walks through the full life cycle the paper describes:
//   1. build the two-node testbed,
//   2. open an RMA port on each node and register GPU memory (the ATU
//      hands back Network Logical Addresses),
//   3. put a buffer from node0's GPU memory into node1's GPU memory and
//      wait for the requester/completer notifications,
//   4. get it back with a one-sided read,
//   5. verify every byte.
#include <cstdio>
#include <vector>

#include "putget/extoll_host.h"
#include "sys/testbed.h"

using namespace pg;

int main() {
  // 1. The simulated testbed: two nodes, each with a host CPU, a
  //    Kepler-class GPU and an EXTOLL Galibier NIC, joined by a link.
  sys::Cluster cluster(sys::extoll_testbed());
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);

  // 2. Open port 0 on both NICs and register one GPU buffer per node.
  auto port0 = putget::ExtollHostPort::open(n0.extoll(), 0);
  auto port1 = putget::ExtollHostPort::open(n1.extoll(), 0);
  if (!port0.is_ok() || !port1.is_ok()) {
    std::fprintf(stderr, "failed to open RMA ports\n");
    return 1;
  }
  constexpr std::uint32_t kSize = 64 * 1024;
  const mem::Addr src = n0.gpu_heap().alloc(kSize);   // "cudaMalloc"
  const mem::Addr dst = n1.gpu_heap().alloc(kSize);
  const mem::Addr back = n0.gpu_heap().alloc(kSize);
  auto src_nla = n0.extoll().register_memory(src, kSize,
                                             mem::Access::kReadWrite);
  auto dst_nla = n1.extoll().register_memory(dst, kSize,
                                             mem::Access::kReadWrite);
  auto back_nla = n0.extoll().register_memory(back, kSize,
                                              mem::Access::kReadWrite);
  if (!src_nla.is_ok() || !dst_nla.is_ok() || !back_nla.is_ok()) {
    std::fprintf(stderr, "memory registration failed\n");
    return 1;
  }

  // Fill the source buffer (in simulation, the backing store is poked
  // directly; on real hardware this would be a cudaMemcpy or a kernel).
  std::vector<std::uint8_t> payload(kSize);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  n0.memory().write(src, payload);

  // 3. PUT: node0 -> node1. The CPU builds the 192-bit work request,
  //    writes it to the BAR requester page, then consumes the requester
  //    notification (transfer started) while node1 waits for its
  //    completer notification (data arrived).
  extoll::WorkRequest put;
  put.cmd = extoll::RmaCmd::kPut;
  put.port = 0;
  put.size = kSize;
  put.notify_requester = true;
  put.notify_completer = true;
  put.src_nla = *src_nla;
  put.dst_nla = *dst_nla;

  sim::Trigger put_sent, put_landed;
  auto t1 = sim::spawn(port0->post(n0.cpu(), put));
  auto t2 = sim::spawn(port0->wait_requester(n0.cpu()), &put_sent);
  auto t3 = sim::spawn(port1->wait_completer(n1.cpu()), &put_landed);
  cluster.run_until([&] { return put_sent.fired() && put_landed.fired(); });
  std::printf("put: %u bytes delivered at t=%.2f us\n", kSize,
              to_us(cluster.now()));

  // 4. GET: node0 pulls the data back from node1 into a third buffer.
  extoll::WorkRequest get;
  get.cmd = extoll::RmaCmd::kGet;
  get.port = 0;
  get.size = kSize;
  get.notify_completer = true;  // fires at node0 when the data landed
  get.src_nla = *dst_nla;       // remote source
  get.dst_nla = *back_nla;      // local destination

  sim::Trigger got;
  auto t4 = sim::spawn(port0->post(n0.cpu(), get));
  auto t5 = sim::spawn(port0->wait_completer(n0.cpu()), &got);
  cluster.run_until([&] { return got.fired(); });
  std::printf("get: %u bytes pulled back at t=%.2f us\n", kSize,
              to_us(cluster.now()));

  // 5. Verify both hops byte for byte.
  std::vector<std::uint8_t> at_dst(kSize), at_back(kSize);
  n1.memory().read(dst, at_dst);
  n0.memory().read(back, at_back);
  if (at_dst != payload || at_back != payload) {
    std::fprintf(stderr, "payload mismatch!\n");
    return 1;
  }
  std::printf("verified: all %u bytes match after put+get round trip\n",
              kSize);
  std::printf("NIC stats: node1 completed %llu puts, node0 completed %llu "
              "gets, 0 protocol violations\n",
              static_cast<unsigned long long>(n1.extoll().puts_completed()),
              static_cast<unsigned long long>(n0.extoll().gets_completed()));
  return 0;
}

#include "putget/setup.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"

namespace pg::putget {

void fill_pattern(sys::Node& node, mem::Addr addr, std::uint64_t len,
                  std::uint64_t seed) {
  Rng rng(seed);
  // Byte i is byte i % 8 of draw i / 8. A draw that a page piece ends
  // inside carries its remaining bytes into the next piece, so the bytes
  // do not depend on where the pages split the range.
  std::uint64_t word = 0;  // the current draw, its next byte lowest
  unsigned left = 0;       // bytes of `word` not yet stored
  node.memory().fill_in_place(addr, len, [&](std::span<std::uint8_t> piece) {
    std::uint8_t* p = piece.data();
    std::uint8_t* const end = p + piece.size();
    auto drain = [&] {
      for (; left > 0 && p != end; --left, word >>= 8) {
        *p++ = static_cast<std::uint8_t>(word);
      }
    };
    drain();
    // Whole draws, stored in the host's (little-endian) order.
    for (; end - p >= 8; p += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p, &v, sizeof v);
    }
    if (p != end) {
      word = rng.next_u64();
      left = 8;
      drain();
    }
  });
}

bool ranges_equal(sys::Node& a, mem::Addr addr_a, sys::Node& b,
                  mem::Addr addr_b, std::uint64_t len) {
  return a.memory().same_bytes(addr_a, b.memory(), addr_b, len);
}

Result<ExtollPair> ExtollPair::create(sys::Cluster& cluster,
                                      std::uint32_t port,
                                      std::uint32_t size) {
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  auto p0 = ExtollHostPort::open(n0.extoll(), port);
  if (!p0.is_ok()) return p0.status();
  auto p1 = ExtollHostPort::open(n1.extoll(), port);
  if (!p1.is_ok()) return p1.status();
  const std::uint64_t len = std::max<std::uint64_t>(size, 8);
  ExtollPair s{*p0, *p1, 0, 0, 0, 0, 0, 0, 0, 0, len};
  s.send0 = n0.gpu_heap().alloc(len, 64);
  s.recv0 = n0.gpu_heap().alloc(len, 64);
  s.send1 = n1.gpu_heap().alloc(len, 64);
  s.recv1 = n1.gpu_heap().alloc(len, 64);
  auto reg = [&](sys::Node& n, mem::Addr a) {
    return n.extoll().register_memory(a, len, mem::Access::kReadWrite);
  };
  auto r1 = reg(n0, s.send0);
  auto r2 = reg(n0, s.recv0);
  auto r3 = reg(n1, s.send1);
  auto r4 = reg(n1, s.recv1);
  if (!r1.is_ok() || !r2.is_ok() || !r3.is_ok() || !r4.is_ok()) {
    return internal_error("registration failed");
  }
  s.send0_nla = *r1;
  s.recv0_nla = *r2;
  s.send1_nla = *r3;
  s.recv1_nla = *r4;
  fill_pattern(n0, s.send0, len, 101);
  fill_pattern(n1, s.send1, len, 202);
  return s;
}

Result<IbPair> IbPair::create(sys::Cluster& cluster, QueueLocation loc,
                              std::uint32_t size, std::uint64_t seed) {
  IbHostEndpoint::Options opts;
  opts.location = loc;
  auto e0 = IbHostEndpoint::create(cluster.node(0), opts);
  if (!e0.is_ok()) return e0.status();
  auto e1 = IbHostEndpoint::create(cluster.node(1), opts);
  if (!e1.is_ok()) return e1.status();
  IbHostEndpoint::connect(*e0, *e1);
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  const std::uint64_t len = std::max<std::uint64_t>(size, 8);
  IbPair p{*e0, *e1, 0, 0, 0, 0, {}, {}, {}, {}, len};
  p.send0 = n0.gpu_heap().alloc(len, 64);
  p.recv0 = n0.gpu_heap().alloc(len, 64);
  p.send1 = n1.gpu_heap().alloc(len, 64);
  p.recv1 = n1.gpu_heap().alloc(len, 64);
  auto m1 = p.ep0.reg_mr(p.send0, len, mem::Access::kReadWrite);
  auto m2 = p.ep0.reg_mr(p.recv0, len, mem::Access::kReadWrite);
  auto m3 = p.ep1.reg_mr(p.send1, len, mem::Access::kReadWrite);
  auto m4 = p.ep1.reg_mr(p.recv1, len, mem::Access::kReadWrite);
  if (!m1.is_ok() || !m2.is_ok() || !m3.is_ok() || !m4.is_ok()) {
    return internal_error("MR registration failed");
  }
  p.mr_send0 = *m1;
  p.mr_recv0 = *m2;
  p.mr_send1 = *m3;
  p.mr_recv1 = *m4;
  fill_pattern(n0, p.send0, len, seed);
  fill_pattern(n1, p.send1, len, seed + 1);
  return p;
}

mem::Addr make_qp_device_context(sys::Node& node, IbHostEndpoint& ep,
                                 mem::Addr qp_table,
                                 std::uint64_t table_len) {
  const mem::Addr ctx = node.gpu_heap().alloc(kQpContextBytes, 64);
  auto& m = node.memory();
  m.write_u64(ctx + kQpcSqBuffer, ep.qp().sq_buffer);
  m.write_u64(ctx + kQpcSqMask, ep.qp().sq_entries - 1);
  m.write_u64(ctx + kQpcSqPi, 0);
  m.write_u64(ctx + kQpcSqDoorbell, ep.qp().sq_doorbell);
  m.write_u64(ctx + kQpcCqBuffer, ep.cq().info().buffer);
  m.write_u64(ctx + kQpcCqMask, ep.cq().info().entries - 1);
  m.write_u64(ctx + kQpcCqCi, 0);
  m.write_u64(ctx + kQpcCqCiCell, ep.cq().info().ci_addr);
  m.write_u64(ctx + kQpcQpTable, qp_table);
  m.write_u64(ctx + kQpcQpTableLen, table_len);
  m.write_u64(ctx + kQpcQpn, ep.qp().qpn);
  return ctx;
}

mem::Addr make_qp_table(sys::Node& node, std::uint32_t qpn,
                        std::uint64_t entries) {
  const mem::Addr table = node.gpu_heap().alloc(entries * 8, 64);
  for (std::uint64_t i = 0; i + 1 < entries; ++i) {
    node.memory().write_u64(table + i * 8, 0xFFFF0000ull + i);
  }
  node.memory().write_u64(table + (entries - 1) * 8, qpn);
  return table;
}

void launch_with_trigger(gpu::Gpu& gpu, const gpu::KernelLaunch& kl,
                         sim::Trigger& done) {
  gpu.launch(kl, [&done] { done.fire(); });
}

bool run_to(sys::Cluster& cluster, std::vector<sim::ShardCond> conds) {
  const bool ok = cluster.run_until(std::move(conds));
  if (ok) {
    cluster.run_for(microseconds(50));
  }
  return ok;
}

}  // namespace pg::putget

// Shared experiment scaffolding: connected buffer pairs and device-side
// context structures for both fabrics. Used by the experiment runners,
// the Sec.-VI extension prototypes, and tests.
#pragma once

#include <cstdint>

#include "putget/device_lib.h"
#include "putget/extoll_host.h"
#include "putget/ib_host.h"
#include "sys/cluster.h"

namespace pg::putget {

/// Fills [addr, addr+len) on `node` with deterministic pseudo-random
/// bytes derived from `seed`.
void fill_pattern(sys::Node& node, mem::Addr addr, std::uint64_t len,
                  std::uint64_t seed);

/// True when the two ranges hold identical bytes.
bool ranges_equal(sys::Node& a, mem::Addr addr_a, sys::Node& b,
                  mem::Addr addr_b, std::uint64_t len);

/// An opened EXTOLL port on each node plus registered GPU send/recv
/// buffers for a bidirectional experiment.
struct ExtollPair {
  ExtollHostPort port0;
  ExtollHostPort port1;
  mem::Addr send0, recv0, send1, recv1;
  extoll::Nla send0_nla, recv0_nla, send1_nla, recv1_nla;
  std::uint64_t buf_len;

  static Result<ExtollPair> create(sys::Cluster& cluster, std::uint32_t port,
                                   std::uint32_t size);
};

/// A connected QP pair with registered GPU payload buffers on each node.
struct IbPair {
  IbHostEndpoint ep0;
  IbHostEndpoint ep1;
  mem::Addr send0, recv0, send1, recv1;
  ib::Mr mr_send0, mr_recv0, mr_send1, mr_recv1;
  std::uint64_t buf_len;

  static Result<IbPair> create(sys::Cluster& cluster, QueueLocation loc,
                               std::uint32_t size, std::uint64_t seed);
};

/// Writes the device-side QP context structure into node-local GPU memory
/// and returns its address.
mem::Addr make_qp_device_context(sys::Node& node, IbHostEndpoint& ep,
                                 mem::Addr qp_table, std::uint64_t table_len);

/// Builds a device-memory qp-number table for the poll_cq association
/// scan, placing `qpn` in the last slot (worst-case search).
mem::Addr make_qp_table(sys::Node& node, std::uint32_t qpn,
                        std::uint64_t entries);

/// Launches a kernel and fires `done` when it retires.
void launch_with_trigger(gpu::Gpu& gpu, const gpu::KernelLaunch& kl,
                         sim::Trigger& done);

/// Runs the cluster until every per-node condition holds (see
/// Cluster::run_until), then drains in-flight posted writes for 50 us of
/// simulated time so memory checks see final state.
bool run_to(sys::Cluster& cluster, std::vector<sim::ShardCond> conds);

}  // namespace pg::putget

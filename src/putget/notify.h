// Unified notifiable-RMA layer: one put/get surface over both fabrics
// with a per-operation completion strategy.
//
// The paper's central observation is that the *mechanism by which a
// completion becomes visible* differs per fabric — EXTOLL DMA-writes a
// 128-bit notification into a kernel-pinned queue, InfiniBand DMA-writes
// a CQE (and consumes a preposted receive for write-with-immediate), and
// both support the cheap trick of polling the payload tail directly.
// This layer names those mechanisms and maps one portable op surface
// onto them:
//
//   Completion::kNotification
//     EXTOLL: put with notify_completer — the target's completer queue
//             receives a notification ordered behind the payload.
//     IB:     RDMA write-with-immediate — consumes a receive WQE at the
//             target and raises a recv CQE there.
//     Arrival is observable through notified()/wait_notified().
//
//   Completion::kPayloadPoll
//     Both fabrics: a plain put; the target spins on the payload tail
//     (wait_until_u64) — the paper's polling scheme. No target-side
//     queue resources are consumed and no arrival counter ticks.
//
// Local (source-side) completion is always tracked: EXTOLL requester
// notifications, IB signaled send CQEs. quiet() additionally provides
// remote completion: IB RC ACKs already mean remote arrival, while
// EXTOLL needs a flush get per dirty peer (the response rides the same
// FIFO link behind the puts — the asymmetry the paper calls out).
//
// All waits are blocking calls that drive the cluster's event loop;
// posting is nonblocking and returns an OpHandle. The domain is the
// single consumer of every notification queue and CQ it owns, so
// arrival counters, wait_any and per-op completion can coexist without
// racing on queue slots.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "putget/extoll_host.h"
#include "putget/ib_host.h"
#include "sys/cluster.h"

namespace pg::putget {

// Kept because the shmem API and perfbench/src/workloads.cc use this name.
using RmaBackend = sys::Backend;

/// How the target learns that a put arrived (see file comment).
enum class Completion : std::uint8_t {
  kNotification = 0,
  kPayloadPoll = 1,
};

const char* completion_name(Completion c);

/// Comparators for wait_until_u64 (OpenSHMEM's wait-until set).
enum class WaitCmp : std::uint8_t { kEq, kNe, kGe, kGt, kLe, kLt };

bool wait_cmp_holds(std::uint64_t lhs, WaitCmp cmp, std::uint64_t rhs);

struct NotifyOptions {
  /// EXTOLL ports reserved per node for puts (round-robin; each port is
  /// an independent one-WR-in-flight pipeline). Gets use one extra
  /// dedicated port, device-driven puts another.
  std::uint32_t put_ports = 2;
  /// Preposted receives per IB endpoint; the cap on outstanding
  /// kNotification puts toward one peer (exceeding it would RNR-drop).
  std::uint32_t rx_window = 64;
  std::uint32_t sq_entries = 256;
  std::uint32_t rq_entries = 256;
  std::uint32_t cq_entries = 1024;
};

/// Handle for one posted operation. Valid until the domain is destroyed.
struct OpHandle {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

class NotifyDomain {
 public:
  /// Bytes at the start of the registered region reserved for the
  /// domain's own scratch (flush-get landing pad and read source).
  static constexpr std::uint64_t kReservedBytes = 64;

  /// Opens ports / creates+connects QPs on every node of `cluster` for
  /// `backend`. The cluster outlives the domain.
  static Result<std::unique_ptr<NotifyDomain>> create(
      sys::Cluster& cluster, RmaBackend backend,
      const NotifyOptions& options = {});

  NotifyDomain(const NotifyDomain&) = delete;
  NotifyDomain& operator=(const NotifyDomain&) = delete;

  RmaBackend backend() const { return backend_; }
  int num_nodes() const { return cluster_->num_nodes(); }
  const NotifyOptions& options() const { return options_; }
  sys::Cluster& cluster() { return *cluster_; }

  /// Registers one symmetric region: `bases[i]` is the base address on
  /// node i, all of identical `length`. Must be called exactly once
  /// before posting. The first kReservedBytes of each region belong to
  /// the domain. Also preposts the IB receive windows.
  Status register_region(const std::vector<mem::Addr>& bases,
                         std::uint64_t length);

  mem::Addr region_base(int node) const { return nodes_[node].base; }

  // --- posting (nonblocking) ----------------------------------------------

  /// Puts `bytes` from `src` on node `from` to `dst` on node `to`.
  /// Local completion is observable via wait_local/wait_any/quiet;
  /// arrival per `completion` (see file comment).
  Result<OpHandle> post_put(int from, int to, mem::Addr src, mem::Addr dst,
                            std::uint32_t bytes, Completion completion);

  /// Reads `bytes` from `remote_src` on node `to` into `local_dst` on
  /// node `from`. Completion (wait_local) means the response data
  /// landed locally on both fabrics.
  Result<OpHandle> post_get(int from, int to, mem::Addr local_dst,
                            mem::Addr remote_src, std::uint32_t bytes);

  // --- completion (blocking; all drive the simulation) ---------------------

  bool done_local(OpHandle op) const;

  /// Runs until `op` is locally complete (EXTOLL requester notification
  /// consumed / IB send CQE retired; for gets: response data landed).
  bool wait_local(OpHandle op);

  /// Runs until any of `ops` is locally complete; returns the smallest
  /// index whose op completed (deterministic tie-break), or -1 if the
  /// simulation ran dry.
  int wait_any(const std::vector<OpHandle>& ops);

  /// Remote completion of everything `node` posted: waits local
  /// completion of all its ops, then (EXTOLL only) issues one 8-byte
  /// flush get per peer it sent puts to since the last quiet.
  Status quiet(int node);

  /// kNotification arrivals `node` has observed so far. The counter
  /// advances inside wait_notified (library-progress semantics, like a
  /// real SHMEM's poke-the-library rule).
  std::uint64_t notified(int node) const { return nodes_[node].notified; }

  /// Runs until `node` has observed at least `target` arrivals,
  /// consuming notifications/CQEs as they come in.
  bool wait_notified(int node, std::uint64_t target);

  /// Payload-tail polling on `node`: spins (with host poll costs) until
  /// `*(u64*)addr <cmp> value`. Closes the lifecycle of a payload-poll
  /// put whose last byte is addr+7, when one is parked there.
  bool wait_until_u64(int node, mem::Addr addr, WaitCmp cmp,
                      std::uint64_t value);

  // --- device-driven access (used by shmem's GPU plans) --------------------

  /// EXTOLL: the per-node port reserved for device-driven puts.
  Result<extoll::PortInfo> device_port_info(int node);

  /// EXTOLL: translates a region address on `node` to its NLA.
  Result<extoll::Nla> nla(int node, mem::Addr addr) const;

  /// IB: region MR on `node` (keys are symmetric when registration
  /// order is symmetric, which register_region guarantees).
  Result<ib::Mr> region_mr(int node) const;

  /// IB: dedicated RC endpoint for device-driven puts from `from` to
  /// `to` (rings in GPU memory on `from`); created on first use.
  Result<IbHostEndpoint*> device_endpoint(int from, int to);

 private:
  struct Op {
    int from = 0;
    int to = 0;
    std::uint32_t bytes = 0;
    bool is_get = false;
    Completion completion = Completion::kNotification;
    sim::Trigger posted;      // IB: doorbell rung (per-endpoint ordering)
    sim::Trigger local_done;  // see wait_local
  };

  /// One side of an IB pair connection.
  struct PairSide {
    std::unique_ptr<IbHostEndpoint> ep;
    int node = -1;
    sim::Trigger* post_chain = nullptr;  // last op's posted trigger
    std::uint32_t inflight_notify = 0;   // kNotification puts from here
  };
  struct Pair {
    PairSide side[2];  // side 0 = lower node id
  };

  struct NodeState {
    mem::Addr base = 0;
    // EXTOLL
    std::vector<std::unique_ptr<ExtollHostPort>> ports;  // put_ports+2
    std::vector<sim::Trigger*> port_chain;  // last op per put port
    sim::Trigger* get_chain = nullptr;      // last get (dedicated port)
    extoll::Nla nla_base = 0;
    std::set<int> dirty_targets;  // peers with un-quiesced puts
    // IB
    std::vector<std::pair<int, int>> endpoints;  // (pair index, side)
    std::vector<int> pair_by_peer;               // -1 = unlinked
    ib::Mr mr;
    // common
    std::uint64_t notified = 0;
    std::uint64_t next_port = 0;   // EXTOLL round-robin cursor
    std::uint64_t pump_epoch = 0;  // invalidates stale drain loops
  };

  NotifyDomain(sys::Cluster& cluster, RmaBackend backend,
               const NotifyOptions& options)
      : cluster_(&cluster), backend_(backend), options_(options) {}

  Status setup_extoll();
  Status setup_ib();

  host::HostCpu& cpu(int node) { return cluster_->node(node).cpu(); }

  Status check_put_args(int from, int to, std::uint32_t bytes) const;

  sim::SimTask run_extoll_put(std::int32_t op_id, sim::Trigger* prev,
                              std::uint32_t port_idx, extoll::WorkRequest wr);
  sim::SimTask run_extoll_get(std::int32_t op_id, sim::Trigger* prev,
                              extoll::WorkRequest wr);
  sim::SimTask run_ib_post(std::int32_t op_id, sim::Trigger* prev,
                           int pair_idx, int side, ib::SendWqe wqe);
  /// Consumes CQEs on `node`'s endpoints until the epoch moves on:
  /// send CQEs retire ops FIFO per endpoint, recv CQEs advance the
  /// arrival counter and replenish the receive window.
  sim::SimTask pump_ib(int node, std::uint64_t epoch);
  /// EXTOLL arrival drain: consumes completer notifications on the put
  /// ports until the epoch moves on.
  sim::SimTask pump_extoll(int node, std::uint64_t epoch);
  sim::SimTask run_wait_value(int node, mem::Addr addr, WaitCmp cmp,
                              std::uint64_t value,
                              std::shared_ptr<bool> done);

  /// Spawns the backend's consume pump for `node` (new epoch) and runs
  /// the cluster until `pred` holds.
  template <typename Pred>
  bool pump_until(int node, Pred pred);

  bool extoll_cmp_pending(int node) const;
  bool ib_cqe_pending(int node) const;

  sys::Cluster* cluster_;
  RmaBackend backend_;
  NotifyOptions options_;
  std::uint64_t region_len_ = 0;
  bool registered_ = false;
  std::vector<NodeState> nodes_;
  std::deque<Pair> pairs_;
  std::deque<Op> ops_;  // deque: stable addresses for coroutine capture
  // Device-driven IB endpoints, created on demand: ((from, to) -> pair
  // of endpoints), from-side first.
  std::deque<std::pair<std::pair<int, int>, Pair>> device_pairs_;
};

}  // namespace pg::putget

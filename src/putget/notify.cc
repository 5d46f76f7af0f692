#include "putget/notify.h"

#include <string>
#include <utility>

#include "obs/flow.h"

namespace pg::putget {

namespace {

using extoll::RmaCmd;
using extoll::WorkRequest;

}  // namespace

const char* completion_name(Completion c) {
  switch (c) {
    case Completion::kNotification: return "notification";
    case Completion::kPayloadPoll: return "payload-poll";
  }
  return "?";
}

bool wait_cmp_holds(std::uint64_t lhs, WaitCmp cmp, std::uint64_t rhs) {
  switch (cmp) {
    case WaitCmp::kEq: return lhs == rhs;
    case WaitCmp::kNe: return lhs != rhs;
    case WaitCmp::kGe: return lhs >= rhs;
    case WaitCmp::kGt: return lhs > rhs;
    case WaitCmp::kLe: return lhs <= rhs;
    case WaitCmp::kLt: return lhs < rhs;
  }
  return false;
}

// ===========================================================================
// Setup
// ===========================================================================

Result<std::unique_ptr<NotifyDomain>> NotifyDomain::create(
    sys::Cluster& cluster, RmaBackend backend, const NotifyOptions& options) {
  if (options.put_ports < 1) {
    return invalid_argument("NotifyOptions.put_ports must be at least 1");
  }
  if (options.rx_window < 1 || options.rx_window > options.rq_entries) {
    return invalid_argument(
        "NotifyOptions.rx_window must be in [1, rq_entries]");
  }
  std::unique_ptr<NotifyDomain> d(
      new NotifyDomain(cluster, backend, options));
  d->nodes_.resize(static_cast<std::size_t>(cluster.num_nodes()));
  for (NodeState& ns : d->nodes_) {
    ns.pair_by_peer.assign(static_cast<std::size_t>(cluster.num_nodes()), -1);
  }
  Status s = backend == RmaBackend::kExtoll ? d->setup_extoll()
                                            : d->setup_ib();
  if (!s.is_ok()) return s;
  return d;
}

Status NotifyDomain::setup_extoll() {
  const std::uint32_t total_ports = options_.put_ports + 2;
  for (int i = 0; i < num_nodes(); ++i) {
    sys::Node& node = cluster_->node(i);
    if (!node.has_extoll()) {
      return failed_precondition(
          "extoll backend requested but the cluster has no EXTOLL NICs");
    }
    if (total_ports > node.extoll().config().num_ports) {
      return invalid_argument(
          "put_ports + 2 exceeds the NIC's port count");
    }
    NodeState& ns = nodes_[static_cast<std::size_t>(i)];
    for (std::uint32_t p = 0; p < total_ports; ++p) {
      auto port = ExtollHostPort::open(node.extoll(), p);
      if (!port.is_ok()) return port.status();
      ns.ports.push_back(std::make_unique<ExtollHostPort>(std::move(*port)));
    }
    ns.port_chain.assign(options_.put_ports, nullptr);
  }
  return Status::ok();
}

Result<NotifyDomain::Pair> NotifyDomain::connect_pair(int a, int b,
                                                      QueueLocation loc_a) {
  const sys::Cluster::Route ra = cluster_->ib_route(a, b);
  const sys::Cluster::Route rb = cluster_->ib_route(b, a);
  if (ra.link == nullptr || rb.link == nullptr) {
    return not_found("no IB link between the two nodes");
  }
  IbHostEndpoint::Options opts;
  opts.sq_entries = options_.sq_entries;
  opts.rq_entries = options_.rq_entries;
  opts.cq_entries = options_.cq_entries;
  opts.location = loc_a;
  auto ea = IbHostEndpoint::create(cluster_->node(a), opts);
  if (!ea.is_ok()) return ea.status();
  opts.location = QueueLocation::kHostMemory;
  auto eb = IbHostEndpoint::create(cluster_->node(b), opts);
  if (!eb.is_ok()) return eb.status();
  // Pin both directions of the pair's traffic to the pair's first-hop
  // egress; the remote node id lets the fabric relay the frames when the
  // peers are not adjacent.
  Status sa = cluster_->node(a).hca().connect_qp(ea->qp().qpn, eb->qp().qpn,
                                                 ra.link, ra.side, b);
  if (!sa.is_ok()) return sa;
  Status sb = cluster_->node(b).hca().connect_qp(eb->qp().qpn, ea->qp().qpn,
                                                 rb.link, rb.side, a);
  if (!sb.is_ok()) return sb;
  Pair pr;
  pr.side[0].ep = std::make_unique<IbHostEndpoint>(std::move(*ea));
  pr.side[0].node = a;
  pr.side[1].ep = std::make_unique<IbHostEndpoint>(std::move(*eb));
  pr.side[1].node = b;
  return pr;
}

Status NotifyDomain::setup_ib() {
  for (int i = 0; i < num_nodes(); ++i) {
    if (!cluster_->node(i).has_ib()) {
      return failed_precondition(
          "ib backend requested but the cluster has no HCAs");
    }
  }
  // One RC pair per linked (i, j), i < j; side 0 lives on the lower id.
  for (int i = 0; i < num_nodes(); ++i) {
    for (int j = i + 1; j < num_nodes(); ++j) {
      auto pr = connect_pair(i, j, QueueLocation::kHostMemory);
      if (!pr.is_ok()) {
        if (pr.status().code() == StatusCode::kNotFound) continue;  // unlinked
        return pr.status();
      }
      const int idx = static_cast<int>(pairs_.size());
      pairs_.push_back(std::move(*pr));
      nodes_[static_cast<std::size_t>(i)].pair_by_peer[j] = idx;
      nodes_[static_cast<std::size_t>(j)].pair_by_peer[i] = idx;
      nodes_[static_cast<std::size_t>(i)].endpoints.push_back({idx, 0});
      nodes_[static_cast<std::size_t>(j)].endpoints.push_back({idx, 1});
    }
  }
  return Status::ok();
}

Status NotifyDomain::register_region(const std::vector<mem::Addr>& bases,
                                     std::uint64_t length) {
  if (registered_) {
    return failed_precondition("register_region may only be called once");
  }
  if (bases.size() != static_cast<std::size_t>(num_nodes())) {
    return invalid_argument("register_region needs one base per node");
  }
  if (length <= kReservedBytes) {
    return invalid_argument("region must be larger than kReservedBytes");
  }
  for (int i = 0; i < num_nodes(); ++i) {
    NodeState& ns = nodes_[static_cast<std::size_t>(i)];
    ns.base = bases[static_cast<std::size_t>(i)];
    if (backend_ == RmaBackend::kExtoll) {
      auto nla = cluster_->node(i).extoll().register_memory(
          ns.base, length, mem::Access::kReadWrite);
      if (!nla.is_ok()) return nla.status();
      ns.nla_base = *nla;
    } else {
      auto mr = cluster_->node(i).hca().reg_mr(ns.base, length,
                                               mem::Access::kReadWrite);
      if (!mr.is_ok()) return mr.status();
      ns.mr = *mr;
    }
  }
  region_len_ = length;
  registered_ = true;
  if (backend_ == RmaBackend::kIb) {
    // Fill each endpoint's receive window so write-with-immediate puts
    // can land from the first post.
    std::vector<sim::SimTask> tasks;
    std::vector<sim::Trigger> posted(pairs_.size() * 2 * options_.rx_window);
    std::size_t k = 0;
    for (Pair& pr : pairs_) {
      for (int s = 0; s < 2; ++s) {
        PairSide& ps = pr.side[s];
        const NodeState& ns = nodes_[static_cast<std::size_t>(ps.node)];
        ib::RecvWqe rwqe;
        rwqe.addr = ns.base;
        rwqe.len = 8;
        rwqe.lkey = ns.mr.lkey;
        for (std::uint32_t r = 0; r < options_.rx_window; ++r) {
          tasks.push_back(sim::spawn(ps.ep->post_recv(cpu(ps.node), rwqe),
                                     &posted[k++]));
        }
      }
    }
    const bool ok = cluster_->run_until([&posted] {
      for (const sim::Trigger& t : posted) {
        if (!t.fired()) return false;
      }
      return true;
    });
    if (!ok) return internal_error("receive prepost did not complete");
  }
  return Status::ok();
}

// ===========================================================================
// Posting
// ===========================================================================

Status NotifyDomain::check_put_args(int from, int to,
                                    std::uint32_t bytes) const {
  if (!registered_) {
    return failed_precondition("register_region must be called first");
  }
  if (from < 0 || from >= num_nodes() || to < 0 || to >= num_nodes()) {
    return out_of_range("node id outside [0, num_nodes)");
  }
  if (from == to) return invalid_argument("loopback ops are not supported");
  if (bytes == 0) return invalid_argument("zero-length op");
  if (bytes > region_len_) return out_of_range("op larger than the region");
  return Status::ok();
}

namespace {

Status check_range(mem::Addr base, std::uint64_t len, mem::Addr addr,
                   std::uint64_t bytes, const char* what) {
  if (addr < base || addr + bytes > base + len) {
    return out_of_range(std::string(what) +
                        " lies outside the registered region");
  }
  return Status::ok();
}

}  // namespace

Result<OpHandle> NotifyDomain::post_put(int from, int to, mem::Addr src,
                                        mem::Addr dst, std::uint32_t bytes,
                                        Completion completion) {
  if (Status s = check_put_args(from, to, bytes); !s.is_ok()) return s;
  NodeState& fs = nodes_[static_cast<std::size_t>(from)];
  NodeState& ts = nodes_[static_cast<std::size_t>(to)];
  if (Status s = check_range(fs.base, region_len_, src, bytes, "put source");
      !s.is_ok()) {
    return s;
  }
  if (Status s = check_range(ts.base, region_len_, dst, bytes, "put dest");
      !s.is_ok()) {
    return s;
  }
  const std::int32_t id = static_cast<std::int32_t>(ops_.size());
  if (backend_ == RmaBackend::kExtoll) {
    if (cluster_->extoll_route(from, to).link == nullptr) {
      return not_found("no EXTOLL link between the two nodes");
    }
    ops_.emplace_back();
    Op& op = ops_.back();
    op.from = from;
    op.to = to;
    op.bytes = bytes;
    op.completion = completion;
    const std::uint32_t pi =
        static_cast<std::uint32_t>(fs.next_port++ % options_.put_ports);
    WorkRequest wr;
    wr.cmd = RmaCmd::kPut;
    wr.port = static_cast<std::uint8_t>(pi);
    wr.size = bytes;
    wr.notify_requester = true;
    wr.notify_completer = completion == Completion::kNotification;
    wr.dst_node = to;
    wr.src_nla = fs.nla_base + (src - fs.base);
    wr.dst_nla = ts.nla_base + (dst - ts.base);
    sim::Trigger* prev = fs.port_chain[pi];
    fs.port_chain[pi] = &op.local_done;
    fs.dirty_targets.insert(to);
    (void)run_extoll_put(id, prev, pi, wr);
  } else {
    const int pair_idx = fs.pair_by_peer[static_cast<std::size_t>(to)];
    if (pair_idx < 0) return not_found("no IB link between the two nodes");
    const int side = from < to ? 0 : 1;
    PairSide& ps = pairs_[static_cast<std::size_t>(pair_idx)].side[side];
    if (completion == Completion::kNotification) {
      if (ps.inflight_notify >= options_.rx_window) {
        return resource_exhausted(
            "notification window full toward this peer (wait first)");
      }
      ++ps.inflight_notify;
    }
    ops_.emplace_back();
    Op& op = ops_.back();
    op.from = from;
    op.to = to;
    op.bytes = bytes;
    op.completion = completion;
    ib::SendWqe wqe;
    wqe.opcode = completion == Completion::kNotification
                     ? ib::WqeOpcode::kRdmaWriteImm
                     : ib::WqeOpcode::kRdmaWrite;
    wqe.signaled = true;
    wqe.byte_len = bytes;
    wqe.laddr = src;
    wqe.lkey = fs.mr.lkey;
    wqe.raddr = dst;
    wqe.rkey = ts.mr.rkey;
    wqe.wr_id = static_cast<std::uint64_t>(id);
    wqe.imm = static_cast<std::uint32_t>(id);
    sim::Trigger* prev = ps.post_chain;
    ps.post_chain = &op.posted;
    fs.dirty_targets.insert(to);
    (void)run_ib_post(id, prev, pair_idx, side, wqe);
  }
  return OpHandle{id};
}

Result<OpHandle> NotifyDomain::post_get(int from, int to, mem::Addr local_dst,
                                        mem::Addr remote_src,
                                        std::uint32_t bytes) {
  if (Status s = check_put_args(from, to, bytes); !s.is_ok()) return s;
  NodeState& fs = nodes_[static_cast<std::size_t>(from)];
  NodeState& ts = nodes_[static_cast<std::size_t>(to)];
  if (Status s =
          check_range(fs.base, region_len_, local_dst, bytes, "get dest");
      !s.is_ok()) {
    return s;
  }
  if (Status s =
          check_range(ts.base, region_len_, remote_src, bytes, "get source");
      !s.is_ok()) {
    return s;
  }
  const std::int32_t id = static_cast<std::int32_t>(ops_.size());
  if (backend_ == RmaBackend::kExtoll) {
    if (cluster_->extoll_route(from, to).link == nullptr) {
      return not_found("no EXTOLL link between the two nodes");
    }
    ops_.emplace_back();
    Op& op = ops_.back();
    op.from = from;
    op.to = to;
    op.bytes = bytes;
    op.is_get = true;
    WorkRequest wr;
    wr.cmd = RmaCmd::kGet;
    wr.port = static_cast<std::uint8_t>(options_.put_ports);
    wr.size = bytes;
    wr.notify_requester = false;
    // The completer notification is written at the ORIGIN when the get
    // response lands - it is the get's completion signal.
    wr.notify_completer = true;
    wr.dst_node = to;
    wr.src_nla = ts.nla_base + (remote_src - ts.base);
    wr.dst_nla = fs.nla_base + (local_dst - fs.base);
    sim::Trigger* prev = fs.get_chain;
    fs.get_chain = &op.local_done;
    (void)run_extoll_get(id, prev, wr);
  } else {
    const int pair_idx = fs.pair_by_peer[static_cast<std::size_t>(to)];
    if (pair_idx < 0) return not_found("no IB link between the two nodes");
    const int side = from < to ? 0 : 1;
    PairSide& ps = pairs_[static_cast<std::size_t>(pair_idx)].side[side];
    ops_.emplace_back();
    Op& op = ops_.back();
    op.from = from;
    op.to = to;
    op.bytes = bytes;
    op.is_get = true;
    ib::SendWqe wqe;
    wqe.opcode = ib::WqeOpcode::kRdmaRead;
    wqe.signaled = true;
    wqe.byte_len = bytes;
    wqe.laddr = local_dst;
    wqe.lkey = fs.mr.lkey;
    wqe.raddr = remote_src;
    wqe.rkey = ts.mr.rkey;
    wqe.wr_id = static_cast<std::uint64_t>(id);
    sim::Trigger* prev = ps.post_chain;
    ps.post_chain = &op.posted;
    (void)run_ib_post(id, prev, pair_idx, side, wqe);
  }
  return OpHandle{id};
}

// ===========================================================================
// Protocol coroutines
// ===========================================================================

sim::SimTask NotifyDomain::run_extoll_put(std::int32_t op_id,
                                          sim::Trigger* prev,
                                          std::uint32_t port_idx,
                                          extoll::WorkRequest wr) {
  Op& op = ops_[static_cast<std::size_t>(op_id)];
  host::HostCpu& hc = cpu(op.from);
  // One WR in flight per port: wait out the previous op on this port.
  if (prev != nullptr) co_await prev->wait(hc.sim());
  ExtollHostPort& port =
      *nodes_[static_cast<std::size_t>(op.from)].ports[port_idx];
  co_await port.post(hc, wr);
  op.posted.fire();
  // Local completion: the requester notification (the message lifecycle
  // rides on to the target).
  co_await port.wait_requester(hc);
  op.local_done.fire();
}

sim::SimTask NotifyDomain::run_extoll_get(std::int32_t op_id,
                                          sim::Trigger* prev,
                                          extoll::WorkRequest wr) {
  Op& op = ops_[static_cast<std::size_t>(op_id)];
  host::HostCpu& hc = cpu(op.from);
  if (prev != nullptr) co_await prev->wait(hc.sim());
  ExtollHostPort& port = *nodes_[static_cast<std::size_t>(op.from)]
                              .ports[options_.put_ports];
  co_await port.post(hc, wr);
  op.posted.fire();
  // Gets complete with the completer notification at the origin, written
  // once the response data has landed locally.
  co_await port.wait_completer(hc);
  op.local_done.fire();
}

sim::SimTask NotifyDomain::run_ib_post(std::int32_t op_id, sim::Trigger* prev,
                                       int pair_idx, int side,
                                       ib::SendWqe wqe) {
  Op& op = ops_[static_cast<std::size_t>(op_id)];
  host::HostCpu& hc = cpu(op.from);
  // Keep doorbell values monotone per endpoint: wait until the previous
  // op on this endpoint has rung its doorbell.
  if (prev != nullptr) co_await prev->wait(hc.sim());
  PairSide& ps = pairs_[static_cast<std::size_t>(pair_idx)].side[side];
  sim::Trigger rung;
  (void)sim::spawn(ps.ep->post_send(hc, wqe), &rung);
  co_await rung.wait(hc.sim());
  op.posted.fire();
}

// ===========================================================================
// Pumps (the domain's single consumer per queue)
// ===========================================================================

sim::SimTask NotifyDomain::pump_extoll(int node, std::uint64_t epoch) {
  host::HostCpu& hc = cpu(node);
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  while (ns.pump_epoch == epoch) {
    int hit = -1;
    for (std::uint32_t p = 0; p < options_.put_ports; ++p) {
      if (ns.ports[p]->completer_notifications().pending(hc)) {
        hit = static_cast<int>(p);
        break;
      }
    }
    if (hit < 0) {
      co_await hc.delay(hc.config().cached_poll_interval);
      continue;
    }
    co_await hc.touch_dram();
    // A wait call may have retired this pump while the cost was charged;
    // bail before consuming so the successor pump owns the queues alone.
    if (ns.pump_epoch != epoch) co_return;
    NotificationReader& rd =
        ns.ports[static_cast<std::size_t>(hit)]->completer_notifications();
    if (!rd.pending(hc)) continue;
    (void)rd.consume(hc);
    ++ns.notified;
  }
}

sim::SimTask NotifyDomain::pump_ib(int node, std::uint64_t epoch) {
  host::HostCpu& hc = cpu(node);
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  while (ns.pump_epoch == epoch) {
    int hit_pair = -1;
    int hit_side = 0;
    for (const auto& [pi, si] : ns.endpoints) {
      if (pairs_[static_cast<std::size_t>(pi)].side[si].ep->cq().pending(
              hc)) {
        hit_pair = pi;
        hit_side = si;
        break;
      }
    }
    if (hit_pair < 0) {
      co_await hc.delay(hc.config().cached_poll_interval);
      continue;
    }
    co_await hc.touch_dram();
    if (ns.pump_epoch != epoch) co_return;
    PairSide& ps = pairs_[static_cast<std::size_t>(hit_pair)].side[hit_side];
    CqReader& cq = ps.ep->cq();
    if (!cq.pending(hc)) continue;
    const ib::Cqe cqe = cq.consume(hc);
    if (cqe.is_recv) {
      // An inbound write-with-immediate: count the arrival, release the
      // sender's window slot, replenish the consumed receive.
      ++ns.notified;
      PairSide& sender =
          pairs_[static_cast<std::size_t>(hit_pair)].side[1 - hit_side];
      if (sender.inflight_notify > 0) --sender.inflight_notify;
      ib::RecvWqe rwqe;
      rwqe.addr = ns.base;
      rwqe.len = 8;
      rwqe.lkey = ns.mr.lkey;
      (void)sim::spawn(ps.ep->post_recv(hc, rwqe));
    } else {
      // A send CQE at ACK-retire: the op is locally (and, RC semantics,
      // remotely) complete.
      const std::size_t id = static_cast<std::size_t>(cqe.wr_id);
      if (id < ops_.size()) ops_[id].local_done.fire();
    }
  }
}

template <typename Pred>
bool NotifyDomain::pump_until(int node, Pred pred) {
  if (pred()) return true;
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  const std::uint64_t epoch = ++ns.pump_epoch;
  if (backend_ == RmaBackend::kExtoll) {
    (void)pump_extoll(node, epoch);
  } else {
    (void)pump_ib(node, epoch);
  }
  const bool ok = cluster_->run_until(pred);
  ++ns.pump_epoch;  // retire the pump at its next resume
  return ok;
}

// ===========================================================================
// Completion
// ===========================================================================

bool NotifyDomain::done_local(OpHandle op) const {
  if (!op.valid() || static_cast<std::size_t>(op.id) >= ops_.size()) {
    return false;
  }
  return ops_[static_cast<std::size_t>(op.id)].local_done.fired();
}

bool NotifyDomain::wait_local(OpHandle op) {
  if (!op.valid() || static_cast<std::size_t>(op.id) >= ops_.size()) {
    return false;
  }
  Op& o = ops_[static_cast<std::size_t>(op.id)];
  auto pred = [&o] { return o.local_done.fired(); };
  if (pred()) return true;
  // IB local completion is a send CQE only the pump consumes; EXTOLL ops
  // consume their own requester notification and just need the clock run.
  if (backend_ == RmaBackend::kIb) return pump_until(o.from, pred);
  return cluster_->run_until(pred);
}

int NotifyDomain::wait_any(const std::vector<OpHandle>& ops) {
  auto winner = [this, &ops]() -> int {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (done_local(ops[i])) return static_cast<int>(i);
    }
    return -1;
  };
  if (int w = winner(); w >= 0) return w;
  std::set<int> pump_nodes;
  if (backend_ == RmaBackend::kIb) {
    for (const OpHandle& h : ops) {
      if (h.valid() && static_cast<std::size_t>(h.id) < ops_.size()) {
        pump_nodes.insert(ops_[static_cast<std::size_t>(h.id)].from);
      }
    }
  }
  for (int n : pump_nodes) {
    NodeState& ns = nodes_[static_cast<std::size_t>(n)];
    const std::uint64_t epoch = ++ns.pump_epoch;
    (void)pump_ib(n, epoch);
  }
  const bool ok = cluster_->run_until([&winner] { return winner() >= 0; });
  for (int n : pump_nodes) {
    ++nodes_[static_cast<std::size_t>(n)].pump_epoch;
  }
  return ok ? winner() : -1;
}

Status NotifyDomain::quiet(int node) {
  if (node < 0 || node >= num_nodes()) {
    return out_of_range("quiet: node id outside [0, num_nodes)");
  }
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  auto all_local = [this, node] {
    for (const Op& o : ops_) {
      if (o.from == node && !o.local_done.fired()) return false;
    }
    return true;
  };
  const bool ok = backend_ == RmaBackend::kIb
                      ? pump_until(node, all_local)
                      : cluster_->run_until(all_local);
  if (!ok && !all_local()) {
    return internal_error("quiet: simulation ran dry before completion");
  }
  if (backend_ == RmaBackend::kExtoll) {
    // Requester notifications only mean the NIC accepted the WR. Flush
    // each dirty peer with an 8-byte get: the response is generated
    // behind the puts on the same link, so its arrival bounds their
    // delivery. (Approximate by one DMA write-vs-read race window; see
    // DESIGN.md.)
    const std::set<int> targets = ns.dirty_targets;
    ns.dirty_targets.clear();
    for (int t : targets) {
      auto g = post_get(node, t, ns.base + 0,
                        nodes_[static_cast<std::size_t>(t)].base + 8, 8);
      if (!g.is_ok()) return g.status();
      if (!wait_local(*g)) {
        return internal_error("quiet: flush get did not complete");
      }
    }
  } else {
    // RC ACKs already mean remote completion.
    ns.dirty_targets.clear();
  }
  return Status::ok();
}

bool NotifyDomain::wait_notified(int node, std::uint64_t target) {
  if (node < 0 || node >= num_nodes()) return false;
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  return pump_until(node, [&ns, target] { return ns.notified >= target; });
}

sim::SimTask NotifyDomain::run_wait_value(int node, mem::Addr addr,
                                          WaitCmp cmp, std::uint64_t value,
                                          std::shared_ptr<bool> done) {
  host::HostCpu& hc = cpu(node);
  co_await hc.poll_until([this, node, addr, cmp, value] {
    return wait_cmp_holds(cpu(node).load_u64(addr), cmp, value);
  });
  co_await hc.touch_dram();
  // A payload-poll put whose last byte is addr+7 parks its lifecycle at
  // the payload tail; detecting the value is what completes it.
  const obs::FlowId flow =
      obs::flow_pop(obs::flow_key(&hc.fabric(), addr + 7));
  obs::flow_stage(flow, "host", "poll_detect", hc.sim().now());
  obs::flow_end(flow, "host", hc.sim().now());
  *done = true;
}

bool NotifyDomain::wait_until_u64(int node, mem::Addr addr, WaitCmp cmp,
                                  std::uint64_t value) {
  if (node < 0 || node >= num_nodes()) return false;
  auto done = std::make_shared<bool>(false);
  (void)run_wait_value(node, addr, cmp, value, done);
  return cluster_->run_until([done] { return *done; });
}

// ===========================================================================
// Device-driven access
// ===========================================================================

Result<extoll::PortInfo> NotifyDomain::device_port_info(int node) {
  if (backend_ != RmaBackend::kExtoll) {
    return failed_precondition("device_port_info is EXTOLL-only");
  }
  if (node < 0 || node >= num_nodes()) {
    return out_of_range("node id outside [0, num_nodes)");
  }
  return nodes_[static_cast<std::size_t>(node)]
      .ports[options_.put_ports + 1]
      ->info();
}

Result<extoll::Nla> NotifyDomain::nla(int node, mem::Addr addr) const {
  if (backend_ != RmaBackend::kExtoll) {
    return failed_precondition("nla translation is EXTOLL-only");
  }
  if (node < 0 || node >= num_nodes()) {
    return out_of_range("node id outside [0, num_nodes)");
  }
  if (!registered_) {
    return failed_precondition("register_region must be called first");
  }
  const NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  if (Status s = check_range(ns.base, region_len_, addr, 1, "address");
      !s.is_ok()) {
    return s;
  }
  return ns.nla_base + (addr - ns.base);
}

Result<ib::Mr> NotifyDomain::region_mr(int node) const {
  if (backend_ != RmaBackend::kIb) {
    return failed_precondition("region_mr is IB-only");
  }
  if (node < 0 || node >= num_nodes()) {
    return out_of_range("node id outside [0, num_nodes)");
  }
  if (!registered_) {
    return failed_precondition("register_region must be called first");
  }
  return nodes_[static_cast<std::size_t>(node)].mr;
}

Result<IbHostEndpoint*> NotifyDomain::device_endpoint(int from, int to) {
  if (backend_ != RmaBackend::kIb) {
    return failed_precondition("device_endpoint is IB-only");
  }
  if (from < 0 || from >= num_nodes() || to < 0 || to >= num_nodes() ||
      from == to) {
    return out_of_range("bad node pair");
  }
  for (auto& entry : device_pairs_) {
    if (entry.first == std::pair<int, int>{from, to}) {
      return entry.second.side[0].ep.get();
    }
  }
  // The device posts and polls its own rings, so they live in GPU memory.
  auto pr = connect_pair(from, to, QueueLocation::kGpuMemory);
  if (!pr.is_ok()) return pr.status();
  device_pairs_.emplace_back(std::pair<int, int>{from, to}, std::move(*pr));
  return device_pairs_.back().second.side[0].ep.get();
}

}  // namespace pg::putget

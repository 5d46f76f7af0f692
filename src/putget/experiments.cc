#include "putget/experiments.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/log.h"
#include "putget/device_lib.h"
#include "putget/op_span.h"
#include "putget/setup.h"
#include "putget/stats.h"

namespace pg::putget {

namespace {

using mem::Addr;

// Host protocol coroutines -------------------------------------------------
// Composed from the transport's CoTask primitives; each primitive inlines
// into the caller's schedule, so these generic coroutines replay the
// exact event sequences of the former per-backend protocols.

sim::SimTask pingpong_initiator(Transport& t, host::HostCpu& cpu,
                                std::uint32_t iterations, SimTime* t_end,
                                sim::Trigger& done) {
  for (std::uint32_t i = 0; i < iterations; ++i) {
    co_await t.prepost_rx(0, 0, i);
    co_await t.post(0, 0, i);
    co_await t.wait_tx(0, 0);
    co_await t.wait_rx(0, 0);
  }
  if (t_end) *t_end = cpu.sim().now();
  done.fire();
}

sim::SimTask pingpong_responder(Transport& t, host::HostCpu& cpu,
                                std::uint32_t iterations,
                                sim::Trigger& done) {
  for (std::uint32_t i = 0; i < iterations; ++i) {
    co_await t.prepost_rx(0, 1, i);
    co_await t.wait_rx(0, 1);
    co_await t.post(0, 1, i);
    co_await t.wait_tx(0, 1);
  }
  (void)cpu;
  done.fire();
}

/// Host-assisted server: waits for the GPU's go flag, performs the
/// transfer, waits for the pong, acknowledges the GPU.
sim::SimTask assisted_pingpong_server(Transport& t, host::HostCpu& cpu,
                                      std::uint32_t iterations, Addr go_flag,
                                      Addr ack_flag, sim::Trigger& done) {
  for (std::uint32_t i = 0; i < iterations; ++i) {
    const std::uint64_t tag = i + 1;
    co_await cpu.poll_until(
        [&cpu, go_flag, tag] { return cpu.load_u64(go_flag) >= tag; });
    co_await t.prepost_rx(0, 0, i);
    co_await t.post(0, 0, i);
    co_await t.wait_tx(0, 0);
    co_await t.wait_rx(0, 0);  // the pong
    co_await cpu.mmio_write_u64(ack_flag, tag);
  }
  done.fire();
}

/// Windowed streaming sender. Window 1 degenerates to post/wait
/// lock-step (EXTOLL's one-WR-per-port rule); IB streams 16 deep.
sim::SimTask windowed_sender(Transport& t, host::HostCpu& cpu,
                             std::uint32_t c, std::uint32_t count,
                             std::uint32_t window, SimTime* t_start,
                             std::uint32_t* finished, SimTime* t_end,
                             sim::Trigger* done) {
  if (t_start) *t_start = cpu.sim().now();
  std::uint32_t outstanding = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (outstanding == window) {
      co_await t.wait_tx(c, 0);
      --outstanding;
    }
    co_await t.post(c, 0, i);
    ++outstanding;
  }
  while (outstanding > 0) {
    co_await t.wait_tx(c, 0);
    --outstanding;
  }
  if (finished) ++*finished;
  if (t_end) *t_end = cpu.sim().now();
  if (done) done->fire();
}

/// Host-assisted streaming sender: one flag cycle per message.
sim::SimTask assisted_stream_server(Transport& t, host::HostCpu& cpu,
                                    std::uint32_t count, Addr go_flag,
                                    Addr ack_flag, SimTime* t_start,
                                    SimTime* t_end, sim::Trigger& done) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t tag = i + 1;
    co_await cpu.poll_until(
        [&cpu, go_flag, tag] { return cpu.load_u64(go_flag) >= tag; });
    if (i == 0) *t_start = cpu.sim().now();
    co_await t.post(0, 0, i);
    co_await t.wait_tx(0, 0);
    co_await cpu.mmio_write_u64(ack_flag, tag);
  }
  if (t_end) *t_end = cpu.sim().now();
  done.fire();
}

/// Host-side receiver draining `count` inbound completions.
sim::SimTask stream_drain(Transport& t, host::HostCpu& cpu,
                          std::uint32_t count, SimTime* t_end,
                          sim::Trigger& done) {
  for (std::uint32_t i = 0; i < count; ++i) {
    co_await t.wait_rx(0, 1);
  }
  *t_end = cpu.sim().now();
  done.fire();
}

/// One CPU thread serves every rate connection round-robin. Send
/// completions are consumed lazily on the next visit to a connection,
/// so posts on different connections pipeline; the single thread is
/// still the serializer the paper blames for the assisted plateau.
sim::SimTask rate_server(Transport& t, host::HostCpu& cpu,
                         std::uint32_t pairs, std::vector<Addr> go_flags,
                         std::vector<Addr> ack_flags, std::uint64_t total,
                         SimTime* t_end, sim::Trigger& done) {
  std::vector<std::uint64_t> served(pairs, 0);
  std::vector<std::uint32_t> outstanding(pairs, 0);
  std::uint64_t handled = 0;
  while (handled < total) {
    bool progressed = false;
    for (std::uint32_t j = 0; j < pairs; ++j) {
      if (outstanding[j] > 0) {
        if (t.tx_pending(j)) {
          co_await cpu.touch_dram();
          t.consume_tx(j);
          --outstanding[j];
          ++handled;
          progressed = true;
        } else if (t.rate_gated()) {
          continue;  // one outstanding WR per connection
        }
      }
      if (cpu.load_u64(go_flags[j]) <= served[j]) continue;
      progressed = true;
      co_await t.rate_post(j, served[j]);
      ++served[j];
      ++outstanding[j];
      co_await cpu.mmio_write_u64(ack_flags[j], served[j]);
    }
    if (!progressed) {
      co_await cpu.delay(cpu.config().cached_poll_interval);
    }
  }
  *t_end = cpu.sim().now();
  done.fire();
}

// Host-assisted GPU control block ------------------------------------------

/// The flag table + assisted-loop kernel shared by every host-assisted
/// experiment: the GPU raises `go`, the host serves the transfer and
/// writes `ack`.
struct AssistedCtl {
  Addr stats0 = 0;
  Addr table = 0;
  Addr go_flag = 0;
  Addr ack_flag = 0;
  gpu::Program prog;
};

void setup_assisted(sys::Node& n0, std::uint32_t iterations,
                    AssistedCtl& ctl) {
  ctl.stats0 = n0.gpu_heap().alloc(kStatsBytes, 64);
  ctl.table = n0.gpu_heap().alloc(24, 64);
  ctl.go_flag = n0.host_heap().alloc(8, 8);
  ctl.ack_flag = n0.gpu_heap().alloc(8, 8);
  n0.memory().write_u64(ctl.table + 0, ctl.go_flag);
  n0.memory().write_u64(ctl.table + 8, ctl.ack_flag);
  n0.memory().write_u64(ctl.table + 16, ctl.stats0);
  AssistedLoopConfig acfg;
  acfg.iterations = iterations;
  ctl.prog = build_assisted_loop_kernel(acfg);
}

}  // namespace

const char* rate_variant_name(RateVariant v) {
  switch (v) {
    case RateVariant::kBlocks:
      return "dev2dev-blocks";
    case RateVariant::kKernels:
      return "dev2dev-kernels";
    case RateVariant::kAssisted:
      return "dev2dev-assisted";
    case RateVariant::kHostControlled:
      return "dev2dev-hostControlled";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Ping-pong latency.

PingPongResult run_pingpong(Transport& t, const sys::ClusterConfig& cfg,
                            TransferMode mode, std::uint32_t size,
                            std::uint32_t iterations) {
  PingPongResult result;
  result.iterations = iterations;
  sys::Cluster cluster(cfg);
  OpSpan op([&cluster] { return cluster.now(); },
            t.pingpong_label(mode, size));
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  const bool gpu_mode = mode == TransferMode::kGpuDirect ||
                        mode == TransferMode::kGpuPollDevice;
  const bool use_notifications = mode != TransferMode::kGpuPollDevice;
  if (!t.setup_pingpong(cluster, cfg, size, use_notifications).is_ok()) {
    return result;
  }

  if (gpu_mode) {
    auto plan = t.build_gpu_pingpong(mode, size, iterations);
    const gpu::PerfCounters before = n0.gpu().counters_snapshot();
    sim::Trigger done0, done1;
    launch_with_trigger(n0.gpu(), {.program = &plan.prog0, .params = {}},
                        done0);
    launch_with_trigger(n1.gpu(), {.program = &plan.prog1, .params = {}},
                        done1);
    if (!run_to(cluster, [&] { return done0.fired() && done1.fired(); })) {
      PG_ERROR("exp", "%s pingpong (%s) did not converge", t.name(),
               t.diag_tag(mode));
      return result;
    }
    result.gpu0 = n0.gpu().counters_snapshot() - before;
    const DeviceStats st = read_device_stats(n0.memory(), plan.stats0);
    result.half_rtt_us = st.span_ns() / 1000.0 / (2.0 * iterations);
    result.post_sum_us = st.post_sum_ns / 1000.0;
    result.poll_sum_us = st.poll_sum_ns / 1000.0;
  } else if (mode == TransferMode::kHostControlled) {
    sim::Trigger done0, done1;
    const SimTime t_start = cluster.now();
    SimTime t_end = t_start;
    auto t0 = pingpong_initiator(t, n0.cpu(), iterations, &t_end, done0);
    auto t1 = pingpong_responder(t, n1.cpu(), iterations, done1);
    if (!run_to(cluster, [&] { return done0.fired() && done1.fired(); })) {
      PG_ERROR("exp", "%s host pingpong did not converge", t.name());
      return result;
    }
    result.half_rtt_us = to_us(t_end - t_start) / (2.0 * iterations);
  } else {  // kHostAssisted
    AssistedCtl ctl;
    setup_assisted(n0, iterations, ctl);
    sim::Trigger kernel_done, server_done, responder_done;
    launch_with_trigger(n0.gpu(),
                        {.program = &ctl.prog, .params = {ctl.table}},
                        kernel_done);
    auto t0 = assisted_pingpong_server(t, n0.cpu(), iterations, ctl.go_flag,
                                       ctl.ack_flag, server_done);
    auto t1 = pingpong_responder(t, n1.cpu(), iterations, responder_done);
    if (!run_to(cluster, [&] {
          return kernel_done.fired() && server_done.fired() &&
                 responder_done.fired();
        })) {
      PG_ERROR("exp", "%s assisted pingpong did not converge", t.name());
      return result;
    }
    const DeviceStats st = read_device_stats(n0.memory(), ctl.stats0);
    result.half_rtt_us = st.span_ns() / 1000.0 / (2.0 * iterations);
  }

  // Integrity: node1's landing zone must equal node0's final payload
  // (and vice versa).
  result.payload_ok = t.payload_ok_bidir(size);
  result.events_scheduled = cluster.events_scheduled();
  return result;
}

// ---------------------------------------------------------------------------
// Streaming bandwidth.

BandwidthResult run_bandwidth(Transport& t, const sys::ClusterConfig& cfg,
                              TransferMode mode, std::uint32_t size,
                              std::uint32_t messages) {
  BandwidthResult result;
  result.bytes = static_cast<std::uint64_t>(size) * messages;
  sys::Cluster cluster(cfg);
  OpSpan op([&cluster] { return cluster.now(); },
            t.bandwidth_label(mode, size));
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  if (!t.setup_stream(cluster, cfg, size).is_ok()) return result;

  double t_first_ns = 0, t_last_ns = 0;

  if (mode == TransferMode::kGpuDirect ||
      mode == TransferMode::kGpuPollDevice) {
    auto plan = t.build_gpu_stream(mode, size, messages);
    sim::Trigger send_done, recv_done;
    launch_with_trigger(n0.gpu(),
                        {.program = &plan.sender,
                         .params = plan.sender_params},
                        send_done);
    if (plan.has_receiver) {
      launch_with_trigger(n1.gpu(), {.program = &plan.receiver, .params = {}},
                          recv_done);
    }
    if (!run_to(cluster, [&] {
          return send_done.fired() &&
                 (!plan.has_receiver || recv_done.fired());
        })) {
      PG_ERROR("exp", "%s bandwidth (gpu) did not converge", t.name());
      return result;
    }
    if (plan.has_receiver) {
      t_first_ns = read_device_stats(n0.memory(), plan.stats_send).t_start_ns;
      t_last_ns = read_device_stats(n1.memory(), plan.stats_recv).t_end_ns;
    } else {
      t_last_ns = read_device_stats(n0.memory(), plan.stats_send).span_ns();
    }
  } else {
    // Host-side sender (host-controlled) or GPU-flagged sender (assisted),
    // with a host-side receiver draining completions when the backend
    // measures at the far end.
    sim::Trigger send_done, recv_done, kernel_done;
    SimTime host_t_start = 0;
    SimTime host_t_end_send = 0;
    SimTime host_t_end_recv = 0;
    std::optional<sim::SimTask> receiver;
    if (t.has_stream_drain()) {
      receiver = stream_drain(t, n1.cpu(), messages, &host_t_end_recv,
                              recv_done);
    }
    if (mode == TransferMode::kHostControlled) {
      auto send = windowed_sender(t, n0.cpu(), 0, messages, t.host_window(),
                                  &host_t_start, nullptr, &host_t_end_send,
                                  &send_done);
      if (!run_to(cluster, [&] {
            return send_done.fired() &&
                   (!t.has_stream_drain() || recv_done.fired());
          })) {
        PG_ERROR("exp", "%s bandwidth (host) did not converge", t.name());
        return result;
      }
    } else {  // kHostAssisted: flag cycle per message, window 1
      AssistedCtl ctl;
      setup_assisted(n0, messages, ctl);
      launch_with_trigger(n0.gpu(),
                          {.program = &ctl.prog, .params = {ctl.table}},
                          kernel_done);
      auto serve = assisted_stream_server(t, n0.cpu(), messages, ctl.go_flag,
                                          ctl.ack_flag, &host_t_start,
                                          &host_t_end_send, send_done);
      if (!run_to(cluster, [&] {
            return kernel_done.fired() && send_done.fired() &&
                   (!t.has_stream_drain() || recv_done.fired());
          })) {
        PG_ERROR("exp", "%s bandwidth (assisted) did not converge", t.name());
        return result;
      }
    }
    t_first_ns = to_ns(host_t_start);
    t_last_ns = to_ns(t.has_stream_drain() ? host_t_end_recv
                                           : host_t_end_send);
  }

  const double span_ns = t_last_ns - t_first_ns;
  if (span_ns > 0) {
    result.mb_per_s = static_cast<double>(result.bytes) / (span_ns / 1e9) /
                      1e6;
  }
  result.payload_ok = t.payload_ok_stream(size, messages);
  return result;
}

// ---------------------------------------------------------------------------
// Message rate.

MessageRateResult run_msgrate(Transport& t, const sys::ClusterConfig& cfg,
                              RateVariant variant, std::uint32_t pairs,
                              std::uint32_t msgs_per_pair) {
  MessageRateResult result;
  result.messages = static_cast<std::uint64_t>(pairs) * msgs_per_pair;
  constexpr std::uint32_t kMsgSize = 64;
  sys::Cluster cluster(cfg);
  OpSpan op([&cluster] { return cluster.now(); },
            t.rate_label(variant, kMsgSize));
  sys::Node& n0 = cluster.node(0);

  for (std::uint32_t i = 0; i < pairs; ++i) {
    if (!t.add_rate_conn(cluster, cfg, i, kMsgSize).is_ok()) return result;
  }

  auto gpu_span_rate = [&] {
    double t_min = 0, t_max = 0;
    for (std::uint32_t i = 0; i < pairs; ++i) {
      const DeviceStats st = read_device_stats(n0.memory(), t.rate_stats(i));
      if (i == 0 || st.t_start_ns < t_min) t_min = st.t_start_ns;
      if (i == 0 || st.t_end_ns > t_max) t_max = st.t_end_ns;
    }
    const double span_s = (t_max - t_min) / 1e9;
    if (span_s > 0) {
      result.msgs_per_s = static_cast<double>(result.messages) / span_s;
    }
  };

  if (variant == RateVariant::kBlocks || variant == RateVariant::kKernels) {
    // As the paper notes, "each block posts one put command": a kernel
    // posts one message per block, then the host relaunches it for the
    // next round (blocks variant), or each connection gets its own
    // stream of single-block kernels (kernels variant). Kernel launch
    // overhead is therefore part of the per-message cost - which is why
    // the GPU curves start so low.
    t.build_rate_gpu(variant);
    const SimTime t_start = cluster.now();
    SimTime t_end = t_start;
    if (variant == RateVariant::kBlocks) {
      sim::Trigger all_done;
      // Host relaunch loop: synchronize on the kernel, pay the driver
      // call, launch the next round.
      auto round = std::make_shared<std::function<void(std::uint32_t)>>();
      // Runs inside node0's events: its clock, not the cluster fence.
      sim::Simulation& sim0 = n0.cpu().sim();
      *round = [&, round](std::uint32_t r) {
        if (r == msgs_per_pair) {
          t_end = sim0.now();
          all_done.fire();
          return;
        }
        t.launch_rate_round([&, round, r] {
          sim0.schedule(n0.cpu().config().driver_call_cost,
                        [round, r] { (*round)(r + 1); });
        });
      };
      (*round)(0);
      const bool ok = run_to(cluster, [&] { return all_done.fired(); });
      // The closure captures `round` by value - break the self-ownership
      // cycle so the shared state is actually released.
      *round = {};
      if (!ok) return result;
    } else {
      // Kernels variant: enqueue every round up front; streams serialize
      // kernels per connection while connections overlap.
      std::uint32_t finished = 0;
      for (std::uint32_t i = 0; i < pairs; ++i) {
        for (std::uint32_t r = 0; r < msgs_per_pair; ++r) {
          t.launch_rate_stream(i, [&finished, &t_end, &n0] {
            ++finished;
            t_end = n0.cpu().sim().now();  // node0's clock, in its event
          });
        }
      }
      if (!run_to(cluster,
                  [&] { return finished == pairs * msgs_per_pair; })) {
        return result;
      }
    }
    const double span_s = to_sec(t_end - t_start);
    if (span_s > 0) {
      result.msgs_per_s = static_cast<double>(result.messages) / span_s;
    }
    return result;
  }

  if (variant == RateVariant::kAssisted) {
    // One GPU block per connection raising flags; a single CPU thread
    // serves all of them round-robin (the serialization the paper blames
    // for the assisted plateau).
    const Addr table = n0.gpu_heap().alloc(24 * pairs, 64);
    std::vector<Addr> go(pairs), ack(pairs);
    for (std::uint32_t i = 0; i < pairs; ++i) {
      go[i] = n0.host_heap().alloc(8, 8);
      ack[i] = n0.gpu_heap().alloc(8, 8);
      n0.memory().write_u64(table + i * 24 + 0, go[i]);
      n0.memory().write_u64(table + i * 24 + 8, ack[i]);
      n0.memory().write_u64(table + i * 24 + 16, t.rate_stats(i));
    }
    AssistedLoopConfig acfg;
    acfg.iterations = msgs_per_pair;
    const gpu::Program prog = build_assisted_loop_kernel(acfg);
    sim::Trigger kernel_done, server_done;
    launch_with_trigger(n0.gpu(),
                        {.program = &prog, .blocks = pairs, .params = {table}},
                        kernel_done);
    const SimTime t_start = cluster.now();
    SimTime t_end = t_start;
    auto serve = rate_server(t, n0.cpu(), pairs, go, ack, result.messages,
                             &t_end, server_done);
    if (!run_to(cluster,
                [&] { return kernel_done.fired() && server_done.fired(); })) {
      return result;
    }
    if (t.rate_span_from_device()) {
      gpu_span_rate();
    } else {
      const double span_s = to_sec(t_end - t_start);
      if (span_s > 0) {
        result.msgs_per_s = static_cast<double>(result.messages) / span_s;
      }
    }
    return result;
  }

  // kHostControlled: one host thread per connection.
  {
    std::uint32_t finished = 0;
    const SimTime t_start = cluster.now();
    SimTime t_end = t_start;
    std::vector<sim::SimTask> tasks;
    tasks.reserve(pairs);
    for (std::uint32_t i = 0; i < pairs; ++i) {
      tasks.push_back(windowed_sender(t, n0.cpu(), i, msgs_per_pair,
                                      t.host_window(), nullptr, &finished,
                                      &t_end, nullptr));
    }
    if (!run_to(cluster, [&] { return finished == pairs; })) return result;
    const double span_s = to_sec(t_end - t_start);
    if (span_s > 0) {
      result.msgs_per_s = static_cast<double>(result.messages) / span_s;
    }
  }
  return result;
}

}  // namespace pg::putget

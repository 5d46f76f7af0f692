// The Transport abstraction: everything the experiment driver needs
// from a fabric backend, factored out of the (formerly duplicated)
// EXTOLL and InfiniBand experiment runners.
//
// A Transport owns the per-run connection state - endpoint/pair setup,
// memory registration, descriptor templates - and exposes the pieces
// the generic driver composes into protocols:
//   - host-side primitives (post / wait / pre-post receive): the
//     ExtollHostPort / IbHostEndpoint CoTasks bound to one connection,
//     which inline into the driver's protocol coroutines, so a generic
//     protocol schedules exactly the events the hand-written one did;
//   - GPU plan builders that allocate stats blocks and parameter tables
//     and assemble the device kernels (put/get device routines bound to
//     the backend's queues and notification placement);
//   - policy knobs where the fabrics genuinely differ: the host posting
//     window (EXTOLL serializes on the requester notification, IB keeps
//     a 16-deep window), whether a stream has a host-side drain, and
//     where the message-rate span is measured.
//
// A Transport instance is single-use: one experiment run, then discard.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpu/program.h"
#include "mem/memory_domain.h"
#include "putget/modes.h"
#include "putget/results.h"
#include "putget/setup.h"
#include "sim/coro.h"
#include "sys/cluster.h"

namespace pg::putget {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Backend tag used in labels and diagnostics ("extoll", "ib").
  virtual const char* name() const = 0;

  // --- experiment labels (OpSpan names; must match the figure tables) ---
  virtual std::string pingpong_label(TransferMode mode,
                                     std::uint32_t size) const = 0;
  virtual std::string bandwidth_label(TransferMode mode,
                                      std::uint32_t size) const = 0;
  virtual std::string rate_label(RateVariant v, std::uint32_t size) const = 0;
  /// The variant tag printed in GPU-mode convergence diagnostics (EXTOLL
  /// reports the transfer mode, IB the queue location).
  virtual const char* diag_tag(TransferMode mode) const = 0;

  // --- connection setup (allocates buffers, registers memory) ----------
  // Each creates connection 0 (or, for rate connections, connection
  // `index`) between node0 and node1 of `cluster`.
  virtual Status setup_pingpong(sys::Cluster& cluster,
                                const sys::ClusterConfig& cfg,
                                std::uint32_t size,
                                bool use_notifications) = 0;
  virtual Status setup_stream(sys::Cluster& cluster,
                              const sys::ClusterConfig& cfg,
                              std::uint32_t size) = 0;
  virtual Status add_rate_conn(sys::Cluster& cluster,
                               const sys::ClusterConfig& cfg,
                               std::uint32_t index, std::uint32_t size) = 0;

  // --- backend policy ---------------------------------------------------
  /// Host-controlled posting window (EXTOLL 1: post/wait lock-step; IB
  /// 16: windowed with completion reaping).
  virtual std::uint32_t host_window() const = 0;
  /// True when the stream experiment runs a host-side receiver that
  /// drains completion notifications (EXTOLL); IB measures at the sender.
  virtual bool has_stream_drain() const = 0;
  /// True when the round-robin rate server must not post while a prior
  /// post on the same connection is unacknowledged (EXTOLL's one-WR-per-
  /// port rule); IB posts eagerly and reaps CQEs lazily.
  virtual bool rate_gated() const = 0;
  /// True when the assisted message-rate span comes from the device
  /// stats blocks (EXTOLL); IB uses the host server's wall clock.
  virtual bool rate_span_from_device() const = 0;

  // --- host-side protocol primitives ------------------------------------
  // All operate on connection `c`, endpoint `side` (0 = node0). They are
  // lazy CoTasks: awaiting one runs its body inline on the caller's
  // schedule, so composing them costs no extra simulation events.

  /// Pre-posts a receive for sequence number `seq` (no-op on fabrics
  /// with implicit receive, i.e. EXTOLL puts).
  virtual sim::CoTask prepost_rx(std::uint32_t c, int side,
                                 std::uint64_t seq) = 0;
  /// Posts the connection's send descriptor with sequence `seq`.
  virtual sim::CoTask post(std::uint32_t c, int side, std::uint64_t seq) = 0;
  /// Waits for the local send/requester completion (no-op when the
  /// descriptor is unsignaled).
  virtual sim::CoTask wait_tx(std::uint32_t c, int side) = 0;
  /// Waits for the next inbound message on this endpoint.
  virtual sim::CoTask wait_rx(std::uint32_t c, int side) = 0;

  /// Non-blocking probe/consume of a node0-side send completion, for the
  /// round-robin rate server (the caller charges the DRAM touch).
  virtual bool tx_pending(std::uint32_t c) = 0;
  virtual void consume_tx(std::uint32_t c) = 0;
  /// The rate server's post on connection `c` (EXTOLL prefixes the
  /// descriptor build with a DRAM touch for the flag re-read).
  virtual sim::CoTask rate_post(std::uint32_t c, std::uint64_t seq) = 0;
  /// Device stats block of rate connection `c`.
  virtual mem::Addr rate_stats(std::uint32_t c) const = 0;

  // --- GPU plans --------------------------------------------------------
  struct GpuPingPongPlan {
    gpu::Program prog0;  // initiator (node0)
    gpu::Program prog1;  // responder (node1)
    mem::Addr stats0 = 0;
  };
  virtual GpuPingPongPlan build_gpu_pingpong(TransferMode mode,
                                             std::uint32_t size,
                                             std::uint32_t iterations) = 0;

  struct GpuStreamPlan {
    gpu::Program sender;  // node0
    std::vector<std::uint64_t> sender_params;
    bool has_receiver = false;
    gpu::Program receiver;  // node1 drain kernel, when has_receiver
    mem::Addr stats_send = 0;
    mem::Addr stats_recv = 0;
  };
  virtual GpuStreamPlan build_gpu_stream(TransferMode mode,
                                         std::uint32_t size,
                                         std::uint32_t messages) = 0;

  /// Builds the per-connection parameter table and stream kernel(s) for
  /// the blocks/kernels rate variants (state is held in the transport).
  virtual void build_rate_gpu(RateVariant v) = 0;
  /// Launches one round: a put per connection; `on_done` fires when the
  /// whole round retired (blocks variant).
  virtual void launch_rate_round(std::function<void()> on_done) = 0;
  /// Enqueues one single-put kernel on connection `c`'s stream (kernels
  /// variant); `on_done` fires per kernel retirement.
  virtual void launch_rate_stream(std::uint32_t c,
                                  std::function<void()> on_done) = 0;

  // --- payload verification --------------------------------------------
  virtual bool payload_ok_bidir(std::uint32_t size) = 0;
  virtual bool payload_ok_stream(std::uint32_t size,
                                 std::uint32_t messages) = 0;
};

/// EXTOLL RMA backend: BAR-mapped work requests, notification queues.
class ExtollTransport final : public Transport {
 public:
  const char* name() const override { return "extoll"; }
  std::string pingpong_label(TransferMode mode,
                             std::uint32_t size) const override;
  std::string bandwidth_label(TransferMode mode,
                              std::uint32_t size) const override;
  std::string rate_label(RateVariant v, std::uint32_t size) const override;
  const char* diag_tag(TransferMode mode) const override;

  Status setup_pingpong(sys::Cluster& cluster, const sys::ClusterConfig& cfg,
                        std::uint32_t size, bool use_notifications) override;
  Status setup_stream(sys::Cluster& cluster, const sys::ClusterConfig& cfg,
                      std::uint32_t size) override;
  Status add_rate_conn(sys::Cluster& cluster, const sys::ClusterConfig& cfg,
                       std::uint32_t index, std::uint32_t size) override;

  std::uint32_t host_window() const override { return 1; }
  bool has_stream_drain() const override { return true; }
  bool rate_gated() const override { return true; }
  bool rate_span_from_device() const override { return true; }

  sim::CoTask prepost_rx(std::uint32_t c, int side,
                         std::uint64_t seq) override;
  sim::CoTask post(std::uint32_t c, int side, std::uint64_t seq) override;
  sim::CoTask wait_tx(std::uint32_t c, int side) override;
  sim::CoTask wait_rx(std::uint32_t c, int side) override;
  bool tx_pending(std::uint32_t c) override;
  void consume_tx(std::uint32_t c) override;
  sim::CoTask rate_post(std::uint32_t c, std::uint64_t seq) override;
  mem::Addr rate_stats(std::uint32_t c) const override;

  GpuPingPongPlan build_gpu_pingpong(TransferMode mode, std::uint32_t size,
                                     std::uint32_t iterations) override;
  GpuStreamPlan build_gpu_stream(TransferMode mode, std::uint32_t size,
                                 std::uint32_t messages) override;
  void build_rate_gpu(RateVariant v) override;
  void launch_rate_round(std::function<void()> on_done) override;
  void launch_rate_stream(std::uint32_t c,
                          std::function<void()> on_done) override;

  bool payload_ok_bidir(std::uint32_t size) override;
  bool payload_ok_stream(std::uint32_t size, std::uint32_t messages) override;

 private:
  struct Conn {
    ExtollPair pair;
    extoll::WorkRequest wr0;  // node0 -> node1
    extoll::WorkRequest wr1;  // node1 -> node0
    mem::Addr stats = 0;      // rate connections only
  };
  host::HostCpu& cpu(int side);
  ExtollHostPort& port(std::uint32_t c, int side);
  const extoll::WorkRequest& wr(std::uint32_t c, int side) const;

  sys::Cluster* cluster_ = nullptr;
  std::uint32_t qmask_ = 0;
  std::uint32_t size_ = 0;
  std::vector<Conn> conns_;
  gpu::Program rate_prog_;
  mem::Addr rate_table_ = 0;
};

/// InfiniBand verbs backend: WQE rings + doorbells, CQE completion.
class IbTransport final : public Transport {
 public:
  explicit IbTransport(QueueLocation location) : location_(location) {}

  const char* name() const override { return "ib"; }
  std::string pingpong_label(TransferMode mode,
                             std::uint32_t size) const override;
  std::string bandwidth_label(TransferMode mode,
                              std::uint32_t size) const override;
  std::string rate_label(RateVariant v, std::uint32_t size) const override;
  const char* diag_tag(TransferMode mode) const override;

  Status setup_pingpong(sys::Cluster& cluster, const sys::ClusterConfig& cfg,
                        std::uint32_t size, bool use_notifications) override;
  Status setup_stream(sys::Cluster& cluster, const sys::ClusterConfig& cfg,
                      std::uint32_t size) override;
  Status add_rate_conn(sys::Cluster& cluster, const sys::ClusterConfig& cfg,
                       std::uint32_t index, std::uint32_t size) override;

  std::uint32_t host_window() const override { return 16; }
  bool has_stream_drain() const override { return false; }
  bool rate_gated() const override { return false; }
  bool rate_span_from_device() const override { return false; }

  sim::CoTask prepost_rx(std::uint32_t c, int side,
                         std::uint64_t seq) override;
  sim::CoTask post(std::uint32_t c, int side, std::uint64_t seq) override;
  sim::CoTask wait_tx(std::uint32_t c, int side) override;
  sim::CoTask wait_rx(std::uint32_t c, int side) override;
  bool tx_pending(std::uint32_t c) override;
  void consume_tx(std::uint32_t c) override;
  sim::CoTask rate_post(std::uint32_t c, std::uint64_t seq) override;
  mem::Addr rate_stats(std::uint32_t c) const override;

  GpuPingPongPlan build_gpu_pingpong(TransferMode mode, std::uint32_t size,
                                     std::uint32_t iterations) override;
  GpuStreamPlan build_gpu_stream(TransferMode mode, std::uint32_t size,
                                 std::uint32_t messages) override;
  void build_rate_gpu(RateVariant v) override;
  void launch_rate_round(std::function<void()> on_done) override;
  void launch_rate_stream(std::uint32_t c,
                          std::function<void()> on_done) override;

  bool payload_ok_bidir(std::uint32_t size) override;
  bool payload_ok_stream(std::uint32_t size, std::uint32_t messages) override;

 private:
  struct Conn {
    IbPair pair;
    ib::SendWqe wqe0;  // node0 -> node1 descriptor template
    ib::SendWqe wqe1;  // node1 -> node0
    bool tx_signaled = false;  // wait_tx reaps a CQE (stream protocols)
    mem::Addr stats = 0;       // rate connections only
    mem::Addr qpc = 0;         // rate connections: device QP context
  };
  host::HostCpu& cpu(int side);
  IbHostEndpoint& ep(std::uint32_t c, int side);

  QueueLocation location_;
  sys::Cluster* cluster_ = nullptr;
  std::uint32_t size_ = 0;
  std::vector<Conn> conns_;
  std::vector<gpu::Program> rate_progs_;
  mem::Addr rate_table_ = 0;
};

}  // namespace pg::putget

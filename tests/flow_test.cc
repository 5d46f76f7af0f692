// Tests for the message-lifecycle subsystem (src/obs/flow.h): chain-edge
// stage bookkeeping, correlation channels and unit resets; and, end to
// end through the simulator: the Chrome-trace flow arrows are
// well-formed, attaching the flow table never perturbs simulated
// results, per-stage sums reconcile with the end-to-end latency, and the
// stage attribution reproduces the paper's poll-over-PCIe explanation of
// the direct-mode gap on both fabrics.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "obs/flow.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "putget/extoll_experiments.h"
#include "putget/ib_experiments.h"
#include "putget/modes.h"
#include "shmem/workloads.h"
#include "sys/testbed.h"

namespace pg {
namespace {

using obs::FlowTable;
using putget::QueueLocation;
using putget::TransferMode;

/// Attaches a FlowTable (and optionally a TraceRecorder) for the scope
/// of one test, detaching even when an assertion fails mid-test.
struct ScopedSinks {
  explicit ScopedSinks(FlowTable* ft, obs::TraceRecorder* rec = nullptr) {
    obs::attach_flows(ft);
    if (rec != nullptr) obs::attach_recorder(rec);
  }
  ~ScopedSinks() {
    obs::attach_recorder(nullptr);
    obs::attach_flows(nullptr);
  }
};

std::uint64_t stage_sum(const FlowTable::Breakdown& b, const char* name) {
  for (const auto& s : b.stages) {
    if (s.name == name) return s.ns.sum();
  }
  return 0;
}

std::uint64_t total_stage_sum(const FlowTable::Breakdown& b) {
  std::uint64_t total = 0;
  for (const auto& s : b.stages) total += s.ns.sum();
  return total;
}

// ---------------------------------------------------------------------------
// FlowTable unit tests.

TEST(FlowTable, ChainEdgeStagesSumToEndToEnd) {
  FlowTable ft;
  const obs::FlowId id = ft.begin(nanoseconds(100));
  ft.stage(id, "a", "post", nanoseconds(250));
  ft.stage(id, "b", "wire", nanoseconds(400));
  // An out-of-order stamp clamps to a zero-length stage instead of going
  // negative or rewinding the cursor.
  ft.stage(id, "b", "late", nanoseconds(300));
  ft.end(id, "b", nanoseconds(400));

  ASSERT_EQ(ft.breakdowns().size(), 1u);  // the implicit "sim" unit
  const FlowTable::Breakdown& b = ft.breakdowns().front();
  EXPECT_EQ(b.completed, 1u);
  EXPECT_EQ(b.abandoned, 0u);
  EXPECT_EQ(b.e2e_ns.sum(), 300u);
  ASSERT_EQ(b.stages.size(), 3u);  // first-stamped order
  EXPECT_EQ(b.stages[0].name, "post");
  EXPECT_EQ(b.stages[1].name, "wire");
  EXPECT_EQ(b.stages[2].name, "late");
  EXPECT_EQ(stage_sum(b, "post"), 150u);
  EXPECT_EQ(stage_sum(b, "wire"), 150u);
  EXPECT_EQ(stage_sum(b, "late"), 0u);
  EXPECT_EQ(total_stage_sum(b), b.e2e_ns.sum());
}

TEST(FlowTable, RepeatedStageNamesAccumulate) {
  FlowTable ft;
  const obs::FlowId id = ft.begin(0);
  ft.stage(id, "nic", "nic_fetch", nanoseconds(10));
  ft.stage(id, "nic", "wire", nanoseconds(30));
  ft.stage(id, "nic", "nic_fetch", nanoseconds(70));  // responder re-fetch
  ft.end(id, "nic", nanoseconds(70));
  const FlowTable::Breakdown& b = ft.breakdowns().front();
  ASSERT_EQ(b.stages.size(), 2u);
  EXPECT_EQ(stage_sum(b, "nic_fetch"), 50u);  // 10 + 40
  EXPECT_EQ(stage_sum(b, "wire"), 20u);
  EXPECT_EQ(total_stage_sum(b), b.e2e_ns.sum());
}

TEST(FlowTable, ChannelsAreFifoPerKey) {
  FlowTable ft;
  const obs::FlowId a = ft.begin(0);
  const obs::FlowId b = ft.begin(0);
  EXPECT_NE(a, b);
  EXPECT_EQ(ft.pop(42), 0u);  // empty channel
  ft.push(42, a);
  ft.push(42, b);
  ft.push(7, b);
  EXPECT_EQ(ft.channel_depth(42), 2u);
  EXPECT_EQ(ft.pop(42), a);
  EXPECT_EQ(ft.pop(42), b);
  EXPECT_EQ(ft.pop(42), 0u);
  EXPECT_EQ(ft.pop(7), b);
}

TEST(FlowTable, BeginUnitAbandonsOpenFlowsAndClearsChannels) {
  FlowTable ft;
  const obs::FlowId a = ft.begin(0);
  const obs::FlowId b = ft.begin(0);
  ft.push(9, a);
  ft.end(b, "x", nanoseconds(5));
  ft.begin_unit("next-run");
  ASSERT_EQ(ft.breakdowns().size(), 2u);
  EXPECT_EQ(ft.breakdowns()[0].completed, 1u);
  EXPECT_EQ(ft.breakdowns()[0].abandoned, 1u);
  EXPECT_EQ(ft.pop(9), 0u);  // stale correlation state dropped
  ASSERT_NE(ft.find("next-run"), nullptr);
  EXPECT_EQ(ft.find("next-run")->completed, 0u);
  EXPECT_EQ(ft.open_flows(), 0u);
}

TEST(FlowTable, SnapshotJsonWellFormedWithQuantiles) {
  FlowTable ft;
  ft.begin_unit("unit-with-data");
  for (int i = 0; i < 4; ++i) {
    const obs::FlowId id = ft.begin(0);
    ft.stage(id, "nic", "post", nanoseconds(100 + i));
    ft.end(id, "nic", nanoseconds(100 + i));
  }
  ft.begin_unit("unit-empty");  // must be skipped, not emitted broken
  const std::string json = ft.snapshot_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("unit-with-data"), std::string::npos);
  EXPECT_EQ(json.find("unit-empty"), std::string::npos);
  for (const char* q : {"\"p50\"", "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(q), std::string::npos) << q;
  }
}

// The detached helpers must be safe no-ops (model code calls them
// unconditionally on hot paths).
TEST(FlowTable, DetachedHelpersAreNoOps) {
  ASSERT_EQ(obs::flows(), nullptr);
  EXPECT_EQ(obs::flow_begin(0), 0u);
  EXPECT_EQ(obs::flow_pop(123), 0u);
  obs::flow_push(123, 5);
  obs::flow_stage(5, "x", "post", nanoseconds(1));
  obs::flow_end(5, "x", nanoseconds(1));
  obs::flow_step(5, "x", nanoseconds(1));
}

// ---------------------------------------------------------------------------
// Satellite hardening: zero-event trace units and histogram quantiles.

TEST(TraceRecorder, ZeroEventUnitStillEmitsValidJson) {
  obs::TraceRecorder rec;
  rec.begin_unit("empty-unit");
  EXPECT_EQ(rec.event_count(), 0u);
  const std::string json = rec.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  // The explicitly-begun unit keeps its process_name metadata.
  EXPECT_NE(json.find("empty-unit"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Metrics, HistogramSnapshotHasQuantiles) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("lat_ns");
  for (std::uint64_t v = 1; v <= 4096; v *= 2) h.record(v);
  const std::string json = reg.snapshot_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  for (const char* q : {"\"p50\"", "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(q), std::string::npos) << q;
  }
}

// ---------------------------------------------------------------------------
// Flow arrows in the exported Chrome trace: every announce ('s') must
// have exactly one terminator ('f') with the same (unit, id), and ids
// never repeat within a unit.

/// Parses `"key":N` out of one serialized trace event line.
std::uint64_t field_u64(const std::string& line, const char* key) {
  const auto pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(line.c_str() + pos + std::strlen(key), nullptr, 10);
}

TEST(FlowEvents, EveryAnnounceHasExactlyOneTerminator) {
  FlowTable ft;
  obs::TraceRecorder rec;
  {
    ScopedSinks sinks(&ft, &rec);
    const auto r = putget::run_extoll_pingpong(
        sys::extoll_testbed(), TransferMode::kGpuDirect, 64, 4);
    ASSERT_TRUE(r.payload_ok);
  }
  const std::string json = rec.to_json();
  ASSERT_TRUE(obs::json_valid(json));

  // (unit, flow id) -> {announces, steps, terminators}.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::array<int, 3>> flows;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    int kind = -1;
    if (line.rfind("{\"ph\":\"s\"", 0) == 0) kind = 0;
    if (line.rfind("{\"ph\":\"t\"", 0) == 0) kind = 1;
    if (line.rfind("{\"ph\":\"f\"", 0) == 0) kind = 2;
    if (kind < 0) continue;
    const std::uint64_t pid = field_u64(line, "\"pid\":");
    const std::uint64_t id = field_u64(line, ",\"id\":");
    ++flows[{pid, id}][static_cast<std::size_t>(kind)];
  }
  ASSERT_FALSE(flows.empty());
  for (const auto& [key, counts] : flows) {
    EXPECT_EQ(counts[0], 1) << "flow " << key.second << " in unit "
                            << key.first << ": duplicate or missing 's'";
    EXPECT_EQ(counts[2], 1) << "flow " << key.second << " in unit "
                            << key.first << ": duplicate or missing 'f'";
  }
}

// ---------------------------------------------------------------------------
// Lifecycle tracking is passive: attaching the flow table changes no
// simulated result, for the two-node experiments and the N=3 ring.

TEST(FlowParity, PingpongUnperturbedBothFabrics) {
  const auto ext_cfg = sys::extoll_testbed();
  const auto ib_cfg = sys::ib_testbed();
  const auto ext_plain =
      putget::run_extoll_pingpong(ext_cfg, TransferMode::kGpuDirect, 64, 4);
  const auto ib_plain = putget::run_ib_pingpong(
      ib_cfg, TransferMode::kGpuDirect, QueueLocation::kHostMemory, 64, 4);
  ASSERT_TRUE(ext_plain.payload_ok);
  ASSERT_TRUE(ib_plain.payload_ok);

  FlowTable ft;
  ScopedSinks sinks(&ft);
  const auto ext_traced =
      putget::run_extoll_pingpong(ext_cfg, TransferMode::kGpuDirect, 64, 4);
  const auto ib_traced = putget::run_ib_pingpong(
      ib_cfg, TransferMode::kGpuDirect, QueueLocation::kHostMemory, 64, 4);

  EXPECT_EQ(ext_traced.half_rtt_us, ext_plain.half_rtt_us);
  EXPECT_EQ(ext_traced.events_scheduled, ext_plain.events_scheduled);
  EXPECT_EQ(ext_traced.gpu0.instructions_executed,
            ext_plain.gpu0.instructions_executed);
  EXPECT_EQ(ib_traced.half_rtt_us, ib_plain.half_rtt_us);
  EXPECT_EQ(ib_traced.events_scheduled, ib_plain.events_scheduled);
  EXPECT_EQ(ib_traced.gpu0.instructions_executed,
            ib_plain.gpu0.instructions_executed);
}

TEST(FlowParity, RingN3Unperturbed) {
  shmem::Halo2dConfig cfg;
  cfg.topology = net::Topology::kRing;
  cfg.px = 3;
  cfg.py = 1;
  cfg.iterations = 8;

  const auto plain = shmem::run_halo2d(cfg);
  ASSERT_TRUE(plain.verified);

  FlowTable ft;
  ScopedSinks sinks(&ft);
  const auto traced = shmem::run_halo2d(cfg);
  ASSERT_TRUE(traced.verified);
  EXPECT_EQ(traced.checksum, plain.checksum);
  EXPECT_EQ(traced.events_executed, plain.events_executed);
  EXPECT_EQ(traced.sim_time_us, plain.sim_time_us);
  EXPECT_EQ(traced.notified_total, plain.notified_total);

  // And the run was actually tracked: one completed flow per halo put.
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;
  for (const FlowTable::Breakdown& b : ft.breakdowns()) {
    completed += b.completed;
    abandoned += b.abandoned;
  }
  EXPECT_EQ(completed, plain.halo_puts);
  EXPECT_EQ(abandoned, 0u);
}

// Every halo put's lifecycle closes exactly once on both fabrics, and an
// IB post stage ends when the HCA fetches that put's WQE. If a post
// opened two flows for one WQE, the fetch would claim only one; the
// other would wait in the doorbell channel for a later post's fetch (a
// post stage of milliseconds), and the last of each endpoint would be
// abandoned.
TEST(FlowParity, HaloFlowsCloseOnBothFabrics) {
  struct Shape {
    net::Topology topology;
    int px, py;
  };
  const Shape shapes[] = {{net::Topology::kFullMesh, 2, 2},
                          {net::Topology::kRing, 3, 1}};
  for (const sys::Backend backend :
       {sys::Backend::kExtoll, sys::Backend::kIb}) {
    for (const Shape& shape : shapes) {
      shmem::Halo2dConfig cfg;
      cfg.backend = backend;
      cfg.topology = shape.topology;
      cfg.px = shape.px;
      cfg.py = shape.py;
      cfg.nx = 4;
      cfg.ny = 4;
      cfg.iterations = 2;
      const std::string what = std::string(sys::backend_name(backend)) + " " +
                               std::to_string(shape.px) + "x" +
                               std::to_string(shape.py);
      FlowTable ft;
      ScopedSinks sinks(&ft);
      const auto r = shmem::run_halo2d(cfg);
      ASSERT_TRUE(r.verified) << what << ": " << r.error;
      // A unit's abandoned count is taken when the next one begins, so
      // the run's own unit shows up as flows still open.
      EXPECT_EQ(ft.open_flows(), 0u) << what;
      // On the ring each QP carries one put per iteration, so its post
      // stage is the host post alone. On the 2x2 mesh a PE's two puts to
      // one peer share a QP, and the second one's post stage also waits
      // for the send engine to finish the first (~5 us).
      const std::uint64_t post_max_ns = shape.py == 1 ? 1000 : 10000;
      std::uint64_t completed = 0;
      for (const FlowTable::Breakdown& b : ft.breakdowns()) {
        EXPECT_EQ(b.abandoned, 0u) << what << " unit " << b.label;
        completed += b.completed;
        if (backend != sys::Backend::kIb) continue;
        for (const auto& st : b.stages) {
          if (st.name != "post") continue;
          EXPECT_LT(st.ns.percentile(0.50), 1000u) << what;
          EXPECT_LT(st.ns.max(), post_max_ns) << what;
        }
      }
      // IB signaled send completions carry a lifecycle leg of their own.
      const std::uint64_t legs = backend == sys::Backend::kIb ? 2 : 1;
      EXPECT_EQ(completed, legs * r.halo_puts) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// The decomposition itself: stage sums reconcile with the end-to-end
// latency, and the direct-vs-hostControlled gap at small sizes is
// attributed to poll_detect on both fabrics (the paper's Sec. V.C /
// Tables 1-2 explanation).

void expect_reconciles(const FlowTable& ft, const std::string& label) {
  const FlowTable::Breakdown* b = ft.find(label);
  ASSERT_NE(b, nullptr) << label;
  ASSERT_GT(b->completed, 0u) << label;
  EXPECT_EQ(b->abandoned, 0u) << label;
  const double e2e = static_cast<double>(b->e2e_ns.sum());
  const double sum = static_cast<double>(total_stage_sum(*b));
  EXPECT_NEAR(sum, e2e, 0.02 * e2e) << label;
}

TEST(Breakdown, StageSumsReconcileWithEndToEnd) {
  FlowTable ft;
  ScopedSinks sinks(&ft);
  const auto r0 = putget::run_extoll_pingpong(
      sys::extoll_testbed(), TransferMode::kGpuDirect, 64, 6);
  ASSERT_TRUE(r0.payload_ok);
  const auto r1 = putget::run_ib_pingpong(
      sys::ib_testbed(), TransferMode::kGpuDirect, QueueLocation::kHostMemory,
      64, 6);
  ASSERT_TRUE(r1.payload_ok);
  expect_reconciles(ft, putget::op_label("extoll-pingpong",
                                         TransferMode::kGpuDirect, 64));
  expect_reconciles(
      ft, putget::op_label("ib-pingpong",
                           putget::transfer_mode_name(TransferMode::kGpuDirect),
                           64) +
              "/" + putget::queue_location_name(QueueLocation::kHostMemory));
}

/// Per-message mean of one stage, charging completion legs to the
/// message that caused them (2 messages per ping-pong iteration).
double per_msg_us(const FlowTable::Breakdown& b, const char* stage,
                  std::uint32_t iterations) {
  return static_cast<double>(stage_sum(b, stage)) /
         (2.0 * static_cast<double>(iterations)) / 1000.0;
}

TEST(Breakdown, PollDetectDominatesDirectGapOnBothFabrics) {
  constexpr std::uint32_t kIters = 8;
  constexpr std::uint32_t kSize = 8;
  static const char* const kStages[] = {"post",         "nic_fetch",
                                        "wire",         "remote_dma",
                                        "notify_write", "poll_detect"};
  FlowTable ft;
  ScopedSinks sinks(&ft);

  struct GapCase {
    const char* fabric;
    std::string direct_label;
    std::string host_label;
  };
  std::vector<GapCase> cases;

  {
    const auto cfg = sys::extoll_testbed();
    ASSERT_TRUE(putget::run_extoll_pingpong(cfg, TransferMode::kGpuDirect,
                                            kSize, kIters)
                    .payload_ok);
    ASSERT_TRUE(putget::run_extoll_pingpong(cfg, TransferMode::kHostControlled,
                                            kSize, kIters)
                    .payload_ok);
    cases.push_back(
        {"extoll",
         putget::op_label("extoll-pingpong", TransferMode::kGpuDirect, kSize),
         putget::op_label("extoll-pingpong", TransferMode::kHostControlled,
                          kSize)});
  }
  {
    const auto cfg = sys::ib_testbed();
    ASSERT_TRUE(putget::run_ib_pingpong(cfg, TransferMode::kGpuDirect,
                                        QueueLocation::kHostMemory, kSize,
                                        kIters)
                    .payload_ok);
    ASSERT_TRUE(putget::run_ib_pingpong(cfg, TransferMode::kHostControlled,
                                        QueueLocation::kHostMemory, kSize,
                                        kIters)
                    .payload_ok);
    const std::string loc = putget::queue_location_name(
        QueueLocation::kHostMemory);
    cases.push_back(
        {"ib",
         putget::op_label("ib-pingpong",
                          putget::transfer_mode_name(TransferMode::kGpuDirect),
                          kSize) +
             "/" + loc,
         putget::op_label(
             "ib-pingpong",
             putget::transfer_mode_name(TransferMode::kHostControlled),
             kSize) +
             "/" + loc});
  }

  for (const GapCase& c : cases) {
    const FlowTable::Breakdown* direct = ft.find(c.direct_label);
    const FlowTable::Breakdown* host = ft.find(c.host_label);
    ASSERT_NE(direct, nullptr) << c.direct_label;
    ASSERT_NE(host, nullptr) << c.host_label;

    const double gap =
        (static_cast<double>(direct->e2e_ns.sum()) -
         static_cast<double>(host->e2e_ns.sum())) /
        (2.0 * kIters) / 1000.0;
    EXPECT_GT(gap, 0.0) << c.fabric
                        << ": direct mode should be slower at small sizes";
    const char* top = nullptr;
    double top_delta = 0.0;
    for (const char* stage : kStages) {
      const double delta =
          per_msg_us(*direct, stage, kIters) - per_msg_us(*host, stage, kIters);
      if (top == nullptr || delta > top_delta) {
        top = stage;
        top_delta = delta;
      }
    }
    EXPECT_STREQ(top, "poll_detect")
        << c.fabric << ": gap of " << gap << " us not poll-dominated";
    EXPECT_GT(top_delta, 0.5 * gap) << c.fabric;
  }
}

}  // namespace
}  // namespace pg

// Tracked simulator-performance baseline.
//
// Measures the host-time cost of the simulation hot paths (event
// engine, parked-poller settle, PTX-lite interpreter, sparse memory),
// the end-to-end wall-clock of the two heaviest figure sweeps, and the
// parallel-engine scaling matrix (the halo workload on a ring of PEs,
// nodes x threads, every cell hard-gated to the threads=1 fingerprint),
// and writes the numbers to a JSON file (default BENCH_simcore.json) so
// CI can archive them and regressions show up as a diff, not an
// anecdote.
//
//   simcore_perf [--json=FILE]
//
// Workloads are fixed-size, so two runs on the same machine are directly
// comparable; compare ratios, not absolute numbers, across machines.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gpu/assembler.h"
#include "gpu/device.h"
#include "mem/sparse_memory.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcie/fabric.h"
#include "putget/extoll_experiments.h"
#include "shmem/workloads.h"
#include "sim/coro.h"
#include "sim/simulation.h"
#include "sys/testbed.h"

namespace {

using namespace pg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Event engine: steady-state schedule+dispatch cost per event. 512
/// self-rescheduling chains keep the heap at a realistic in-flight
/// depth (an experiment's concurrent transactions) instead of measuring
/// one giant fill-and-drain.
double bench_event_queue_ns(std::uint64_t* events_out) {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr unsigned kChains = 512;
  sim::Simulation sim;
  std::uint64_t remaining = kEvents;
  struct Pump {
    sim::Simulation* sim;
    std::uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      sim->schedule(100, *this);
    }
  };
  const auto start = Clock::now();
  for (unsigned c = 0; c < kChains; ++c) {
    sim.schedule(static_cast<SimDuration>(c), Pump{&sim, &remaining});
  }
  sim.run();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  *events_out = kEvents;
  return ns / static_cast<double>(kEvents);
}

sim::SimTask wait_for_flag(sim::Simulation& sim, const bool& flag) {
  co_await sim::PollUntil{sim, [&flag] { return flag; }, nanoseconds(60)};
}

/// Parked-poller settle: host ns per due poller credited. 32 PollUntil
/// loops with one interval (60 ns, staggered phases) wait on a flag that
/// a self-rescheduling event chain sets after its last event. The
/// chain's 500 ns period spans several probes, so every chain event
/// settles all 32 pollers as one batch; its own dispatch cost is shared
/// among them.
double bench_settle_ns_per_due_poller(std::uint64_t* credits_out) {
  constexpr std::uint64_t kEvents = 100'000;
  constexpr unsigned kPollers = 32;
  sim::Simulation sim;
  bool flag = false;
  std::vector<sim::SimTask> tasks;
  for (unsigned p = 0; p < kPollers; ++p) {
    sim.schedule(nanoseconds(p), [&sim, &flag, &tasks] {
      tasks.push_back(wait_for_flag(sim, flag));
    });
  }
  std::uint64_t remaining = kEvents;
  struct Pump {
    sim::Simulation* sim;
    std::uint64_t* remaining;
    bool* flag;
    void operator()() const {
      if (--*remaining == 0) {
        *flag = true;
        return;
      }
      sim->schedule(nanoseconds(500), *this);
    }
  };
  sim.schedule(nanoseconds(kPollers), Pump{&sim, &remaining, &flag});
  const auto start = Clock::now();
  sim.run();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  // Every chain event but the first (at 32 ns, before any probe is due)
  // settles one batch.
  *credits_out = (kEvents - 1) * kPollers;
  return ns / static_cast<double>(*credits_out);
}

/// Interpreter: a tight dependent ALU loop, the instruction mix the
/// device put/get library spends its time in between memory operations.
double bench_interpreter_instr_per_s(std::uint64_t* instrs_out) {
  gpu::Assembler a("alu_loop");
  const gpu::Reg n(8), x(9), p(10);
  a.movi(n, 0);
  a.movi(x, 1);
  a.bind("loop");
  a.muli(x, x, 3);
  a.addi(x, x, 7);
  a.xor_(x, x, n);
  a.addi(n, n, 1);
  a.setpi(gpu::Cmp::kLt, p, n, 10000);
  a.bra_if(p, "loop");
  a.exit();
  auto prog = a.finish();
  constexpr int kReps = 50;
  std::uint64_t instrs = 0;
  const auto start = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Simulation sim;
    mem::MemoryDomain memory;
    pcie::Fabric fabric(sim, memory, pcie::FabricConfig{});
    gpu::Gpu gpu(sim, fabric, memory, gpu::GpuConfig{}, "bench");
    bool done = false;
    gpu.launch({.program = &prog.value(), .params = {}},
               [&done] { done = true; });
    sim.run_until_condition([&] { return done; });
    instrs += gpu.counters().instructions_executed;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  *instrs_out = instrs;
  return static_cast<double>(instrs) / secs;
}

/// Sparse memory: streaming 8-byte stores then loads over a 64 MiB
/// region (page-allocating on the way in, cache-hitting on the way out).
double bench_memory_mb_per_s(std::uint64_t* bytes_out) {
  constexpr std::uint64_t kBytes = 64 * MiB;
  mem::SparseMemory m(kBytes);
  const auto start = Clock::now();
  for (std::uint64_t off = 0; off < kBytes; off += 8) {
    m.write_u64(off, off * 0x9e3779b97f4a7c15ull);
  }
  std::uint64_t sink = 0;
  for (std::uint64_t off = 0; off < kBytes; off += 8) {
    sink ^= m.read_u64(off);
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  // Keep the reads alive without polluting stdout.
  if (sink == 0xdeadbeef) std::fprintf(stderr, "sink\n");
  *bytes_out = 2 * kBytes;
  return static_cast<double>(2 * kBytes) / (1024.0 * 1024.0) / secs;
}

/// End-to-end: the Fig. 1a latency sweep (all four transfer modes).
double bench_fig1_wall_ms() {
  using putget::TransferMode;
  const auto cfg = sys::extoll_testbed();
  const TransferMode modes[] = {
      TransferMode::kGpuDirect, TransferMode::kGpuPollDevice,
      TransferMode::kHostAssisted, TransferMode::kHostControlled};
  const auto start = Clock::now();
  for (std::uint32_t size : {4u, 16u, 64u, 256u, 1024u, 4096u, 16384u,
                             65536u, 262144u}) {
    const std::uint32_t iters = size >= 65536 ? 20 : 40;
    for (TransferMode mode : modes) {
      const auto r = putget::run_extoll_pingpong(cfg, mode, size, iters);
      if (!r.payload_ok) {
        std::fprintf(stderr, "fig1 workload FAILED at %u bytes\n", size);
        std::exit(1);
      }
    }
  }
  return ms_since(start);
}

/// End-to-end: the Fig. 2 message-rate sweep (all four variants).
double bench_fig2_wall_ms() {
  using putget::RateVariant;
  const auto cfg = sys::extoll_testbed();
  const RateVariant variants[] = {
      RateVariant::kBlocks, RateVariant::kKernels, RateVariant::kAssisted,
      RateVariant::kHostControlled};
  const auto start = Clock::now();
  for (std::uint32_t pairs : {1u, 2u, 4u, 8u, 16u, 24u, 32u}) {
    for (RateVariant v : variants) {
      const auto r = putget::run_extoll_msgrate(cfg, v, pairs, 40);
      if (r.msgs_per_s <= 0) {
        std::fprintf(stderr, "fig2 workload FAILED at %u pairs\n", pairs);
        std::exit(1);
      }
    }
  }
  return ms_since(start);
}

// --- Parallel-engine scaling matrix --------------------------------

// One cell of the PDES matrix: the halo-exchange workload on an N x 1
// ring of PEs at a given cluster size and worker count.
struct PdesCell {
  int nodes = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;  // vs the threads=1 cell of the same node count
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;
};

// The tile edge sets the grain: the GPU work each shard runs between
// two fabric exchanges. Small tiles with many iterations keep the run
// communication/poll-dominated, where engine cost (scheduling, heap
// discipline, window synchronization) is the bill being measured.
constexpr std::uint32_t kPdesTile = 8;
constexpr std::uint32_t kPdesIters = 40;
// Timing reps per (nodes, threads) cell. Reps are interleaved across
// thread counts and the minimum wall per cell is reported — the
// standard estimator for "cost of the work itself" on a machine with
// background load (every source of noise only ever adds time).
constexpr int kPdesReps = 12;

/// One timed run of the N-node EXTOLL ring workload on `threads` engine
/// workers. The checksum/fingerprint of every run is hard-gated against
/// threads=1 by the caller: the parallel engine must be byte-equivalent,
/// not just fast.
PdesCell run_pdes_once(int nodes, int threads) {
  shmem::Halo2dConfig cfg;
  cfg.backend = putget::RmaBackend::kExtoll;
  cfg.topology = net::Topology::kRing;
  cfg.px = nodes;
  cfg.py = 1;
  cfg.nx = kPdesTile;
  cfg.ny = kPdesTile;
  cfg.iterations = kPdesIters;
  cfg.threads = threads;
  const auto start = Clock::now();
  const shmem::Halo2dResult r = shmem::run_halo2d(cfg);
  PdesCell cell;
  cell.nodes = nodes;
  cell.threads = threads;
  cell.wall_ms = ms_since(start);
  cell.checksum = r.checksum;
  cell.events = r.events_executed;
  if (!r.verified || r.notified_total != r.halo_puts) {
    std::fprintf(stderr, "pdes ring FAILED at nodes=%d threads=%d\n", nodes,
                 threads);
    std::exit(1);
  }
  return cell;
}

/// The full matrix, with the determinism gate: any run whose checksum or
/// event fingerprint differs from threads=1 fails the bench. Reps
/// alternate thread counts back-to-back so a load spike hits every
/// configuration equally instead of biasing one column.
std::vector<PdesCell> bench_pdes_matrix() {
  constexpr int kThreads[] = {1, 2, 4, 8};
  std::vector<PdesCell> cells;
  for (int nodes : {2, 4, 8}) {
    PdesCell best[4];
    for (int rep = 0; rep < kPdesReps; ++rep) {
      for (std::size_t t = 0; t < 4; ++t) {
        const PdesCell c = run_pdes_once(nodes, kThreads[t]);
        if (c.checksum != best[0].checksum || c.events != best[0].events) {
          if (rep == 0 && t == 0) {  // first run defines the fingerprint
            best[0] = c;
            continue;
          }
          std::fprintf(stderr,
                       "pdes DETERMINISM FAILURE at nodes=%d threads=%d: "
                       "checksum %llu vs %llu, events %llu vs %llu\n",
                       nodes, kThreads[t],
                       static_cast<unsigned long long>(c.checksum),
                       static_cast<unsigned long long>(best[0].checksum),
                       static_cast<unsigned long long>(c.events),
                       static_cast<unsigned long long>(best[0].events));
          std::exit(1);
        }
        if (best[t].nodes == 0 || c.wall_ms < best[t].wall_ms) best[t] = c;
      }
    }
    for (std::size_t t = 0; t < 4; ++t) {
      best[t].speedup = best[0].wall_ms / best[t].wall_ms;
      cells.push_back(best[t]);
    }
  }
  return cells;
}

// --- Traced scaling -------------------------------------------------

// One cell of the traced matrix: the same ring workload with every
// observability sink attached (trace + metrics + flows). The gate below
// requires the serialized output of every sink to be byte-identical
// across thread counts.
struct TracedCell {
  int threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;  // vs the one-worker cell
};

constexpr int kTracedNodes = 8;
constexpr int kTracedReps = 7;

double run_pdes_traced_once(int threads, std::string* trace_json,
                            std::string* metrics_json,
                            std::string* flow_json) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry met;
  obs::FlowTable flows;
  obs::attach_recorder(&rec);
  obs::attach_metrics(&met);
  obs::attach_flows(&flows);
  const auto start = Clock::now();
  const PdesCell c = run_pdes_once(kTracedNodes, threads);
  const double wall = ms_since(start);
  (void)c;
  obs::attach_recorder(nullptr);
  obs::attach_metrics(nullptr);
  obs::attach_flows(nullptr);
  *trace_json = rec.to_json();
  *metrics_json = met.snapshot_json();
  *flow_json = flows.snapshot_json();
  return wall;
}

/// Traced matrix at the largest node count, at one and four workers.
/// The cells are byte-parity gated against each other: a single
/// differing byte in any sink's JSON is a determinism failure, exactly
/// like a checksum mismatch in the untraced matrix.
std::vector<TracedCell> bench_pdes_traced() {
  constexpr int kThreads[] = {1, 4};
  std::string ref_trace, ref_metrics, ref_flows;
  TracedCell best[2];
  for (int rep = 0; rep < kTracedReps; ++rep) {
    for (std::size_t t = 0; t < 2; ++t) {
      std::string trace, metrics, flows;
      const double wall =
          run_pdes_traced_once(kThreads[t], &trace, &metrics, &flows);
      if (ref_trace.empty()) {
        ref_trace = trace;
        ref_metrics = metrics;
        ref_flows = flows;
      } else if (trace != ref_trace || metrics != ref_metrics ||
                 flows != ref_flows) {
        std::fprintf(stderr,
                     "pdes TRACED-DETERMINISM FAILURE at nodes=%d "
                     "threads=%d: sink output differs from threads=1\n",
                     kTracedNodes, kThreads[t]);
        std::exit(1);
      }
      if (best[t].threads == 0 || wall < best[t].wall_ms) {
        best[t].threads = kThreads[t];
        best[t].wall_ms = wall;
      }
    }
  }
  for (TracedCell& c : best) c.speedup = best[0].wall_ms / c.wall_ms;
  return {best[0], best[1]};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_simcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("simcore-perf\n");
      for (const char* s : {"event queue", "parked-poller settle",
                            "interpreter", "sparse memory",
                            "fig1 latency sweep", "fig2 msgrate sweep",
                            "pdes scaling matrix",
                            "traced pdes scaling (byte-parity gated)"}) {
        std::printf("  %s\n", s);
      }
      return 0;
    } else {
      std::fprintf(stderr, "usage: %s [--list] [--json=FILE]\n", argv[0]);
      return 2;
    }
  }

  std::uint64_t events = 0, credits = 0, instrs = 0, bytes = 0;
  const double event_ns = bench_event_queue_ns(&events);
  const double settle_ns = bench_settle_ns_per_due_poller(&credits);
  const double instr_per_s = bench_interpreter_instr_per_s(&instrs);
  const double mem_mb_per_s = bench_memory_mb_per_s(&bytes);
  const double fig1_ms = bench_fig1_wall_ms();
  const double fig2_ms = bench_fig2_wall_ms();
  const std::vector<PdesCell> pdes = bench_pdes_matrix();
  const std::vector<TracedCell> traced = bench_pdes_traced();

  std::printf("simcore_perf - simulator host-performance baseline\n");
  std::printf("  event queue        %10.1f ns/event   (%llu events)\n",
              event_ns, static_cast<unsigned long long>(events));
  std::printf("  settle             %10.1f ns/due poller (%llu credits)\n",
              settle_ns, static_cast<unsigned long long>(credits));
  std::printf("  interpreter        %10.2f Minstr/s   (%llu instrs)\n",
              instr_per_s / 1e6, static_cast<unsigned long long>(instrs));
  std::printf("  sparse memory      %10.1f MB/s       (%llu bytes)\n",
              mem_mb_per_s, static_cast<unsigned long long>(bytes));
  std::printf("  fig1 latency sweep %10.1f ms wall\n", fig1_ms);
  std::printf("  fig2 msgrate sweep %10.1f ms wall\n", fig2_ms);
  std::printf("  pdes ring scaling (tile=%ux%u iters=%u, checksum-gated)\n",
              kPdesTile, kPdesTile, kPdesIters);
  for (const PdesCell& c : pdes) {
    std::printf("    nodes=%d threads=%d %9.1f ms wall  %5.2fx\n", c.nodes,
                c.threads, c.wall_ms, c.speedup);
  }
  std::printf("  traced pdes ring (nodes=%d, all sinks, byte-parity gated)\n",
              kTracedNodes);
  for (const TracedCell& c : traced) {
    std::printf("    threads=%d %9.1f ms wall  %5.2fx\n", c.threads,
                c.wall_ms, c.speedup);
  }

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"bench\":\"simcore_perf\",\"metrics\":{"
                 "\"event_queue_ns_per_event\":%.3f,"
                 "\"settle_ns_per_due_poller\":%.3f,"
                 "\"interpreter_instr_per_s\":%.1f,"
                 "\"sparse_memory_mb_per_s\":%.1f,"
                 "\"fig1_extoll_latency_wall_ms\":%.3f,"
                 "\"fig2_extoll_msgrate_wall_ms\":%.3f},\n",
                 event_ns, settle_ns, instr_per_s, mem_mb_per_s, fig1_ms,
                 fig2_ms);
    std::fprintf(f,
                 " \"pdes\":{\"workload\":\"halo2d-ring/extoll\","
                 "\"tile\":%u,\"iterations\":%u,\"reps\":%d,"
                 "\"matrix\":[\n",
                 kPdesTile, kPdesIters, kPdesReps);
    for (std::size_t i = 0; i < pdes.size(); ++i) {
      const PdesCell& c = pdes[i];
      std::fprintf(f,
                   "  {\"nodes\":%d,\"threads\":%d,\"wall_ms\":%.3f,"
                   "\"speedup\":%.3f,\"checksum\":%llu,\"events\":%llu}%s\n",
                   c.nodes, c.threads, c.wall_ms, c.speedup,
                   static_cast<unsigned long long>(c.checksum),
                   static_cast<unsigned long long>(c.events),
                   i + 1 < pdes.size() ? "," : "");
    }
    std::fprintf(f, " ]},\n");
    std::fprintf(f,
                 " \"traced_pdes\":{\"workload\":\"halo2d-ring/extoll"
                 "+trace+metrics+flows\",\"nodes\":%d,\"reps\":%d,"
                 "\"byte_identical\":true,\"matrix\":[\n",
                 kTracedNodes, kTracedReps);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const TracedCell& c = traced[i];
      std::fprintf(f,
                   "  {\"threads\":%d,\"wall_ms\":%.3f,"
                   "\"speedup\":%.3f}%s\n",
                   c.threads, c.wall_ms, c.speedup,
                   i + 1 < traced.size() ? "," : "");
    }
    std::fprintf(f, " ]}}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
    return 1;
  }
  return 0;
}

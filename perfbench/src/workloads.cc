#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "putget/extoll_experiments.h"
#include "putget/ib_experiments.h"
#include "sys/testbed.h"

namespace pb {

using pg::putget::QueueLocation;
using pg::putget::RateVariant;
using pg::putget::TransferMode;

namespace {

constexpr std::uint32_t kKiB = 1024;
constexpr std::uint32_t kMiB = 1024 * kKiB;

// Fig 1a / 4a bands and fig 3 bands (fig 3 stops before its 16 and
// 64 MiB points, which would swamp every other band).
constexpr std::uint32_t kHostBands[] = {4,       16,       64,
                                        256,     kKiB,     4 * kKiB,
                                        16 * kKiB, 64 * kKiB, 256 * kKiB};
constexpr std::uint32_t kGpuBands[] = {
    4,         16,        64,         256,  kKiB,    4 * kKiB,
    16 * kKiB, 64 * kKiB, 256 * kKiB, kMiB, 4 * kMiB};
constexpr std::uint32_t kPairs[] = {1, 2, 4, 8, 16, 24, 32};
constexpr RateVariant kVariants[] = {RateVariant::kBlocks,
                                     RateVariant::kKernels,
                                     RateVariant::kAssisted,
                                     RateVariant::kHostControlled};

// shmem_halo8: a 4x2 PE grid of 128x128 tiles, 5 iterations per call.
// The measured calls run the sharded engine on one worker: with four
// workers on a four-core shared host, host time spread 0.18-0.27 of its
// median across seeds, against 0.07 with one worker and short calls.
// The traced run times the same calls on kHaloParallelThreads workers.
constexpr int kHaloPx = 4;
constexpr int kHaloPy = 2;
constexpr std::uint32_t kHaloTile = 128;
constexpr std::uint32_t kHaloIterations = 5;
constexpr std::uint32_t kHaloWarmupIterations = 2;
constexpr int kHaloThreads = 1;

// The warm-up slice: the small points of each workload, long enough
// (tens of ms) that its median over the set-up repetitions is steady.
constexpr std::uint32_t kWarmupMaxSize = kKiB;
constexpr std::uint32_t kWarmupMaxPairs = 2;

/// A size inside the band starting at `base`: base plus a seeded
/// multiple of 8 bytes, at most base/32 above it.
std::uint32_t draw_size(pg::Rng& rng, std::uint32_t base) {
  const std::uint32_t steps = base / 256;
  return base + 8 * static_cast<std::uint32_t>(rng.next_below(steps + 1));
}

struct PingPongShape {
  Fabric fabric;
  TransferMode mode;
  QueueLocation location;
};

Call pingpong(const PingPongShape& s, std::uint32_t size,
              std::uint32_t iterations) {
  Call c;
  c.kind = Call::Kind::kPingPong;
  c.fabric = s.fabric;
  c.mode = s.mode;
  c.location = s.location;
  c.size = size;
  c.iterations = iterations;
  return c;
}

const std::vector<PingPongShape>& shapes(Workload w) {
  static const std::vector<PingPongShape> host = {
      {Fabric::kExtoll, TransferMode::kHostAssisted, QueueLocation::kHostMemory},
      {Fabric::kExtoll, TransferMode::kHostControlled,
       QueueLocation::kHostMemory},
      {Fabric::kIb, TransferMode::kHostAssisted, QueueLocation::kHostMemory},
      {Fabric::kIb, TransferMode::kHostControlled, QueueLocation::kHostMemory}};
  static const std::vector<PingPongShape> gpu = {
      {Fabric::kExtoll, TransferMode::kGpuDirect, QueueLocation::kHostMemory},
      {Fabric::kExtoll, TransferMode::kGpuPollDevice,
       QueueLocation::kHostMemory},
      {Fabric::kIb, TransferMode::kGpuDirect, QueueLocation::kGpuMemory},
      {Fabric::kIb, TransferMode::kGpuDirect, QueueLocation::kHostMemory}};
  return w == Workload::kPingpongHost ? host : gpu;
}

/// Ping-pong iterations: fig 1a / 4a counts for the host workload, fig 3
/// counts for the GPU workload.
std::uint32_t pingpong_iterations(Workload w, Fabric f, std::uint32_t size) {
  if (w == Workload::kPingpongGpu) return size >= kMiB ? 4 : 20;
  if (f == Fabric::kExtoll) return size >= 64 * kKiB ? 20 : 40;
  return size >= 64 * kKiB ? 15 : 30;
}

Call halo(Fabric f, std::uint32_t iterations, std::uint64_t seed) {
  Call c;
  c.kind = Call::Kind::kHalo;
  c.fabric = f;
  c.px = kHaloPx;
  c.py = kHaloPy;
  c.tile = kHaloTile;
  c.iterations = iterations;
  c.halo_seed = seed;
  c.threads = kHaloThreads;
  return c;
}

void shuffle(std::vector<Call>& calls, pg::Rng& rng) {
  for (std::size_t i = calls.size(); i > 1; --i) {
    std::swap(calls[i - 1], calls[rng.next_below(i)]);
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kPingpongHost, Workload::kPingpongGpu,
                     Workload::kMsgrate, Workload::kShmemHalo8}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPingpongHost: return "pingpong_host";
    case Workload::kPingpongGpu: return "pingpong_gpu";
    case Workload::kMsgrate: return "msgrate";
    case Workload::kShmemHalo8: return "shmem_halo8";
  }
  return "?";
}

const char* fabric_name(Fabric f) {
  return f == Fabric::kExtoll ? "extoll" : "ib";
}

std::string Call::label() const {
  char buf[96];
  switch (kind) {
    case Kind::kPingPong:
      std::snprintf(buf, sizeof(buf), "%s-pingpong/%s%s/%uB",
                    fabric_name(fabric), pg::putget::transfer_mode_name(mode),
                    fabric == Fabric::kIb && (mode == TransferMode::kGpuDirect)
                        ? (location == QueueLocation::kGpuMemory ? "/bufOnGPU"
                                                                 : "/bufOnHost")
                        : "",
                    size);
      break;
    case Kind::kMsgRate:
      std::snprintf(buf, sizeof(buf), "%s-msgrate/%s/%upairs",
                    fabric_name(fabric), pg::putget::rate_variant_name(variant),
                    pairs);
      break;
    case Kind::kHalo:
      std::snprintf(buf, sizeof(buf), "%s-halo2d/%dx%d/%ux%u/%uit/T%d",
                    fabric_name(fabric), px, py, tile, tile, iterations,
                    threads);
      break;
  }
  return buf;
}

std::vector<Call> make_calls(Workload w, std::uint64_t seed) {
  pg::Rng rng(seed);
  std::vector<Call> calls;
  switch (w) {
    case Workload::kPingpongHost:
    case Workload::kPingpongGpu: {
      const bool gpu = w == Workload::kPingpongGpu;
      const std::uint32_t* bands = gpu ? kGpuBands : kHostBands;
      const std::size_t n = gpu ? std::size(kGpuBands) : std::size(kHostBands);
      for (std::size_t b = 0; b < n; ++b) {
        for (const PingPongShape& s : shapes(w)) {
          const std::uint32_t size = draw_size(rng, bands[b]);
          calls.push_back(
              pingpong(s, size, pingpong_iterations(w, s.fabric, bands[b])));
        }
      }
      break;
    }
    case Workload::kMsgrate:
      for (Fabric f : {Fabric::kExtoll, Fabric::kIb}) {
        for (RateVariant v : kVariants) {
          for (std::uint32_t pairs : kPairs) {
            Call c;
            c.kind = Call::Kind::kMsgRate;
            c.fabric = f;
            c.variant = v;
            c.pairs = pairs;
            c.msgs_per_pair = 40;
            calls.push_back(c);
          }
        }
      }
      break;
    case Workload::kShmemHalo8: {
      const std::uint64_t halo_seed = rng.next_u64();
      calls.push_back(halo(Fabric::kExtoll, kHaloIterations, halo_seed));
      calls.push_back(halo(Fabric::kIb, kHaloIterations, halo_seed));
      break;
    }
  }
  shuffle(calls, rng);
  return calls;
}

std::vector<Call> warmup_calls(Workload w, std::uint64_t seed) {
  std::vector<Call> calls;
  switch (w) {
    case Workload::kPingpongHost:
    case Workload::kPingpongGpu:
      for (std::uint32_t size = 4; size <= kWarmupMaxSize; size *= 4) {
        for (const PingPongShape& s : shapes(w)) {
          calls.push_back(
              pingpong(s, size, pingpong_iterations(w, s.fabric, size)));
        }
      }
      break;
    case Workload::kMsgrate:
      for (Fabric f : {Fabric::kExtoll, Fabric::kIb}) {
        for (RateVariant v : kVariants) {
          for (std::uint32_t pairs = 1; pairs <= kWarmupMaxPairs; ++pairs) {
            Call c;
            c.kind = Call::Kind::kMsgRate;
            c.fabric = f;
            c.variant = v;
            c.pairs = pairs;
            c.msgs_per_pair = 40;
            calls.push_back(c);
          }
        }
      }
      break;
    case Workload::kShmemHalo8:
      for (Fabric f : {Fabric::kExtoll, Fabric::kIb}) {
        calls.push_back(halo(f, kHaloWarmupIterations, seed));
      }
      break;
  }
  return calls;
}

std::vector<Call> with_threads(std::vector<Call> calls, int threads) {
  for (Call& c : calls) {
    if (c.kind == Call::Kind::kHalo) c.threads = threads;
  }
  return calls;
}

bool gate_failed(const pg::putget::PingPongResult& r) {
  return !r.payload_ok;
}
bool gate_failed(const pg::putget::MessageRateResult& r) {
  return !(r.msgs_per_s > 0);
}
bool gate_failed(const pg::shmem::Halo2dResult& r) {
  return !r.verified || r.notified_total != r.halo_puts;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t digest_of(const pg::putget::PingPongResult& r) {
  Digest d;
  d.add(r.half_rtt_us);
  d.add(r.post_sum_us);
  d.add(r.poll_sum_us);
  d.add(std::uint64_t{r.iterations});
  d.add(std::uint64_t{r.payload_ok});
  const pg::gpu::PerfCounters& g = r.gpu0;
  for (std::uint64_t v :
       {g.instructions_executed, g.memory_accesses, g.sysmem_read_transactions,
        g.sysmem_write_transactions, g.globmem_read64, g.globmem_write64,
        g.globmem_read_other, g.globmem_write_other, g.l2_read_requests,
        g.l2_read_hits, g.l2_read_misses, g.l2_write_requests, g.shared_reads,
        g.shared_writes, g.branches, g.divergent_branches, g.warps_launched,
        g.blocks_launched, g.kernels_launched}) {
    d.add(v);
  }
  d.add(r.events_scheduled);
  return d.value();
}

std::uint64_t digest_of(const pg::putget::MessageRateResult& r) {
  Digest d;
  d.add(r.msgs_per_s);
  d.add(r.messages);
  return d.value();
}

std::uint64_t digest_of(const pg::shmem::Halo2dResult& r) {
  Digest d;
  d.add(std::uint64_t{r.verified});
  d.add(static_cast<std::uint64_t>(r.num_pes));
  d.add(std::uint64_t{r.iterations});
  d.add(r.halo_puts);
  d.add(r.sim_time_us);
  d.add(r.checksum);
  d.add(r.notified_total);
  d.add(r.events_executed);
  return d.value();
}

Outcome run_call(const Call& c) {
  Outcome o;
  switch (c.kind) {
    case Call::Kind::kPingPong: {
      const pg::putget::PingPongResult r =
          c.fabric == Fabric::kExtoll
              ? pg::putget::run_extoll_pingpong(pg::sys::extoll_testbed(),
                                                c.mode, c.size, c.iterations)
              : pg::putget::run_ib_pingpong(pg::sys::ib_testbed(), c.mode,
                                            c.location, c.size, c.iterations);
      o.failed = gate_failed(r);
      o.digest = digest_of(r);
      o.gpu_instructions = r.gpu0.instructions_executed;
      o.events_scheduled = r.events_scheduled;
      break;
    }
    case Call::Kind::kMsgRate: {
      const pg::putget::MessageRateResult r =
          c.fabric == Fabric::kExtoll
              ? pg::putget::run_extoll_msgrate(pg::sys::extoll_testbed(),
                                               c.variant, c.pairs,
                                               c.msgs_per_pair)
              : pg::putget::run_ib_msgrate(pg::sys::ib_testbed(), c.variant,
                                           c.pairs, c.msgs_per_pair);
      o.failed = gate_failed(r);
      o.digest = digest_of(r);
      break;
    }
    case Call::Kind::kHalo: {
      pg::shmem::Halo2dConfig cfg;
      cfg.backend = c.fabric == Fabric::kExtoll ? pg::putget::RmaBackend::kExtoll
                                                : pg::putget::RmaBackend::kIb;
      cfg.px = c.px;
      cfg.py = c.py;
      cfg.nx = c.tile;
      cfg.ny = c.tile;
      cfg.iterations = c.iterations;
      cfg.seed = c.halo_seed;
      cfg.threads = c.threads;
      const pg::shmem::Halo2dResult r = pg::shmem::run_halo2d(cfg);
      o.failed = gate_failed(r);
      o.digest = digest_of(r);
      o.events_executed = r.events_executed;
      o.halo_puts = r.halo_puts;
      o.notified = r.notified_total;
      o.checksum = r.checksum;
      break;
    }
  }
  return o;
}

std::vector<pg::sys::ClusterConfig> cluster_configs(Workload w) {
  if (w != Workload::kShmemHalo8) {
    return {pg::sys::extoll_testbed(), pg::sys::ib_testbed()};
  }
  // The cluster run_halo2d builds for the 4x2 grid.
  pg::sys::ClusterConfig cc = pg::sys::default_testbed();
  cc.num_nodes = kHaloPx * kHaloPy;
  cc.topology = pg::net::Topology::kFullMesh;
  cc.threads = kHaloThreads;
  return {cc};
}

std::uint32_t largest_size(const std::vector<Call>& calls) {
  std::uint32_t m = 0;
  for (const Call& c : calls) {
    if (c.kind == Call::Kind::kPingPong) m = std::max(m, c.size);
  }
  return m;
}

}  // namespace pb

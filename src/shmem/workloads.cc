#include "shmem/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "gpu/assembler.h"
#include "putget/op_span.h"
#include "putget/setup.h"
#include "putget/stats.h"
#include "shmem/shmem.h"
#include "sys/testbed.h"

namespace pg::shmem {

using putget::Completion;
using putget::OpHandle;
using putget::RmaBackend;
using putget::WaitCmp;

namespace {

/// Inverse-CDF Zipf sampler over [0, n): weight of word i is
/// 1/(i+1)^s. s == 0 degenerates to uniform.
std::vector<double> zipf_cdf(std::uint32_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::uint32_t zipf_pick(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  const auto idx = static_cast<std::uint32_t>(it - cdf.begin());
  return std::min(idx, static_cast<std::uint32_t>(cdf.size() - 1));
}

/// Unique, nonzero value for update k from `origin` — last-writer
/// verification replays these.
std::uint64_t update_tag(int origin, std::uint32_t k) {
  return (static_cast<std::uint64_t>(origin + 1) << 40) | (k + 1);
}

struct Update {
  int target = 0;
  std::uint32_t word = 0;
  std::uint64_t value = 0;
};

/// The full deterministic update stream of every origin. Both the
/// posting loop and the verifier consume this one sequence, so
/// "verified" means the fabric delivered exactly what was generated.
std::vector<std::vector<Update>> generate_updates(const GupsConfig& cfg) {
  const std::vector<double> cdf = zipf_cdf(cfg.table_words, cfg.zipf_s);
  std::vector<std::vector<Update>> seq(
      static_cast<std::size_t>(cfg.num_pes));
  for (int o = 0; o < cfg.num_pes; ++o) {
    Rng rng(cfg.seed ^ (0x9E3779B97F4A7C15ull * (o + 1)));
    seq[o].reserve(cfg.updates_per_pe);
    for (std::uint32_t k = 0; k < cfg.updates_per_pe; ++k) {
      const std::uint64_t r = rng.next_below(cfg.num_pes - 1);
      const int t = static_cast<int>(r >= static_cast<std::uint64_t>(o)
                                         ? r + 1
                                         : r);
      const std::uint32_t w = zipf_pick(cdf, rng.next_double());
      seq[o].push_back({t, w, update_tag(o, k)});
    }
  }
  return seq;
}

}  // namespace

const char* gups_mode_name(GupsMode m) {
  switch (m) {
    case GupsMode::kPutNotify: return "put-notify";
    case GupsMode::kAmo: return "amo";
    case GupsMode::kGpu: return "gpu";
  }
  return "?";
}

GupsResult run_gups(const GupsConfig& cfg) {
  GupsResult out;
  out.num_pes = cfg.num_pes;
  if (cfg.num_pes < 2 || cfg.updates_per_pe == 0 || cfg.table_words == 0 ||
      cfg.window == 0) {
    out.error = "gups: need >= 2 PEs and nonzero updates/table/window";
    return out;
  }

  sys::ClusterConfig cc = sys::default_testbed();
  cc.num_nodes = cfg.num_pes;
  cc.topology = net::Topology::kFullMesh;
  cc.threads = cfg.threads;
  cc.sample_every = cfg.sample_every;
  sys::Cluster cluster(cc);

  ShmemOptions so;
  so.backend = cfg.backend;
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(cfg.num_pes) * cfg.table_words * 8;
  so.heap_bytes =
      table_bytes + (std::max(cfg.window, cfg.updates_per_pe) + 64) * 8 + 4096;
  if (cfg.backend == RmaBackend::kExtoll) {
    // One put port: same-origin puts post FIFO, so last-writer replay
    // verification is exact (IB gets this per target from RC ordering).
    so.notify.put_ports = 1;
  }
  auto shr = Shmem::create(cluster, so);
  if (!shr.is_ok()) {
    out.error = "gups: " + shr.status().to_string();
    return out;
  }
  Shmem& s = **shr;
  const int n = cfg.num_pes;
  const std::uint32_t tw = cfg.table_words;

  auto table_r = s.shmem_malloc(table_bytes, 64);
  if (!table_r.is_ok()) {
    out.error = "gups: " + table_r.status().to_string();
    return out;
  }
  const SymOff table = *table_r;
  for (int pe = 0; pe < n; ++pe) {
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n) * tw; ++i) {
      s.poke_u64(pe, table + i * 8, 0);
    }
  }

  const std::vector<std::vector<Update>> seq = generate_updates(cfg);
  const SimTime t_start = cluster.now();

  // Per-target expected state, replayed from the generated sequence.
  // kPutNotify/kGpu: per-origin columns, last writer wins. kAmo: shared
  // words accumulate counts.
  std::vector<std::vector<std::uint64_t>> expected(
      static_cast<std::size_t>(n),
      std::vector<std::uint64_t>(static_cast<std::size_t>(n) * tw, 0));
  std::vector<std::uint64_t> inbound(static_cast<std::size_t>(n), 0);

  if (cfg.mode == GupsMode::kPutNotify) {
    auto stag_r = s.shmem_malloc(cfg.window * 8, 64);
    if (!stag_r.is_ok()) {
      out.error = "gups: " + stag_r.status().to_string();
      return out;
    }
    const SymOff stag = *stag_r;
    std::vector<std::vector<OpHandle>> ring(
        static_cast<std::size_t>(n), std::vector<OpHandle>(cfg.window));
    for (std::uint32_t k = 0; k < cfg.updates_per_pe; ++k) {
      for (int o = 0; o < n; ++o) {
        const Update& u = seq[o][k];
        const std::uint32_t slot = k % cfg.window;
        // The staging word is recycled: its previous put must be
        // locally complete before the value is overwritten.
        if (ring[o][slot].valid() && !s.domain().wait_local(ring[o][slot])) {
          out.error = "gups: put stream stalled";
          return out;
        }
        s.poke_u64(o, stag + slot * 8, u.value);
        const SymOff dst = table + (o * tw + u.word) * 8;
        auto op = s.put_nbi(o, u.target, dst, stag + slot * 8, 8,
                            Completion::kNotification);
        // Receive-window backpressure (IB): consuming one arrival at
        // the target frees a credit; then the post must succeed.
        if (!op.is_ok() &&
            op.status().code() == StatusCode::kResourceExhausted) {
          if (!s.wait_notified(u.target, s.notified(u.target) + 1)) {
            out.error = "gups: arrival drain stalled";
            return out;
          }
          op = s.put_nbi(o, u.target, dst, stag + slot * 8, 8,
                         Completion::kNotification);
        }
        if (!op.is_ok()) {
          out.error = "gups: " + op.status().to_string();
          return out;
        }
        ring[o][slot] = *op;
        expected[u.target][o * tw + u.word] = u.value;
        ++inbound[u.target];
      }
    }
    for (int o = 0; o < n; ++o) {
      Status q = s.quiet(o);
      if (!q.is_ok()) {
        out.error = "gups: " + q.to_string();
        return out;
      }
    }
    for (int t = 0; t < n; ++t) {
      if (!s.wait_notified(t, inbound[t])) {
        out.error = "gups: missing arrivals";
        return out;
      }
    }
  } else if (cfg.mode == GupsMode::kAmo) {
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(n) * cfg.updates_per_pe);
    for (std::uint32_t k = 0; k < cfg.updates_per_pe; ++k) {
      for (int o = 0; o < n; ++o) {
        const Update& u = seq[o][k];
        // Shared word (no per-origin column): increments from all
        // origins accumulate, which only verifies because this host
        // path serializes the fetch-add round trips.
        const SymOff off = table + u.word * 8;
        const SimTime t0 = cluster.now();
        auto old = s.atomic_fetch_add(o, u.target, off, 1);
        if (!old.is_ok()) {
          out.error = "gups: " + old.status().to_string();
          return out;
        }
        latencies.push_back(to_ns(cluster.now() - t0));
        if (*old != expected[u.target][u.word]) {
          out.error = "gups: fetch-add returned a stale value";
          return out;
        }
        ++expected[u.target][u.word];
      }
    }
    out.amo_p50_ns = putget::sample_quantile(latencies, 0.50);
    out.amo_p99_ns = putget::sample_quantile(latencies, 0.99);
  } else {  // GupsMode::kGpu
    auto stag_r = s.shmem_malloc(cfg.updates_per_pe * 8, 64);
    if (!stag_r.is_ok()) {
      out.error = "gups: " + stag_r.status().to_string();
      return out;
    }
    const SymOff stag = *stag_r;
    std::vector<Shmem::DevicePlan> plans;
    plans.reserve(static_cast<std::size_t>(n));
    for (int o = 0; o < n; ++o) {
      std::vector<Shmem::DeviceUpdate> ups;
      ups.reserve(cfg.updates_per_pe);
      for (std::uint32_t k = 0; k < cfg.updates_per_pe; ++k) {
        const Update& u = seq[o][k];
        s.poke_u64(o, stag + k * 8, u.value);
        ups.push_back({u.target, table + (o * tw + u.word) * 8,
                       stag + k * 8});
        expected[u.target][o * tw + u.word] = u.value;
      }
      auto plan = s.build_device_put_plan(o, ups);
      if (!plan.is_ok()) {
        out.error = "gups: " + plan.status().to_string();
        return out;
      }
      plans.push_back(std::move(*plan));
    }
    std::vector<sim::Trigger> done(static_cast<std::size_t>(n));
    std::vector<gpu::KernelLaunch> kls(static_cast<std::size_t>(n));
    for (int o = 0; o < n; ++o) {
      kls[o].program = &plans[o].program;
      kls[o].blocks = 1;
      kls[o].threads_per_block = 1;
      kls[o].params = plans[o].params;
      putget::launch_with_trigger(cluster.node(o).gpu(), kls[o], done[o]);
    }
    std::vector<sim::ShardCond> conds;
    conds.reserve(static_cast<std::size_t>(n));
    for (int o = 0; o < n; ++o) {
      conds.push_back({o, [&done, o] { return done[o].fired(); }});
    }
    if (!putget::run_to(cluster, std::move(conds))) {
      out.error = "gups: device kernels did not finish";
      return out;
    }
    double span = 0.0;
    for (int o = 0; o < n; ++o) {
      span += putget::read_device_stats(cluster.node(o).memory(),
                                        plans[o].stats)
                  .span_ns();
    }
    out.device_span_ns = span / n;
  }

  // Final-state verification against the replayed sequence.
  bool ok = true;
  for (int t = 0; t < n; ++t) {
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n) * tw; ++i) {
      const std::uint64_t got = s.peek_u64(t, table + i * 8);
      if (got != expected[t][i]) ok = false;
      out.checksum += got;
    }
    out.notified_total += s.notified(t);
  }
  out.verified = ok;
  out.updates = static_cast<std::uint64_t>(n) * cfg.updates_per_pe;
  const SimTime elapsed = cluster.now() - t_start;
  out.sim_time_us = to_us(elapsed);
  out.gups = elapsed > 0 ? static_cast<double>(out.updates) / to_ns(elapsed)
                         : 0.0;
  out.events_executed = cluster.events_executed();
  return out;
}

// ---------------------------------------------------------------------------
// 2-D halo exchange.

namespace {

/// Additive 5-point stencil over the interior of an (nx+2) x (ny+2)
/// row-major field: next = self + N + S + W + E (mod 2^64). Launched
/// with blocks = ny (row index) and threads_per_block = nx (column).
gpu::Program build_stencil2d(std::uint32_t nx) {
  gpu::Assembler a("halo2d_stencil");
  using gpu::Reg;
  using gpu::Sreg;
  const std::int64_t stride = static_cast<std::int64_t>(nx + 2) * 8;
  const Reg cur(4), nxt(5);  // kernel params
  const Reg row(8), col(9), off(10), t0(11), addr(12), v(13), t1(14);
  a.sreg(row, Sreg::kCtaidX);
  a.sreg(col, Sreg::kTidX);
  a.addi(row, row, 1);  // skip top halo row
  a.addi(col, col, 1);  // skip left halo column
  a.muli(off, row, stride);
  a.muli(t0, col, 8);
  a.add(off, off, t0);
  a.add(addr, cur, off);
  a.ld(v, addr, 0, 8);
  a.ld(t1, addr, -8, 8);
  a.add(v, v, t1);
  a.ld(t1, addr, 8, 8);
  a.add(v, v, t1);
  a.ld(t1, addr, -stride, 8);
  a.add(v, v, t1);
  a.ld(t1, addr, stride, 8);
  a.add(v, v, t1);
  a.add(addr, nxt, off);
  a.st(addr, v, 0, 8);
  a.exit();
  auto p = a.finish();
  if (!p.is_ok()) std::abort();
  return std::move(p).value();
}

/// Strided u64 gather/scatter: thread t copies one word from
/// src + t*src_stride to dst + t*dst_stride. Packs field columns into
/// contiguous staging buffers and scatters received ones back.
gpu::Program build_strided_copy() {
  gpu::Assembler a("halo2d_strided_copy");
  using gpu::Reg;
  using gpu::Sreg;
  const Reg src(4), dst(5), sstride(6), dstride(7);  // kernel params
  const Reg tid(8), off(9), addr(10), v(11);
  a.sreg(tid, Sreg::kTidX);
  a.mul(off, tid, sstride);
  a.add(addr, src, off);
  a.ld(v, addr, 0, 8);
  a.mul(off, tid, dstride);
  a.add(addr, dst, off);
  a.st(addr, v, 0, 8);
  a.exit();
  auto p = a.finish();
  if (!p.is_ok()) std::abort();
  return std::move(p).value();
}

std::uint64_t halo_init_cell(std::uint64_t seed, std::uint64_t gx,
                             std::uint64_t gy) {
  std::uint64_t x = seed ^ (gx * 0x9E3779B97F4A7C15ull) ^
                    ((gy + 1) * 0xC2B2AE3D27D4EB4Full);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}

}  // namespace

Halo2dResult run_halo2d(const Halo2dConfig& cfg) {
  Halo2dResult out;
  out.num_pes = cfg.px * cfg.py;
  out.iterations = cfg.iterations;
  if (cfg.px < 2 || cfg.py < 1 || cfg.nx == 0 || cfg.ny == 0) {
    out.error = "halo2d: need a grid of at least 2x1 PEs and nonzero tile";
    return out;
  }
  const int n = cfg.px * cfg.py;
  const std::uint32_t S = cfg.nx + 2;  // row stride in words
  const std::uint64_t field_words =
      static_cast<std::uint64_t>(S) * (cfg.ny + 2);
  // A one-row grid keeps its north/south halos local (see the header).
  const bool ring = cfg.py == 1;
  const std::uint64_t puts_per_pe = ring ? 2 : 4;

  sys::ClusterConfig cc = sys::default_testbed();
  cc.num_nodes = n;
  cc.topology = cfg.topology;
  cc.threads = cfg.threads;
  cc.sample_every = cfg.sample_every;
  if (Status st = sys::Cluster::validate(cc); !st.is_ok()) {
    out.error = "halo2d: " + st.to_string();
    return out;
  }
  sys::Cluster cluster(cc);
  // A run is one sink unit: flow correlation state must not leak into
  // the next run's cluster.
  putget::begin_obs_unit(std::string("halo2d/") +
                         sys::backend_name(cfg.backend) + "/" +
                         std::to_string(cfg.px) + "x" + std::to_string(cfg.py));

  ShmemOptions so;
  so.backend = cfg.backend;
  so.heap_bytes = 2 * field_words * 8 + 4 * cfg.ny * 8 + 4096;
  auto shr = Shmem::create(cluster, so);
  if (!shr.is_ok()) {
    out.error = "halo2d: " + shr.status().to_string();
    return out;
  }
  Shmem& s = **shr;

  // Symmetric allocations: two field buffers plus the column staging
  // (send west/east, receive from west/east neighbours).
  SymOff buf[2], col_send_w, col_send_e, col_recv_w, col_recv_e;
  {
    SymOff* slots[6] = {&buf[0], &buf[1], &col_send_w, &col_send_e,
                        &col_recv_w, &col_recv_e};
    const std::uint64_t sizes[6] = {field_words * 8, field_words * 8,
                                    cfg.ny * 8, cfg.ny * 8,
                                    cfg.ny * 8, cfg.ny * 8};
    for (int i = 0; i < 6; ++i) {
      auto r = s.shmem_malloc(sizes[i], 64);
      if (!r.is_ok()) {
        out.error = "halo2d: " + r.status().to_string();
        return out;
      }
      *slots[i] = *r;
    }
  }

  // Initial condition: deterministic interior, zero halos; the host
  // reference holds the full global torus.
  const std::uint64_t W = static_cast<std::uint64_t>(cfg.px) * cfg.nx;
  const std::uint64_t H = static_cast<std::uint64_t>(cfg.py) * cfg.ny;
  std::vector<std::uint64_t> ref(W * H);
  for (std::uint64_t gy = 0; gy < H; ++gy) {
    for (std::uint64_t gx = 0; gx < W; ++gx) {
      ref[gy * W + gx] = halo_init_cell(cfg.seed, gx, gy);
    }
  }
  for (int pe = 0; pe < n; ++pe) {
    const std::uint64_t qx = static_cast<std::uint64_t>(pe % cfg.px);
    const std::uint64_t qy = static_cast<std::uint64_t>(pe / cfg.px);
    for (std::uint64_t i = 0; i < field_words; ++i) {
      s.poke_u64(pe, buf[0] + i * 8, 0);
      s.poke_u64(pe, buf[1] + i * 8, 0);
    }
    for (std::uint32_t y = 1; y <= cfg.ny; ++y) {
      for (std::uint32_t x = 1; x <= cfg.nx; ++x) {
        s.poke_u64(pe, buf[0] + (y * S + x) * 8,
                   ref[(qy * cfg.ny + y - 1) * W + qx * cfg.nx + x - 1]);
      }
    }
  }

  const gpu::Program stencil = build_stencil2d(cfg.nx);
  const gpu::Program copy = build_strided_copy();
  const SimTime t_start = cluster.now();

  auto neighbor = [&](int pe, int dx, int dy) {
    const int qx = (pe % cfg.px + dx + cfg.px) % cfg.px;
    const int qy = (pe / cfg.px + dy + cfg.py) % cfg.py;
    return qy * cfg.px + qx;
  };
  auto run_kernels = [&](const std::vector<gpu::KernelLaunch>& kls,
                         const std::vector<int>& on) {
    std::vector<sim::Trigger> done(kls.size());
    for (std::size_t i = 0; i < kls.size(); ++i) {
      putget::launch_with_trigger(cluster.node(on[i]).gpu(), kls[i], done[i]);
    }
    // One condition per node covering every kernel launched on it, so a
    // sharded cluster runs all PEs' kernels concurrently.
    std::vector<sim::ShardCond> conds;
    conds.reserve(static_cast<std::size_t>(n));
    for (int pe = 0; pe < n; ++pe) {
      conds.push_back({pe, [&done, &on, pe] {
                         for (std::size_t i = 0; i < on.size(); ++i) {
                           if (on[i] == pe && !done[i].fired()) return false;
                         }
                         return true;
                       }});
    }
    return putget::run_to(cluster, std::move(conds));
  };

  int cur = 0;
  for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
    // Phase 1: pack the west/east interior columns into the contiguous
    // send buffers (strided GPU gather). A ring PE also wraps its own
    // last/first interior rows into its top/bottom halo rows.
    {
      std::vector<gpu::KernelLaunch> kls;
      std::vector<int> on;
      for (int pe = 0; pe < n; ++pe) {
        for (int e = 0; e < 2; ++e) {
          const std::uint32_t col = e == 0 ? 1 : cfg.nx;
          gpu::KernelLaunch kl;
          kl.program = &copy;
          kl.blocks = 1;
          kl.threads_per_block = cfg.ny;
          kl.params = {s.addr(pe, buf[cur] + (S + col) * 8),
                       s.addr(pe, (e == 0 ? col_send_w : col_send_e)),
                       static_cast<std::uint64_t>(S) * 8, 8};
          kls.push_back(kl);
          on.push_back(pe);
        }
        for (int e = 0; ring && e < 2; ++e) {
          const std::uint32_t from = e == 0 ? cfg.ny : 1;
          const std::uint32_t to = e == 0 ? 0 : cfg.ny + 1;
          gpu::KernelLaunch kl;
          kl.program = &copy;
          kl.blocks = 1;
          kl.threads_per_block = cfg.nx;
          kl.params = {s.addr(pe, buf[cur] + (from * S + 1) * 8),
                       s.addr(pe, buf[cur] + (to * S + 1) * 8), 8, 8};
          kls.push_back(kl);
          on.push_back(pe);
        }
      }
      if (!run_kernels(kls, on)) {
        out.error = "halo2d: pack kernels stalled";
        return out;
      }
    }

    // Phase 2: four notification puts per PE — contiguous rows straight
    // from the field, columns from the staging buffers; a ring PE puts
    // only its two columns.
    std::vector<std::vector<OpHandle>> sent(
        static_cast<std::size_t>(n));
    for (int pe = 0; pe < n; ++pe) {
      struct Edge {
        int to;
        SymOff dst, src;
        std::uint32_t bytes;
      };
      const Edge edges[4] = {
          // top interior row -> north's bottom halo row
          {neighbor(pe, 0, -1), buf[cur] + ((cfg.ny + 1) * S + 1) * 8,
           buf[cur] + (S + 1) * 8, cfg.nx * 8},
          // bottom interior row -> south's top halo row
          {neighbor(pe, 0, 1), buf[cur] + 1 * 8,
           buf[cur] + (cfg.ny * S + 1) * 8, cfg.nx * 8},
          // west column -> west neighbour's from-east staging
          {neighbor(pe, -1, 0), col_recv_e, col_send_w, cfg.ny * 8},
          // east column -> east neighbour's from-west staging
          {neighbor(pe, 1, 0), col_recv_w, col_send_e, cfg.ny * 8},
      };
      for (const Edge& e : std::span(edges).subspan(ring ? 2 : 0)) {
        auto op = s.put_nbi(pe, e.to, e.dst, e.src, e.bytes,
                            Completion::kNotification);
        if (!op.is_ok()) {
          out.error = "halo2d: " + op.status().to_string();
          return out;
        }
        sent[pe].push_back(*op);
      }
    }

    // Phase 3: sources reusable, all inbound edges arrived.
    for (int pe = 0; pe < n; ++pe) {
      for (OpHandle h : sent[pe]) {
        if (!s.domain().wait_local(h)) {
          out.error = "halo2d: put stalled";
          return out;
        }
      }
      if (!s.wait_notified(pe, puts_per_pe * (it + 1))) {
        out.error = "halo2d: halo arrivals missing";
        return out;
      }
    }

    // Phase 4: scatter the received columns into the halo columns.
    {
      std::vector<gpu::KernelLaunch> kls;
      std::vector<int> on;
      for (int pe = 0; pe < n; ++pe) {
        for (int e = 0; e < 2; ++e) {
          const std::uint32_t col = e == 0 ? 0 : cfg.nx + 1;
          gpu::KernelLaunch kl;
          kl.program = &copy;
          kl.blocks = 1;
          kl.threads_per_block = cfg.ny;
          kl.params = {s.addr(pe, (e == 0 ? col_recv_w : col_recv_e)),
                       s.addr(pe, buf[cur] + (S + col) * 8), 8,
                       static_cast<std::uint64_t>(S) * 8};
          kls.push_back(kl);
          on.push_back(pe);
        }
      }
      if (!run_kernels(kls, on)) {
        out.error = "halo2d: unpack kernels stalled";
        return out;
      }
    }

    // Phase 5: the stencil step, all PEs concurrently.
    {
      std::vector<gpu::KernelLaunch> kls;
      std::vector<int> on;
      for (int pe = 0; pe < n; ++pe) {
        gpu::KernelLaunch kl;
        kl.program = &stencil;
        kl.blocks = cfg.ny;
        kl.threads_per_block = cfg.nx;
        kl.params = {s.addr(pe, buf[cur]), s.addr(pe, buf[1 - cur])};
        kls.push_back(kl);
        on.push_back(pe);
      }
      if (!run_kernels(kls, on)) {
        out.error = "halo2d: stencil kernels stalled";
        return out;
      }
    }
    cur = 1 - cur;

    // Host reference step over the global torus.
    std::vector<std::uint64_t> next(W * H);
    for (std::uint64_t gy = 0; gy < H; ++gy) {
      for (std::uint64_t gx = 0; gx < W; ++gx) {
        next[gy * W + gx] = ref[gy * W + gx] +
                            ref[((gy + H - 1) % H) * W + gx] +
                            ref[((gy + 1) % H) * W + gx] +
                            ref[gy * W + (gx + W - 1) % W] +
                            ref[gy * W + (gx + 1) % W];
      }
    }
    ref.swap(next);
  }

  // Verification: every interior cell equals the global reference.
  bool ok = true;
  for (int pe = 0; pe < n; ++pe) {
    const std::uint64_t qx = static_cast<std::uint64_t>(pe % cfg.px);
    const std::uint64_t qy = static_cast<std::uint64_t>(pe / cfg.px);
    for (std::uint32_t y = 1; y <= cfg.ny; ++y) {
      for (std::uint32_t x = 1; x <= cfg.nx; ++x) {
        const std::uint64_t got = s.peek_u64(pe, buf[cur] + (y * S + x) * 8);
        if (got != ref[(qy * cfg.ny + y - 1) * W + qx * cfg.nx + x - 1]) {
          ok = false;
        }
        out.checksum += got;
      }
    }
    out.notified_total += s.notified(pe);
  }
  out.verified = ok;
  out.halo_puts = puts_per_pe * n * cfg.iterations;
  out.sim_time_us = to_us(cluster.now() - t_start);
  out.events_executed = cluster.events_executed();
  return out;
}

}  // namespace pg::shmem

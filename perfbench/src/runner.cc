#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "putget/setup.h"
#include "stats.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kSetupReps = 25;
constexpr std::size_t kMinPasses = 3;
constexpr int kFillProbes = 5;

// Registry counters read as per-layer counts, in output order.
constexpr const char* kLayerCounters[] = {
    "gpu.l2_loads",          "gpu.l2_load_misses", "gpu.sysmem_loads",
    "gpu.kernels",           "pcie.read_tlps",     "pcie.write_tlps",
    "dma.reads",             "p2p.reads",          "p2p.page_misses",
    "extoll.puts_posted",    "extoll.notifications", "ib.doorbells",
    "ib.wqe_fetches",        "ib.cqes",            "putget.ops"};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Folds a pass into the report's attempt/failure totals and checks its
/// digest against the first pass's: every pass of one call list must
/// reproduce the simulated results exactly.
void account(Report& rep, const Pass& p) {
  rep.attempted += p.attempted;
  rep.failed += p.failed;
  if (!rep.have_digest) {
    rep.digest = p.digest;
    rep.have_digest = true;
  } else if (p.digest != rep.digest) {
    ++rep.failed;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Spans.

double Spans::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

std::uint32_t Spans::begin(std::string name, std::uint32_t parent) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, std::move(name), now_ms(), -1.0});
  return id;
}

void Spans::end(std::uint32_t id) { spans_.at(id - 1).end_ms = now_ms(); }

void Spans::write_json(std::FILE* out) const {
  std::fputs("{\"spans\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"id\":%u,\"parent\":%u,\"name\":%s,\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f}",
                 i ? "," : "", s.id, s.parent,
                 pg::obs::json_string(s.name).c_str(), s.start_ms, s.end_ms);
  }
  std::fputs("\n]}\n", out);
}

// ---------------------------------------------------------------------------
// Passes.

Pass run_pass(const std::vector<Call>& calls, Spans& spans,
              std::uint32_t parent, const char* pass_name) {
  Pass p;
  Digest digest;
  bool have_checksum = false;
  std::uint64_t checksum = 0;
  const std::uint32_t pass_span = spans.begin(pass_name, parent);
  const Clock::time_point t0 = Clock::now();
  for (const Call& c : calls) {
    const std::uint32_t call_span = spans.begin(c.label(), pass_span);
    const Clock::time_point c0 = Clock::now();
    const Outcome o = run_call(c);
    p.call_ms.push_back(seconds_since(c0) * 1e3);
    spans.end(call_span);
    ++p.attempted;
    if (o.failed) ++p.failed;
    digest.add(o.digest);
    p.gpu_instructions += o.gpu_instructions;
    p.events_scheduled += o.events_scheduled;
    p.events_executed += o.events_executed;
    p.halo_puts += o.halo_puts;
    p.notified += o.notified;
    if (c.kind == Call::Kind::kHalo) {
      // Both fabrics compute the same field from the same seed.
      if (have_checksum && o.checksum != checksum) ++p.failed;
      have_checksum = true;
      checksum = o.checksum;
    }
  }
  p.wall_s = seconds_since(t0);
  spans.end(pass_span);
  p.digest = digest.value();
  return p;
}

// ---------------------------------------------------------------------------
// The benchmark.

namespace {

/// Set-up: input generation from the seed, construction of each
/// cluster configuration the calls use, and the warm-up slice. The first
/// repetition runs before the measured phase; the other kSetupReps - 1
/// run between passes, one per equal slice of the budget. Set-up is
/// short, so reps taken back to back would sample only the host's load
/// in the run's first second; spread out, their median sees the same
/// minutes the passes do.
class SetUps {
 public:
  SetUps(const Options& opt, Report& rep, std::uint32_t root)
      : opt_(opt), rep_(rep), root_(root) {
    once();
  }

  /// Runs the next repetition once its slice of the budget has begun.
  void tick(Clock::time_point start) {
    if (total_s_.size() < kSetupReps &&
        seconds_since(start) >=
            opt_.seconds * static_cast<double>(total_s_.size()) / kSetupReps) {
      once();
    }
  }

  /// Runs the repetitions the budget left over.
  void finish() {
    while (total_s_.size() < kSetupReps) once();
  }

  const std::vector<Call>& calls() const { return calls_; }
  double setup_s() const { return median(total_s_); }
  double cluster_ctor_ms() const { return median(ctor_ms_); }

 private:
  void once() {
    const std::uint32_t span = rep_.spans.begin("setup", root_);
    const Clock::time_point t0 = Clock::now();
    // Later repetitions regenerate the same list and drop it.
    std::vector<Call> calls = make_calls(opt_.workload, opt_.seed);
    if (total_s_.empty()) calls_ = std::move(calls);

    const std::uint32_t ctor_span = rep_.spans.begin("sys.cluster_ctor", span);
    const Clock::time_point c0 = Clock::now();
    for (const pg::sys::ClusterConfig& cfg : cluster_configs(opt_.workload)) {
      pg::sys::Cluster cluster(cfg);
    }
    ctor_ms_.push_back(seconds_since(c0) * 1e3);
    rep_.spans.end(ctor_span);

    const std::vector<Call> warm = warmup_calls(opt_.workload, opt_.seed);
    const Pass w = run_pass(warm, rep_.spans, span, "warmup");
    rep_.attempted += w.attempted;
    rep_.failed += w.failed;
    total_s_.push_back(seconds_since(t0));
    rep_.spans.end(span);
  }

  const Options& opt_;
  Report& rep_;
  const std::uint32_t root_;
  std::vector<Call> calls_;
  std::vector<double> total_s_, ctor_ms_;
};

/// Host time of fill_pattern over the largest buffer of the call list,
/// median of kFillProbes fills into node 0's GPU memory.
double fill_pattern_ms(const std::vector<Call>& calls, Report& rep,
                       std::uint32_t root) {
  const std::uint32_t len = largest_size(calls);
  pg::sys::Cluster cluster(pg::sys::extoll_testbed());
  pg::sys::Node& node = cluster.node(0);
  const pg::mem::Addr buf = node.gpu_heap().alloc(len, 64);
  std::vector<double> ms;
  for (int i = 0; i < kFillProbes; ++i) {
    const std::uint32_t span = rep.spans.begin("putget.fill_pattern", root);
    const Clock::time_point t0 = Clock::now();
    pg::putget::fill_pattern(node, buf, len, static_cast<std::uint64_t>(i));
    ms.push_back(seconds_since(t0) * 1e3);
    rep.spans.end(span);
  }
  return median(ms);
}

/// Peak resident set of this process image, from VmHWM, which exec
/// resets. getrusage's ru_maxrss keeps the peak of the process that
/// exec'd this one (run.py's Python, larger than most workloads), which
/// would hide the benchmark's own peak.
double peak_rss_mb() {
  unsigned long kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) &&
           std::sscanf(line, "VmHWM: %lu kB", &kib) != 1) {
    }
    std::fclose(f);
  }
  if (kib == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = static_cast<unsigned long>(ru.ru_maxrss);  // KiB
  }
  return static_cast<double>(kib) / 1024.0;
}

/// Each call point's best host time over the passes, in ms. Every pass
/// times the same points in the same order; taking each point's best of
/// N filters out bursts of interference from other work on the host.
std::vector<double> best_call_ms(const std::vector<Pass>& passes) {
  std::vector<double> best = passes.front().call_ms;
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], p.call_ms[i]);
    }
  }
  return best;
}

/// Host time of one pass with every point at its best of N, in seconds.
double best_pass_s(const std::vector<Pass>& passes) {
  double ms = 0;
  for (double b : best_call_ms(passes)) ms += b;
  return ms / 1e3;
}

std::vector<double> all_call_ms(const std::vector<Pass>& passes) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    v.insert(v.end(), p.call_ms.begin(), p.call_ms.end());
  }
  return v;
}

std::string summary(const char* what, const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: %zu passes of %zu calls; pass wall s min %.4f q1 %.4f "
                "p50 %.4f q3 %.4f max %.4f; best-of-N pass %.4f",
                what, passes.size(), passes.front().call_ms.size(),
                quantile(walls, 0), quantile(walls, 0.25), median(walls),
                quantile(walls, 0.75), quantile(walls, 1), best_pass_s(passes));
  return line;
}

/// The p90 of raw call times, where at least ten samples lie beyond it.
std::string tail_note(const char* what, const std::vector<double>& ms) {
  char line[160];
  const auto p90 = tail_quantile(ms, 0.9);
  std::snprintf(line, sizeof(line), "%s p50 %.3f ms, p90 %s (%zu samples, "
                "%zu beyond p90; reported with >= 10)", what, median(ms),
                p90 ? std::to_string(*p90).c_str() : "n/a", ms.size(),
                samples_beyond(ms.size(), 0.9));
  return line;
}

/// One accounted pass: it must reproduce the digest of the run's first
/// pass.
Pass checked_pass(const std::vector<Call>& calls, Report& rep,
                  std::uint32_t root, const char* name) {
  Pass p = run_pass(calls, rep.spans, root, name);
  account(rep, p);
  return p;
}

/// Runs passes until `seconds` have passed since `start` and at least
/// `min_passes` ran, with set-up repetitions between them.
std::vector<Pass> run_passes(const std::vector<Call>& calls, Report& rep,
                             SetUps& setups, std::uint32_t root,
                             const char* name, Clock::time_point start,
                             double seconds, std::size_t min_passes) {
  std::vector<Pass> passes;
  while (passes.size() < min_passes || seconds_since(start) < seconds) {
    passes.push_back(checked_pass(calls, rep, root, name));
    setups.tick(start);
  }
  return passes;
}

void measured_run(const Options& opt, Report& rep, SetUps& s,
                  std::uint32_t root) {
  const std::vector<Pass> passes =
      run_passes(s.calls(), rep, s, root, "pass", Clock::now(), opt.seconds,
                 kMinPasses);
  s.finish();
  rep.metrics = {{"wall_s", best_pass_s(passes), "s"},
                 {"call_ms_p50", median(best_call_ms(passes)), "ms"},
                 {"setup_s", s.setup_s(), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
  rep.notes.push_back(summary("measured", passes));
  rep.notes.push_back(tail_note("raw call host time", all_call_ms(passes)));
}

void traced_run(const Options& opt, Report& rep, SetUps& s,
                std::uint32_t root) {
  const bool halo = opt.workload == Workload::kShmemHalo8;
  // shmem_halo8 spends the last 40% of the budget on parallel passes.
  const double alternate_s = halo ? 0.6 * opt.seconds : opt.seconds;
  std::vector<Pass> plain, traced;
  std::string snapshot;
  double l2_hit_ratio = 0;
  const Clock::time_point start = Clock::now();
  while (traced.size() < 2 || seconds_since(start) < alternate_s) {
    plain.push_back(checked_pass(s.calls(), rep, root, "pass"));

    pg::obs::MetricsRegistry registry;
    pg::obs::attach_metrics(&registry);
    // Observe-only: the metered pass must reproduce the untraced digest.
    traced.push_back(checked_pass(s.calls(), rep, root, "pass.traced"));
    pg::obs::attach_metrics(nullptr);
    s.tick(start);
    // Every metered pass publishes identical model counts.
    const std::string snap = registry.snapshot_json();
    if (snapshot.empty()) {
      snapshot = snap;
      for (const char* name : kLayerCounters) {
        rep.metrics.push_back(
            {name, static_cast<double>(registry.counter(name).value()),
             "count"});
      }
      const double loads = registry.counter("gpu.l2_loads").value();
      const double misses = registry.counter("gpu.l2_load_misses").value();
      if (loads > 0) l2_hit_ratio = 1.0 - misses / loads;
    } else if (snap != snapshot) {
      ++rep.failed;
    }
  }

  double speedup = 0;
  if (halo) {
    // Same calls on kHaloParallelThreads engine workers: identical
    // digest, host time for the speedup.
    const auto parallel =
        run_passes(with_threads(s.calls(), kHaloParallelThreads), rep, s,
                   root, "pass.parallel", start, opt.seconds, 1);
    speedup = best_pass_s(plain) / best_pass_s(parallel);
    rep.notes.push_back(summary("parallel", parallel));
  }
  s.finish();

  const Pass& first = plain.front();
  const double pass_ns = best_pass_s(plain) * 1e9;
  const auto per = [pass_ns](std::uint64_t n) {
    return n ? pass_ns / static_cast<double>(n) : 0.0;
  };
  const std::vector<double> call_ms = all_call_ms(plain);
  const auto tail = tail_quantile(call_ms, 0.9);
  const std::uint64_t events =
      first.events_scheduled ? first.events_scheduled : first.events_executed;
  std::vector<Metric> m = {
      {"sim.events_scheduled", static_cast<double>(first.events_scheduled),
       "count"},
      {"sim.events_executed", static_cast<double>(first.events_executed),
       "count"},
      {"sim.host_ns_per_event", per(events), "ns"},
      {"sim.parallel_speedup", speedup, "ratio"},
      {"gpu.instructions", static_cast<double>(first.gpu_instructions),
       "count"},
      {"gpu.host_ns_per_instr", per(first.gpu_instructions), "ns"},
      {"gpu.l2_hit_ratio", l2_hit_ratio, "ratio"},
      {"putget.call_ms", halo ? 0.0 : median(call_ms), "ms"},
      {"putget.call_ms_p90", !halo && tail ? *tail : 0.0, "ms"},
      {"putget.fill_pattern_ms",
       opt.workload == Workload::kPingpongGpu
           ? fill_pattern_ms(s.calls(), rep, root)
           : 0.0,
       "ms"},
      {"shmem.call_ms", halo ? median(call_ms) : 0.0, "ms"},
      {"shmem.halo_puts", static_cast<double>(first.halo_puts), "count"},
      {"shmem.notified", static_cast<double>(first.notified), "count"},
      {"sys.cluster_ctor_ms", s.cluster_ctor_ms(), "ms"},
      {"obs.trace_overhead", best_pass_s(traced) / best_pass_s(plain),
       "ratio"},
  };
  rep.metrics.insert(rep.metrics.end(), m.begin(), m.end());

  rep.notes.push_back(summary("untraced", plain));
  rep.notes.push_back(summary("metered", traced));
  rep.notes.push_back(tail_note("raw call host time", call_ms));
  rep.notes.push_back(
      "counts are per pass; host-time ratios use the untraced best-of-N "
      "pass");
}

}  // namespace

Report run_benchmark(const Options& opt) {
  Report rep;
  const std::uint32_t root = rep.spans.begin(
      std::string("run/") + workload_name(opt.workload) +
          (opt.trace ? "/traced" : ""),
      Spans::kNoParent);
  rep.notes.push_back(
      "closed loop, one caller; every driver call builds a fresh cluster, so "
      "the modelled L2 always starts empty");
  SetUps s(opt, rep, root);
  if (opt.trace) {
    traced_run(opt, rep, s, root);
  } else {
    measured_run(opt, rep, s, root);
  }
  rep.spans.end(root);
  rep.notes.push_back("digest " + hex(rep.digest));
  return rep;
}

}  // namespace pb

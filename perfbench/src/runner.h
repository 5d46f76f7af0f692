// The benchmark's phases: seeded set-up, the measured closed loop of
// passes over the workload's call list, and the traced run that gives
// per-layer counts and host times.
//
// One process acts as one closed-loop caller: it makes the next driver
// call only after the previous one returned. The only other threads are
// the event-engine workers of shmem_halo8's parallel passes in the traced
// run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace pb {

/// Spans recorded from the benchmark's own code around each call into a
/// layer: name, start, end and the span that caused it. They stay in
/// memory until write_json.
class Spans {
 public:
  static constexpr std::uint32_t kNoParent = 0;

  /// Opens a span and returns its id (ids start at 1).
  std::uint32_t begin(std::string name, std::uint32_t parent);
  void end(std::uint32_t id);
  void write_json(std::FILE* out) const;

 private:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;
    std::string name;
    double start_ms;
    double end_ms;
  };
  double now_ms() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// One pass over a call list.
struct Pass {
  double wall_s = 0;
  std::vector<double> call_ms;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Per-pass sums of the model counts the results expose.
  std::uint64_t gpu_instructions = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t halo_puts = 0;
  std::uint64_t notified = 0;
};

/// Runs every call in order, timing each one. A call fails by the
/// correctness gate; halo calls of one pass must also agree on the field
/// checksum across fabrics (a disagreement fails one more operation).
/// The pass span is named `pass_name` and hangs under `parent`; each
/// call's span is named by its label.
Pass run_pass(const std::vector<Call>& calls, Spans& spans,
              std::uint32_t parent, const char* pass_name);

struct Options {
  Workload workload = Workload::kPingpongHost;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool have_digest = false;
  std::uint64_t digest = 0;  // of the first measured pass
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines
  Spans spans;
};

Report run_benchmark(const Options& opt);

}  // namespace pb

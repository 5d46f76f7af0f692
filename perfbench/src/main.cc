// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Prints human-readable lines, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"digest":"..","metrics":{..}}
// With --trace 0 the metrics are the end-to-end host-time metrics; with
// --trace 1 they are the per-layer counts and host times. --spans writes
// the spans recorded around every call (traced or not) as JSON.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/json.h"
#include "runner.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pingpong_host|pingpong_gpu|msgrate|shmem_halo8 --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool have_workload = false;
  std::string spans_path;
  if (argc % 2 == 0) return usage("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      const auto w = pb::parse_workload(v);
      if (!w) return usage("unknown workload");
      opt.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--spans") {
      spans_path = v;
    } else {
      return usage("unknown argument");
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  const pb::Report rep = pb::run_benchmark(opt);
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d\n",
              pb::workload_name(opt.workload), opt.seed, opt.trace ? 1 : 0);
  for (const std::string& n : rep.notes) std::printf("  %s\n", n.c_str());
  std::printf("  failed_ops %" PRIu64 "/%" PRIu64 " = %.6f\n", rep.failed,
              rep.attempted,
              rep.attempted ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0);
  for (const pb::Metric& m : rep.metrics) {
    std::printf("  %-24s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  if (!spans_path.empty()) {
    if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
      rep.spans.write_json(f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                   spans_path.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"digest\":\"%016" PRIx64 "\",\"metrics\":{",
              rep.failed == 0 ? "true" : "false",
              rep.attempted, rep.failed, rep.digest);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const pb::Metric& m = rep.metrics[i];
    std::printf("%s%s:{\"value\":%s,\"unit\":%s}", i ? "," : "",
                pg::obs::json_string(m.name).c_str(),
                pg::obs::json_double(m.value).c_str(),
                pg::obs::json_string(m.unit).c_str());
  }
  std::printf("}}\n");
  return 0;
}

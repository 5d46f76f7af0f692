// SHMEM GUPS: random 8-byte remote updates through the symmetric-heap
// API (HPCC RandomAccess flavour). One user code path, both fabrics —
// the backend is a config enum — and three driving styles: host
// put-with-notification streams, remote fetch-and-add, and GPU-driven
// put-list kernels compiled from the same symmetric offsets.
//
// Every cell is a *verified* run: the final table state is checked
// against a host replay of the generated update stream before the rate
// is reported.
#include <cstdio>

#include "bench_util.h"
#include "shmem/workloads.h"

int main(int argc, char** argv) {
  if (pg::bench::handle_list_flag(
          argc, argv, "shmem-gups",
          {"extoll host", "extoll gpu", "ib host", "ib gpu",
           "extoll amo p50", "extoll amo p99", "ib amo p50", "ib amo p99"},
          /*threads=*/true)) {
    return 0;
  }
  pg::bench::Session session(argc, argv);
  using namespace pg;
  using shmem::GupsConfig;
  using shmem::GupsMode;
  using putget::RmaBackend;

  bench::print_title(
      "SHMEM GUPS - random remote updates, symmetric heap [MUPS]",
      "4 PEs full mesh; host put-notify vs GPU put-list; verified replay");

  auto run = [&](RmaBackend backend, GupsMode mode, std::uint32_t updates,
                 double zipf) {
    GupsConfig cfg;
    cfg.backend = backend;
    cfg.mode = mode;
    cfg.num_pes = 4;
    cfg.updates_per_pe = updates;
    cfg.table_words = 64;
    cfg.zipf_s = zipf;
    cfg.threads = session.threads();
    cfg.sample_every = session.sample_every();
    const auto r = shmem::run_gups(cfg);
    if (!r.verified) {
      std::fprintf(stderr, "FAILED: %s/%s %u updates: %s\n",
                   sys::backend_name(backend),
                   shmem::gups_mode_name(mode), updates,
                   r.error.empty() ? "table mismatch" : r.error.c_str());
      std::exit(1);
    }
    return r;
  };

  {
    bench::SeriesTable table(
        "updates/PE", {"extoll host", "extoll gpu", "ib host", "ib gpu"});
    for (std::uint32_t updates : {16u, 32u, 64u}) {
      std::vector<double> row;
      for (RmaBackend b : {RmaBackend::kExtoll, RmaBackend::kIb}) {
        for (GupsMode m : {GupsMode::kPutNotify, GupsMode::kGpu}) {
          row.push_back(run(b, m, updates, 0.0).gups * 1e3);  // MUPS
        }
      }
      char label[16];
      std::snprintf(label, sizeof(label), "%u", updates);
      table.add_row(label, row);
    }
    session.emit("shmem-gups-uniform", table, "%12.3f");
  }

  {
    // Zipf skew concentrates updates on hot words; the rate barely
    // moves because per-origin columns keep the streams conflict-free.
    bench::SeriesTable table("zipf s", {"extoll host", "ib host"});
    for (double s : {0.0, 0.8, 1.2}) {
      std::vector<double> row;
      for (RmaBackend b : {RmaBackend::kExtoll, RmaBackend::kIb}) {
        row.push_back(run(b, GupsMode::kPutNotify, 48, s).gups * 1e3);
      }
      char label[16];
      std::snprintf(label, sizeof(label), "%.1f", s);
      table.add_row(label, row);
    }
    session.emit("shmem-gups-zipf", table, "%12.3f");
  }

  {
    // Fetch-and-add round-trip latency: get + put (+ EXTOLL readback),
    // quantiles over every op.
    bench::SeriesTable table("metric", {"extoll", "ib"});
    std::vector<double> p50, p99;
    for (RmaBackend b : {RmaBackend::kExtoll, RmaBackend::kIb}) {
      const auto r = run(b, GupsMode::kAmo, 16, 0.0);
      p50.push_back(r.amo_p50_ns / 1000.0);
      p99.push_back(r.amo_p99_ns / 1000.0);
    }
    table.add_row("amo p50 [us]", p50);
    table.add_row("amo p99 [us]", p99);
    session.emit("shmem-gups-amo", table, "%12.3f");
  }

  return 0;
}

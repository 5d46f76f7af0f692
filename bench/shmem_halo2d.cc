// SHMEM 2-D halo exchange: an additive 5-point stencil over a torus of
// PEs, four notification puts per PE per iteration (contiguous rows
// direct from the field, strided columns through GPU pack/unpack
// kernels and staging buffers). The same user code runs on both
// fabrics; each cell is verified against a host reference of the full
// global torus, and the two backends must agree on the checksum.
#include <cstdio>

#include "bench_util.h"
#include "shmem/workloads.h"

int main(int argc, char** argv) {
  if (pg::bench::handle_list_flag(
          argc, argv, "shmem-halo2d",
          {"extoll[us/iter]", "ib[us/iter]", "puts/iter"},
          /*threads=*/true)) {
    return 0;
  }
  pg::bench::Session session(argc, argv);
  using namespace pg;
  using putget::RmaBackend;

  bench::print_title(
      "SHMEM 2-D halo exchange - 5-point stencil on a PE torus",
      "2x2 PEs; 4 notification puts per PE per iteration; verified");

  auto run = [&](RmaBackend backend, std::uint32_t nx, std::uint32_t ny) {
    shmem::Halo2dConfig cfg;
    cfg.backend = backend;
    cfg.px = 2;
    cfg.py = 2;
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.iterations = 6;
    cfg.threads = session.threads();
    cfg.sample_every = session.sample_every();
    const auto r = shmem::run_halo2d(cfg);
    if (!r.verified || r.notified_total != r.halo_puts) {
      std::fprintf(stderr, "FAILED: %s %ux%u: %s\n",
                   sys::backend_name(backend), nx, ny,
                   r.error.empty() ? "field mismatch" : r.error.c_str());
      std::exit(1);
    }
    return r;
  };

  bench::SeriesTable table("tile",
                           {"extoll[us/iter]", "ib[us/iter]", "puts/iter"});
  for (std::uint32_t tile : {4u, 8u, 16u}) {
    const auto ext = run(RmaBackend::kExtoll, tile, tile);
    const auto ib = run(RmaBackend::kIb, tile, tile);
    if (ext.checksum != ib.checksum) {
      std::fprintf(stderr, "FAILED: backend checksum mismatch at %u\n", tile);
      return 1;
    }
    char label[24];
    std::snprintf(label, sizeof(label), "%ux%u", tile, tile);
    table.add_row(label,
                  {ext.sim_time_us / ext.iterations,
                   ib.sim_time_us / ib.iterations,
                   static_cast<double>(ext.halo_puts / ext.iterations)});
  }
  session.emit("shmem-halo2d", table, "%12.2f");
  return 0;
}

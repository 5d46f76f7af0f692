// Extension: N-node ring halo exchange over both fabrics.
//
// Scales the paper's two-node testbed out to a ring of N GPUs and runs
// the hybrid stencil+put workload (compute on every GPU, one-sided halo
// puts between neighbours) over the EXTOLL RMA and InfiniBand verbs
// backends: shmem::run_halo2d on an N x 1 PE grid, wired as the chosen
// topology. Every cell of the distributed result is checked against a
// host reference of the full periodic domain; a run that fails
// verification, loses or duplicates a notification, or computes a
// different field on the two fabrics fails the bench.
#include <cstdio>

#include "bench_util.h"
#include "shmem/workloads.h"

int main(int argc, char** argv) {
  if (pg::bench::handle_list_flag(argc, argv, "ext-multinode-ring",
                                   {"extoll[us/iter]", "ib[us/iter]", "extoll msgs", "ib msgs"},
                                   /*threads=*/true, /*topology=*/true)) {
    return 0;
  }
  pg::bench::Session session(argc, argv);
  using namespace pg;
  using putget::RmaBackend;
  const net::Topology topo = session.topology(net::Topology::kRing);
  bench::print_title(
      "Extension - N-node ring halo exchange, EXTOLL vs InfiniBand",
      topo == net::Topology::kRing
          ? std::string("per-iteration time [us] for one stencil step + halo "
                        "exchange; verified against the host reference")
          : std::string("per-iteration time [us] for one stencil step + halo "
                        "exchange over the ") +
                net::topology_name(topo) +
                " wiring; verified against the host reference");

  // Node counts valid for the wiring shape: the torus needs a
  // factorable n >= 4; the logical ring itself runs on any connected
  // topology (non-adjacent neighbours relay through the fabric).
  std::vector<int> node_counts = {2, 3, 4};
  if (topo == net::Topology::kTorus2D) node_counts = {4, 8};
  if (topo == net::Topology::kFatTree) node_counts = {4, 8};
  if (topo == net::Topology::kPair) node_counts = {2};

  const RmaBackend backends[] = {RmaBackend::kExtoll, RmaBackend::kIb};
  bench::SeriesTable table("nodes", {"extoll[us/iter]", "ib[us/iter]",
                                     "extoll msgs", "ib msgs"});
  for (int nodes : node_counts) {
    shmem::Halo2dResult r[2];
    for (int b = 0; b < 2; ++b) {
      const RmaBackend backend = backends[b];
      shmem::Halo2dConfig cfg;
      cfg.backend = backend;
      cfg.topology = topo;
      cfg.px = nodes;
      cfg.py = 1;
      cfg.iterations = 24;
      cfg.threads = session.threads();
      cfg.sample_every = session.sample_every();
      shmem::Halo2dResult& res = r[b];
      res = shmem::run_halo2d(cfg);
      if (!res.verified) {
        std::fprintf(stderr, "FAILED: %s ring with %d nodes: %s\n",
                     sys::backend_name(backend), nodes, res.error.c_str());
        return 1;
      }
      if (res.notified_total != res.halo_puts) {
        std::fprintf(stderr,
                     "FAILED: %s ring with %d nodes notified %llu of %llu "
                     "halo puts\n",
                     sys::backend_name(backend), nodes,
                     static_cast<unsigned long long>(res.notified_total),
                     static_cast<unsigned long long>(res.halo_puts));
        return 1;
      }
    }
    if (r[0].checksum != r[1].checksum) {
      std::fprintf(stderr, "FAILED: ring with %d nodes: EXTOLL and IB "
                   "fields differ\n", nodes);
      return 1;
    }
    table.add_row(std::to_string(nodes),
                  {r[0].sim_time_us / r[0].iterations,
                   r[1].sim_time_us / r[1].iterations,
                   static_cast<double>(r[0].halo_puts),
                   static_cast<double>(r[1].halo_puts)});
  }
  session.emit("ext-multinode-ring", table);
  return 0;
}

// Halo exchange: a stencil distributed over a ring of GPUs, with
// per-iteration boundary exchange over the put/get fabric.
//
// This is the hybrid programming model the paper's introduction
// motivates: GPU kernels compute, one-sided puts move halos. The heavy
// lifting lives in shmem::run_halo2d - a periodic stencil whose
// boundary columns cross the wire every step as put-with-notification,
// verified against a single-host reference - and the same core backs
// the bench/ext_multinode_ring figure. This example runs it on a 4 x 1
// PE grid wired as a four-node ring, over both fabrics.
#include <cstdio>

#include "shmem/workloads.h"

using namespace pg;

int main() {
  for (putget::RmaBackend backend :
       {putget::RmaBackend::kExtoll, putget::RmaBackend::kIb}) {
    shmem::Halo2dConfig cfg;
    cfg.backend = backend;
    cfg.topology = net::Topology::kRing;
    cfg.px = 4;
    cfg.py = 1;
    cfg.nx = 8;
    cfg.ny = 8;
    cfg.iterations = 24;

    const shmem::Halo2dResult r = shmem::run_halo2d(cfg);
    if (!r.verified || r.notified_total != r.halo_puts) {
      std::fprintf(stderr, "halo exchange FAILED over %s: %s\n",
                   sys::backend_name(backend), r.error.c_str());
      return 1;
    }
    std::printf("halo exchange over %s: %u iterations on a %d-node ring "
                "(%ux%u cells each) verified against the host reference\n",
                sys::backend_name(backend), r.iterations, r.num_pes, cfg.nx,
                cfg.ny);
    std::printf("  simulated time %.1f us; %llu halo puts notified exactly "
                "once; field checksum %llu\n",
                r.sim_time_us, static_cast<unsigned long long>(r.halo_puts),
                static_cast<unsigned long long>(r.checksum));
  }
  return 0;
}

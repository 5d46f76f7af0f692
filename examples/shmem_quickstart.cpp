// SHMEM quickstart: the same symmetric-heap program, run once per
// fabric. This is the code shape the README quotes — a GUPS-style
// scatter of tagged words into a distributed table:
//
//   1. build an N-node full-mesh cluster and a Shmem heap on it,
//   2. shmem_malloc a table (one call, valid offset on every PE),
//   3. every PE puts tagged words into its neighbours' tables with
//      put-with-notification,
//   4. quiet() for source completion, wait_notified() for arrivals,
//   5. peek the remote tables and verify — then run the identical
//      function again with the other backend and compare checksums.
#include <cstdio>

#include "shmem/shmem.h"
#include "sys/testbed.h"

using namespace pg;
using putget::Completion;
using putget::RmaBackend;

namespace {

/// The portable part: everything below speaks symmetric offsets and
/// shmem verbs only — nothing names a port, QP, NLA or MR.
std::uint64_t scatter_and_verify(shmem::Shmem& s) {
  const int n = s.n_pes();
  const std::uint32_t words_per_pe = 8;
  const shmem::SymOff table = *s.shmem_malloc(n * words_per_pe * 8);
  const shmem::SymOff stage = *s.shmem_malloc(8);

  // Every PE tags one word in every other PE's table column.
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (to == from) continue;
      for (std::uint32_t w = 0; w < words_per_pe; ++w) {
        const std::uint64_t tag =
            0xABCD0000ull | (from << 12) | (to << 4) | w;
        s.poke_u64(from, stage, tag);
        if (!s.put(from, to, table + (from * words_per_pe + w) * 8, stage, 8,
                   Completion::kNotification)
                 .is_ok()) {
          return 0;
        }
      }
    }
  }
  // Source-side: everything flushed. Target-side: every arrival seen.
  for (int pe = 0; pe < n; ++pe) {
    if (!s.quiet(pe).is_ok()) return 0;
    if (!s.wait_notified(pe, (n - 1) * words_per_pe)) return 0;
  }
  // Verify and checksum the distributed table.
  std::uint64_t checksum = 0;
  for (int to = 0; to < n; ++to) {
    for (int from = 0; from < n; ++from) {
      if (to == from) continue;
      for (std::uint32_t w = 0; w < words_per_pe; ++w) {
        const std::uint64_t got =
            s.peek_u64(to, table + (from * words_per_pe + w) * 8);
        const std::uint64_t want =
            0xABCD0000ull | (from << 12) | (to << 4) | w;
        if (got != want) return 0;
        checksum += got;
      }
    }
  }
  return checksum;
}

std::uint64_t run_backend(RmaBackend backend) {
  sys::ClusterConfig cfg = sys::default_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kFullMesh;
  sys::Cluster cluster(cfg);

  shmem::ShmemOptions so;
  so.backend = backend;
  auto s = shmem::Shmem::create(cluster, so);
  if (!s.is_ok()) {
    std::fprintf(stderr, "shmem setup failed: %s\n",
                 s.status().to_string().c_str());
    return 0;
  }
  const std::uint64_t checksum = scatter_and_verify(**s);
  std::printf("  %-6s : checksum %016llx, %llu arrivals/PE observed\n",
              sys::backend_name(backend),
              static_cast<unsigned long long>(checksum),
              static_cast<unsigned long long>((*s)->notified(0)));
  return checksum;
}

}  // namespace

int main() {
  std::printf("shmem quickstart - one program, two fabrics\n");
  const std::uint64_t ext = run_backend(RmaBackend::kExtoll);
  const std::uint64_t ib = run_backend(RmaBackend::kIb);
  if (ext == 0 || ext != ib) {
    std::fprintf(stderr, "FAILED: backends disagree\n");
    return 1;
  }
  std::printf("  backends agree.\n");
  return 0;
}

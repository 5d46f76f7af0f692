// End-to-end tests for the shmem proof workloads (GUPS and 2-D halo
// exchange). Every run self-verifies against a host replay/reference;
// the tests additionally pin the cross-fabric portability claims:
// identical checksums and arrival counts on EXTOLL and IB for the same
// seed, host- and GPU-driven paths agreeing, and determinism of the
// event-count fingerprint.
#include <gtest/gtest.h>

#include <string>

#include "shmem/workloads.h"

namespace pg::shmem {
namespace {

using putget::RmaBackend;

constexpr RmaBackend kBackends[] = {RmaBackend::kExtoll, RmaBackend::kIb};

GupsConfig small_gups(RmaBackend backend, GupsMode mode) {
  GupsConfig cfg;
  cfg.backend = backend;
  cfg.mode = mode;
  cfg.num_pes = 3;
  cfg.updates_per_pe = 12;
  cfg.table_words = 16;
  return cfg;
}

TEST(GupsWorkload, PutNotifyVerifiesAndMatchesAcrossFabrics) {
  GupsResult r[2];
  int i = 0;
  for (RmaBackend backend : kBackends) {
    r[i] = run_gups(small_gups(backend, GupsMode::kPutNotify));
    ASSERT_TRUE(r[i].verified) << r[i].error;
    EXPECT_EQ(r[i].updates, 3u * 12u);
    // Every update is a kNotification put; all arrivals observed.
    EXPECT_EQ(r[i].notified_total, r[i].updates);
    EXPECT_GT(r[i].gups, 0.0);
    ++i;
  }
  // The workload is defined by (seed, size), not by the fabric.
  EXPECT_EQ(r[0].checksum, r[1].checksum);
  EXPECT_EQ(r[0].notified_total, r[1].notified_total);
}

TEST(GupsWorkload, GpuDrivenMatchesHostDriven) {
  for (RmaBackend backend : kBackends) {
    const GupsResult host = run_gups(small_gups(backend, GupsMode::kPutNotify));
    const GupsResult gpu = run_gups(small_gups(backend, GupsMode::kGpu));
    ASSERT_TRUE(host.verified) << host.error;
    ASSERT_TRUE(gpu.verified) << gpu.error;
    // Same seed, same update stream, same final table — whether the
    // puts were posted by the host or by the device put-list kernel.
    EXPECT_EQ(gpu.checksum, host.checksum)
        << sys::backend_name(backend);
    EXPECT_GT(gpu.device_span_ns, 0.0);
  }
}

TEST(GupsWorkload, AmoModeVerifiesWithLatencyQuantiles) {
  for (RmaBackend backend : kBackends) {
    const GupsResult r = run_gups(small_gups(backend, GupsMode::kAmo));
    ASSERT_TRUE(r.verified) << r.error;
    EXPECT_GT(r.amo_p50_ns, 0.0);
    EXPECT_GE(r.amo_p99_ns, r.amo_p50_ns);
  }
}

TEST(GupsWorkload, ZipfSkewStillVerifies) {
  for (RmaBackend backend : kBackends) {
    GupsConfig cfg = small_gups(backend, GupsMode::kPutNotify);
    cfg.zipf_s = 1.2;
    const GupsResult r = run_gups(cfg);
    ASSERT_TRUE(r.verified) << r.error;
  }
}

TEST(GupsWorkload, DeterministicEventFingerprint) {
  const GupsConfig cfg = small_gups(RmaBackend::kExtoll, GupsMode::kPutNotify);
  const GupsResult a = run_gups(cfg);
  const GupsResult b = run_gups(cfg);
  ASSERT_TRUE(a.verified) << a.error;
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
}

TEST(GupsWorkload, RejectsDegenerateConfigs) {
  GupsConfig cfg = small_gups(RmaBackend::kExtoll, GupsMode::kPutNotify);
  cfg.num_pes = 1;
  EXPECT_FALSE(run_gups(cfg).verified);
  EXPECT_FALSE(run_gups(cfg).error.empty());

  cfg = small_gups(RmaBackend::kIb, GupsMode::kPutNotify);
  cfg.updates_per_pe = 0;
  EXPECT_FALSE(run_gups(cfg).verified);
}

Halo2dConfig small_halo(RmaBackend backend) {
  Halo2dConfig cfg;
  cfg.backend = backend;
  cfg.px = 2;
  cfg.py = 2;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.iterations = 2;
  return cfg;
}

TEST(Halo2dWorkload, VerifiesAndMatchesAcrossFabrics) {
  Halo2dResult r[2];
  int i = 0;
  for (RmaBackend backend : kBackends) {
    r[i] = run_halo2d(small_halo(backend));
    ASSERT_TRUE(r[i].verified) << r[i].error;
    EXPECT_EQ(r[i].num_pes, 4);
    // 4 notification puts per PE per iteration, all observed.
    EXPECT_EQ(r[i].halo_puts, 4u * 4u * 2u);
    EXPECT_EQ(r[i].notified_total, r[i].halo_puts);
    ++i;
  }
  EXPECT_EQ(r[0].checksum, r[1].checksum);
}

TEST(Halo2dWorkload, DeterministicEventFingerprint) {
  const Halo2dConfig cfg = small_halo(RmaBackend::kIb);
  const Halo2dResult a = run_halo2d(cfg);
  const Halo2dResult b = run_halo2d(cfg);
  ASSERT_TRUE(a.verified) << a.error;
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.checksum, b.checksum);
}

// A px x 1 grid is a ring of PEs: north/south halos stay local, so
// exactly the two column edges per PE per iteration cross the fabric,
// on every wiring that can carry the ring.
TEST(Halo2dWorkload, OneRowGridVerifiesOnEveryTopology) {
  const struct {
    net::Topology topo;
    int px;
  } cases[] = {{net::Topology::kPair, 2},
               {net::Topology::kRing, 3},
               {net::Topology::kRing, 4},
               {net::Topology::kTorus2D, 8},
               {net::Topology::kFatTree, 8}};
  for (const auto& c : cases) {
    Halo2dResult r[2];
    int i = 0;
    for (RmaBackend backend : kBackends) {
      Halo2dConfig cfg = small_halo(backend);
      cfg.topology = c.topo;
      cfg.px = c.px;
      cfg.py = 1;
      r[i] = run_halo2d(cfg);
      const std::string name = std::string(net::topology_name(c.topo)) + " " +
                               std::to_string(c.px) + "x1 " +
                               sys::backend_name(backend);
      ASSERT_TRUE(r[i].verified) << name << ": " << r[i].error;
      EXPECT_EQ(r[i].num_pes, c.px) << name;
      EXPECT_EQ(r[i].halo_puts, 2u * c.px * cfg.iterations) << name;
      EXPECT_EQ(r[i].notified_total, r[i].halo_puts) << name;
      ++i;
    }
    EXPECT_EQ(r[0].checksum, r[1].checksum) << net::topology_name(c.topo);
  }
}

TEST(Halo2dWorkload, RejectsDegenerateGrid) {
  Halo2dConfig cfg = small_halo(RmaBackend::kExtoll);
  cfg.px = 1;
  Halo2dResult r = run_halo2d(cfg);
  EXPECT_FALSE(r.verified);
  EXPECT_FALSE(r.error.empty());

  cfg = small_halo(RmaBackend::kIb);
  cfg.py = 0;
  r = run_halo2d(cfg);
  EXPECT_FALSE(r.verified);
  EXPECT_FALSE(r.error.empty());

  // A wiring the cluster cannot build (a torus needs a factorable
  // n >= 4) is an error too, not an abort.
  cfg = small_halo(RmaBackend::kExtoll);
  cfg.topology = net::Topology::kTorus2D;
  cfg.px = 3;
  cfg.py = 1;
  r = run_halo2d(cfg);
  EXPECT_FALSE(r.verified);
  EXPECT_FALSE(r.error.empty());
}

}  // namespace
}  // namespace pg::shmem

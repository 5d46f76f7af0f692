// Absolute values pinned across commits. The determinism tests compare
// two runs of one binary; these compare every build against numbers
// recorded once, so an engine change that shifts a single tie-break,
// event count or latency fails here even when it is self-consistent.
// Re-pin only with a change that means to move simulated results, and
// say so where it is recorded.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "putget/extoll_experiments.h"
#include "putget/ib_experiments.h"
#include "shmem/workloads.h"
#include "sys/testbed.h"

namespace pg {
namespace {

struct PinnedPingPong {
  bool ib;
  putget::TransferMode mode;
  std::uint32_t size;
  double half_rtt_us;
  std::uint64_t events_scheduled;
};

constexpr putget::TransferMode kAssisted = putget::TransferMode::kHostAssisted;
constexpr putget::TransferMode kHostCtl = putget::TransferMode::kHostControlled;

// 20 iterations each; IB queues in host memory.
constexpr PinnedPingPong kPingPong[] = {
    {false, kAssisted, 4, 4.27275, 7110},
    {false, kAssisted, 4096, 23.01775, 35202},
    {false, kAssisted, 262144, 480.9765, 731179},
    {false, kHostCtl, 4, 3.7755, 5476},
    {false, kHostCtl, 4096, 22.494, 30276},
    {false, kHostCtl, 262144, 480.4455, 646602},
    {true, kAssisted, 4, 5.877, 9491},
    {true, kAssisted, 4096, 13.12775, 20299},
    {true, kAssisted, 262144, 307.73475, 467220},
    {true, kHostCtl, 4, 5.3415, 7530},
    {true, kHostCtl, 4096, 12.6015, 17089},
    {true, kHostCtl, 262144, 307.2045, 412768},
};

TEST(PinnedValues, HostPolledPingPong) {
  for (const PinnedPingPong& p : kPingPong) {
    const putget::PingPongResult r =
        p.ib ? putget::run_ib_pingpong(sys::ib_testbed(), p.mode,
                                       putget::QueueLocation::kHostMemory,
                                       p.size, 20)
             : putget::run_extoll_pingpong(sys::extoll_testbed(), p.mode,
                                           p.size, 20);
    SCOPED_TRACE(std::string(p.ib ? "ib" : "extoll") + " mode " +
                 std::to_string(static_cast<int>(p.mode)) + " size " +
                 std::to_string(p.size));
    EXPECT_TRUE(r.payload_ok);
    EXPECT_DOUBLE_EQ(r.half_rtt_us, p.half_rtt_us);
    EXPECT_EQ(r.events_scheduled, p.events_scheduled);
  }
}

TEST(PinnedValues, Halo2dAtOneAndFourThreads) {
  struct Pinned {
    putget::RmaBackend backend;
    std::uint64_t events_executed;
    double sim_time_us;
  };
  for (const Pinned& p : {Pinned{putget::RmaBackend::kExtoll, 5170, 538.39},
                          Pinned{putget::RmaBackend::kIb, 5581, 543.76}}) {
    for (int threads : {1, 4}) {
      shmem::Halo2dConfig cfg;
      cfg.backend = p.backend;
      cfg.px = 2;
      cfg.py = 2;
      cfg.nx = 16;
      cfg.ny = 16;
      cfg.iterations = 3;
      cfg.threads = threads;
      const shmem::Halo2dResult r = shmem::run_halo2d(cfg);
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(p.backend)) +
                   " threads " + std::to_string(threads));
      EXPECT_TRUE(r.verified) << r.error;
      EXPECT_EQ(r.events_executed, p.events_executed);
      EXPECT_EQ(r.checksum, 0x25b7226457c9f17full);
      EXPECT_DOUBLE_EQ(r.sim_time_us, p.sim_time_us);
    }
  }
}

}  // namespace
}  // namespace pg

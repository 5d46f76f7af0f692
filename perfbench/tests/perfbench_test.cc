// Tests of the benchmark itself: its digest, its percentile rule and
// its failure counting.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "runner.h"
#include "stats.h"
#include "workloads.h"

namespace pb {
namespace {

Call small_halo(Fabric f, std::uint64_t seed) {
  Call c;
  c.kind = Call::Kind::kHalo;
  c.fabric = f;
  c.px = 2;
  c.py = 2;
  c.tile = 8;
  c.iterations = 2;
  c.halo_seed = seed;
  c.threads = 2;
  return c;
}

/// A few cheap calls of every kind, in seeded order.
std::vector<Call> small_calls() {
  std::vector<Call> calls;
  for (const Call& c : make_calls(Workload::kPingpongHost, 3)) {
    if (c.size <= 64) calls.push_back(c);
  }
  Call rate;
  rate.kind = Call::Kind::kMsgRate;
  rate.fabric = Fabric::kIb;
  rate.variant = pg::putget::RateVariant::kBlocks;
  rate.pairs = 2;
  rate.msgs_per_pair = 4;
  calls.push_back(rate);
  calls.push_back(small_halo(Fabric::kExtoll, 5));
  calls.push_back(small_halo(Fabric::kIb, 5));
  return calls;
}

TEST(Perfbench, DigestRepeatsAcrossInProcessRuns) {
  const std::vector<Call> calls = small_calls();
  Spans spans;
  const Pass a = run_pass(calls, spans, Spans::kNoParent, "pass");
  const Pass b = run_pass(calls, spans, Spans::kNoParent, "pass");
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.attempted, calls.size());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_GT(a.events_scheduled, 0u);
  EXPECT_GT(a.halo_puts, 0u);

  // The digest sees the simulated results: a different halo seed
  // changes the field checksum and hence the digest.
  std::vector<Call> other = calls;
  other.back() = small_halo(Fabric::kIb, 6);
  other[other.size() - 2] = small_halo(Fabric::kExtoll, 6);
  EXPECT_NE(run_pass(other, spans, Spans::kNoParent, "pass").digest, a.digest);
}

TEST(Perfbench, SeedDrawsSizesInsideBandsAndOrder) {
  const std::vector<Call> a = make_calls(Workload::kPingpongGpu, 1);
  const std::vector<Call> b = make_calls(Workload::kPingpongGpu, 1);
  ASSERT_EQ(a.size(), 44u);
  bool order_differs = false;
  const std::vector<Call> c = make_calls(Workload::kPingpongGpu, 2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label());
    order_differs |= a[i].label() != c[i].label();
    const std::uint32_t base = std::bit_floor(a[i].size);
    EXPECT_LE(a[i].size - base, base / 32);
  }
  EXPECT_TRUE(order_differs);
}

TEST(Perfbench, TailPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_FALSE(tail_quantile(v, 0.9).has_value());
  v.push_back(100);
  ASSERT_TRUE(tail_quantile(v, 0.9).has_value());
  EXPECT_EQ(*tail_quantile(v, 0.9), 90.0);
  EXPECT_FALSE(tail_quantile(v, 0.99).has_value());
  EXPECT_EQ(median({3, 1, 2, 4}), 2.5);
}

TEST(Perfbench, FailedOpsCountsForcedFailures) {
  // Each gate rule on a result that breaks it.
  EXPECT_TRUE(gate_failed(pg::putget::PingPongResult{}));
  EXPECT_TRUE(gate_failed(pg::putget::MessageRateResult{}));
  pg::shmem::Halo2dResult lost;
  lost.verified = true;
  lost.halo_puts = 4;
  lost.notified_total = 3;
  EXPECT_TRUE(gate_failed(lost));

  // A degenerate 1x2 grid is refused by run_halo2d: one failed call out
  // of two attempted.
  std::vector<Call> calls = {small_calls().front(),
                             small_halo(Fabric::kExtoll, 5)};
  calls[1].px = 1;
  Spans spans;
  const Pass p = run_pass(calls, spans, Spans::kNoParent, "pass");
  EXPECT_EQ(p.attempted, 2u);
  EXPECT_EQ(p.failed, 1u);

  // Halo calls of one pass that disagree on the field fail once more.
  const Pass mixed = run_pass(
      {small_halo(Fabric::kExtoll, 5), small_halo(Fabric::kIb, 6)}, spans,
      Spans::kNoParent, "pass");
  EXPECT_EQ(mixed.attempted, 2u);
  EXPECT_EQ(mixed.failed, 1u);
}

}  // namespace
}  // namespace pb

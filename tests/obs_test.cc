// Tests for the observability subsystem (src/obs/): histogram bucket
// math, trace JSON well-formedness, metrics snapshot determinism, and -
// most importantly - that attaching the sinks does not perturb the
// simulation (traced results equal untraced results exactly).
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>

#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/shard_sink.h"
#include "obs/trace.h"
#include "putget/extoll_experiments.h"
#include "putget/modes.h"
#include "sim/simulation.h"
#include "sys/testbed.h"

namespace pg {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser: accepts exactly the JSON
// grammar (objects, arrays, strings with escapes, numbers, true/false/
// null) and nothing else. Enough to prove the exported trace is
// well-formed without a JSON library dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (!strchr("\"\\/bfnrt", e)) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& s) {
  std::size_t n = 0;
  for (std::size_t p = hay.find(s); p != std::string::npos;
       p = hay.find(s, p + s.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Log2Histogram.

TEST(Log2Histogram, BucketBoundaries) {
  using H = obs::Log2Histogram;
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds
  // [2^(i-1), 2^i - 1].
  EXPECT_EQ(H::bucket_index(0), 0u);
  EXPECT_EQ(H::bucket_index(1), 1u);
  EXPECT_EQ(H::bucket_index(2), 2u);
  EXPECT_EQ(H::bucket_index(3), 2u);
  EXPECT_EQ(H::bucket_index(4), 3u);
  EXPECT_EQ(H::bucket_index(7), 3u);
  EXPECT_EQ(H::bucket_index(8), 4u);
  EXPECT_EQ(H::bucket_index(1023), 10u);
  EXPECT_EQ(H::bucket_index(1024), 11u);
  for (unsigned i = 1; i < 64; ++i) {
    const std::uint64_t lo = H::bucket_lower(i);
    const std::uint64_t hi = H::bucket_upper(i);
    EXPECT_EQ(H::bucket_index(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(H::bucket_index(hi), i) << "upper bound of bucket " << i;
  }
}

TEST(Log2Histogram, RecordAndStats) {
  obs::Log2Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // {0}
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket_count(3), 1u);  // {4}
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Log2Histogram, Percentiles) {
  obs::Log2Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull}) h.record(v);
  // Percentile answers are the upper bound of the first bucket whose
  // cumulative count reaches ceil(p * count).
  EXPECT_EQ(h.percentile(0.0), 0u);   // rank 1 -> bucket 0
  EXPECT_EQ(h.percentile(0.2), 0u);   // rank 1 -> bucket 0
  EXPECT_EQ(h.percentile(0.4), 1u);   // rank 2 -> bucket 1
  EXPECT_EQ(h.percentile(0.5), 3u);   // rank 3 -> bucket 2
  EXPECT_EQ(h.percentile(0.8), 3u);   // rank 4 -> bucket 2
  EXPECT_EQ(h.percentile(1.0), 7u);   // rank 5 -> bucket 3
}

TEST(Log2Histogram, EmptyIsSafe) {
  obs::Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------------------------
// TraceRecorder.

TEST(TraceRecorder, JsonRoundTrip) {
  obs::TraceRecorder rec;
  rec.begin_unit("unit-a");
  const auto t1 = rec.track("pcie");
  const auto t2 = rec.track("node0.gpu");
  rec.span(t1, "tlp", "write", 1000, 2500,
           obs::TraceRecorder::render_args(
               {{"addr", 0xdeadbeefull},
                {"bytes", 64},
                {"dst", std::string("gpu \"0\"\n")}}));  // needs escaping
  rec.instant(t2, "poll", "l2-read", 3000,
              obs::TraceRecorder::render_args({{"hit", true}}));
  rec.begin_unit("unit-b");
  rec.span(t1, "tlp", "read", 500, 700);
  EXPECT_EQ(rec.event_count(), 3u);

  const std::string json = rec.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Both units appear as process metadata, both tracks as thread names.
  EXPECT_NE(json.find("unit-a"), std::string::npos);
  EXPECT_NE(json.find("unit-b"), std::string::npos);
  EXPECT_NE(json.find("\"pcie\""), std::string::npos);
  EXPECT_NE(json.find("\"node0.gpu\""), std::string::npos);
  // Picosecond timestamps render as exact fractional microseconds.
  EXPECT_NE(json.find("\"ts\":0.001000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.001500"), std::string::npos);
  // The escaped argument survived.
  EXPECT_NE(json.find("gpu \\\"0\\\"\\n"), std::string::npos);
}

TEST(TraceRecorder, TrackIdsStable) {
  obs::TraceRecorder rec;
  const auto a = rec.track("alpha");
  const auto b = rec.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.track("alpha"), a);
  EXPECT_EQ(rec.track("beta"), b);
}

TEST(Metrics, SnapshotJsonIsValid) {
  obs::MetricsRegistry reg;
  reg.counter("pcie.write_tlps").add(3);
  reg.gauge("queue.depth").set(7.5);
  auto& h = reg.histogram("lat_ns");
  for (std::uint64_t v = 1; v <= 1000; v *= 3) h.record(v);
  const std::string json = reg.snapshot_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("pcie.write_tlps"), std::string::npos);
  EXPECT_NE(json.find("queue.depth"), std::string::npos);
  EXPECT_NE(json.find("lat_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: identical runs give identical snapshots, and attaching the
// sinks does not change simulated results.

sys::ClusterConfig small_testbed() { return sys::extoll_testbed(); }

TEST(ObsEndToEnd, MetricsSnapshotDeterministic) {
  std::string snapshots[2];
  for (int i = 0; i < 2; ++i) {
    obs::MetricsRegistry reg;
    obs::attach_metrics(&reg);
    const auto r = putget::run_extoll_pingpong(
        small_testbed(), putget::TransferMode::kGpuDirect, 64, 4);
    obs::attach_metrics(nullptr);
    ASSERT_TRUE(r.payload_ok);
    snapshots[i] = reg.snapshot_json();
  }
  EXPECT_FALSE(snapshots[0].empty());
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

TEST(ObsEndToEnd, TracingDoesNotPerturbSimulation) {
  const auto cfg = small_testbed();
  const auto untraced = putget::run_extoll_pingpong(
      cfg, putget::TransferMode::kGpuDirect, 64, 4);
  ASSERT_TRUE(untraced.payload_ok);

  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  obs::attach_recorder(&rec);
  obs::attach_metrics(&reg);
  const auto traced = putget::run_extoll_pingpong(
      cfg, putget::TransferMode::kGpuDirect, 64, 4);
  obs::attach_recorder(nullptr);
  obs::attach_metrics(nullptr);
  ASSERT_TRUE(traced.payload_ok);

  // Exact equality: the hooks only observe; they never schedule events.
  EXPECT_EQ(traced.half_rtt_us, untraced.half_rtt_us);
  EXPECT_EQ(traced.post_sum_us, untraced.post_sum_us);
  EXPECT_EQ(traced.poll_sum_us, untraced.poll_sum_us);
  EXPECT_EQ(traced.gpu0.instructions_executed,
            untraced.gpu0.instructions_executed);
  EXPECT_EQ(traced.gpu0.memory_accesses, untraced.gpu0.memory_accesses);

  // And the trace it produced is substantial, well-formed JSON with
  // spans on the component tracks the run exercises.
  EXPECT_GT(rec.event_count(), 100u);
  const std::string json = rec.to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  for (const char* tr : {"\"pcie\"", "\"node0.gpu\"", "\"node0.extoll\"",
                         "\"putget\""}) {
    EXPECT_NE(json.find(tr), std::string::npos) << tr;
  }
  // One op span per run unit.
  EXPECT_EQ(count_occurrences(
                json, putget::op_label("extoll-pingpong",
                                       putget::TransferMode::kGpuDirect, 64)),
            2u);  // process_name metadata + the op span itself
}

// ---------------------------------------------------------------------------
// Shard-aware sink merge (obs/shard_sink.h): the post-round replay must
// erase the shard execution order entirely, keep per-event program
// order, and never let a provisional flow id reach serialized output.

struct MergedOutput {
  std::string trace, metrics, flows;
};

/// Two shards' worth of instrumented events, executed one whole shard
/// at a time in the given order — the extreme interleavings a round's
/// claim race can produce — then merged once at the fence.
MergedOutput run_interleaved_merge(bool shard0_first) {
  sim::Simulation sims[2];
  sims[0].set_shard_tag(0);
  sims[1].set_shard_tag(1);
  obs::ShardSinkHub hub(2);

  obs::TraceRecorder rec;
  obs::MetricsRegistry met;
  obs::FlowTable flow;
  obs::attach_recorder(&rec);
  obs::attach_metrics(&met);
  obs::attach_flows(&flow);
  obs::begin_unit("merge-unit");
  flow.begin_unit("merge-unit");

  // Shard 0 begins a flow, records a span whose rendered args capture
  // the (still provisional) id, and parks the flow on a correlation
  // channel for shard 1. Timestamps interleave with shard 1's events so
  // the merge has to reorder across buffers.
  sims[0].schedule_at(nanoseconds(10), [&] {
    const obs::FlowId f = obs::flow_begin(sims[0].now());
    obs::flow_stage(f, "n0", "post", sims[0].now());
    obs::span("n0.dma", "dma", "dma-read", sims[0].now(),
              sims[0].now() + nanoseconds(5), {{"flow", f}});
    obs::flow_step(f, "n0.pcie", sims[0].now() + nanoseconds(2));
    obs::flow_push(0x7001, f);
    obs::count("n0.ops");
    obs::gauge_set("depth", 3.0);
  });
  sims[0].schedule_at(nanoseconds(30), [&] {
    obs::instant("n0.dma", "poll", "first", sims[0].now());
    obs::instant("n0.dma", "poll", "second", sims[0].now());
    obs::observe("n0.lat_ns", 64);
    obs::gauge_set("depth", 1.5);
    const obs::FlowId f = obs::flow_begin(sims[0].now());
    obs::flow_stage(f, "n0", "post", sims[0].now());
    obs::flow_push(0x7004, f);
  });
  // The composite ops: the second ensure_parked finds the first one's
  // flow parked and does nothing; shard 1's poll scan misses its first
  // candidate key and detects that flow under the second.
  sims[0].schedule_at(nanoseconds(35), [&] {
    obs::flow_ensure_parked(0x7002, sims[0].now());
    obs::flow_ensure_parked(0x7002, sims[0].now());
  });
  sims[1].schedule_at(nanoseconds(20), [&] {
    obs::instant("n1.nic", "rx", "frame", sims[1].now());
    obs::count("n1.ops");
    // Nothing is parked under 0x7005: pop_or_begin starts a new flow.
    const obs::FlowId f = obs::flow_pop_or_begin(0x7005, sims[1].now());
    obs::flow_stage(f, "n1", "local", sims[1].now() + nanoseconds(3));
    obs::flow_end(f, "n1", sims[1].now() + nanoseconds(3));
  });
  sims[1].schedule_at(nanoseconds(40), [&] {
    const obs::FlowId f = obs::flow_pop(0x7001);
    obs::flow_stage(f, "n1", "wire", sims[1].now());
    obs::flow_end(f, "n1", sims[1].now());
    obs::gauge_set("depth", 2.0);
  });
  sims[1].schedule_at(nanoseconds(45), [&] {
    const std::uint64_t keys[2] = {0x7003, 0x7002};
    obs::flow_poll_scan("n1.poll", sims[1].now(), keys, 2);
  });
  sims[1].schedule_at(nanoseconds(50), [&] {
    // Shard 0 parked a flow under 0x7004 at t=30: this pop hits.
    const obs::FlowId f = obs::flow_pop_or_begin(0x7004, sims[1].now());
    obs::flow_stage(f, "n1", "deliver", sims[1].now());
    obs::flow_end(f, "n1", sims[1].now());
  });

  const int order[2] = {shard0_first ? 0 : 1, shard0_first ? 1 : 0};
  for (const int i : order) {
    hub.bind(i, &sims[i]);
    sims[i].run();
    hub.unbind();
  }
  hub.merge();

  obs::attach_recorder(nullptr);
  obs::attach_metrics(nullptr);
  obs::attach_flows(nullptr);
  return {rec.to_json(), met.snapshot_json(), flow.snapshot_json()};
}

TEST(ShardMerge, OutputIndependentOfShardExecutionOrder) {
  const MergedOutput a = run_interleaved_merge(true);
  const MergedOutput b = run_interleaved_merge(false);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_TRUE(JsonChecker(a.trace).valid()) << a.trace;
  EXPECT_TRUE(JsonChecker(a.flows).valid()) << a.flows;
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.flows, b.flows);
}

TEST(ShardMerge, ReplayFollowsEventKeyOrderAndProgramOrder) {
  const MergedOutput out = run_interleaved_merge(/*shard0_first=*/false);
  // Cross-shard key order: the shard-1 instant at t=20 lands between
  // the shard-0 events at t=10 and t=30 even though shard 1 executed
  // its whole window first.
  const std::size_t p10 = out.trace.find("dma-read");
  const std::size_t p20 = out.trace.find("\"frame\"");
  const std::size_t p30 = out.trace.find("\"first\"");
  ASSERT_NE(p10, std::string::npos);
  ASSERT_NE(p20, std::string::npos);
  ASSERT_NE(p30, std::string::npos);
  EXPECT_LT(p10, p20);
  EXPECT_LT(p20, p30);
  // Ops of one event share a merge key; the stable sort keeps their
  // program order.
  EXPECT_LT(p30, out.trace.find("\"second\""));
}

TEST(ShardMerge, GaugeAndCompositeFlowOpsReplayInKeyOrder) {
  const MergedOutput out = run_interleaved_merge(/*shard0_first=*/true);
  // Last write wins in event-key order: shard 1's t=40 set, although
  // shard 0's t=30 set was executed after it in the other order.
  EXPECT_NE(out.metrics.find("\"depth\":2"), std::string::npos) << out.metrics;
  // Four flows complete: the handoff, pop_or_begin's fresh flow, the
  // flow pop_or_begin found parked, and the one ensure_parked parked
  // once for the poll scan to detect. None is left open.
  EXPECT_NE(out.flows.find("\"completed\":4,\"abandoned\":0"),
            std::string::npos)
      << out.flows;
  for (const char* needle : {"\"local\"", "\"deliver\"", "\"poll_detect\""}) {
    EXPECT_NE(out.flows.find(needle), std::string::npos) << needle;
  }
  // flow_step drew an arrow node on its own track.
  EXPECT_NE(out.trace.find("\"n0.pcie\""), std::string::npos);
}

TEST(ShardMerge, ProvisionalFlowIdsNeverReachSerializedOutput) {
  const MergedOutput out = run_interleaved_merge(true);
  // The span captured its "flow" argument while the id was provisional
  // (bit 63 set); the merge rewrites it to the canonical id minted at
  // replay, so the trace correlates with the flow table's JSON.
  EXPECT_NE(out.trace.find("\"flow\":1"), std::string::npos) << out.trace;
  EXPECT_EQ(out.trace.find("922337"), std::string::npos) << out.trace;
  EXPECT_EQ(out.flows.find("922337"), std::string::npos) << out.flows;
  // The cross-shard handoff stitched into one flow: begun on shard 0,
  // ended on shard 1, with stages from both sides.
  for (const char* needle : {"\"post\"", "\"wire\""}) {
    EXPECT_NE(out.flows.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace pg

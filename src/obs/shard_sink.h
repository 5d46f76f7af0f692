// Shard-aware observability: lock-free per-shard op buffers with a
// deterministic post-round merge.
//
// The global sinks (TraceRecorder, MetricsRegistry, FlowTable) are
// single-threaded value objects, which is exactly right for serial
// execution but would race under parallel PDES rounds — and the old
// answer, forcing traced clusters back onto the sequential engine,
// meant one could observe small runs or scale big runs, never both.
//
// This layer removes that trade-off. A ShardSinkHub owns one append-only
// ShardOpBuffer per shard. While a shard's window executes, the running
// thread binds its buffer into thread-local storage (obs/defer.h); the
// instrumentation helpers then append *deferred ops* — plain records of
// the span / metric / flow call, stamped with the executing event's
// (timestamp, birth_time, birth_tag) key — instead of touching the
// sinks. No locks, no atomics: each buffer is written by exactly one
// thread per round, and the round barrier publishes it to the
// coordinator.
//
// At every synchronization fence the coordinator merges all buffers in
// ascending event-key order — the same total order the event heaps use,
// so the replayed sink mutations interleave exactly as the sequential
// engine would have produced them — and applies them to the real sinks.
// Merging anywhere earlier would be wrong: windows of successive rounds
// overlap in timestamps (shard A's round-R window can run past shard
// B's round-R+1 events), so only a global fence bounds the key range.
//
// Flow identity is the one stateful wrinkle: FlowTable mints ids from a
// sequential counter and correlation-channel pops return ids minted
// earlier, but a deferred begin()/pop() cannot know its id until
// replay. Deferred calls therefore return *provisional* ids (bit 63
// set, unique per shard and hub) that model code carries around like
// any other FlowId; replay records the provisional -> canonical mapping
// in the FlowTable's alias table, and every FlowTable entry point
// resolves provisional ids through it — including later direct-mode
// calls, so ids captured by model state stay valid across fences.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/defer.h"

namespace pg::sim {
class Simulation;
}

namespace pg::obs {

/// One deferred sink mutation, stamped with the merge key.
struct DeferredOp {
  enum class Kind : std::uint8_t {
    kSpan,
    kInstant,
    kCount,
    kObserve,
    kGauge,
    kFlowBegin,
    kFlowStage,
    kFlowEnd,
    kFlowStep,
    kFlowPush,
    kFlowPop,
    kFlowPopOrBegin,
    kFlowEnsureParked,
    kFlowPollScan,
  };

  Kind kind = Kind::kSpan;
  // Merge key: the executing event's full birth key. Globally unique per
  // event, so a stable sort keeps same-event ops in program order.
  SimTime ev_time = 0;
  SimTime ev_birth = 0;
  std::uint64_t ev_tag = 0;

  // Payload. `track` doubles as the metric name for the metric kinds;
  // `category` must point at a static literal (the same lifetime
  // contract TraceRecorder::Event already imposes).
  const char* category = nullptr;
  std::string track;
  std::string name;
  std::string args;  // pre-rendered span/instant argument body
  SimTime t0 = 0;
  SimTime t1 = 0;
  std::uint64_t id = 0;   // flow id / provisional token
  std::uint64_t key = 0;  // correlation-channel key
  std::uint64_t u64 = 0;  // counter delta / histogram sample
  double f64 = 0.0;       // gauge value
  std::vector<std::uint64_t> keys;  // poll-scan candidates, in probe order
};

/// One shard's append-only op log. Written by exactly one thread per
/// round (whoever claimed the shard's window); read and cleared by the
/// coordinator at fences. The round barrier provides the ordering.
class ShardOpBuffer {
 public:
  ShardOpBuffer(int shard, std::uint64_t hub_nonce)
      : shard_(shard), hub_nonce_(hub_nonce) {}

  /// Stamps the current event's key onto `op` and appends it.
  void append(DeferredOp op);

  /// Mints a provisional FlowId: bit 63 | hub nonce | shard | counter.
  /// Never collides with canonical FlowTable ids (sequential from 1) or
  /// with provisional ids of other shards / other hubs in the process.
  std::uint64_t mint_provisional() {
    return (1ull << 63) | (hub_nonce_ << 44) | (static_cast<std::uint64_t>(shard_) << 36) | ++minted_;
  }

  void set_sim(const sim::Simulation* sim) { sim_ = sim; }
  bool empty() const { return ops_.empty(); }

 private:
  friend class ShardSinkHub;

  std::vector<DeferredOp> ops_;
  const sim::Simulation* sim_ = nullptr;
  int shard_ = 0;
  std::uint64_t hub_nonce_ = 0;
  std::uint64_t minted_ = 0;
};

/// The per-cluster owner: one buffer per shard plus the merge. Wired
/// into sim::ShardGroup::SinkHooks by sys::Cluster.
class ShardSinkHub {
 public:
  explicit ShardSinkHub(int num_shards);

  /// Binds shard `i`'s buffer to the calling thread for the duration of
  /// one window; `sim` provides the executing event's key.
  void bind(int shard, const sim::Simulation* sim);
  /// Clears the calling thread's binding (window complete).
  void unbind();

  /// Coordinator only, at synchronization fences: merges every buffer
  /// in ascending event-key order and applies the ops to the attached
  /// global sinks. No-op when all buffers are empty.
  void merge();

  /// Total ops currently buffered (tests).
  std::size_t pending() const;

 private:
  std::vector<std::unique_ptr<ShardOpBuffer>> buffers_;
  // Merge scratch: pointers into the shard buffers, sorted by event
  // key. Sorting pointers instead of the ~200-byte ops themselves keeps
  // the fence cost at "shuffle 8 bytes per op", and the vector retains
  // its capacity across fences.
  std::vector<DeferredOp*> order_;
};

/// Applies one deferred op to the attached global sinks. Exposed for
/// the merge-determinism unit tests; ops must arrive in merged order.
void apply_deferred_op(DeferredOp& op);

}  // namespace pg::obs

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
// instrumentation helpers then append *deferred ops* — closures that
// make the span / metric / flow call, stamped with the executing event's
// (timestamp, birth_time, birth_tag) key — instead of touching the
// sinks. No locks, no atomics: each buffer is written by exactly one
// thread per round, and the round barrier publishes it to the
// coordinator.
//
// At every synchronization fence the coordinator merges all buffers in
// ascending event-key order — the same total order the event heaps use,
// so the replayed sink mutations interleave exactly as the sequential
// engine would have produced them — and runs them against the real
// sinks.
// Merging anywhere earlier would be wrong: windows of successive rounds
// overlap in timestamps (shard A's round-R window can run past shard
// B's round-R+1 events), so only a global fence bounds the key range.
//
// Flow identity is the one stateful wrinkle: FlowTable mints ids from a
// sequential counter and correlation-channel pops return ids minted
// earlier, but a deferred begin()/pop() cannot know its id until
// replay. Deferred calls therefore return *provisional* ids (bit 63
// set, unique per shard and hub) that model code carries around like
// any other FlowId; the replayed closure records the provisional ->
// canonical mapping in the FlowTable's alias table, and every FlowTable
// entry point resolves provisional ids through it — including later
// direct-mode calls, so ids captured by model state stay valid across
// fences. A trace argument rendered while its flow id was provisional
// is rewritten at replay (resolve_flow_args).
#pragma once

#include <memory>
#include <vector>

#include "obs/defer.h"

namespace pg::sim {
class Simulation;
}

namespace pg::obs {

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
  /// in ascending event-key order and runs the ops against the attached
  /// global sinks. No-op when all buffers are empty.
  void merge();

 private:
  std::vector<std::unique_ptr<ShardOpBuffer>> buffers_;
  // Merge scratch: pointers into the shard buffers, sorted by event
  // key. Sorting pointers instead of the ops themselves keeps the fence
  // cost at "shuffle 8 bytes per op", and the vector retains its
  // capacity across fences.
  std::vector<ShardOpBuffer::Op*> order_;
};

}  // namespace pg::obs

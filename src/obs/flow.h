// Message lifecycle tracking: per-message flow ids with named stage
// decomposition.
//
// A FlowId is minted when a put/get/ping-pong message is posted and
// carried - out of band, never inside encoded frames or descriptors -
// through the host driver, the NIC pipelines, the wire and the remote
// poll loop. Each layer stamps a named *stage* against the sim clock;
// stages use chain-edge semantics: every stage covers [cursor, end]
// where `cursor` is the previous stage's end, so the per-flow stage
// durations sum to the end-to-end latency exactly, by construction,
// even when the underlying hardware pipelines segments.
//
// Where a flow cannot ride a function argument (it crosses the wire, or
// lands in memory that a poll loop later reads), the producer pushes it
// into a *correlation channel* - a FIFO keyed by a (component, address)
// pair - and the consumer pops it. Channels exploit the simulator's
// determinism: per key, pushes and pops happen in the same order on
// both sides. Keys are namespaced by a component pointer (usually the
// node's pcie::Fabric) because every node maps the identical address
// layout.
//
// Aggregation: per experiment unit (one bench run of one configuration)
// the table keeps a LatencyBreakdown - log2 histograms of each stage
// and of the end-to-end latency, in nanoseconds - exported as
// deterministic JSON with p50/p95/p99.
//
// Like the trace recorder, the flow table is a passive, explicitly
// attached global sink: model code pays one predictable branch when it
// is detached, never schedules events, and cannot perturb simulated
// results.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::obs {

/// Identifies one in-flight message. 0 means "no flow" and makes every
/// helper a no-op, so untracked paths need no guards.
using FlowId = std::uint64_t;

/// Marks a *provisional* id handed out by a deferred begin()/pop()
/// inside a parallel shard window (obs/shard_sink.h): the canonical id
/// is not known until the post-round merge replays the op. Model code
/// treats provisional ids like any other FlowId; every FlowTable entry
/// point resolves them through the alias table the merge maintains.
/// Canonical ids are minted sequentially from 1 and can never reach
/// this bit.
constexpr FlowId kProvisionalFlowBit = 1ull << 63;

/// Correlation-channel key for address `addr` as seen by the component
/// `ns` (namespace pointer - typically the node's pcie::Fabric, because
/// nodes map identical address layouts). Mixed so that nearby addresses
/// spread over the hash table; never serialized, so the pointer value
/// is safe to fold in.
inline std::uint64_t flow_key(const void* ns, std::uint64_t addr) {
  std::uint64_t x =
      reinterpret_cast<std::uintptr_t>(ns) ^ (addr * 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class FlowTable {
 public:
  /// Per-stage latency histogram, in first-stamped order.
  struct StageStats {
    std::string name;
    Log2Histogram ns{};
  };

  /// The latency breakdown of one experiment unit.
  struct Breakdown {
    std::string label;
    Log2Histogram e2e_ns{};            // flow begin -> flow end
    std::vector<StageStats> stages{};  // chain-edge stages, sum == e2e
    std::uint64_t completed = 0;       // flows that reached end()
    std::uint64_t abandoned = 0;       // flows still open at unit end
  };

  FlowTable();

  // -- lifecycle ----------------------------------------------------------

  /// Mints a new flow whose clock starts at `at`. Ids are unique for
  /// the table's lifetime (and therefore unique per unit).
  FlowId begin(SimTime at);

  /// Stamps stage `name` ending at `end` on `track`: the stage covers
  /// [previous stage end, end]. Repeated names accumulate. When a trace
  /// recorder is attached this also emits the stage span and the
  /// Chrome flow event ('s' first, then 't') that draws the arrow.
  void stage(FlowId id, const char* track, const char* name, SimTime end);

  /// Ends the flow at `at`, recording the end-to-end latency. Emits the
  /// terminating Chrome flow event ('f', binding to the enclosing
  /// slice) when a recorder is attached.
  void end(FlowId id, const char* track, SimTime at);

  /// Trace-only waypoint: adds an arrow node on `track` at `at` without
  /// stamping a stage (the PCIe/DMA hops inside a stage use this). Only
  /// meaningful with a recorder attached; never touches the breakdown.
  void step(FlowId id, const char* track, SimTime at);

  // -- correlation channels -----------------------------------------------

  void push(std::uint64_t key, FlowId id);
  /// Pops the oldest flow pushed under `key`, or 0 if none.
  FlowId pop(std::uint64_t key);
  /// Flows queued under `key` (mint-on-first-write decisions).
  std::size_t channel_depth(std::uint64_t key) const;

  // -- composite primitives -----------------------------------------------
  //
  // Call sites whose *control flow* depends on table state (did the pop
  // hit? is the channel empty?) cannot branch at the call site under
  // deferred recording — the answer only exists at replay. These fold
  // the branch into one atomic table operation shared by the direct
  // path and the merge replay.

  /// pop(key), minting a fresh flow at `at` when the channel is empty —
  /// the "host posted a lifecycle, or start one now" pattern.
  FlowId pop_or_begin(std::uint64_t key, SimTime at);

  /// Parks begin(at) under `key` unless something is already parked —
  /// the "announce unless the host driver already did" pattern.
  void ensure_parked(std::uint64_t key, SimTime at);

  /// First-hit poll detection: pops the candidate keys in order; the
  /// first parked flow found gets a "poll_detect" stage and end() at
  /// `at` on `track`, remaining candidates are left untouched.
  void poll_scan(const char* track, SimTime at, const std::uint64_t* keys,
                 std::size_t n);

  // -- provisional-id aliasing (shard-sink merge only) --------------------

  /// Records that provisional id `prov` resolved to `canon` (0 = the
  /// deferred pop missed; uses of the id then no-op, exactly as the
  /// sequential engine's 0 return would have).
  void alias(FlowId prov, FlowId canon) { aliases_[prov] = canon; }
  /// Canonical id behind `id`: non-provisional ids pass through,
  /// unresolved or dead provisional ids map to 0.
  FlowId resolve(FlowId id) const {
    if ((id & kProvisionalFlowBit) == 0) return id;
    auto it = aliases_.find(id);
    return it != aliases_.end() ? it->second : 0;
  }

  // -- units --------------------------------------------------------------

  /// Starts a new experiment unit: drops every open flow and channel
  /// (each unit restarts its simulation at t=0, so carrying stale
  /// correlation state across would mis-pair), and opens a fresh
  /// breakdown. Unit 0 ("sim") exists implicitly.
  void begin_unit(std::string label);

  // -- results ------------------------------------------------------------

  const std::vector<Breakdown>& breakdowns() const { return groups_; }
  /// The breakdown of the current (latest) unit — what the telemetry
  /// sampler reads mid-run.
  const Breakdown& current() const { return groups_[cur_]; }
  /// Latest breakdown with this label, or nullptr.
  const Breakdown* find(std::string_view label) const;
  std::size_t open_flows() const { return open_.size(); }

  /// Deterministic JSON: every non-empty unit's per-stage and e2e
  /// histograms with count/sum/min/max/p50/p95/p99.
  std::string snapshot_json() const;

 private:
  struct OpenFlow {
    SimTime begin;
    SimTime cursor;        // end of the last stamped stage
    bool announced=false;  // 's' flow event emitted
  };

  std::unordered_map<FlowId, OpenFlow> open_;
  std::unordered_map<FlowId, FlowId> aliases_;  // provisional -> canonical
  std::unordered_map<std::uint64_t, std::deque<FlowId>> channels_;
  std::vector<Breakdown> groups_;
  std::size_t cur_ = 0;
  FlowId next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Global sink plus no-op-when-detached instrumentation helpers.

/// The attached flow table, or nullptr when lifecycle tracking is off.
FlowTable* flows();
/// Attaches `table` (nullptr to detach). Not thread-safe by design.
void attach_flows(FlowTable* table);

/// Returns `op(*f)`, the id of a flow-table call, or, inside a shard
/// window, a provisional id at once: `op` is deferred, and its replay
/// aliases the provisional id to the canonical id `op` returns then.
template <typename Op>
inline FlowId apply_or_defer_id(FlowTable* f, Op op) {
  ShardOpBuffer* b = shard_ops();
  if (b == nullptr) return op(*f);
  const FlowId prov = b->mint_provisional();
  b->append([prov, op] {
    if (FlowTable* t = flows()) t->alias(prov, op(*t));
  });
  return prov;
}

inline FlowId flow_begin(SimTime at) {
  FlowTable* f = flows();
  if (f == nullptr) return 0;
  return apply_or_defer_id(f, [at](FlowTable& t) { return t.begin(at); });
}

inline void flow_stage(FlowId id, const char* track, const char* name,
                       SimTime end) {
  if (id == 0) return;
  if (FlowTable* f = flows()) {
    apply_or_defer<flows>(f, [id, track = std::string(track),
                              name = std::string(name), end](FlowTable& t) {
      t.stage(id, track.c_str(), name.c_str(), end);
    });
  }
}

inline void flow_end(FlowId id, const char* track, SimTime at) {
  if (id == 0) return;
  if (FlowTable* f = flows()) {
    apply_or_defer<flows>(
        f, [id, track = std::string(track), at](FlowTable& t) {
          t.end(id, track.c_str(), at);
        });
  }
}

inline void flow_push(std::uint64_t key, FlowId id) {
  if (id == 0) return;
  if (FlowTable* f = flows()) {
    apply_or_defer<flows>(f, [key, id](FlowTable& t) { t.push(key, id); });
  }
}

inline FlowId flow_pop(std::uint64_t key) {
  FlowTable* f = flows();
  if (f == nullptr) return 0;
  return apply_or_defer_id(f, [key](FlowTable& t) { return t.pop(key); });
}

inline void flow_step(FlowId id, const char* track, SimTime at) {
  if (id == 0) return;
  if (FlowTable* f = flows()) {
    apply_or_defer<flows>(
        f, [id, track = std::string(track), at](FlowTable& t) {
          t.step(id, track.c_str(), at);
        });
  }
}

/// pop_or_begin through the deferral layer: the returned id may be
/// provisional inside a shard window (see kProvisionalFlowBit).
inline FlowId flow_pop_or_begin(std::uint64_t key, SimTime at) {
  FlowTable* f = flows();
  if (f == nullptr) return 0;
  return apply_or_defer_id(
      f, [key, at](FlowTable& t) { return t.pop_or_begin(key, at); });
}

/// ensure_parked through the deferral layer.
inline void flow_ensure_parked(std::uint64_t key, SimTime at) {
  if (FlowTable* f = flows()) {
    apply_or_defer<flows>(
        f, [key, at](FlowTable& t) { t.ensure_parked(key, at); });
  }
}

/// poll_scan through the deferral layer.
inline void flow_poll_scan(const char* track, SimTime at,
                           const std::uint64_t* keys, std::size_t n) {
  if (FlowTable* f = flows()) {
    apply_or_defer<flows>(
        f, [track = std::string(track), at,
            keys = std::vector<std::uint64_t>(keys, keys + n)](FlowTable& t) {
          t.poll_scan(track.c_str(), at, keys.data(), keys.size());
        });
  }
}

}  // namespace pg::obs

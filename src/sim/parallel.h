// Conservative parallel discrete-event engine (PDES).
//
// A ShardGroup coordinates N Simulation shards (one per cluster node)
// that execute concurrently on a small worker pool. Cross-shard events
// exist only where the model has physical latency — network links —
// and that latency is the *lookahead*: an event executing at time t on
// one shard can affect another shard no earlier than t + lookahead.
//
// Execution proceeds in barrier-synchronized rounds (LBTS style):
//   1. the coordinator drains every cross-shard channel, sorts the
//      admissions by birth key, and inserts them into the destination
//      shards (single-threaded, deterministic);
//   2. it computes L = min over shards of next-event time, grants every
//      shard a window capped at H = L + lookahead, and releases the
//      workers; each shard executes its window events in local birth-key
//      order, emitting cross-shard events into bounded SPSC channels;
//   3. the barrier closes and the next round begins.
//
// Determinism is by construction, not by luck: the caps, admissions and
// per-shard execution are all pure functions of the state at the
// barrier, so the set and order of events a shard executes is identical
// for any worker count — thread count only changes which windows run
// concurrently. Event ids and heap order use the birth keys from
// event_queue.h, so same-timestamp cross-shard ties resolve exactly as
// one global scheduling counter would have.
//
// The host-side control loops stop *exactly* where one serial run
// would: run_until_local() lets each waiting shard pause on the
// event that fires its (monotone, shard-local) predicate while
// non-waiting shards are capped below every unfired waiter's next
// event, then fences all clocks at t* = the last firing time;
// run_until_global() is the exact fallback for predicates that read
// state across shards — the coordinator merges the shards one
// globally-minimal event at a time (serial), settling the parked
// pollers of all shards together in closed form before each event.
//
// Every sys::Cluster runs on a ShardGroup, one shard per node, at every
// worker count: there is no other engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"
#include "sim/spsc.h"

namespace pg::sim {

/// A per-shard stop condition for ShardGroup::run_until_local. The wait
/// completes when every listed shard's predicate has fired. Predicates
/// must be monotone (once true, stay true) and must only read state
/// owned by their shard: they are evaluated on the thread executing
/// that shard's window.
struct ShardCond {
  int shard = 0;
  std::function<bool()> pred;
};

class ShardGroup {
 public:
  struct Options {
    int workers = 1;           // execution threads (incl. the caller)
    SimDuration lookahead = 0; // min cross-shard latency; must be > 0
    // SPSC ring slots per directed shard pair. Sized for the per-round
    // burst, not the whole run: a window rarely emits more than a few
    // cross-shard events before the next barrier, and the locked
    // overflow path absorbs the rare larger burst. Admissions are
    // ~128 B (inline callable), so keeping this small keeps the N^2
    // channel matrix out of the cache the shards need.
    std::size_t channel_capacity = 32;
  };

  /// `shards` must outlive the group; each must carry a unique shard
  /// tag (set_shard_tag) matching its index here.
  ShardGroup(std::vector<Simulation*> shards, Options opt);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Simulation& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }

  /// The group clock: the last synchronization fence. Between fences
  /// individual shards run ahead of it (never past the next fence).
  SimTime now() const { return now_; }

  /// Hands an event minted on shard `src` (see Simulation::take_birth)
  /// to shard `dst`. During a round this is the only legal cross-shard
  /// interaction and must be called from the thread executing `src`;
  /// between rounds (host code, merged execution) it admits directly.
  /// In a round it also lowers `src`'s window cap to `when` + lookahead:
  /// the event can wake a drained shard whose reply lands no earlier,
  /// and `src` must not have run past it.
  void post(int src, int dst, SimTime when, SimTime birth_time,
            EventId birth_tag, EventFn fn);

  /// Runs until every condition has fired, then fences every clock at
  /// t* = the timestamp of the last firing event — no shard executes
  /// past t*, exactly like one serial run stopping on a global
  /// AND of the predicates. Returns false if the group drained,
  /// deadlocked on parked pollers or an event limit tripped first.
  bool run_until_local(std::vector<ShardCond> conds);

  /// Exact sequential fallback for predicates that read cross-shard
  /// state: executes the globally minimal event one at a time on the
  /// coordinator thread (Simulation::advance over every shard), checking
  /// `pred` after each real event. Like poll predicates, `pred` must be
  /// side-effect free and not read the clock: it is not re-checked after
  /// skipped probes.
  bool run_until_global(const std::function<bool()>& pred);

  /// Deadline-segmented variants backing the sim-time telemetry sampler
  /// (sys/Cluster): identical event execution, but the wait additionally
  /// stops once every event with timestamp <= `deadline` has run,
  /// fencing all clocks at the deadline. kFired = every condition fired
  /// (fenced at t*, exactly like the unsegmented call); kDeadline = the
  /// boundary was reached first; kStopped = drained / event limit with
  /// conditions unmet. Conditions must be monotone, so re-issuing the
  /// same wait after a kDeadline return resumes it losslessly.
  enum class Outcome { kFired, kDeadline, kStopped };
  Outcome run_until_local_before(std::vector<ShardCond> conds,
                                 SimTime deadline);
  Outcome run_until_global_before(const std::function<bool()>& pred,
                                  SimTime deadline);

  /// Observability shard-sink hooks (see obs/shard_sink.h). `bind` runs
  /// on the thread about to execute shard i's window, `unbind` when the
  /// window completes, `merge` on the coordinator at every
  /// synchronization fence — the only points where deferred per-shard
  /// records may be folded into the global sinks (windows of successive
  /// rounds overlap in timestamps, so any earlier merge could misorder).
  struct SinkHooks {
    std::function<void(int shard, Simulation* sim)> bind;
    std::function<void()> unbind;
    std::function<void()> merge;
  };
  void set_sink_hooks(SinkHooks hooks) { hooks_ = std::move(hooks); }

  /// Runs events with timestamps <= deadline in parallel rounds, then
  /// fences every clock at the deadline.
  std::uint64_t run_until_time(SimTime deadline);

  /// Drains every shard (or stops on a deadlock, see deadlocked());
  /// fences all clocks at the last event time.
  std::uint64_t run();

  std::uint64_t total_scheduled() const;
  std::uint64_t events_executed() const;
  bool event_limit_hit() const;

  /// Synchronization rounds executed so far (scheduling overhead gauge).
  std::uint64_t rounds() const { return rounds_; }

 private:
  struct Admission {
    SimTime when = 0;
    SimTime birth_time = 0;
    EventId birth_tag = 0;
    int dst = 0;
    EventFn fn;
  };

  // Per-shard round state, cache-line padded: each slot is written by
  // exactly one thread during a round (the one that claimed it) and by
  // the coordinator between rounds (the barrier orders the two).
  struct alignas(64) Slot {
    Simulation* sim = nullptr;
    SimTime cap = 0;
    const std::function<bool()>* cond = nullptr;
    Simulation::WindowResult result;
  };

  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// Moves every queued cross-shard event into its destination shard,
  /// in global birth-key order. Coordinator only, between rounds.
  void drain_channels();

  /// The two smallest next-event times across non-idle shards, and who
  /// holds the smallest. Basis of the per-shard conservative horizons:
  /// shard i may execute strictly below min_{j != i}(next_j) + lookahead
  /// — anything another shard could still send it arrives no earlier —
  /// which for the frontier shard (argmin) is the *second* minimum plus
  /// lookahead, usually far past the uniform bound. What the frontier
  /// shard posts itself is bounded by post(), which lowers the poster's
  /// cap.
  struct Frontier {
    SimTime min1 = kNever;
    SimTime min2 = kNever;
    int argmin = -1;
  };
  Frontier frontier() const;

  /// Shard i's conservative execution bound under `f` (kNever when every
  /// other shard is drained: nothing can reach i this round unless i
  /// posts, and post() then lowers i's cap).
  SimTime horizon_for(const Frontier& f, int i) const {
    const SimTime b = i == f.argmin ? f.min2 : f.min1;
    return b == kNever ? kNever : b + opt_.lookahead;
  }

  /// Executes one synchronization round: slots' caps/conds must be
  /// published; blocks until every shard's window completed.
  void run_round();

  /// Claims and executes windows until none are left this round. Shards
  /// are assigned dynamically (atomic claim counter), so a descheduled
  /// worker never stalls the round: whoever is actually running — on an
  /// oversubscribed host often just the coordinator — takes the work.
  void claim_windows();

  void worker_main();

  /// True when any shard tripped its event-storm limit.
  bool any_limit_hit() const;

  /// True (and reported on every waiting shard, see
  /// Simulation::report_stall) when no shard has a heap event and no
  /// parked poller's predicate holds: nothing can ever run again.
  /// Coordinator only, after drain_channels().
  bool deadlocked();

  /// Fences every shard clock (and the group clock) at `t`.
  void fence_all(SimTime t);

  /// Folds deferred observability records into the global sinks. Legal
  /// only between rounds (coordinator context).
  void merge_sinks() {
    if (hooks_.merge) hooks_.merge();
  }

  std::vector<Simulation*> shards_;
  Options opt_;
  SinkHooks hooks_;
  SimTime now_ = 0;
  // Group-global scheduling counter for serial contexts; consumed only
  // by the coordinator thread (run_round() parks it during windows).
  std::uint64_t shared_births_ = 1;

  std::vector<Slot> slots_;
  // channels_[src * N + dst]: SPSC — the producer is whichever thread
  // claimed src's window (exactly one per round; rounds are ordered by
  // the barrier), the consumer is the coordinator between rounds.
  std::vector<std::unique_ptr<SpscChannel<Admission>>> channels_;
  std::vector<Admission> admit_buf_;
  // Cross-shard events pushed (producers) vs drained (coordinator);
  // equality lets drain_channels() skip the full channel scan.
  std::atomic<std::uint64_t> posted_{0};
  std::uint64_t drained_ = 0;
  bool in_round_ = false;  // routes post(): channels vs direct admit

  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> round_seq_{0};
  std::atomic<int> claim_{0};    // next unclaimed window this round
  std::atomic<int> windows_done_{0};
  std::atomic<bool> exit_{false};

  std::uint64_t rounds_ = 0;
};

}  // namespace pg::sim

// Conservative parallel discrete-event engine (PDES).
//
// A ShardGroup coordinates N Simulation shards (one per cluster node)
// that execute concurrently on a small worker pool. Cross-shard events
// exist only where the model has physical latency — network links —
// and that latency is the *lookahead*: an event executing at time t on
// one shard can affect another shard no earlier than t + lookahead.
//
// Execution proceeds in barrier-synchronized rounds (LBTS style):
//   1. the coordinator drains every shard's outbox, sorts the
//      admissions by birth key, and inserts them into the destination
//      shards (single-threaded, deterministic);
//   2. it grants every shard a window capped at its horizon: the
//      smallest send bound (below) of any other shard plus lookahead,
//      and releases the workers; each shard executes its window events
//      in local birth-key order, appending cross-shard events to its
//      own outbox (a plain vector only its window's thread writes);
//   3. the barrier closes, publishing every outbox to the coordinator,
//      and the next round begins.
//
// Determinism is by construction, not by luck: the caps, admissions and
// per-shard execution are all pure functions of the state at the
// barrier, so the set and order of events a shard executes is identical
// for any worker count — thread count only changes which windows run
// concurrently. Event ids and heap order use the birth keys from
// event_queue.h, so same-timestamp cross-shard ties resolve by birth
// time, then by the minting shard's counter and id.
//
// A horizon counts what a shard can *send*, not everything it has
// pending: Simulation::send_bound() skips a parked poller whose
// predicate is false, because it reads only its own shard's state and
// can turn true only after a real event there. An idle node spinning on
// a flag therefore does not cut a busy node's windows at every poll
// interval. Drained, deadline and catch-up checks still count every
// pending probe (next_key()).
//
// One loop drives every run: run(conds, deadline) is a wait on
// per-shard conditions with an optional deadline. With conditions it
// stops *exactly* where one serial run would: each waiting shard pauses
// on the event that fires its (monotone, shard-local) predicate while
// non-waiting shards are capped below every unfired waiter's send bound,
// then every event ordered before the last firing event (same-time ones
// included) runs and all clocks fence at its time t*. Every wait a host
// program makes is such a set of per-node conditions. Without
// conditions the loop runs to the deadline or until the group drains.
// Every exit fences all clocks at one instant: t*, the deadline, or on
// a stop the latest shard clock. A drained or deadlocked stop credits
// the parked probes up to that clock first, so no shard's clock passes
// one of its own parked probes and a later run resumes them in order.
//
// Every sys::Cluster runs on a ShardGroup, one shard per node, at every
// worker count: there is no other engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"

namespace pg::sim {

/// A per-shard stop condition for ShardGroup::run. The wait
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
  /// "No deadline": later than every event.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  struct Options {
    int workers = 1;           // execution threads (incl. the caller)
    SimDuration lookahead = 0; // min cross-shard latency; must be > 0
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
  /// between rounds (host code) it admits directly.
  /// In a round it also lowers `src`'s window cap to `when` + lookahead:
  /// the event can wake a drained shard whose reply lands no earlier,
  /// and `src` must not have run past it. When `dst` is an unfired
  /// waiter of run() and `src` is not, the cap drops to `when`: the event
  /// may fire the wait.
  void post(int src, int dst, SimTime when, SimTime birth_time,
            EventId birth_tag, EventFn&& fn);

  /// Runs until every condition has fired, exactly like one serial run
  /// stopping on a global AND of the predicates: every event that the
  /// last firing event follows in key order runs, on every shard, and
  /// none after it; then every clock is fenced at its time t* (kFired).
  /// No event after `deadline` runs: once every event up to it ran with
  /// a condition unfired, or with no conditions at all, the clocks fence
  /// at the deadline (kDeadline). Conditions are
  /// monotone, so re-issuing the same wait after kDeadline resumes it
  /// losslessly, and segmenting a run at deadlines changes no event's
  /// order. kStopped: the group drained or deadlocked on parked pollers
  /// with a condition unfired or no deadline, a round stalled, or an
  /// event limit tripped; the clocks fence at the latest shard clock.
  /// With no conditions and no deadline the run ends only that way.
  enum class Outcome { kFired, kDeadline, kStopped };
  Outcome run(const std::vector<ShardCond>& conds = {},
              SimTime deadline = kNever);

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
  using Key = EventQueue::Key;

  struct alignas(64) Slot {
    Simulation* sim = nullptr;
    Key cap{};
    SimTime send_bound = 0;  // set by frontier(); kNever when idle
    const std::function<bool()>* cond = nullptr;
    Simulation::WindowResult result;
    std::vector<Admission> outbox;  // this round's posts from the shard
  };

  /// Moves every outbox's events into their destination shards, in
  /// global birth-key order. Coordinator only, between rounds.
  void drain_outboxes();

  /// Executes shard i's window on the calling thread, with the shard's
  /// observability buffer bound to it.
  void run_window(int i);

  /// The key of the earliest pending event of any shard (parked probes
  /// included), and the two smallest send bounds
  /// (Simulation::send_bound) across non-idle shards, with who holds
  /// the smallest. Basis of the per-shard conservative horizons: shard i
  /// may execute strictly below
  /// min_{j != i}(send_bound_j) + lookahead — anything another shard
  /// could still send it arrives no earlier — which for the frontier
  /// shard (argmin) is the *second* minimum plus lookahead, usually far
  /// past the uniform bound. What the frontier shard posts itself is
  /// bounded by post(), which lowers the poster's cap.
  struct Frontier {
    Key next = Key::before(kNever);
    SimTime min1 = kNever;
    SimTime min2 = kNever;
    int argmin = -1;
  };
  /// Also records every shard's send bound in its slot.
  Frontier frontier();

  /// Shard i's conservative execution bound under `f` (kNever when every
  /// other shard is drained: nothing can reach i this round unless i
  /// posts, and post() then lowers i's cap).
  SimTime horizon_for(const Frontier& f, int i) const {
    const SimTime b = i == f.argmin ? f.min2 : f.min1;
    return b == kNever ? kNever : b + opt_.lookahead;
  }

  /// Executes one synchronization round: slots' caps/conds must be
  /// published; blocks until every shard's window completed. Returns the
  /// events executed; a round that executes none would repeat for ever,
  /// so it reports the stall (tripping the limit flag callers check) and
  /// run() stops.
  std::uint64_t run_round();

  /// Claims and executes windows until none are left this round. Shards
  /// are assigned dynamically (atomic claim counter), so a descheduled
  /// worker never stalls the round: whoever is actually running — on an
  /// oversubscribed host often just the coordinator — takes the work.
  void claim_windows();

  void worker_main();

  /// True when any shard spent its event budget (a storm guard): each
  /// run then stops after its first round.
  bool budget_spent() const;

  /// Simulation::report_stall on every shard with pending work.
  void report_stall();

  /// Fences every shard clock (and the group clock) at `t`.
  void fence_all(SimTime t);

  /// The latest shard clock (at least the group clock): where a stopped
  /// run fences.
  SimTime latest_clock() const;

  /// Ends a run that may go no further (kStopped): fences every clock at
  /// the latest shard clock.
  Outcome stop();

  /// Folds deferred observability records into the global sinks. Legal
  /// only between rounds (coordinator context).
  void merge_sinks() {
    if (hooks_.merge) hooks_.merge();
  }

  std::vector<Simulation*> shards_;
  Options opt_;
  SinkHooks hooks_;
  SimTime now_ = 0;
  // Group-global scheduling counter for host code between rounds;
  // consumed only by the coordinator thread (run_round() parks it during
  // windows).
  std::uint64_t shared_births_ = 1;

  std::vector<Slot> slots_;
  std::vector<Admission> admit_buf_;
  bool in_round_ = false;  // routes post(): outbox vs direct admit

  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> round_seq_{0};
  std::atomic<int> claim_{0};    // next unclaimed window this round
  std::atomic<int> windows_done_{0};
  std::atomic<bool> exit_{false};

  std::uint64_t rounds_ = 0;
};

}  // namespace pg::sim

// The simulation kernel: a clock plus an event queue.
//
// Every model component holds a Simulation& and expresses behaviour as
// events (schedule / schedule_at). A Simulation executes on one thread
// at a time; determinism comes from the birth-key total order in
// EventQueue. run_window() is the one loop that pops events: standalone,
// run(), run_until() and run_until_condition() wrap it, adding only the
// stall report and the clock advance. A cluster gives every node its own
// Simulation as one shard of a ShardGroup (sim/parallel.h), which calls
// run_window() for parallel rounds, reads send_bound() for their
// horizons, and moves the clock across synchronization fences with
// fence_now(); events crossing shards enter through schedule_admitted()
// carrying the sender's birth stamp.
//
// Polling loops (Poller: host sim::PollUntil coroutines and GPU warp spin
// loops, gpu/device.h) do not put their probes through the heap. After a
// false probe a poller *parks*, holding the birth key its next probe
// would have had. Before every real event the run loop evaluates each
// parked predicate whose next probe precedes that event, once: a poller
// whose predicate holds gets its probe pushed into the heap under that
// exact key; every other poller skips past the event in closed form,
// credited with the probes, sequence numbers and event counts it would
// have used, and its skipped() hook credits the model state each probe
// would have touched (a GPU's counters and L2 LRU). Poll predicates only
// read state and state only changes inside real events, so the skipped
// probes could not have seen anything else. Execution order, tags,
// counts and outputs are identical to probing event by event. A settle
// batch costs its sort plus O(1) per due poller when the intervals
// agree: each last probe's merged-order rank is counted down from the
// batch end. Each Simulation keeps a lower bound on its parked keys, so
// a settle that no parked probe precedes returns at once.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/units.h"
#include "sim/event_queue.h"

namespace pg::sim {

class CoTask;
class Simulation;
class Trigger;

/// A root coroutine's link in its Simulation's circular list of live roots
/// (Simulation::spawn); self-linked when in none. The promise unlinks it.
struct RootHook {
  RootHook* prev = this;
  RootHook* next = this;
  std::coroutine_handle<> frame{};

  void unlink() {
    prev->next = next;
    next->prev = prev;
  }
};

/// A polling loop that waits off the event heap between real events.
/// Contract: `predicate` is side-effect free and never reads the clock.
/// The subclass implements probe() — one probe as executed from the
/// heap: count it, then either resume (predicate holds) or park().
/// skipped() credits the model-side effects of false probes the engine
/// skipped; `interval_` may change between parks.
class Poller {
 public:
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

 protected:
  Poller(Simulation& sim, std::function<bool()> predicate,
         SimDuration interval);
  ~Poller();

  virtual void probe() = 0;

  /// Credits `probes` skipped (false) probes. Each call covers one
  /// settle batch of this poller; calls within a batch come in the merged
  /// order of each poller's last skipped probe.
  virtual void skipped(std::uint64_t probes) { (void)probes; }

  /// Waits for the next probe, one interval after now(), off the heap.
  void park();

  Simulation& sim_;
  std::function<bool()> predicate_;
  SimDuration interval_;
  std::uint64_t probes_ = 0;

 private:
  friend class Simulation;
  EventQueue::Key next_{};  // birth key of the next probe while parked
  bool parked_ = false;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation() { destroy_roots(); }

  SimTime now() const { return now_; }

  /// Starts `task` as a root coroutine owned by this Simulation: it runs
  /// inline up to its first suspension and, when it finishes, fires
  /// `done` (if given) and frees itself. Schedules no events of its own.
  /// Defined in sim/coro.h.
  void spawn(CoTask task, Trigger* done = nullptr);

  /// Destroys the suspended roots, each with the children it awaits.
  /// Teardown only: their pending resume events must never run.
  void destroy_roots() {
    while (roots_.next != &roots_) roots_.next->frame.destroy();
  }

  /// Schedules `fn` to run `delay` after the current time.
  void schedule(SimDuration delay, EventFn fn) {
    queue_.schedule_at(now_ + delay, now_, std::move(fn));
  }

  /// Schedules `fn` at an absolute timestamp (must be >= now()).
  void schedule_at(SimTime when, EventFn fn) {
    queue_.schedule_at(when < now_ ? now_ : when, now_, std::move(fn));
  }

  /// Runs events until the queue drains (or the event limit trips).
  /// Returns the number of events executed (skipped probes included).
  /// When nothing but parked pollers is left and none of their
  /// predicates holds, the run can never progress: it reports the
  /// deadlock, sets event_limit_hit() and returns.
  std::uint64_t run();

  /// Runs events with timestamps <= `deadline` (events exactly at the
  /// deadline run). The clock is advanced to the deadline afterwards.
  std::uint64_t run_until(SimTime deadline);

  /// Runs until `predicate()` turns true (checked after every event) or
  /// the queue drains (or deadlocks on parked pollers, as run() does).
  /// Returns true when the predicate was satisfied. Like poll
  /// predicates, `predicate` must be side-effect free and not read the
  /// clock: it is not re-checked after skipped probes.
  bool run_until_condition(const std::function<bool()>& predicate);

  /// No pending work: the heap is empty and no poller is parked.
  bool idle() const { return queue_.empty() && parked_.empty(); }

  /// Only parked pollers are pending and none of their predicates holds:
  /// nothing can ever change the state they wait on (unless another
  /// shard sends an event).
  bool stalled() const;

  /// Diagnoses a deadlock (see run()): logs the clock and the parked
  /// count, and trips the event-limit flag so callers see a failed run.
  void report_stall(const char* who);

  std::uint64_t events_executed() const { return events_executed_; }

  /// Total events ever scheduled (a determinism fingerprint: two runs of
  /// the same experiment must agree on it exactly).
  std::uint64_t total_scheduled() const { return queue_.total_scheduled(); }

  /// Safety valve: every run stops, reporting the trip, after this many
  /// events. Guards against accidental event storms in model bugs.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  /// The limit tripped or a deadlock was reported: the run failed.
  bool event_limit_hit() const { return event_limit_hit_; }
  /// The event budget is spent: the next event this shard would run
  /// trips the limit instead.
  bool event_budget_spent() const { return events_executed_ >= event_limit_; }

  // --- Sharded execution surface (driven by sim::ShardGroup) ---------

  /// Brands this Simulation as shard `tag` of a group: every locally
  /// minted event id carries the tag, making ids and birth keys unique
  /// across the group. Call before any event is scheduled.
  void set_shard_tag(std::uint8_t tag) { queue_.set_owner_tag(tag); }

  /// Wires this shard to the group's shared scheduling counter and
  /// toggles whether fresh tags consume it (host code between rounds)
  /// or the shard-local counter (parallel rounds). Managed entirely by
  /// ShardGroup; see EventQueue::set_shared_seq for the ordering
  /// rationale.
  void set_shared_births(std::uint64_t* seq) { queue_.set_shared_seq(seq); }
  void set_shared_births_active(bool on) { queue_.set_shared_active(on); }

  /// Birth stamp for an event this shard is about to hand to another
  /// shard: the local clock plus a freshly minted tag. Counts toward
  /// total_scheduled() here (the event executes remotely but was
  /// scheduled here, exactly as the single-queue engine would count it).
  struct Birth {
    SimTime time;
    EventId tag;
  };
  Birth take_birth() { return Birth{now_, queue_.take_birth_tag()}; }

  /// Enqueues an event admitted from another shard under the sender's
  /// birth stamp. `when` must not precede the last event this shard
  /// executed — the ShardGroup's lookahead rule guarantees that; popping
  /// one that does aborts the process.
  void schedule_admitted(SimTime when, SimTime birth_time, EventId birth_tag,
                         EventFn fn) {
    queue_.schedule_admitted(when, birth_time, birth_tag, std::move(fn));
  }

  /// Runs events whose keys are strictly below `cap` (Key::before(t)
  /// admits every event before time t), parked pollers' probes included
  /// (settled up to the cap). When `condition` is non-null it is
  /// evaluated after every real event; execution stops with fired=true
  /// the moment it turns true (the clock then reads the firing event's
  /// timestamp, current_key() its key). Monotone conditions only: once
  /// true it must stay true until the group observes it.
  struct WindowResult {
    std::uint64_t executed = 0;
    bool fired = false;
  };
  WindowResult run_window(const EventQueue::Key& cap,
                          const std::function<bool()>* condition);

  /// Ordering key of the next pending event, a parked probe included.
  /// Requires !idle().
  EventQueue::Key next_key() const;

  /// Full ordering key of the event currently executing (valid only
  /// inside an event callback). The shard-aware observability buffers
  /// stamp every deferred record with it, so the post-round merge can
  /// interleave records from all shards in exact global event order.
  const EventQueue::Key& current_key() const { return current_key_; }

  /// Timestamp of the next pending event. Requires !idle().
  SimTime next_time() const {
    return parked_.empty() ? queue_.next_time() : next_key().time;
  }

  /// The earliest time this shard can execute a real event, and so the
  /// earliest it can affect another shard: the heap top, or the next
  /// probe of a parked poller whose predicate already holds (the largest
  /// SimTime when there is neither). A false parked predicate reads only
  /// this shard's state, so it can turn true only after a real event
  /// here. Evaluates parked predicates: call it between windows only.
  SimTime send_bound() const;

  /// Moves the clock forward to a group synchronization point without
  /// executing anything (never backwards).
  void fence_now(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  friend class Poller;

  static constexpr SimTime kNoCap = std::numeric_limits<SimTime>::max();

  /// Exclusive time cap that lets every event at or before `deadline` run.
  static SimTime cap_after(SimTime deadline) {
    return deadline == kNoCap ? kNoCap : deadline + 1;
  }

  /// The window cap of a run without a deadline.
  static constexpr EventQueue::Key kUncapped = EventQueue::Key::before(kNoCap);

  /// An upper bound on every key: the floor of a sim with nothing parked.
  static constexpr EventQueue::Key kNoKey{
      std::numeric_limits<SimTime>::max(), std::numeric_limits<SimTime>::max(),
      std::numeric_limits<EventId>::max()};

  void park(Poller& p);
  void unpark(Poller& p);

  void lower_floor(const EventQueue::Key& k) {
    if (k < parked_floor_) parked_floor_ = k;
  }

  /// Brings the parked pollers up to the next heap event below `cap`
  /// (or to `cap` itself): pushes the probes whose predicate holds and
  /// credits the false ones past it. kStalled: no heap event, no cap
  /// and no predicate holds; kLimit: the event limit tripped.
  enum class Settle { kOk, kStalled, kLimit };
  Settle settle(const EventQueue::Key& cap);

  // settle() scratch: false pollers due before the bound, with the
  // probes they are credited and the key they park at afterwards.
  struct Due {
    Poller* poller;
    std::uint64_t probes = 0;
    SimTime last = 0;  // time of the last probe
    EventQueue::Key next{};
  };

  /// Credits every probe of the due pollers (all false, all parked
  /// before `bound`) that precedes `bound`, as if each had executed in
  /// key order. Allocates nothing: `due_` is reused scratch and is
  /// sorted in place.
  Settle credit_probes(const EventQueue::Key& bound);

  /// Executes one probe of a false poller without the heap.
  void skip_probe(Poller& p);

  void trip_limit(const char* who);

  /// Aborts on an event below the clock, in every build: running it
  /// would step time backwards.
  [[noreturn]] void time_travel(SimTime t) const;

  EventQueue queue_;
  RootHook roots_;  // list head of the live roots
  std::vector<Poller*> parked_;
  std::vector<Due> due_;  // settle() scratch
  // Lower bound on the parked pollers' next keys: park() lowers it, a
  // settle that scans this sim sets it exactly, and unpark() may leave
  // it stale (still a bound, it costs one scan).
  EventQueue::Key parked_floor_ = kNoKey;
  SimTime now_ = 0;
  EventQueue::Key current_key_{};
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_limit_ = std::numeric_limits<std::uint64_t>::max();
  bool event_limit_hit_ = false;
};

}  // namespace pg::sim

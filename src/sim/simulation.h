// The simulation kernel: a clock plus an event queue.
//
// Every model component holds a Simulation& and expresses behaviour as
// events (schedule / schedule_at). A Simulation executes on one thread
// at a time; determinism comes from the birth-key total order in
// EventQueue. Standalone, run()/run_until() drive one Simulation
// directly. A cluster gives every node its own Simulation as one shard
// of a ShardGroup (sim/parallel.h), which calls run_window() for
// parallel rounds and advance() over all shards for merged execution,
// and moves the clock across synchronization fences with fence_now();
// events crossing shards enter through schedule_admitted() carrying the
// sender's birth stamp.
//
// Polling loops (Poller: host sim::PollUntil coroutines and GPU warp spin
// loops, gpu/device.h) do not put their probes through the heap. After a
// false probe a poller *parks*, holding the birth key its next probe
// would have had. Before every real event the run loops evaluate each
// parked predicate whose next probe precedes that event, once: a poller
// whose predicate holds gets its probe pushed into the heap under that
// exact key; every other poller skips past the event in closed form,
// credited with the probes, sequence numbers and event counts it would
// have used, and its skipped() hook credits the model state each probe
// would have touched (a GPU's counters and L2 LRU). Merged execution
// settles the parked pollers of all shards together, against the
// smallest heap key of the whole group. Poll predicates only read state
// and state only changes inside real events, so the skipped probes could
// not have seen anything else. Execution order, tags, counts and outputs
// are identical to probing event by event. A settle batch costs its sort
// plus O(1) per due poller when the intervals agree: each last probe's
// merged-order rank is counted down from the batch end. Each Simulation
// keeps a lower bound on its parked keys, so a settle skips the shards
// none of whose parked probes precedes the bound.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/units.h"
#include "sim/event_queue.h"

namespace pg::sim {

class Simulation;

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

  SimTime now() const { return now_; }

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

  /// Safety valve: run() aborts (with an assertion in debug builds, by
  /// returning in release builds) after this many events. Guards against
  /// accidental event storms in model bugs.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  bool event_limit_hit() const { return event_limit_hit_; }

  // --- Sharded execution surface (driven by sim::ShardGroup) ---------

  /// Brands this Simulation as shard `tag` of a group: every locally
  /// minted event id carries the tag, making ids and birth keys unique
  /// across the group. Call before any event is scheduled.
  void set_shard_tag(std::uint8_t tag) { queue_.set_owner_tag(tag); }

  /// Wires this shard to the group's shared scheduling counter and
  /// toggles whether fresh tags consume it (serial coordinator context:
  /// host code, merged execution) or the shard-local counter (parallel
  /// rounds). Managed entirely by ShardGroup; see
  /// EventQueue::set_shared_seq for the ordering rationale.
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
  /// executed — the ShardGroup's lookahead rule guarantees that.
  void schedule_admitted(SimTime when, SimTime birth_time, EventId birth_tag,
                         EventFn fn) {
    queue_.schedule_admitted(when, birth_time, birth_tag, std::move(fn));
  }

  /// Runs events with timestamps strictly below `cap`, parked pollers'
  /// probes included (settled up to the cap). When `condition` is
  /// non-null it is evaluated after every real event; execution stops
  /// with fired=true the moment it turns true (the clock then reads the
  /// firing event's timestamp). Monotone conditions only: once true it
  /// must stay true until the group observes it.
  struct WindowResult {
    std::uint64_t executed = 0;
    bool fired = false;
  };
  WindowResult run_window(const SimTime& cap,
                          const std::function<bool()>* condition);

  /// One step of the merged order of `sims` (all one group's shards in
  /// shared minting mode, or just one standalone Simulation): settles the
  /// parked pollers of every sim together up to the smallest heap key
  /// below `cap`, then executes that event. kNone: no heap event below
  /// the cap is left (pollers are settled up to the cap); kStalled: no
  /// heap event, no cap and no parked predicate holds (nothing is
  /// reported); kLimit: an event limit tripped.
  enum class Step { kRan, kNone, kStalled, kLimit };
  static Step advance(std::span<Simulation* const> sims, SimTime cap);

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
  Settle settle(SimTime cap);

  /// settle() over the parked pollers of every sim in `sims`, against
  /// `bound` (the smallest heap key, or the cap). A pushed probe lowers
  /// `bound` and makes its sim `next`, the one to step. Sims whose
  /// parked floor is not below `bound` are not scanned.
  static Settle settle(std::span<Simulation* const> sims,
                       EventQueue::Key& bound, Simulation*& next);

  // settle() scratch: false pollers due before the bound, with the
  // probes they are credited and the key they park at afterwards.
  struct Due {
    Poller* poller;
    std::uint64_t probes = 0;
    SimTime last = 0;  // time of the last probe
    EventQueue::Key next{};
  };

  /// Credits every probe of the due pollers (all false, all parked
  /// before `bound`, possibly on different sims) that precedes `bound`,
  /// as if each had executed in key order on its own sim. Allocates
  /// nothing: `due` is reused scratch and is sorted in place.
  static Settle credit_probes(std::vector<Due>& due,
                              const EventQueue::Key& bound);

  /// Executes one probe of a false poller without the heap.
  void skip_probe(Poller& p);

  /// advance() over this Simulation alone.
  Step advance(SimTime cap) {
    Simulation* self = this;
    return advance(std::span<Simulation* const>(&self, 1), cap);
  }

  /// Pops and executes the heap top (requires a pending heap event).
  /// Returns false when the event limit tripped instead.
  bool step();

  void trip_limit(const char* who);

  EventQueue queue_;
  std::vector<Poller*> parked_;
  std::vector<Due> due_;  // settle() scratch of the first sim settled
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

// Discrete-event priority queue.
//
// Events are ordered by a *birth key*: (timestamp, birth_time, birth_tag),
// where birth_time is the clock value at which the event was scheduled and
// birth_tag packs (per-queue scheduling counter << 8 | owner shard tag).
// On a single queue the clock never runs backwards, so the birth key
// degenerates to the classic (timestamp, sequence) FIFO order the whole
// simulator has always relied on for reproducible runs. Its purpose is
// sharded execution (sim/parallel.h): an event admitted from another
// shard carries the *sender's* birth stamp, so same-timestamp events
// interleave in exactly the order a single global scheduling counter
// would have produced — deterministic tie-breaking by (timestamp,
// birth time, per-shard counter, shard id), independent of thread count.
//
// Layout: the heap itself holds 32-byte POD entries (time, birth_time,
// tag, slot), so sift-up/down moves are plain memcpys; the callbacks
// live in a side pool of recycled slots that heap reordering never
// touches. Callbacks are InlineFn (see inline_fn.h): scheduling a
// lambda does not allocate unless its captures exceed the inline
// buffer, and the slot pool reaches steady state at the maximum number
// of in-flight events.
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/units.h"
#include "sim/inline_fn.h"

namespace pg::sim {

using EventFn = InlineFn;

/// Identifies a scheduled event so it can be cancelled. The id *is* the
/// event's birth tag: (scheduling counter << 8) | owner shard tag —
/// unique across every queue in a sharded group. Bit 63 marks tags
/// minted from the group-shared counter (see set_shared_seq).
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;
constexpr EventId kSharedSeqBit = 1ull << 63;

class EventQueue {
 public:
  /// The total execution order: (time, birth_time, birth_tag).
  struct Key {
    SimTime time;
    SimTime birth_time;
    EventId birth_tag;
    bool operator<(const Key& o) const {
      if (time != o.time) return time < o.time;
      if (birth_time != o.birth_time) return birth_time < o.birth_time;
      return birth_tag < o.birth_tag;
    }
  };

  /// Brands every locally minted birth tag with this shard's identity
  /// (low byte). Defaults to 0; must be set before the first schedule.
  void set_owner_tag(std::uint8_t tag) { owner_tag_ = tag; }

  /// Points this queue at a scheduling counter shared by every shard of
  /// a group. While *activated*, freshly minted tags consume the shared
  /// counter (with kSharedSeqBit set) instead of the local one, so
  /// events scheduled from serial coordinator context — host code
  /// between rounds and merged execution — carry their *global*
  /// chronological order, exactly the sequence one global counter would
  /// have assigned. The group deactivates shared minting for the
  /// duration of parallel rounds (workers may not touch it concurrently)
  /// and local tags take over; kSharedSeqBit orders every
  /// coordinator-minted tag after same-key round-minted ones, matching
  /// chronology (round events are born before the host code that runs
  /// once the round's wait completes).
  void set_shared_seq(std::uint64_t* seq) { shared_seq_ = seq; }
  void set_shared_active(bool on) { shared_active_ = on; }

  /// Schedules `fn` at absolute time `when`; `birth_time` is the
  /// caller's clock (Simulation passes now()). Returns an id for
  /// cancel().
  EventId schedule_at(SimTime when, SimTime birth_time, EventFn fn);

  /// Clock-less convenience for direct queue use (tests, benches): all
  /// events share birth_time 0, so ordering falls back to pure
  /// scheduling order — the classic (time, seq) behaviour.
  EventId schedule_at(SimTime when, EventFn fn) {
    return schedule_at(when, 0, std::move(fn));
  }

  /// Mints a birth tag without enqueueing locally — the caller is about
  /// to hand the event to another shard's queue. Counts toward
  /// total_scheduled() on this side, exactly like the single-queue
  /// engine counts the event where it was scheduled.
  EventId take_birth_tag() {
    ++scheduled_;
    return make_tag();
  }

  /// Enqueues an event admitted from another shard, carrying the
  /// sender's birth stamp (take_birth_tag() + the sender's clock). Does
  /// not consume a local sequence number.
  EventId schedule_admitted(SimTime when, SimTime birth_time,
                            EventId birth_tag, EventFn fn);

  /// Enqueues under a full key whose tag this queue already minted with
  /// take_birth_tag() (a parked poller's probe, see Simulation). Neither
  /// consumes a sequence number nor counts toward total_scheduled().
  EventId schedule_keyed(const Key& key, EventFn fn) {
    return push_entry(key.time, key.birth_time, key.birth_tag, std::move(fn));
  }

  /// The tag the k-th next mint would produce (k = 0: the very next),
  /// in the current minting mode (shared or local).
  EventId tag_ahead(std::uint64_t k) const {
    if (shared_seq_ != nullptr && shared_active_) {
      return kSharedSeqBit | ((*shared_seq_ + k) << 8) | owner_tag_;
    }
    return ((next_seq_ + k) << 8) | owner_tag_;
  }

  /// Consumes the next `n` tags and counts `n` scheduled events without
  /// enqueueing anything: the events a parked poller's skipped probes
  /// would have scheduled, credited in one step.
  void credit(std::uint64_t n) {
    scheduled_ += n;
    if (shared_seq_ != nullptr && shared_active_) {
      *shared_seq_ += n;
    } else {
      next_seq_ += n;
    }
  }

  /// Marks an event as cancelled; it is skipped when its time arrives.
  /// Returns false if the id was never scheduled or already ran.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Timestamp of the next live event. Requires !empty().
  SimTime next_time() const {
    auto* self = const_cast<EventQueue*>(this);
    self->drop_cancelled();
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Full ordering key of the next live event (for cross-shard merges).
  /// Requires !empty().
  Key next_key() const {
    auto* self = const_cast<EventQueue*>(this);
    self->drop_cancelled();
    assert(!heap_.empty());
    const Entry& top = heap_.front();
    return Key{top.time, top.birth_time, top.tag};
  }

  /// Pops and returns the next live event. Requires !empty().
  /// (time, birth_time, id) is the event's full ordering key — the
  /// shard-aware observability sinks stamp deferred records with it so
  /// a post-round merge can reconstruct the global execution order.
  struct Popped {
    SimTime time;
    SimTime birth_time;
    EventId id;
    EventFn fn;
  };
  Popped pop() {
    drop_cancelled();
    assert(!heap_.empty());
    return pop_front();
  }

  /// Pops the next live event only if its timestamp is strictly below
  /// `cap`; one heap-top inspection and one pop, fused — the window
  /// execution hot path. Returns false (and leaves the queue untouched)
  /// when the queue is empty or the next event is at or past the cap.
  bool pop_if_before(SimTime cap, Popped* out) {
    drop_cancelled();
    if (heap_.empty() || heap_.front().time >= cap) return false;
    *out = pop_front();
    return true;
  }

  std::uint64_t total_scheduled() const { return scheduled_; }

  /// Number of cancelled-but-not-yet-reclaimed entries (bounded: a
  /// compaction pass runs whenever tombstones exceed half the live
  /// count, so cancel-heavy workloads cannot grow the heap unboundedly).
  std::size_t tombstones() const { return cancelled_.size(); }

 private:
  struct Entry {
    SimTime time;
    SimTime birth_time;
    EventId tag;         // birth tag, doubles as the event id
    std::uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.birth_time != b.birth_time) return a.birth_time > b.birth_time;
      return a.tag > b.tag;
    }
  };

  /// Consumes one sequence number — shared when active, local
  /// otherwise — and brands it with the owner tag.
  EventId make_tag() {
    if (shared_seq_ != nullptr && shared_active_) {
      return kSharedSeqBit | ((*shared_seq_)++ << 8) | owner_tag_;
    }
    return (next_seq_++ << 8) | owner_tag_;
  }

  EventId push_entry(SimTime when, SimTime birth_time, EventId tag,
                     EventFn fn);

  /// Discards cancelled entries sitting at the top of the heap. Inline
  /// fast path: with no tombstones at all (the common steady state) or a
  /// heap top already vetted (checked_top_ memo), this is two loads and
  /// no call — every pop and every top inspection runs through here.
  void drop_cancelled() {
    if (heap_.empty() || cancelled_.empty() ||
        heap_.front().tag == checked_top_) {
      return;
    }
    drop_cancelled_slow();
  }
  void drop_cancelled_slow();

  /// pop() / pop_if_before() tail: removes the (already vetted) heap
  /// top. Callers must run drop_cancelled() first.
  Popped pop_front();

  /// Removes every tombstoned entry from the heap and re-heapifies.
  void compact();

  /// Destroys the callable in `slot` and recycles the slot.
  void release_slot(std::uint32_t slot);

  /// Drops a foreign-branded tag from the live-admitted set when its
  /// entry leaves the heap (pop, tombstone reclaim, compaction).
  void retire_tag(EventId tag);

  std::vector<Entry> heap_;
  std::vector<EventFn> slots_;             // parked callables
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::unordered_set<EventId> cancelled_;  // tombstones, O(1) membership
  std::unordered_set<EventId> admitted_live_;  // foreign-branded entries
  std::size_t live_count_ = 0;
  EventId checked_top_ = kInvalidEventId;  // heap top known live
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t* shared_seq_ = nullptr;
  bool shared_active_ = false;
  std::uint8_t owner_tag_ = 0;
};

}  // namespace pg::sim

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
// interleave deterministically by (timestamp, birth time, per-shard
// counter, shard id), independent of thread count.
//
// Layout: the heap itself holds 32-byte POD entries (time, birth_time,
// tag, slot), so sift-up/down moves are plain memcpys; the callbacks
// live in a side pool of recycled slots that heap reordering never
// touches. Callbacks are InlineFn (see inline_fn.h): scheduling a
// lambda does not allocate unless its captures exceed the inline
// buffer, and the slot pool reaches steady state at the maximum number
// of in-flight events.
//
// Dispatch in place: a callback is relocated once, from the caller's
// temporary into its slot, and runs there. The run loop take()s the
// heap top's key and slot, then run()s the slot: the callback executes,
// is destroyed and the slot is recycled. Slots live in fixed-size
// chunks that never move when the pool grows, so a running callback
// may schedule any number of events (growing the pool) and still read
// its own captures.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/inline_fn.h"

namespace pg::sim {

using EventFn = InlineFn;

/// An event's birth tag: (scheduling counter << 8) | owner shard tag —
/// unique across every queue in a sharded group. Bit 63 marks tags
/// minted from the group-shared counter (see set_shared_seq).
using EventId = std::uint64_t;
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
    /// The smallest key at time `t`: as an exclusive cap, it admits
    /// every event strictly before `t`.
    static constexpr Key before(SimTime t) {
      return Key{t, std::numeric_limits<SimTime>::min(), 0};
    }
  };

  /// Brands every locally minted birth tag with this shard's identity
  /// (low byte). Defaults to 0; must be set before the first schedule.
  void set_owner_tag(std::uint8_t tag) { owner_tag_ = tag; }

  /// Points this queue at a scheduling counter shared by every shard of
  /// a group. While *activated*, freshly minted tags consume the shared
  /// counter (with kSharedSeqBit set) instead of the local one, so
  /// events scheduled from serial coordinator context — host code
  /// between rounds — carry their *global* chronological order, exactly
  /// the sequence one global counter would have assigned. The group
  /// deactivates shared minting for the duration of parallel rounds
  /// (workers may not touch it concurrently) and local tags take over;
  /// kSharedSeqBit orders every
  /// coordinator-minted tag after same-key round-minted ones, matching
  /// chronology (round events are born before the host code that runs
  /// once the round's wait completes).
  void set_shared_seq(std::uint64_t* seq) { shared_seq_ = seq; }
  void set_shared_active(bool on) { shared_active_ = on; }

  /// Schedules `fn` at absolute time `when`; `birth_time` is the
  /// caller's clock (Simulation passes now()).
  void schedule_at(SimTime when, SimTime birth_time, EventFn&& fn);

  /// Clock-less convenience for direct queue use (tests, benches): all
  /// events share birth_time 0, so ordering falls back to pure
  /// scheduling order — the classic (time, seq) behaviour.
  void schedule_at(SimTime when, EventFn&& fn) {
    schedule_at(when, 0, std::move(fn));
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
  void schedule_admitted(SimTime when, SimTime birth_time, EventId birth_tag,
                         EventFn&& fn) {
    push_entry(when, birth_time, birth_tag, std::move(fn));
  }

  /// Enqueues under a full key whose tag this queue already minted with
  /// take_birth_tag() (a parked poller's probe, see Simulation). Neither
  /// consumes a sequence number nor counts toward total_scheduled().
  void schedule_keyed(const Key& key, EventFn&& fn) {
    push_entry(key.time, key.birth_time, key.birth_tag, std::move(fn));
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

  bool empty() const { return heap_.empty(); }

  /// Timestamp of the next event. Requires !empty().
  SimTime next_time() const {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Full ordering key of the next event (for cross-shard merges).
  /// Requires !empty().
  Key next_key() const {
    assert(!heap_.empty());
    const Entry& top = heap_.front();
    return Key{top.time, top.birth_time, top.tag};
  }

  /// The event take() removed from the heap: its full ordering key and
  /// the slot its callback still sits in. The shard-aware observability
  /// sinks stamp deferred records with the key, so a post-round merge
  /// can reconstruct the global execution order.
  struct Taken {
    Key key;
    std::uint32_t slot;
  };

  /// Removes the next event from the heap if its key is strictly below
  /// `cap`, leaving its callback in its slot for run(): one heap-top
  /// inspection and one pop, fused. Returns false (and leaves the queue
  /// untouched) when the queue is empty or the next event is at or past
  /// the cap. Every taken slot must be run() exactly once.
  bool take(const Key& cap, Taken* out) {
    if (heap_.empty()) return false;
    const Entry& top = heap_.front();
    if (!(Key{top.time, top.birth_time, top.tag} < cap)) return false;
    *out = Taken{Key{top.time, top.birth_time, top.tag}, top.slot};
    pop_heap_top();
    return true;
  }

  /// Runs a taken event's callback where it lies, then destroys it and
  /// recycles the slot. The slot stays occupied while the callback runs,
  /// so events it schedules never land on it.
  void run(std::uint32_t slot) {
    EventFn& fn = slot_fn(slot);
    fn();
    fn.reset();
    free_slots_.push_back(slot);
  }

  std::uint64_t total_scheduled() const { return scheduled_; }

  /// Callback slots ever handed out: the peak number of events in flight
  /// at once, a running one included (run() recycles its slot).
  std::size_t slot_capacity() const { return slots_used_; }

 private:
  struct Entry {
    SimTime time;
    SimTime birth_time;
    EventId tag;         // birth tag
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

  // Slots per chunk of the callback pool (a power of two).
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  EventFn& slot_fn(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  void push_entry(SimTime when, SimTime birth_time, EventId tag,
                  EventFn&& fn);

  /// take() tail: removes the heap top. Requires !empty().
  void pop_heap_top();

  std::vector<Entry> heap_;
  // Parked callables, kChunkSize per chunk; a chunk never moves.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::uint32_t slots_used_ = 0;           // slots ever handed out
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t* shared_seq_ = nullptr;
  bool shared_active_ = false;
  std::uint8_t owner_tag_ = 0;
};

}  // namespace pg::sim

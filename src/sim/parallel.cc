#include "sim/parallel.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/log.h"

namespace pg::sim {

namespace {

// Spin briefly, then yield, then sleep: rounds are microseconds apart
// when the group is hot, so an active worker never leaves the spin/yield
// tiers. A worker that keeps losing the claim race — host-side phases,
// or an oversubscribed core where the coordinator does all the work —
// escalates to real sleeps so it stops stealing timeslices from the
// threads that are making progress.
struct Backoff {
  /// Spinning pays only when the thread being waited for can run
  /// simultaneously; on a machine with fewer cores than workers the
  /// spinner is burning the very timeslice the producer needs, so the
  /// spin tier collapses to an immediate yield.
  static int spin_budget() {
    static const int budget =
        std::thread::hardware_concurrency() > 1 ? 256 : 1;
    return budget;
  }

  int spins = 0;
  int yields = 0;
  void pause() {
    if (++spins < spin_budget()) return;
    spins = 0;
    if (++yields < 64) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  void reset() {
    spins = 0;
    yields = 0;
  }
};

}  // namespace

ShardGroup::ShardGroup(std::vector<Simulation*> shards, Options opt)
    : shards_(std::move(shards)), opt_(opt) {
  assert(!shards_.empty());
  assert(opt_.lookahead > 0 && "conservative sync needs positive lookahead");
  const int n = num_shards();
  if (opt_.workers < 1) opt_.workers = 1;
  if (opt_.workers > n) opt_.workers = n;
  slots_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) slots_[static_cast<std::size_t>(i)].sim = shards_[static_cast<std::size_t>(i)];
  // Host code between rounds mints globally ordered birth tags;
  // run_round() switches every shard to its local counter for the
  // duration of each parallel window.
  for (Simulation* s : shards_) {
    s->set_shared_births(&shared_births_);
    s->set_shared_births_active(true);
  }
  channels_.reserve(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n * n; ++i) {
    channels_.push_back(
        std::make_unique<SpscChannel<Admission>>(opt_.channel_capacity));
  }
  // The coordinating caller always participates; the rest are pool
  // threads that join each round's claim race.
  threads_.reserve(static_cast<std::size_t>(opt_.workers - 1));
  for (int e = 1; e < opt_.workers; ++e) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ShardGroup::~ShardGroup() {
  exit_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
}

void ShardGroup::worker_main() {
  std::uint64_t seen = 0;
  Backoff backoff;
  for (;;) {
    while (round_seq_.load(std::memory_order_acquire) == seen) {
      if (exit_.load(std::memory_order_acquire)) return;
      backoff.pause();
    }
    seen = round_seq_.load(std::memory_order_relaxed);
    backoff.reset();
    claim_windows();
  }
}

void ShardGroup::claim_windows() {
  const int n = num_shards();
  for (;;) {
    // acq_rel: acquire pairs with the coordinator's release store of
    // claim_ (publishing this round's slots and every pre-round write),
    // so even a worker arriving late from a previous round sees current
    // state before it touches a window.
    const int i = claim_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= n) return;
    Slot& s = slots_[static_cast<std::size_t>(i)];
    // Window execution runs with the shard's observability buffer bound
    // to this thread (obs helpers defer instead of touching the global
    // sinks); the coordinator folds the buffers in at the next fence.
    if (hooks_.bind) hooks_.bind(i, s.sim);
    s.result = s.sim->run_window(s.cap, s.cond);
    if (hooks_.unbind) hooks_.unbind();
    windows_done_.fetch_add(1, std::memory_order_release);
  }
}

std::uint64_t ShardGroup::run_round() {
  ++rounds_;
  in_round_ = true;
  // Tag minting must be shard-local inside the round regardless of
  // worker count — a single worker has to replay exactly what N workers
  // would do.
  for (Simulation* s : shards_) s->set_shared_births_active(false);
  if (opt_.workers == 1) {
    for (int i = 0; i < num_shards(); ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      if (hooks_.bind) hooks_.bind(i, s.sim);
      s.result = s.sim->run_window(s.cap, s.cond);
      if (hooks_.unbind) hooks_.unbind();
    }
  } else {
    windows_done_.store(0, std::memory_order_relaxed);
    // Release-publishes this round's caps/conds (written before this
    // call) to whichever thread claims each window; pool threads also
    // synchronize through their acquire of round_seq_.
    claim_.store(0, std::memory_order_release);
    round_seq_.fetch_add(1, std::memory_order_release);
    claim_windows();
    // The round is over when every *window* is done, not every worker:
    // a pool thread the OS never scheduled simply claims nothing, and
    // the threads that are running (often just this one, on a busy
    // host) finish the round without waiting for it.
    Backoff backoff;
    while (windows_done_.load(std::memory_order_acquire) < num_shards()) {
      backoff.pause();
    }
  }
  for (Simulation* s : shards_) s->set_shared_births_active(true);
  in_round_ = false;
  std::uint64_t executed = 0;
  for (const Slot& s : slots_) executed += s.result.executed;
  if (executed == 0 && !budget_spent()) report_stall();
  return executed;
}

void ShardGroup::post(int src, int dst, SimTime when, SimTime birth_time,
                      EventId birth_tag, EventFn fn) {
  assert(src != dst);
  if (!in_round_) {
    // Host code: the coordinator owns every shard, admit directly.
    shards_[static_cast<std::size_t>(dst)]->schedule_admitted(
        when, birth_time, birth_tag, std::move(fn));
    return;
  }
  Slot& from = slots_[static_cast<std::size_t>(src)];
  // A shard that is not waiting must not run past an unfired waiter's
  // firing event, and this event may be it (run).
  const bool to_waiter =
      from.cond == nullptr &&
      slots_[static_cast<std::size_t>(dst)].cond != nullptr;
  const Key cap = Key::before(to_waiter ? when : when + opt_.lookahead);
  if (cap < from.cap) from.cap = cap;
  channels_[static_cast<std::size_t>(src) * num_shards() + dst]->push(
      Admission{when, birth_time, birth_tag, dst, std::move(fn)});
  posted_.fetch_add(1, std::memory_order_release);
}

void ShardGroup::drain_channels() {
  // Nothing new since the last drain → skip the N^2 channel scan. The
  // counter is exact here: drains run between rounds, when no window
  // (and therefore no producer) is executing.
  if (posted_.load(std::memory_order_acquire) == drained_) return;
  admit_buf_.clear();
  for (auto& ch : channels_) ch->drain(admit_buf_);
  drained_ += admit_buf_.size();
  if (admit_buf_.empty()) return;
  // Global birth-key order makes the admission sequence (and therefore
  // any tie-resolution bookkeeping) independent of channel layout and
  // worker timing. Birth tags are globally unique, so this is a strict
  // total order.
  std::sort(admit_buf_.begin(), admit_buf_.end(),
            [](const Admission& a, const Admission& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.birth_time != b.birth_time)
                return a.birth_time < b.birth_time;
              return a.birth_tag < b.birth_tag;
            });
  for (Admission& a : admit_buf_) {
    shards_[static_cast<std::size_t>(a.dst)]->schedule_admitted(
        a.when, a.birth_time, a.birth_tag, std::move(a.fn));
  }
  admit_buf_.clear();
}

ShardGroup::Frontier ShardGroup::frontier() {
  Frontier f;
  for (int i = 0; i < num_shards(); ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    Simulation* s = slot.sim;
    slot.send_bound = kNever;
    if (s->idle()) continue;
    f.next = std::min(f.next, s->next_key());
    const SimTime t = slot.send_bound = s->send_bound();
    if (t < f.min1) {
      f.min2 = f.min1;
      f.min1 = t;
      f.argmin = i;
    } else if (t < f.min2) {
      f.min2 = t;
    }
  }
  return f;
}

bool ShardGroup::budget_spent() const {
  for (const Simulation* s : shards_) {
    if (s->event_budget_spent()) return true;
  }
  return false;
}

void ShardGroup::report_stall() {
  for (Simulation* s : shards_) {
    if (!s->idle()) s->report_stall("ShardGroup");
  }
}

void ShardGroup::fence_all(SimTime t) {
  for (Simulation* s : shards_) s->fence_now(t);
  if (t > now_) now_ = t;
}

ShardGroup::Outcome ShardGroup::run(const std::vector<ShardCond>& conds,
                                    SimTime deadline) {
  // Events exactly at the deadline run (run_window caps are exclusive).
  const SimTime cap_bound = deadline == kNever ? kNever : deadline + 1;
  const int n = num_shards();
  struct Wait {
    const ShardCond* cond = nullptr;
    bool fired = false;
    Key fire_key{};  // the firing event's key
  };
  std::vector<Wait> waits(static_cast<std::size_t>(n));
  for (const ShardCond& c : conds) {
    assert(c.shard >= 0 && c.shard < n);
    Wait& w = waits[static_cast<std::size_t>(c.shard)];
    assert(w.cond == nullptr && "one condition per shard");
    w.cond = &c;
  }
  drain_channels();
  // A predicate already true at the start fires "now", before anything
  // runs — the sequential engine checks before stepping, too.
  std::size_t unfired = 0;
  for (Wait& w : waits) {
    if (w.cond == nullptr) continue;
    if (w.cond->pred()) {
      w.fired = true;
      w.fire_key = Key::before(now_);
    } else {
      ++unfired;
    }
  }
  while (conds.empty() || unfired > 0) {
    drain_channels();
    const Frontier f = frontier();
    // No shard can send: the group drained, or deadlocked on parked
    // pollers whose predicates are all false, and no event will ever run
    // again. That stops the loop only where it could otherwise never end:
    // a condition is unfired, or there is no deadline. With no conditions
    // and a finite deadline the rounds below credit the parked probes up
    // to the deadline, and the deadline exit ends the run.
    if (f.min1 == kNever && (unfired > 0 || deadline == kNever)) {
      if (f.next.time != kNever) report_stall();
      // The stop fences at the latest shard clock, but no shard's clock
      // may pass one of its own parked probe keys (a later run, after
      // host code made a predicate true, would pop that probe in its
      // past): settle every shard's pollers up to that clock first. A
      // run without conditions to that deadline does exactly this.
      run({}, latest_clock());
      return Outcome::kStopped;
    }
    if (f.next.time > deadline) {
      // Every event up to the boundary ran without the wait completing:
      // fence at the boundary so the caller samples a defined instant,
      // then resume the (monotone) wait on the next call.
      fence_all(deadline);
      merge_sinks();
      return Outcome::kDeadline;
    }
    // Shards still waiting run to their horizon but pause on their
    // firing event. Everyone else must stay below every waiter's send
    // bound: a condition reads its own shard's state, so it can fire no
    // earlier than that shard's next real event, and nothing may execute
    // past the final firing time.
    SimTime min_unfired = kNever;
    for (int i = 0; i < n; ++i) {
      const Wait& w = waits[static_cast<std::size_t>(i)];
      if (w.cond != nullptr && !w.fired) {
        min_unfired = std::min(
            min_unfired, slots_[static_cast<std::size_t>(i)].send_bound);
      }
    }
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      Wait& w = waits[static_cast<std::size_t>(i)];
      if (w.cond != nullptr && !w.fired) {
        s.cap = Key::before(std::min(horizon_for(f, i), cap_bound));
        s.cond = &w.cond->pred;
      } else {
        s.cap = Key::before(
            std::min({horizon_for(f, i), min_unfired, cap_bound}));
        s.cond = nullptr;
      }
    }
    const std::uint64_t ran = run_round();
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      Wait& w = waits[static_cast<std::size_t>(i)];
      if (w.cond != nullptr && !w.fired && s.result.fired) {
        w.fired = true;
        w.fire_key = s.sim->current_key();
        --unfired;
      }
    }
    if (ran == 0 || budget_spent()) return stop();
  }
  // The wait completes on the last firing event, at key k* and time t*.
  Key k_star = Key::before(now_);
  for (const Wait& w : waits) {
    if (w.cond != nullptr && k_star < w.fire_key) k_star = w.fire_key;
  }
  // Catch-up: every event ordered before k*, on any shard, would have
  // executed before the sequential engine stopped — those at t* itself
  // included; finish them so the fence leaves each shard with nothing
  // pending that the stop point precedes.
  for (;;) {
    drain_channels();
    const Frontier f = frontier();
    if (!(f.next < k_star)) break;  // drained included
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      s.cap = std::min(Key::before(horizon_for(f, i)), k_star);
      s.cond = nullptr;
    }
    if (run_round() == 0 || budget_spent()) return stop();
  }
  fence_all(k_star.time);
  merge_sinks();
  return Outcome::kFired;
}

SimTime ShardGroup::latest_clock() const {
  SimTime end = now_;
  for (const Simulation* s : shards_) end = std::max(end, s->now());
  return end;
}

ShardGroup::Outcome ShardGroup::stop() {
  // A stalled round or a spent event budget: nothing more may run, and
  // the clocks are only brought to one reading.
  fence_all(latest_clock());
  merge_sinks();
  return Outcome::kStopped;
}

std::uint64_t ShardGroup::total_scheduled() const {
  std::uint64_t total = 0;
  for (const Simulation* s : shards_) total += s->total_scheduled();
  return total;
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t total = 0;
  for (const Simulation* s : shards_) total += s->events_executed();
  return total;
}

bool ShardGroup::event_limit_hit() const {
  for (const Simulation* s : shards_) {
    if (s->event_limit_hit()) return true;
  }
  return false;
}

}  // namespace pg::sim

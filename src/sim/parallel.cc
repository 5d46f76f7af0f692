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
  // Serial contexts (host phases, merged execution) mint globally
  // ordered birth tags; run_round() switches every shard to its local
  // counter for the duration of each parallel window.
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

void ShardGroup::run_round() {
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
}

void ShardGroup::post(int src, int dst, SimTime when, SimTime birth_time,
                      EventId birth_tag, EventFn fn) {
  assert(src != dst);
  if (!in_round_) {
    // Host code or merged execution: the coordinator owns every shard,
    // admit directly.
    shards_[static_cast<std::size_t>(dst)]->schedule_admitted(
        when, birth_time, birth_tag, std::move(fn));
    return;
  }
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

ShardGroup::Frontier ShardGroup::frontier() const {
  Frontier f;
  for (int i = 0; i < num_shards(); ++i) {
    Simulation* s = shards_[static_cast<std::size_t>(i)];
    if (s->idle()) continue;
    const SimTime t = s->next_time();
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

bool ShardGroup::any_limit_hit() const {
  for (Simulation* s : shards_) {
    if (s->event_limit_hit()) return true;
  }
  return false;
}

bool ShardGroup::deadlocked() {
  bool waiting = false;
  for (Simulation* s : shards_) {
    if (s->idle()) continue;
    if (!s->stalled()) return false;
    waiting = true;
  }
  if (!waiting) return false;
  for (Simulation* s : shards_) {
    if (!s->idle()) s->report_stall("ShardGroup");
  }
  return true;
}

void ShardGroup::fence_all(SimTime t) {
  for (Simulation* s : shards_) s->fence_now(t);
  if (t > now_) now_ = t;
}

bool ShardGroup::run_until_local(std::vector<ShardCond> conds) {
  return run_until_local_before(std::move(conds), kNever) == Outcome::kFired;
}

ShardGroup::Outcome ShardGroup::run_until_local_before(
    std::vector<ShardCond> conds, SimTime deadline) {
  // Events exactly at the deadline run (run_window caps are exclusive).
  const SimTime cap_bound = deadline == kNever ? kNever : deadline + 1;
  const int n = num_shards();
  struct Wait {
    const ShardCond* cond = nullptr;
    bool fired = false;
    SimTime fire_time = 0;
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
      w.fire_time = now_;
    } else {
      ++unfired;
    }
  }
  while (unfired > 0) {
    drain_channels();
    if (deadlocked()) {
      merge_sinks();
      return Outcome::kStopped;
    }
    const Frontier f = frontier();
    if (f.min1 == kNever) {
      merge_sinks();
      return Outcome::kStopped;  // drained with predicates unmet
    }
    if (f.min1 > deadline) {
      // Every event up to the boundary ran without the wait completing:
      // fence at the boundary so the caller samples a defined instant,
      // then resume the (monotone) wait on the next call.
      fence_all(deadline);
      merge_sinks();
      return Outcome::kDeadline;
    }
    // Shards still waiting run to their horizon but pause on their
    // firing event. Everyone else must stay below every waiter's next
    // event: a waiter can fire no earlier than that, and nothing may
    // execute past the final firing time.
    SimTime min_unfired = kNever;
    for (int i = 0; i < n; ++i) {
      const Wait& w = waits[static_cast<std::size_t>(i)];
      if (w.cond != nullptr && !w.fired && !shards_[static_cast<std::size_t>(i)]->idle()) {
        min_unfired = std::min(
            min_unfired, shards_[static_cast<std::size_t>(i)]->next_time());
      }
    }
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      Wait& w = waits[static_cast<std::size_t>(i)];
      if (w.cond != nullptr && !w.fired) {
        s.cap = std::min(horizon_for(f, i), cap_bound);
        s.cond = &w.cond->pred;
      } else {
        s.cap = std::min({horizon_for(f, i), min_unfired, cap_bound});
        s.cond = nullptr;
      }
    }
    run_round();
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      Wait& w = waits[static_cast<std::size_t>(i)];
      if (w.cond != nullptr && !w.fired && s.result.fired) {
        w.fired = true;
        w.fire_time = s.sim->now();
        --unfired;
      }
    }
    if (any_limit_hit()) {
      merge_sinks();
      return Outcome::kStopped;
    }
  }
  SimTime t_star = now_;
  for (const Wait& w : waits) {
    if (w.cond != nullptr) t_star = std::max(t_star, w.fire_time);
  }
  // Catch-up: every event strictly before t* would have executed before
  // the sequential engine stopped; finish them so the fence leaves each
  // shard with nothing pending below its clock.
  for (;;) {
    drain_channels();
    const Frontier f = frontier();
    if (f.min1 >= t_star) break;  // kNever included
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      s.cap = std::min(horizon_for(f, i), t_star);
      s.cond = nullptr;
    }
    run_round();
    if (any_limit_hit()) break;
  }
  fence_all(t_star);
  merge_sinks();
  return Outcome::kFired;
}

bool ShardGroup::run_until_global(const std::function<bool()>& pred) {
  return run_until_global_before(pred, kNever) == Outcome::kFired;
}

ShardGroup::Outcome ShardGroup::run_until_global_before(
    const std::function<bool()>& pred, SimTime deadline) {
  drain_channels();
  // Merged execution applies observability directly; fold in anything a
  // previous (windowed) call left buffered before the predicate looks
  // at sink state.
  merge_sinks();
  if (pred()) return Outcome::kFired;
  for (;;) {
    if (deadlocked()) return Outcome::kStopped;
    int best = -1;
    EventQueue::Key best_key{};
    for (int i = 0; i < num_shards(); ++i) {
      Simulation* s = shards_[static_cast<std::size_t>(i)];
      if (s->idle()) continue;
      const EventQueue::Key k = s->next_key();
      if (best < 0 || k < best_key) {
        best = i;
        best_key = k;
      }
    }
    if (best < 0) return Outcome::kStopped;
    if (best_key.time > deadline) {
      fence_all(deadline);
      return Outcome::kDeadline;
    }
    const SimTime t = shards_[static_cast<std::size_t>(best)]->step_one();
    if (t < 0) return Outcome::kStopped;  // event limit tripped
    if (pred()) {
      fence_all(t);
      return Outcome::kFired;
    }
  }
}

std::uint64_t ShardGroup::run_until_time(SimTime deadline) {
  std::uint64_t executed = 0;
  const int n = num_shards();
  for (;;) {
    drain_channels();
    const Frontier f = frontier();
    if (f.min1 > deadline) break;  // kNever included
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      s.cap = std::min(horizon_for(f, i), deadline + 1);
      s.cond = nullptr;
    }
    run_round();
    for (const Slot& s : slots_) executed += s.result.executed;
    if (any_limit_hit()) break;
  }
  fence_all(deadline);
  merge_sinks();
  return executed;
}

std::uint64_t ShardGroup::run() {
  std::uint64_t executed = 0;
  SimTime end = now_;
  const int n = num_shards();
  for (;;) {
    drain_channels();
    if (deadlocked()) break;
    const Frontier f = frontier();
    if (f.min1 == kNever) break;
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      s.cap = horizon_for(f, i);
      s.cond = nullptr;
    }
    run_round();
    for (const Slot& s : slots_) executed += s.result.executed;
    if (any_limit_hit()) break;
  }
  for (Simulation* s : shards_) end = std::max(end, s->now());
  fence_all(end);
  merge_sinks();
  return executed;
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

bool ShardGroup::event_limit_hit() const { return any_limit_hit(); }

}  // namespace pg::sim

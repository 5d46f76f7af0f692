#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/log.h"

namespace pg::sim {

Poller::Poller(Simulation& sim, std::function<bool()> predicate,
               SimDuration interval)
    : sim_(sim), predicate_(std::move(predicate)), interval_(interval) {}

Poller::~Poller() {
  if (parked_) sim_.unpark(*this);
}

void Poller::park() { sim_.park(*this); }

void Simulation::park(Poller& p) {
  assert(!p.parked_);
  assert(p.interval_ > 0 && "a zero poll interval never lets time advance");
  // Exactly what scheduling the next probe would have done: one tag
  // minted and one event counted, now.
  p.next_ = EventQueue::Key{now_ + p.interval_, now_,
                            queue_.take_birth_tag()};
  p.parked_ = true;
  parked_.push_back(&p);
  lower_floor(p.next_);
}

void Simulation::unpark(Poller& p) {
  // The floor may now lie below every remaining key: still a lower
  // bound, it costs at most one scan.
  p.parked_ = false;
  std::erase(parked_, &p);
}

EventQueue::Key Simulation::next_key() const {
  assert(!idle());
  bool have = !queue_.empty();
  EventQueue::Key best = have ? queue_.next_key() : EventQueue::Key{};
  for (const Poller* p : parked_) {
    if (!have || p->next_ < best) best = p->next_;
    have = true;
  }
  return best;
}

bool Simulation::stalled() const {
  if (!queue_.empty() || parked_.empty()) return false;
  return std::none_of(parked_.begin(), parked_.end(),
                      [](const Poller* p) { return p->predicate_(); });
}

void Simulation::report_stall(const char* who) {
  PG_ERROR("sim",
           "deadlock at t=%lld ps: no event pending and none of %zu parked "
           "pollers can succeed; %s returns drained",
           static_cast<long long>(now_), parked_.size(), who);
  event_limit_hit_ = true;
}

void Simulation::trip_limit(const char* who) {
  // Diagnose the safety valve loudly: a tripped limit means a model
  // scheduled an event storm, and a silent early return makes that look
  // like ordinary convergence failure.
  if (!event_limit_hit_) {
    PG_ERROR("sim",
             "event limit tripped: %llu events executed, t=%lld ps; "
             "%s returns early (raise with set_event_limit)",
             static_cast<unsigned long long>(events_executed_),
             static_cast<long long>(now_), who);
  }
  event_limit_hit_ = true;
}

void Simulation::time_travel(SimTime t) const {
  PG_ERROR("sim", "time travel: event at t=%lld ps popped at t=%lld ps",
           static_cast<long long>(t), static_cast<long long>(now_));
  std::abort();
}

void Simulation::skip_probe(Poller& p) {
  const EventQueue::Key k = p.next_;
  now_ = k.time;
  ++events_executed_;
  ++p.probes_;
  p.next_ = EventQueue::Key{k.time + p.interval_, k.time,
                            queue_.take_birth_tag()};
  p.skipped(1);
}

SimTime Simulation::send_bound() const {
  SimTime bound = queue_.empty() ? kNoCap : queue_.next_time();
  // No parked probe precedes the heap top.
  if (parked_floor_.time >= bound) return bound;
  for (const Poller* p : parked_) {
    if (p->next_.time < bound && p->predicate_()) bound = p->next_.time;
  }
  return bound;
}

Simulation::Settle Simulation::settle(const EventQueue::Key& cap) {
  // No parked probe precedes the cap, or the heap top below it.
  if (!(parked_floor_ < cap)) return Settle::kOk;
  EventQueue::Key bound = cap;
  if (!queue_.empty()) {
    const EventQueue::Key top = queue_.next_key();
    if (top < bound) bound = top;
  }
  if (!(parked_floor_ < bound)) return Settle::kOk;
  // Every parked predicate due before the bound is evaluated once; state
  // cannot change before the next real event, so that one answer holds
  // for all of the poller's probes up to it. The scan recomputes the
  // floor exactly: from the pollers it leaves parked, and from the due
  // ones once their batch is settled.
  due_.clear();
  parked_floor_ = kNoKey;
  for (std::size_t i = 0; i < parked_.size();) {
    Poller* p = parked_[i];
    if (!(p->next_ < bound)) {
      lower_floor(p->next_);
      ++i;
      continue;
    }
    if (!p->predicate_()) {
      due_.push_back(Due{p});
      ++i;
      continue;
    }
    // The successful probe runs as a real event under its exact key.
    parked_[i] = parked_.back();
    parked_.pop_back();
    p->parked_ = false;
    queue_.schedule_keyed(p->next_, [p] { p->probe(); });
    bound = p->next_;
  }
  if (due_.empty()) return Settle::kOk;
  Settle result = Settle::kStalled;
  if (bound.time != kNoCap) {
    // A successful probe may have lowered the bound below some false
    // pollers' next probe; those wait for the next settle.
    std::erase_if(due_, [this, &bound](const Due& d) {
      if (d.poller->next_ < bound) return false;
      lower_floor(d.poller->next_);
      return true;
    });
    result = due_.empty() ? Settle::kOk : credit_probes(bound);
  }
  for (const Due& d : due_) lower_floor(d.poller->next_);
  return result;
}

// Closed-form replay of the probes the due pollers would have executed
// before `bound`. Poller i probes at t_i + m*I_i (m >= 0) under key
// (t, t - I_i, tag); the probe at m = 0 carries its parked tag g_i and
// every later one the tag its predecessor minted. The probes of all due
// pollers interleave in key order, and each mints the next sequence
// number, so a probe's successor tag is tag_ahead(its rank in the merged
// order). rank() counts, per other poller, the lattice points that
// precede a probe:
//  - an earlier time precedes;
//  - at the same time a longer interval (earlier birth) precedes;
//  - at the same time and interval (same phase) the tags decide. Their
//    relative order is fixed at the first shared lattice point and kept
//    from then on, because each probe mints in execution order.
// Only the last probe of each poller needs a rank (its tag is the new
// parked key), and the batch is sorted by last probe. A poller k then
// follows every probe of the pollers before it and every probe but the
// last of the pollers after it, so its rank is counted down from the
// batch end in O(1): total - (n - k). The exception is a later poller o
// whose penultimate probe lies at or after k's last (only with mixed
// intervals): preceding() counts o's probes exactly. A running maximum
// of the later pollers' penultimate probes finds it, so a batch costs
// its sort plus O(n) unless intervals differ; rank() is only a Debug
// cross-check and the rare tie at the bound.
Simulation::Settle Simulation::credit_probes(const EventQueue::Key& bound) {
  std::vector<Due>& due = due_;
  const std::size_t n = due.size();
  // The k-th mint of the batch is tag_ahead(k) on this queue's counter.
  const EventId first_tag = queue_.tag_ahead(0);
  // A tag minted before this batch sorts either below every batch tag
  // (same minting mode) or above all of them (the other mode).
  auto before_batch = [first_tag](EventId g) { return g < first_tag; };
  // Does j's probe at a lattice point shared with i (same interval and
  // phase) execute before i's?
  auto j_first = [&](const Poller& j, const Poller& i) {
    const SimTime tj = j.next_.time, ti = i.next_.time;
    if (tj == ti) return j.next_.birth_tag < i.next_.birth_tag;
    if (tj < ti) return !before_batch(i.next_.birth_tag);
    return before_batch(j.next_.birth_tag);
  };
  // Does j's probe execute before i's at one time? A longer interval
  // means an earlier birth; the same interval means the same phase.
  auto goes_first = [&](const Poller& j, const Poller& i) {
    return j.interval_ > i.interval_ ||
           (j.interval_ == i.interval_ && j_first(j, i));
  };
  // Probes of j that precede poller i's probe at time t.
  auto preceding = [&](const Poller& j, SimTime t, const Poller& i) {
    const SimTime tj = j.next_.time;
    if (t < tj) return std::uint64_t{0};
    const SimDuration d = t - tj;
    const auto whole = static_cast<std::uint64_t>(d / j.interval_);
    if (d % j.interval_ != 0) return whole + 1;
    return whole + (goes_first(j, i) ? 1 : 0);
  };
  // Merged-order rank of poller k's probe m, in O(n). The batch is a
  // prefix of the merged order, so everything preceding a batch probe is
  // in it.
  auto rank = [&](std::size_t k, std::uint64_t m) {
    const Poller& i = *due[k].poller;
    const SimTime t = i.next_.time + static_cast<SimTime>(m) * i.interval_;
    std::uint64_t r = m;
    for (std::size_t o = 0; o < n; ++o) {
      if (o != k) r += preceding(*due[o].poller, t, i);
    }
    return r;
  };

  // Probes per poller strictly before the bound.
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Poller& p = *due[k].poller;
    const SimTime t0 = p.next_.time;
    const SimDuration span = bound.time - t0;  // >= 0: next_ < bound
    std::uint64_t c = static_cast<std::uint64_t>(span / p.interval_);
    if (span % p.interval_ != 0) {
      ++c;  // no probe lands exactly on the bound's time
    } else {
      // The probe at the bound's time: its birth, then its tag decide.
      const SimTime birth = bound.time - p.interval_;
      if (birth < bound.birth_time) {
        ++c;
      } else if (birth == bound.birth_time) {
        const EventId tag = c == 0 ? p.next_.birth_tag
                                   : queue_.tag_ahead(rank(k, c - 1));
        if (tag < bound.birth_tag) ++c;
      }
    }
    assert(c >= 1 && "a due poller's next probe precedes the bound");
    due[k].probes = c;
    total += c;
  }

  if (total > event_limit_ - events_executed_) {
    // The safety valve may trip inside this batch: replay it probe by
    // probe, in key order, so the counts stop where stepping would have.
    for (std::uint64_t left = total; left > 0; --left) {
      Poller* next = due.front().poller;
      for (const Due& d : due) {
        if (d.poller->next_ < next->next_) next = d.poller;
      }
      if (events_executed_ >= event_limit_) {
        trip_limit("the run loop");
        return Settle::kLimit;
      }
      skip_probe(*next);
    }
    return Settle::kOk;
  }

  // The batch in the merged order of each poller's last probe: the
  // order the credits below apply in, so skipped() hooks that share
  // model state (one GPU's L2 LRU) see execution order.
  for (Due& d : due) {
    d.last = d.poller->next_.time +
             static_cast<SimTime>(d.probes - 1) * d.poller->interval_;
  }
  std::sort(due.begin(), due.end(), [&](const Due& a, const Due& b) {
    if (a.last != b.last) return a.last < b.last;
    return goes_first(*a.poller, *b.poller);
  });

  // New keys next (tag_ahead reads the counter, preceding() the old
  // keys), counted down from the batch end.
  SimTime later_penultimate = std::numeric_limits<SimTime>::min();
  for (std::size_t k = n; k-- > 0;) {
    Due& d = due[k];
    const Poller& p = *d.poller;
    std::uint64_t r = total - (n - k);
    if (later_penultimate >= d.last) {
      for (std::size_t o = k + 1; o < n; ++o) {
        const Due& e = due[o];
        if (e.last - e.poller->interval_ < d.last) continue;
        r -= (e.probes - 1) - preceding(*e.poller, d.last, p);
      }
    }
    assert(r == rank(k, d.probes - 1));
    later_penultimate = std::max(later_penultimate, d.last - p.interval_);
    d.next = EventQueue::Key{d.last + p.interval_, d.last, queue_.tag_ahead(r)};
  }
  for (const Due& d : due) {
    Poller& p = *d.poller;
    now_ = std::max(now_, d.next.birth_time);
    queue_.credit(d.probes);
    events_executed_ += d.probes;
    p.next_ = d.next;
    p.probes_ += d.probes;
    p.skipped(d.probes);
  }
  return Settle::kOk;
}

std::uint64_t Simulation::run() {
  const std::uint64_t executed = run_window(kUncapped, nullptr).executed;
  if (stalled()) report_stall("run");
  return executed;
}

std::uint64_t Simulation::run_until(SimTime deadline) {
  const std::uint64_t executed =
      run_window(EventQueue::Key::before(cap_after(deadline)), nullptr)
          .executed;
  fence_now(deadline);
  return executed;
}

bool Simulation::run_until_condition(const std::function<bool()>& predicate) {
  if (predicate()) return true;
  if (run_window(kUncapped, &predicate).fired) return true;
  if (stalled()) report_stall("run_until_condition");
  return predicate();
}

Simulation::WindowResult Simulation::run_window(
    const EventQueue::Key& cap, const std::function<bool()>* condition) {
  WindowResult out;
  const std::uint64_t before = events_executed_;
  EventQueue::Taken next;
  // The only loop that runs events, for every run (standalone runs and
  // parallel rounds alike): inspect-and-take fused into one queue call,
  // then the callback runs in its slot.
  for (;;) {
    // A stall (only parked pollers, no cap) is the caller's to diagnose:
    // another shard may still send this one an event.
    if (settle(cap) != Settle::kOk) break;
    if (events_executed_ >= event_limit_) {
      // Trip only when a sub-cap event is actually pending (the event
      // stays queued).
      if (queue_.empty() || !(queue_.next_key() < cap)) break;
      trip_limit("the run loop");
      break;
    }
    if (!queue_.take(cap, &next)) break;
    if (next.key.time < now_) time_travel(next.key.time);
    now_ = next.key.time;
    current_key_ = next.key;
    ++events_executed_;
    queue_.run(next.slot);
    if (condition != nullptr && (*condition)()) {
      out.fired = true;
      break;
    }
  }
  out.executed = events_executed_ - before;
  return out;
}

}  // namespace pg::sim

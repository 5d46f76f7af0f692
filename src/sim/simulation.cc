#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace pg::sim {

Poller::Poller(Simulation& sim, std::function<bool()> predicate,
               SimDuration interval)
    : sim_(sim), predicate_(std::move(predicate)), interval_(interval) {
  assert(interval_ > 0 && "a zero poll interval never lets time advance");
}

Poller::~Poller() {
  if (parked_) sim_.unpark(*this);
}

void Poller::park() { sim_.park(*this); }

void Simulation::park(Poller& p) {
  assert(!p.parked_);
  // Exactly what scheduling the next probe would have done: one tag
  // minted and one event counted, now.
  p.next_ = EventQueue::Key{now_ + p.interval_, now_,
                            queue_.take_birth_tag()};
  p.parked_ = true;
  parked_.push_back(&p);
}

void Simulation::unpark(Poller& p) {
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

void Simulation::skip_probe(Poller& p) {
  const EventQueue::Key k = p.next_;
  now_ = k.time;
  ++events_executed_;
  ++p.probes_;
  p.next_ = EventQueue::Key{k.time + p.interval_, k.time,
                            queue_.take_birth_tag()};
}

Simulation::Settle Simulation::settle(SimTime cap) {
  if (parked_.empty()) return Settle::kOk;
  EventQueue::Key bound{cap, std::numeric_limits<SimTime>::min(), 0};
  if (!queue_.empty()) {
    const EventQueue::Key top = queue_.next_key();
    if (top < bound) bound = top;
  }
  // Every parked predicate due before the bound is evaluated once; state
  // cannot change before the next real event, so that one answer holds
  // for all of the poller's probes up to it.
  due_.clear();
  for (std::size_t i = 0; i < parked_.size();) {
    Poller* p = parked_[i];
    if (!(p->next_ < bound)) {
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
    if (p->next_ < bound) bound = p->next_;
  }
  if (due_.empty()) return Settle::kOk;
  if (bound.time == kNoCap) return Settle::kStalled;
  // A successful probe may have lowered the bound below some false
  // pollers' next probe; those wait for the next settle.
  std::erase_if(due_, [&bound](const Due& d) {
    return !(d.poller->next_ < bound);
  });
  if (due_.empty()) return Settle::kOk;
  return credit_probes(bound);
}

// Closed-form replay of the probes the due pollers would have executed
// before `bound`. Poller i probes at t_i + m*I_i (m >= 0) under key
// (t, t - I_i, tag); the probe at m = 0 carries its parked tag g_i and
// every later one the tag its predecessor minted. The probes of all due
// pollers interleave in key order, and each mints the next sequence
// number, so a probe's successor tag is tag_ahead(its rank in the merged
// order). Ranks come from counting, per other poller, the lattice points
// that precede a probe:
//  - an earlier time precedes;
//  - at the same time a longer interval (earlier birth) precedes;
//  - at the same time and interval (same phase) the tags decide. Their
//    relative order is fixed at the first shared lattice point and kept
//    from then on, because each probe mints in execution order.
Simulation::Settle Simulation::credit_probes(const EventQueue::Key& bound) {
  const std::size_t n = due_.size();
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
  // Probes of j that precede poller i's probe at time t.
  auto preceding = [&](const Poller& j, SimTime t, const Poller& i) {
    const SimTime tj = j.next_.time;
    if (t < tj) return std::uint64_t{0};
    const SimDuration d = t - tj;
    const auto whole = static_cast<std::uint64_t>(d / j.interval_);
    if (d % j.interval_ != 0) return whole + 1;
    const bool first = j.interval_ > i.interval_ ||
                       (j.interval_ == i.interval_ && j_first(j, i));
    return whole + (first ? 1 : 0);
  };
  // Merged-order rank of poller k's probe m. The batch is a prefix of
  // the merged order, so everything preceding a batch probe is in it.
  auto rank = [&](std::size_t k, std::uint64_t m) {
    const Poller& i = *due_[k].poller;
    const SimTime t = i.next_.time + static_cast<SimTime>(m) * i.interval_;
    std::uint64_t r = m;
    for (std::size_t o = 0; o < n; ++o) {
      if (o != k) r += preceding(*due_[o].poller, t, i);
    }
    return r;
  };

  // Probes per poller strictly before the bound.
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Poller& p = *due_[k].poller;
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
    due_[k].probes = c;
    total += c;
  }

  if (total > event_limit_ - events_executed_) {
    // The safety valve trips inside this batch: replay it probe by probe
    // up to the limit, so the counts stop where stepping would have.
    for (std::uint64_t left = event_limit_ - events_executed_; left > 0;
         --left) {
      Poller* next = due_.front().poller;
      for (const Due& d : due_) {
        if (d.poller->next_ < next->next_) next = d.poller;
      }
      skip_probe(*next);
    }
    trip_limit("the run loop");
    return Settle::kLimit;
  }

  // New keys first (tag_ahead reads the counter, rank the old keys),
  // then one credit.
  SimTime last = now_;
  for (std::size_t k = 0; k < n; ++k) {
    Due& d = due_[k];
    const SimTime t_last = d.poller->next_.time +
                           static_cast<SimTime>(d.probes - 1) * d.poller->interval_;
    d.next = EventQueue::Key{t_last + d.poller->interval_, t_last,
                             queue_.tag_ahead(rank(k, d.probes - 1))};
    last = std::max(last, t_last);
  }
  for (const Due& d : due_) {
    d.poller->next_ = d.next;
    d.poller->probes_ += d.probes;
  }
  queue_.credit(total);
  events_executed_ += total;
  now_ = last;
  return Settle::kOk;
}

bool Simulation::step() {
  if (events_executed_ >= event_limit_) {
    trip_limit("run");
    return false;
  }
  auto popped = queue_.pop();
  assert(popped.time >= now_ && "event queue produced time travel");
  now_ = popped.time;
  current_key_ = EventQueue::Key{popped.time, popped.birth_time, popped.id};
  ++events_executed_;
  popped.fn();
  return true;
}

Simulation::Step Simulation::advance(SimTime cap) {
  switch (settle(cap)) {
    case Settle::kOk:
      break;
    case Settle::kStalled:
      return Step::kStalled;
    case Settle::kLimit:
      return Step::kLimit;
  }
  if (queue_.empty() || queue_.next_time() >= cap) return Step::kNone;
  return step() ? Step::kRan : Step::kLimit;
}

std::uint64_t Simulation::run() {
  stop_requested_ = false;
  const std::uint64_t before = events_executed_;
  while (!stop_requested_) {
    const Step s = advance(kNoCap);
    if (s == Step::kRan) continue;
    if (s == Step::kStalled) report_stall("run");
    break;
  }
  return events_executed_ - before;
}

std::uint64_t Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  const std::uint64_t before = events_executed_;
  const SimTime cap = cap_after(deadline);
  while (!stop_requested_ && advance(cap) == Step::kRan) {
  }
  if (now_ < deadline) now_ = deadline;
  return events_executed_ - before;
}

bool Simulation::run_until_condition(const std::function<bool()>& predicate) {
  stop_requested_ = false;
  if (predicate()) return true;
  while (!stop_requested_) {
    const Step s = advance(kNoCap);
    if (s == Step::kRan) {
      if (predicate()) return true;
      continue;
    }
    if (s == Step::kStalled) report_stall("run_until_condition");
    break;
  }
  return predicate();
}

Simulation::RunOutcome Simulation::run_until_condition_before(
    const std::function<bool()>& predicate, SimTime deadline) {
  stop_requested_ = false;
  if (predicate()) return RunOutcome::kFired;
  const SimTime cap = cap_after(deadline);
  while (!stop_requested_) {
    // The same deadlock point an unsegmented run_until_condition stops
    // at, whatever the deadline.
    if (stalled()) {
      report_stall("run_until_condition_before");
      return RunOutcome::kDrained;
    }
    switch (advance(cap)) {
      case Step::kRan:
        if (predicate()) return RunOutcome::kFired;
        continue;
      case Step::kStalled:
      case Step::kLimit:
        return RunOutcome::kDrained;
      case Step::kNone:
        break;
    }
    if (idle()) return RunOutcome::kDrained;
    // Everything up to the boundary ran; fence the clock there so the
    // caller samples against a well-defined instant.
    if (now_ < deadline) now_ = deadline;
    return RunOutcome::kDeadline;
  }
  return predicate() ? RunOutcome::kFired : RunOutcome::kDrained;
}

Simulation::WindowResult Simulation::run_window(
    SimTime cap, const std::function<bool()>* condition) {
  WindowResult out;
  const std::uint64_t before = events_executed_;
  EventQueue::Popped popped;
  // Hot path of every parallel round: inspect-and-pop fused into one
  // queue call instead of the next_time()/step() double scan.
  for (;;) {
    // A stall (only parked pollers, no cap) is the group's to diagnose:
    // another shard may still send this one an event.
    if (settle(cap) != Settle::kOk) break;
    if (events_executed_ >= event_limit_) {
      // Trip only when a sub-cap event is actually pending, exactly as
      // step() would have (the event stays queued).
      if (queue_.empty() || queue_.next_time() >= cap) break;
      trip_limit("run_window");
      break;
    }
    if (!queue_.pop_if_before(cap, &popped)) break;
    assert(popped.time >= now_ && "event queue produced time travel");
    now_ = popped.time;
    current_key_ = EventQueue::Key{popped.time, popped.birth_time, popped.id};
    ++events_executed_;
    popped.fn();
    if (condition != nullptr && (*condition)()) {
      out.fired = true;
      break;
    }
  }
  out.executed = events_executed_ - before;
  return out;
}

SimTime Simulation::step_one() {
  assert(!idle());
  Poller* first = nullptr;
  for (Poller* p : parked_) {
    if (first == nullptr || p->next_ < first->next_) first = p;
  }
  if (first != nullptr &&
      (queue_.empty() || first->next_ < queue_.next_key())) {
    if (events_executed_ >= event_limit_) {
      trip_limit("step_one");
      return -1;
    }
    if (!first->predicate_()) {
      skip_probe(*first);
      return now_;
    }
    unpark(*first);
    queue_.schedule_keyed(first->next_, [first] { first->probe(); });
  }
  if (!step()) return -1;
  return now_;
}

}  // namespace pg::sim

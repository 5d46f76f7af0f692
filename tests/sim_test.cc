// Unit and property tests for the discrete-event engine and the
// coroutine layer on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <coroutine>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/coro.h"
#include "sim/event_queue.h"
#include "sim/inline_fn.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace pg::sim {
namespace {

/// Takes the next event with no cap; the caller run()s its slot.
EventQueue::Taken take_next(EventQueue& q) {
  EventQueue::Taken t{};
  EXPECT_TRUE(q.take(EventQueue::Key::before(
                         std::numeric_limits<SimTime>::max()),
                     &t));
  return t;
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run(take_next(q).slot);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run(take_next(q).slot);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PropertyNeverRunsOutOfOrder) {
  Rng rng(1234);
  EventQueue q;
  for (int i = 0; i < 2000; ++i) {
    q.schedule_at(static_cast<SimTime>(rng.next_below(1000)), [] {});
  }
  SimTime last = -1;
  while (!q.empty()) {
    const EventQueue::Taken t = take_next(q);
    EXPECT_GE(t.key.time, last);
    last = t.key.time;
    q.run(t.slot);
  }
}

TEST(EventQueue, PropertyEveryInsertionPathPopsInKeyOrder) {
  // One queue fed through all four insertion paths at once: local
  // minting, group-shared minting (toggled on and off), admissions
  // carrying other shards' tags, and keyed pushes of tags minted with
  // take_birth_tag(). Tags are checked against an independent model of
  // the minting rules; every pop must be the smallest in-flight Key and
  // run its own callback; the slot pool never outgrows the peak number
  // of events in flight.
  using Key = EventQueue::Key;
  auto tup = [](const Key& k) {
    return std::tuple(k.time, k.birth_time, k.birth_tag);
  };
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  constexpr std::uint8_t kOwner = 3;
  constexpr std::array<std::uint8_t, 2> kForeign{1, 7};

  Rng rng(2024);
  EventQueue q;
  std::uint64_t shared_counter = 1;
  q.set_owner_tag(kOwner);
  q.set_shared_seq(&shared_counter);

  std::uint64_t local_seq = 1, shared_seq = 1;
  std::array<std::uint64_t, 2> foreign_seq{1, 1};
  bool shared_on = false;
  auto mint = [&]() -> EventId {
    return shared_on ? kSharedSeqBit | (shared_seq++ << 8) | kOwner
                     : (local_seq++ << 8) | kOwner;
  };

  std::vector<std::pair<Key, int>> in_flight;  // key, callback id
  std::uint64_t counted = 0;
  std::size_t peak = 0;
  int ran = -1;
  SimTime floor = 0;
  auto pop_and_check = [&](const std::pair<Key, int>& want) {
    const EventQueue::Taken t = take_next(q);
    EXPECT_EQ(tup(t.key), tup(want.first));
    q.run(t.slot);
    EXPECT_EQ(ran, want.second);
    floor = t.key.time;
  };

  for (int id = 0; id < 4000; ++id) {
    if (rng.next_below(8) == 0) {
      shared_on = !shared_on;
      q.set_shared_active(shared_on);
    }
    EventFn fn = [&ran, id] { ran = id; };
    Key key{floor + static_cast<SimTime>(rng.next_below(32)),
            static_cast<SimTime>(rng.next_below(4)), 0};
    switch (rng.next_below(3)) {
      case 0:
        key.birth_tag = mint();
        ++counted;
        q.schedule_at(key.time, key.birth_time, std::move(fn));
        break;
      case 1: {
        const std::size_t s = rng.next_below(kForeign.size());
        key.birth_tag = (rng.next_below(2) != 0 ? kSharedSeqBit : 0) |
                        (foreign_seq[s]++ << 8) | kForeign[s];
        q.schedule_admitted(key.time, key.birth_time, key.birth_tag,
                            std::move(fn));
        break;
      }
      default:
        key.birth_tag = q.take_birth_tag();
        ++counted;
        EXPECT_EQ(key.birth_tag, mint());
        q.schedule_keyed(key, std::move(fn));
        break;
    }
    in_flight.emplace_back(key, id);
    peak = std::max(peak, in_flight.size());

    for (std::uint64_t n = rng.next_below(3); n > 0 && !q.empty(); --n) {
      auto next = std::min_element(in_flight.begin(), in_flight.end(), by_key);
      pop_and_check(*next);
      in_flight.erase(next);
    }
    ASSERT_LE(q.slot_capacity(), peak);
  }

  // Drain: the rest pops in exactly std::sort order of Key.
  std::sort(in_flight.begin(), in_flight.end(), by_key);
  for (const auto& want : in_flight) {
    ASSERT_FALSE(q.empty());
    pop_and_check(want);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_scheduled(), counted);
  EXPECT_EQ(q.slot_capacity(), peak);
}

TEST(EventQueue, CallbackSurvivesSlotPoolGrowth) {
  // Callbacks run in their slots. One that schedules enough events to
  // add several slot chunks must still read its own captures afterwards:
  // a slot that moved would leave the running closure reading a
  // moved-from vector (and freed storage, which ASan reports).
  EventQueue q;
  constexpr int kSpawned = 2000;
  int ran = 0;
  std::vector<int> seen;
  q.schedule_at(0, [&q, &ran, &seen, words = std::vector<int>{1, 2, 3, 4}] {
    for (int i = 0; i < kSpawned; ++i) {
      q.schedule_at(1 + i, [&ran] { ++ran; });
    }
    seen = words;
  });
  q.run(take_next(q).slot);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.slot_capacity(), std::size_t{kSpawned} + 1);
  while (!q.empty()) q.run(take_next(q).slot);
  EXPECT_EQ(ran, kSpawned);
  // Every slot is free again: a new burst reuses them.
  for (int i = 0; i < kSpawned; ++i) q.schedule_at(0, [] {});
  EXPECT_EQ(q.slot_capacity(), std::size_t{kSpawned} + 1);
}

TEST(InlineFn, SmallCapturesStayCallableThroughMoves) {
  int hits = 0;
  InlineFn fn([&hits] { ++hits; });
  InlineFn moved(std::move(fn));
  InlineFn assigned;
  EXPECT_FALSE(static_cast<bool>(assigned));
  assigned = std::move(moved);
  ASSERT_TRUE(static_cast<bool>(assigned));
  assigned();
  assigned();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, LargeCapturesFallBackToHeapCorrectly) {
  std::array<std::uint64_t, 32> big{};  // 256 B: beyond the inline buffer
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 7;
  std::uint64_t sum = 0;
  InlineFn fn([big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  InlineFn moved(std::move(fn));
  moved();
  EXPECT_EQ(sum, 7u * (31u * 32u / 2u));
}

TEST(InlineFn, DestroysCapturedState) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    InlineFn fn([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // the closure still owns it
  }
  EXPECT_TRUE(watch.expired());  // destroying the fn released it
}

TEST(InlineFn, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineFn fn([token] { (void)*token; });
  token.reset();
  fn = InlineFn([] {});
  EXPECT_TRUE(watch.expired());
  fn();  // replacement target is callable
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  SimTime seen = -1;
  sim.schedule(nanoseconds(50), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, nanoseconds(50));
  EXPECT_EQ(sim.now(), nanoseconds(50));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule(10, chain);
  };
  sim.schedule(10, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i * 100, [&] { ++count; });
  }
  sim.run_until(500);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 500);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilConditionStopsEarly) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i * 100, [&] { ++count; });
  }
  const bool hit = sim.run_until_condition([&] { return count == 3; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 3);
}

TEST(Simulation, EventLimitGuardsAgainstStorms) {
  Simulation sim;
  sim.set_event_limit(100);
  std::function<void()> forever = [&] { sim.schedule(1, forever); };
  sim.schedule(1, forever);
  sim.run();
  EXPECT_TRUE(sim.event_limit_hit());
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulation, ScheduleAtClampsToNow) {
  Simulation sim;
  sim.schedule(100, [&] {
    // Scheduling in the past is clamped to the present, not time travel.
    sim.schedule_at(5, [&] { EXPECT_EQ(sim.now(), 100); });
  });
  sim.run();
}

// An event admitted below the shard clock would run time backwards. The
// engine aborts on it in every build type, NDEBUG ones included.
TEST(SimulationDeathTest, AdmittedEventBelowTheClockAborts) {
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.schedule(nanoseconds(100), [] {});
        sim.run();
        sim.schedule_admitted(nanoseconds(50), 0, 1, [] {});
        sim.run();
      },
      "time travel");
}

// --- Coroutine layer -------------------------------------------------------

CoTask delays_then_sets(Simulation& sim, SimTime& t1, SimTime& t2) {
  co_await Delay{sim, nanoseconds(100)};
  t1 = sim.now();
  co_await Delay{sim, nanoseconds(50)};
  t2 = sim.now();
}

TEST(Coro, DelaysAdvanceTime) {
  Simulation sim;
  SimTime t1 = -1, t2 = -1;
  Trigger done;
  sim.spawn(delays_then_sets(sim, t1, t2), &done);
  sim.run();
  EXPECT_TRUE(done.fired());
  EXPECT_EQ(t1, nanoseconds(100));
  EXPECT_EQ(t2, nanoseconds(150));
}

CoTask poller(Simulation& sim, const bool& flag, SimTime& when,
              std::uint64_t& probes) {
  probes = co_await PollUntil{sim, [&flag] { return flag; },
                              /*interval=*/nanoseconds(10)};
  when = sim.now();
}

TEST(Coro, PollUntilSeesLateFlag) {
  Simulation sim;
  bool flag = false;
  SimTime when = -1;
  std::uint64_t probes = 0;
  Trigger done;
  sim.spawn(poller(sim, flag, when, probes), &done);
  sim.schedule(nanoseconds(95), [&] { flag = true; });
  sim.run();
  EXPECT_TRUE(done.fired());
  // Probes at 0,10,...,90 miss; the probe at 100 hits.
  EXPECT_EQ(when, nanoseconds(100));
  EXPECT_EQ(probes, 11u);
}

CoTask waiter(Simulation& sim, Trigger& trig, int& order, int& my_rank) {
  co_await trig.wait(sim);
  my_rank = ++order;
}

TEST(Coro, TriggerWakesAllWaiters) {
  Simulation sim;
  Trigger trig;
  int order = 0;
  int rank_a = 0, rank_b = 0;
  Trigger a, b;
  sim.spawn(waiter(sim, trig, order, rank_a), &a);
  sim.spawn(waiter(sim, trig, order, rank_b), &b);
  sim.schedule(nanoseconds(30), [&] { trig.fire(); });
  sim.run();
  EXPECT_TRUE(a.fired());
  EXPECT_TRUE(b.fired());
  EXPECT_EQ(rank_a + rank_b, 3);  // both woke, in FIFO order 1 and 2
}

TEST(Coro, WaitOnFiredTriggerContinuesImmediately) {
  Simulation sim;
  Trigger trig;
  trig.fire();
  int order = 0, rank = 0;
  Trigger t;
  sim.spawn(waiter(sim, trig, order, rank), &t);
  sim.run();
  EXPECT_TRUE(t.fired());
  EXPECT_EQ(rank, 1);
}

// --- Root ownership --------------------------------------------------------

struct Sentinel {
  int* destroyed;
  ~Sentinel() { ++*destroyed; }
};

CoTask parks_forever(Simulation& sim, int* destroyed) {
  Sentinel s{destroyed};
  co_await PollUntil{sim, [] { return false; }, nanoseconds(10)};
}

CoTask finishes(Simulation& sim, int* destroyed) {
  Sentinel s{destroyed};
  co_await Delay{sim, nanoseconds(5)};
}

// A finished root frees itself; a suspended one, and the child it awaits,
// is destroyed with the Simulation, each frame exactly once.
CoTask awaits_child(Simulation& sim, int* destroyed) {
  Sentinel s{destroyed};
  co_await parks_forever(sim, destroyed);
}

TEST(Coro, SimulationOwnsRootFrames) {
  int finished = 0, parked = 0;
  {
    Simulation sim;
    Trigger done;
    sim.spawn(finishes(sim, &finished), &done);
    sim.spawn(parks_forever(sim, &parked));
    sim.spawn(awaits_child(sim, &parked));
    sim.run_until(nanoseconds(100));
    EXPECT_TRUE(done.fired());
    EXPECT_EQ(finished, 1);
    EXPECT_EQ(parked, 0);
  }
  EXPECT_EQ(parked, 3);
}

// --- Parked polling against explicit per-probe events ----------------------

// The reference implementation: every probe is its own heap event.
// PollUntil must reproduce it exactly: probe counts, resume times, event
// counts, and the birth key of every event that is not a probe.
struct ExplicitPoll {
  Simulation& sim;
  std::function<bool()> predicate;
  SimDuration interval;
  SimDuration probe_cost = 0;

  std::coroutine_handle<> handle_{};
  std::uint64_t probes_ = 0;
  // The twin of destroying a parked PollUntil: there is no event
  // cancellation, so the pending probe still runs, as an empty event.
  bool stopped = false;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    handle_ = h;
    return step(/*first=*/true);
  }
  std::uint64_t await_resume() const noexcept { return probes_; }

  // One probe; returns whether the coroutine stays suspended. With no
  // probe cost a successful probe continues inline: the first one
  // without suspending, a later one inside its probe event.
  bool step(bool first = false) {
    ++probes_;
    if (!predicate()) {
      sim.schedule(interval, [this] {
        if (!stopped) step();
      });
      return true;
    }
    if (probe_cost > 0) {
      sim.schedule(probe_cost, [h = handle_]() mutable { h.resume(); });
      return true;
    }
    if (first) return false;
    const std::coroutine_handle<> h = handle_;
    h.resume();  // destroys this awaiter
    return false;
  }
};

using KeyTuple = std::tuple<SimTime, SimTime, EventId>;
KeyTuple tuple_of(const EventQueue::Key& k) {
  return {k.time, k.birth_time, k.birth_tag};
}

// Everything observable about one run, probes aside.
struct PollTrace {
  std::vector<std::uint64_t> probes;  // per completed poll
  std::vector<SimTime> resumed;       // clock at each resume
  std::vector<KeyTuple> keys;         // every non-probe event, in order
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  SimTime end = 0;

  void snapshot(const Simulation& sim) {
    scheduled = sim.total_scheduled();
    executed = sim.events_executed();
    end = sim.now();
  }
  bool operator==(const PollTrace&) const = default;
};

// One host loop: waits on each flag in turn, logs the resume, and
// schedules a follow-up event whose birth key is logged too.
template <class Poll>
CoTask poll_flags(Simulation& sim, const std::vector<char>& flags,
                  std::vector<int> order, SimDuration interval,
                  SimDuration cost, PollTrace& tr, int& done) {
  for (int f : order) {
    const std::uint64_t probes =
        co_await Poll{sim, [&flags, f] { return flags[f] != 0; }, interval,
                      cost};
    tr.probes.push_back(probes);
    tr.resumed.push_back(sim.now());
    tr.keys.push_back(tuple_of(sim.current_key()));
    sim.schedule(nanoseconds(f % 3 * 10), [&sim, &tr] {
      tr.keys.push_back(tuple_of(sim.current_key()));
    });
  }
  ++done;
}

struct PollerSpec {
  SimTime start;         // the loop starts inside an event at this time
  SimDuration interval;
  SimDuration cost;
  std::vector<int> flags;
};

// A flag write at `at`, scheduled `delay` earlier by a relay event, so
// both the write's birth time and its tag relative to probe tags vary.
struct WriteSpec {
  SimTime at;
  SimDuration delay;
  int flag;
};

struct PollScenario {
  std::vector<PollerSpec> pollers;
  std::vector<WriteSpec> writes;
  int num_flags = 0;
  // At t=0 the writes' creator events run before (true) or after the
  // pollers' start events, so relays mint their tags before or after
  // the probes.
  bool writes_first = true;
};

enum class Drive { kRun, kCondition, kSegments };

// The most `segment`-long run_until steps a correct drive of `sc` needs,
// with room to spare: a poller is done one probe interval plus cost per
// flag after the later of its start and the last write. Segmented drives
// stop there, so an engine fault that leaves a poller parked and never
// settled fails the test instead of hanging it.
std::uint64_t max_segments(const PollScenario& sc, SimDuration segment) {
  SimTime last_write = 0;
  for (const WriteSpec& w : sc.writes) last_write = std::max(last_write, w.at);
  SimTime end = last_write;
  for (const PollerSpec& p : sc.pollers) {
    end = std::max(end, std::max(p.start, last_write) +
                            static_cast<SimDuration>(p.flags.size()) *
                                (p.interval + p.cost + nanoseconds(20)));
  }
  return 2 * static_cast<std::uint64_t>(end / segment) + 16;
}

void snapshot_boundary(const Simulation& sim, PollTrace& tr) {
  tr.keys.push_back({sim.now(), static_cast<SimTime>(sim.events_executed()),
                     sim.total_scheduled()});
  if (!sim.idle()) tr.keys.push_back(tuple_of(sim.next_key()));
}

template <class Poll>
PollTrace run_poll_scenario(const PollScenario& sc, Drive drive,
                            SimDuration segment = nanoseconds(70)) {
  Simulation sim;
  PollTrace tr;
  std::vector<char> flags(static_cast<std::size_t>(sc.num_flags), 0);
  int done = 0;
  // Each write: a creator event at t=0 schedules the relay, which
  // schedules the write itself.
  auto schedule_writes = [&] {
    for (const WriteSpec& w : sc.writes) {
      sim.schedule_at(0, [&sim, &flags, &tr, w] {
        sim.schedule_at(w.at - w.delay, [&sim, &flags, &tr, w] {
          sim.schedule(w.delay, [&sim, &flags, &tr, f = w.flag] {
            flags[static_cast<std::size_t>(f)] = 1;
            tr.keys.push_back(tuple_of(sim.current_key()));
          });
        });
      });
    }
  };
  if (sc.writes_first) schedule_writes();
  for (const PollerSpec& p : sc.pollers) {
    sim.schedule_at(p.start, [&sim, &flags, &tr, &done, p] {
      sim.spawn(poll_flags<Poll>(sim, flags, p.flags, p.interval, p.cost, tr,
                                 done));
    });
  }
  if (!sc.writes_first) schedule_writes();
  const int loops = static_cast<int>(sc.pollers.size());
  auto all_done = [&done, loops] { return done == loops; };
  switch (drive) {
    case Drive::kRun:
      sim.run();
      break;
    case Drive::kCondition:
      EXPECT_TRUE(sim.run_until_condition(all_done));
      break;
    case Drive::kSegments:
      // run_until ends mid-park at every boundary; snapshot each one,
      // including the key of the next pending event (a parked probe's
      // tag is visible only there).
      for (std::uint64_t n = 0; !sim.idle(); ++n) {
        if (n == max_segments(sc, segment)) {
          ADD_FAILURE() << "segmented drive still busy after " << n
                        << " segments";
          break;
        }
        sim.run_until(sim.now() + segment);
        snapshot_boundary(sim, tr);
      }
      break;
  }
  EXPECT_EQ(done, loops);
  EXPECT_FALSE(sim.event_limit_hit());
  tr.snapshot(sim);
  return tr;
}

void expect_parked_matches_explicit(const PollScenario& sc) {
  for (Drive d : {Drive::kRun, Drive::kCondition, Drive::kSegments}) {
    const PollTrace ref = run_poll_scenario<ExplicitPoll>(sc, d);
    const PollTrace got = run_poll_scenario<PollUntil>(sc, d);
    EXPECT_EQ(got.probes, ref.probes) << "drive " << static_cast<int>(d);
    EXPECT_EQ(got.resumed, ref.resumed) << "drive " << static_cast<int>(d);
    EXPECT_EQ(got.keys, ref.keys) << "drive " << static_cast<int>(d);
    EXPECT_EQ(got.scheduled, ref.scheduled) << "drive " << static_cast<int>(d);
    EXPECT_EQ(got.executed, ref.executed) << "drive " << static_cast<int>(d);
    EXPECT_EQ(got.end, ref.end) << "drive " << static_cast<int>(d);
  }
}

TEST(ParkedPoll, WriteOnLatticePointTiesBothWays) {
  // One poller from t=0 at 60 ns: probes at 0, 60, 120, ... The write
  // lands exactly on the 120 ns probe. Born at 60 ns it ties the probe
  // on (time, birth) and the tags decide: a relay created before the
  // poller starts runs before the 60 ns probe and wins; one created
  // after loses. Born at 0 ns it always wins, at 100 ns it always loses.
  struct Case {
    SimDuration delay;
    bool writes_first;
    std::uint64_t probes;
  };
  for (const Case c : {Case{nanoseconds(60), true, 3},
                       Case{nanoseconds(60), false, 4},
                       Case{nanoseconds(120), false, 3},
                       Case{nanoseconds(20), true, 4}}) {
    PollScenario sc;
    sc.num_flags = 1;
    sc.pollers = {{0, nanoseconds(60), nanoseconds(60), {0}}};
    sc.writes = {{nanoseconds(120), c.delay, 0}};
    sc.writes_first = c.writes_first;
    expect_parked_matches_explicit(sc);
    const PollTrace got = run_poll_scenario<PollUntil>(sc, Drive::kRun);
    ASSERT_EQ(got.probes.size(), 1u);
    EXPECT_EQ(got.probes[0], c.probes)
        << "delay " << c.delay << " first " << c.writes_first;
    EXPECT_EQ(got.resumed[0], nanoseconds(60) * static_cast<SimTime>(c.probes));
  }
}

TEST(ParkedPoll, TwoSamePhasePollers) {
  PollScenario sc;
  sc.num_flags = 4;
  sc.pollers = {{0, nanoseconds(60), nanoseconds(60), {0, 2}},
                {0, nanoseconds(60), 0, {1, 3}},
                // Same phase, joining three intervals later.
                {nanoseconds(180), nanoseconds(60), nanoseconds(60), {3}}};
  sc.writes = {{nanoseconds(300), nanoseconds(60), 0},
               {nanoseconds(300), nanoseconds(60), 1},
               {nanoseconds(725), nanoseconds(5), 2},
               {nanoseconds(1020), nanoseconds(240), 3}};
  for (bool first : {true, false}) {
    sc.writes_first = first;
    expect_parked_matches_explicit(sc);
  }
}

TEST(ParkedPoll, DifferentIntervals) {
  PollScenario sc;
  sc.num_flags = 3;
  sc.pollers = {{0, nanoseconds(40), nanoseconds(40), {0}},
                {nanoseconds(10), nanoseconds(60), nanoseconds(60), {1}},
                {nanoseconds(30), nanoseconds(90), 0, {2}}};
  // All three lattices meet at 360 ns (birth 320, 300 and 270 ns).
  sc.writes = {{nanoseconds(360), nanoseconds(60), 0},
               {nanoseconds(370), nanoseconds(10), 1},
               {nanoseconds(390), nanoseconds(90), 2}};
  for (bool first : {true, false}) {
    sc.writes_first = first;
    expect_parked_matches_explicit(sc);
  }
}

TEST(ParkedPoll, RunUntilEndsMidParkAndSegmentsResume) {
  PollScenario sc;
  sc.num_flags = 2;
  sc.pollers = {{0, nanoseconds(60), nanoseconds(60), {0, 1}}};
  sc.writes = {{nanoseconds(1000), nanoseconds(40), 0},
               {nanoseconds(1500), nanoseconds(500), 1}};
  for (SimDuration seg : {nanoseconds(50), nanoseconds(60), nanoseconds(333)}) {
    const PollTrace ref =
        run_poll_scenario<ExplicitPoll>(sc, Drive::kSegments, seg);
    const PollTrace got = run_poll_scenario<PollUntil>(sc, Drive::kSegments, seg);
    EXPECT_EQ(got, ref) << "segment " << seg;
  }
  // Mid-park state: after run_until(250 ns) the probes at 0..240 ran.
  Simulation sim;
  bool flag = false;
  std::uint64_t probes = 0;
  SimTime when = -1;
  sim.spawn(poller(sim, flag, when, probes));
  sim.run_until(nanoseconds(250));
  EXPECT_EQ(sim.now(), nanoseconds(250));
  EXPECT_EQ(sim.events_executed(), 25u);   // probes at 10..250
  EXPECT_EQ(sim.total_scheduled(), 26u);   // one more probe pending
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_time(), nanoseconds(260));
  flag = true;
  sim.run();
  EXPECT_EQ(when, nanoseconds(260));
  EXPECT_EQ(probes, 27u);
}

TEST(ParkedPoll, RandomScenariosMatchExplicitProbes) {
  Rng rng(20261017);
  for (int round = 0; round < 60; ++round) {
    PollScenario sc;
    const int loops = 1 + static_cast<int>(rng.next_below(4));
    const SimDuration intervals[] = {nanoseconds(20), nanoseconds(40),
                                     nanoseconds(60), nanoseconds(90)};
    for (int l = 0; l < loops; ++l) {
      PollerSpec p;
      p.start = nanoseconds(10) * static_cast<SimTime>(rng.next_below(12));
      p.interval = intervals[rng.next_below(4)];
      p.cost = rng.next_below(2) != 0 ? p.interval : 0;
      const int waits = 1 + static_cast<int>(rng.next_below(3));
      for (int w = 0; w < waits; ++w) p.flags.push_back(sc.num_flags++);
      sc.pollers.push_back(p);
    }
    for (int f = 0; f < sc.num_flags; ++f) {
      const SimTime at = nanoseconds(10) * static_cast<SimTime>(1 + rng.next_below(150));
      const SimDuration delay =
          std::min<SimDuration>(at, nanoseconds(10) * static_cast<SimTime>(rng.next_below(12)));
      sc.writes.push_back({at, delay, f});
    }
    sc.writes_first = rng.next_below(2) != 0;
    SCOPED_TRACE("round " + std::to_string(round));
    expect_parked_matches_explicit(sc);
  }
}

// 8-40 loops with intervals from 20 ns to 400 ns, all parked at once for
// most of the run, so every settle credits a wide batch in which a short
// interval's penultimate probe often lies after a long interval's last
// one. Half the first waits' writes land on a lattice point of their
// loop (a tie with its probe at that time).
PollScenario wide_scenario(Rng& rng) {
  PollScenario sc;
  const int loops = 8 + static_cast<int>(rng.next_below(33));
  const SimDuration intervals[] = {nanoseconds(20),  nanoseconds(40),
                                   nanoseconds(60),  nanoseconds(100),
                                   nanoseconds(140), nanoseconds(200),
                                   nanoseconds(260), nanoseconds(400)};
  for (int l = 0; l < loops; ++l) {
    PollerSpec p;
    p.start = nanoseconds(10) * static_cast<SimTime>(rng.next_below(40));
    p.interval = intervals[rng.next_below(8)];
    p.cost = rng.next_below(2) != 0 ? p.interval : 0;
    const int waits = 1 + static_cast<int>(rng.next_below(2));
    for (int w = 0; w < waits; ++w) {
      const int f = sc.num_flags++;
      p.flags.push_back(f);
      SimTime at =
          nanoseconds(20) * static_cast<SimTime>(1 + rng.next_below(400));
      if (w == 0 && rng.next_below(2) != 0) {
        at = p.start +
             p.interval * static_cast<SimTime>(1 + rng.next_below(20));
      }
      const SimDuration delay = std::min<SimDuration>(
          at, nanoseconds(10) * static_cast<SimTime>(rng.next_below(50)));
      sc.writes.push_back({at, delay, f});
    }
    sc.pollers.push_back(p);
  }
  sc.writes_first = rng.next_below(2) != 0;
  return sc;
}

TEST(ParkedPoll, WideBatchesMatchExplicitProbes) {
  Rng rng(20261019);
  for (int round = 0; round < 12; ++round) {
    const PollScenario sc = wide_scenario(rng);
    SCOPED_TRACE("round " + std::to_string(round) + ", " +
                 std::to_string(sc.pollers.size()) + " loops");
    expect_parked_matches_explicit(sc);
  }
}

// Sharded pair: each shard runs host loops polling flags that the other
// shard's events set through cross-shard posts.
template <class Poll>
std::array<PollTrace, 2> run_sharded_polls(int workers, int driver) {
  Simulation a, b;
  a.set_shard_tag(0);
  b.set_shard_tag(1);
  const SimDuration lookahead = nanoseconds(100);
  ShardGroup group({&a, &b}, ShardGroup::Options{workers, lookahead});
  Simulation* sims[2] = {&a, &b};
  std::array<PollTrace, 2> tr;
  std::array<std::vector<char>, 2> flags{std::vector<char>(3, 0),
                                         std::vector<char>(3, 0)};
  std::array<int, 2> done{0, 0};
  for (int s = 0; s < 2; ++s) {
    Simulation& sim = *sims[s];
    const SimDuration iv = s == 0 ? nanoseconds(60) : nanoseconds(40);
    sim.spawn(poll_flags<Poll>(sim, flags[s], {0, 1}, iv, iv, tr[s], done[s]));
    sim.spawn(poll_flags<Poll>(sim, flags[s], {2}, iv, 0, tr[s], done[s]));
    // Writers on the other shard post these flag sets; one lands on a
    // probe lattice point of this shard's loops.
    const int src = 1 - s;
    Simulation& from = *sims[src];
    const SimTime sends[3] = {nanoseconds(140), nanoseconds(380),
                              nanoseconds(200)};
    for (int f = 0; f < 3; ++f) {
      from.schedule_at(sends[f], [&, s, src, f, lookahead] {
        const Simulation::Birth birth = sims[src]->take_birth();
        group.post(src, s, sims[src]->now() + lookahead + nanoseconds(20 * f),
                   birth.time, birth.tag, [&, s, f] {
                     flags[s][static_cast<std::size_t>(f)] = 1;
                     tr[s].keys.push_back(tuple_of(sims[s]->current_key()));
                   });
      });
    }
  }
  const std::vector<ShardCond> both = {{0, [&] { return done[0] == 2; }},
                                       {1, [&] { return done[1] == 2; }}};
  using Outcome = ShardGroup::Outcome;
  bool ok = true;
  switch (driver) {
    case 0:
      group.run();
      break;
    case 1:
      ok = group.run(both) == Outcome::kFired;
      break;
    case 2: {
      // The same wait cut at fixed deadlines, re-issued after each one:
      // a kDeadline return fences every clock at the boundary.
      Outcome out;
      for (SimTime until = nanoseconds(70);
           (out = group.run(both, until)) == Outcome::kDeadline;
           until += nanoseconds(70)) {
        EXPECT_EQ(group.now(), until);
        EXPECT_EQ(a.now(), until);
        EXPECT_EQ(b.now(), until);
      }
      ok = out == Outcome::kFired;
      break;
    }
  }
  EXPECT_TRUE(ok);
  EXPECT_EQ(done[0], 2);
  EXPECT_EQ(done[1], 2);
  tr[0].snapshot(a);
  tr[1].snapshot(b);
  return tr;
}

TEST(ParkedPoll, ShardedPairMatchesAtOneAndFourWorkers) {
  for (int driver : {0, 1, 2}) {
    // Segmenting the wait at deadlines (2) changes nothing it runs (1).
    const auto ref =
        run_sharded_polls<ExplicitPoll>(1, driver == 2 ? 1 : driver);
    for (int workers : {1, 4}) {
      EXPECT_EQ(run_sharded_polls<ExplicitPoll>(workers, driver), ref)
          << "explicit driver " << driver << " workers " << workers;
      EXPECT_EQ(run_sharded_polls<PollUntil>(workers, driver), ref)
          << "parked driver " << driver << " workers " << workers;
    }
  }
}

TEST(ParkedPoll, DeadlockedPollersReturnDrained) {
  // The only pending work is a poll that cannot succeed: every run loop
  // reports the deadlock and returns instead of spinning. Each case then
  // lets the poll succeed, so its coroutine finishes.
  for (int driver : {0, 1}) {
    Simulation sim;
    bool flag = false;
    SimTime when = -1;
    std::uint64_t probes = 0;
    Trigger done;
    sim.spawn(poller(sim, flag, when, probes), &done);
    sim.schedule(nanoseconds(35), [] {});
    const auto resumed = [&when] { return when >= 0; };
    switch (driver) {
      case 0:
        sim.run();
        break;
      case 1:
        EXPECT_FALSE(sim.run_until_condition(resumed));
        break;
    }
    EXPECT_TRUE(sim.event_limit_hit()) << "driver " << driver;
    EXPECT_EQ(sim.now(), nanoseconds(35)) << "driver " << driver;
    flag = true;
    sim.run();
    EXPECT_TRUE(done.fired());
    EXPECT_EQ(when, nanoseconds(40));
  }
  // Shard a runs events at `a_events` while b's poll deadlocks. The
  // stop fences every clock at the latest one after crediting b's probes
  // up to it, so the resumed poll succeeds at its next probe after that
  // (at 5000 ns, a fence past b's unsettled probe made it time travel).
  struct GroupCase {
    std::vector<SimTime> a_events;
    SimTime fence;
    SimTime resumed_at;
  };
  const GroupCase cases[] = {
      // b's window ends below a's horizon, 600 ns: its last probe is later.
      {{nanoseconds(500)}, nanoseconds(590), nanoseconds(600)},
      {{nanoseconds(500), nanoseconds(5000)}, nanoseconds(5000),
       nanoseconds(5010)}};
  for (const GroupCase& c : cases) {
    for (int driver : {0, 1}) {
      Simulation a, b;
      a.set_shard_tag(0);
      b.set_shard_tag(1);
      ShardGroup group({&a, &b}, ShardGroup::Options{2, nanoseconds(100)});
      bool flag = false;
      SimTime when = -1;
      std::uint64_t probes = 0;
      Trigger done;
      b.spawn(poller(b, flag, when, probes), &done);
      for (SimTime t : c.a_events) a.schedule_at(t, [] {});
      const auto resumed = [&when] { return when >= 0; };
      const std::string name = "driver " + std::to_string(driver) +
                               ", a's last event at " +
                               std::to_string(c.a_events.back());
      switch (driver) {
        case 0:
          EXPECT_EQ(group.run(), ShardGroup::Outcome::kStopped) << name;
          break;
        case 1:
          EXPECT_EQ(group.run({{1, resumed}}), ShardGroup::Outcome::kStopped)
              << name;
          break;
      }
      EXPECT_TRUE(group.event_limit_hit()) << name;
      EXPECT_EQ(a.events_executed(), c.a_events.size()) << name;
      EXPECT_EQ(group.now(), c.fence) << name;
      EXPECT_EQ(a.now(), group.now()) << name;
      EXPECT_EQ(b.now(), group.now()) << name;
      flag = true;
      group.run();
      EXPECT_TRUE(done.fired()) << name;
      EXPECT_EQ(when, c.resumed_at) << name;
    }
  }
}

void stop(std::optional<PollUntil>& p) { p.reset(); }
void stop(std::optional<ExplicitPoll>& p) { p->stopped = true; }

// Each way the parked floor (the lower bound a settle tests a sim's
// parked keys against) can go stale or must be lowered, in one run:
//  - D (20 ns) holds the lowest parked key, 280 ns, when it is destroyed
//    at 265 ns; the floor stays at its key.
//  - The flag-1 write at 415 ns lets B's 430 ns probe succeed. The settle
//    up to the 445 ns deadline finds A (440 ns) due first, then B, whose
//    pushed probe lowers the bound below A: A leaves the batch
//    uncredited and must keep the floor at its key.
//  - B's resume re-parks it at a later key (490 ns); A's 440 ns probe is
//    still due before the deadline.
// Each boundary logs the clock, total_scheduled and next_key(); the
// executed counts are kept apart (see the test).
template <class Poll>
std::pair<PollTrace, std::vector<std::uint64_t>> run_stale_floor() {
  Simulation sim;
  PollTrace tr;
  std::vector<std::uint64_t> executed;
  std::vector<char> flags(5, 0);
  int done = 0;
  std::optional<Poll> doomed;
  doomed.emplace(sim, [] { return false; }, nanoseconds(20));
  doomed->await_suspend(std::noop_coroutine());
  const auto start = [&](SimTime at, std::vector<int> order, SimDuration iv) {
    sim.schedule_at(at, [&, order, iv] {
      sim.spawn(poll_flags<Poll>(sim, flags, order, iv, 0, tr, done));
    });
  };
  start(nanoseconds(20), {0, 2}, nanoseconds(60));  // A: 20 + 60m
  start(nanoseconds(30), {3}, nanoseconds(90));     // C: 30 + 90m
  start(nanoseconds(70), {1, 4}, nanoseconds(60));  // B: 10 + 60m
  sim.schedule_at(nanoseconds(265), [&] { stop(doomed); });
  const std::pair<SimTime, int> writes[] = {{nanoseconds(415), 1},
                                            {nanoseconds(1040), 0},
                                            {nanoseconds(1200), 4},
                                            {nanoseconds(1500), 2},
                                            {nanoseconds(2010), 3}};
  for (const auto& [at, f] : writes) {
    sim.schedule_at(at, [&, f] {
      flags[static_cast<std::size_t>(f)] = 1;
      tr.keys.push_back(tuple_of(sim.current_key()));
    });
  }
  for (SimTime deadline : {300, 445, 600, 1100, 1600}) {
    sim.run_until(nanoseconds(deadline));
    tr.keys.push_back({sim.now(), 0, sim.total_scheduled()});
    tr.keys.push_back(tuple_of(sim.next_key()));
    executed.push_back(sim.events_executed());
  }
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_FALSE(sim.event_limit_hit());
  tr.snapshot(sim);
  executed.push_back(tr.executed);
  return {tr, executed};
}

TEST(ParkedPoll, StaleFloorStillCreditsEveryPoller) {
  const auto [ref, ref_executed] = run_stale_floor<ExplicitPoll>();
  const auto [got, got_executed] = run_stale_floor<PollUntil>();
  EXPECT_EQ(got.probes, ref.probes);
  EXPECT_EQ(got.resumed, ref.resumed);
  EXPECT_EQ(got.keys, ref.keys);
  EXPECT_EQ(got.scheduled, ref.scheduled);
  EXPECT_EQ(got.end, ref.end);
  // D's orphaned probe at 280 ns runs as an empty event in the
  // reference; the parked engine drops it with the poller. Every
  // boundary (from 300 ns on) and the final count include it.
  ASSERT_EQ(got_executed.size(), ref_executed.size());
  for (std::size_t i = 0; i < got_executed.size(); ++i) {
    EXPECT_EQ(got_executed[i] + 1, ref_executed[i]) << "boundary " << i;
  }
}

template <class Poll>
PollTrace run_until_limit(std::uint64_t limit) {
  Simulation sim;
  sim.set_event_limit(limit);
  std::vector<char> flags(2, 0);
  PollTrace tr;
  int done = 0;
  sim.spawn(poll_flags<Poll>(sim, flags, {0}, nanoseconds(20), 0, tr, done));
  sim.spawn(poll_flags<Poll>(sim, flags, {1}, nanoseconds(30), 0, tr, done));
  sim.schedule(microseconds(5), [&flags] { flags[0] = flags[1] = 1; });
  sim.run();
  EXPECT_TRUE(sim.event_limit_hit());
  tr.snapshot(sim);
  // Let both loops finish, so their coroutines are not left suspended.
  sim.set_event_limit(std::numeric_limits<std::uint64_t>::max());
  sim.run();
  EXPECT_EQ(done, 2);
  return tr;
}

TEST(ParkedPoll, EventLimitStopsInsideSkippedProbes) {
  for (std::uint64_t limit : {1u, 7u, 40u}) {
    EXPECT_EQ(run_until_limit<PollUntil>(limit),
              run_until_limit<ExplicitPoll>(limit))
        << "limit " << limit;
  }
}

}  // namespace
}  // namespace pg::sim

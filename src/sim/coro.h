// Coroutine plumbing for sequential control flows inside the simulation.
//
// Host-side control code (the CPU running the put/get API) is naturally
// sequential: build a descriptor, ring a doorbell, poll a flag. Writing it
// as a C++20 coroutine over the event queue keeps it as readable as the C
// code it models, while every co_await advances simulated time.
//
// There is one coroutine type, CoTask: lazy, its frame owned by whoever
// awaits it. A loop nobody awaits is a root: Simulation::spawn starts it
// inline, and the Simulation owns the frame until it finishes.
//
// GPU device code does NOT use coroutines — it is interpreted from the
// PTX-lite ISA so that instruction and memory-transaction counts emerge
// from real code (see gpu/).
//
// The resume/poll lambdas scheduled here capture at most a coroutine
// handle plus a pointer; they fit EventFn's inline buffer, so suspending
// and resuming a coroutine never heap-allocates in the event queue.
#pragma once

#include <coroutine>
#include <cstdio>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace pg::sim {

/// A broadcast completion signal. Coroutines co_await trigger.wait(sim);
/// fire() resumes all current waiters (at now, as fresh events). Waiting on
/// an already-fired trigger continues immediately.
class Trigger {
 public:
  struct Waiter {
    Trigger& trigger;
    Simulation& sim;

    bool await_ready() const noexcept { return trigger.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger.waiters_.push_back({&sim, h});
    }
    void await_resume() const noexcept {}
  };

  Waiter wait(Simulation& sim) { return Waiter{*this, sim}; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) {
      w.sim->schedule(0, [h = w.handle]() mutable { h.resume(); });
    }
  }

  bool fired() const { return fired_; }

 private:
  struct Pending {
    Simulation* sim;
    std::coroutine_handle<> handle;
  };
  bool fired_ = false;
  std::vector<Pending> waiters_;
};

/// An awaitable sub-coroutine: `co_await some_co_task()` runs the callee
/// to completion before the caller resumes. The body is lazy — it starts
/// when awaited — and completion hands control straight back to the
/// awaiting coroutine via symmetric transfer, so composing control flow
/// out of CoTasks schedules exactly the same events as writing it
/// inline. That property is what lets backend-specific host sequences be
/// factored out of the experiment drivers without perturbing the
/// deterministic event fingerprint.
///
/// A CoTask must be awaited, spawned (Simulation::spawn) or destroyed
/// unstarted by its owner; it is move-only and destroys the coroutine
/// frame in its destructor.
class [[nodiscard]] CoTask {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation = std::noop_coroutine();
    RootHook root;  // linked by Simulation::spawn
    Trigger* done = nullptr;

    ~promise_type() { root.unlink(); }

    CoTask get_return_object() {
      return CoTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        promise_type& p = h.promise();
        if (p.root.next == &p.root) return p.continuation;
        // A finished root frees itself; nothing awaits it.
        if (p.done != nullptr) p.done->fire();
        h.destroy();
        return std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      std::fprintf(stderr, "CoTask: unhandled exception in coroutine\n");
      std::terminate();
    }
  };

  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  ~CoTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  friend class Simulation;
  explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

inline void Simulation::spawn(CoTask task, Trigger* done) {
  const auto h = std::exchange(task.handle_, nullptr);
  CoTask::promise_type& p = h.promise();
  p.done = done;
  p.root = RootHook{roots_.prev, &roots_, h};
  roots_.prev->next = &p.root;
  roots_.prev = &p.root;
  h.resume();  // the frame may be gone when this returns
}

/// co_await Delay{sim, d}: resume after d simulated time.
struct Delay {
  Simulation& sim;
  SimDuration duration;

  bool await_ready() const noexcept { return duration <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.schedule(duration, [h]() mutable { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// co_await PollUntil{sim, pred, interval, probe_cost}:
/// models a CPU polling loop. The predicate is probed every `interval`;
/// once true, the coroutine resumes `probe_cost` later (the cost of the
/// successful probe itself). The first probe runs at the await itself.
/// With no probe cost a successful probe continues inline (the events of
/// a loop that re-probes with Delay{sim, interval}). Between real events
/// a false poller waits parked off the event heap (see Poller in
/// simulation.h), so `pred` must be side-effect free and must not read
/// the clock; the probe count, resume time and every event count and tag
/// come out as if each probe had been its own event.
class PollUntil final : public Poller {
 public:
  PollUntil(Simulation& sim, std::function<bool()> predicate,
            SimDuration interval, SimDuration probe_cost = 0)
      : Poller(sim, std::move(predicate), interval), probe_cost_(probe_cost) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    handle_ = h;
    return !hit() || probe_cost_ > 0;
  }
  /// Number of probes it took (including the successful one).
  std::uint64_t await_resume() const noexcept { return probes_; }

 private:
  void probe() override {
    if (!hit() || probe_cost_ > 0) return;
    // The resumed coroutine destroys this awaiter: touch nothing after.
    const std::coroutine_handle<> h = handle_;
    h.resume();
  }

  /// One probe: a false one parks, a true one with a cost schedules the
  /// resume. Returns the predicate.
  bool hit() {
    ++probes_;
    if (!predicate_()) {
      park();
      return false;
    }
    if (probe_cost_ > 0) {
      sim_.schedule(probe_cost_, [h = handle_]() mutable { h.resume(); });
    }
    return true;
  }

  SimDuration probe_cost_;
  std::coroutine_handle<> handle_{};
};

}  // namespace pg::sim

#include "sim/event_queue.h"

#include <algorithm>

namespace pg::sim {

void EventQueue::push_entry(SimTime when, SimTime birth_time, EventId tag,
                            EventFn fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Entry{when, birth_time, tag, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(SimTime when, SimTime birth_time, EventFn fn) {
  ++scheduled_;
  push_entry(when, birth_time, make_tag(), std::move(fn));
}

EventQueue::Popped EventQueue::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry back = heap_.back();
  heap_.pop_back();
  // Moving out leaves the slot's InlineFn empty, so recycling it is a
  // no-op destroy.
  Popped out{back.time, back.birth_time, back.tag, std::move(slots_[back.slot])};
  free_slots_.push_back(back.slot);
  return out;
}

}  // namespace pg::sim

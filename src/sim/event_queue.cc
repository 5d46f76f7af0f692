#include "sim/event_queue.h"

#include <algorithm>

namespace pg::sim {

void EventQueue::push_entry(SimTime when, SimTime birth_time, EventId tag,
                            EventFn&& fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = slots_used_++;
    if ((slot & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
    }
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_fn(slot) = std::move(fn);
  heap_.push_back(Entry{when, birth_time, tag, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(SimTime when, SimTime birth_time, EventFn&& fn) {
  ++scheduled_;
  push_entry(when, birth_time, make_tag(), std::move(fn));
}

void EventQueue::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

}  // namespace pg::sim

#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace pg::sim {

EventId EventQueue::push_entry(SimTime when, SimTime birth_time, EventId tag,
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
  ++live_count_;
  return tag;
}

EventId EventQueue::schedule_at(SimTime when, SimTime birth_time, EventFn fn) {
  ++scheduled_;
  return push_entry(when, birth_time, make_tag(), std::move(fn));
}

EventId EventQueue::schedule_admitted(SimTime when, SimTime birth_time,
                                      EventId birth_tag, EventFn fn) {
  admitted_live_.insert(birth_tag);
  return push_entry(when, birth_time, birth_tag, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  // Locally minted ids beyond the scheduling counter were never handed
  // out; foreign-branded ids (cross-shard admissions) must be live in
  // this queue. Either way an id this queue does not know is rejected
  // instead of becoming a phantom tombstone.
  if (static_cast<std::uint8_t>(id & 0xff) == owner_tag_) {
    if (id & kSharedSeqBit) {
      if (shared_seq_ == nullptr || ((id & ~kSharedSeqBit) >> 8) >= *shared_seq_) {
        return false;
      }
    } else if ((id >> 8) >= next_seq_) {
      return false;
    }
  } else {
    if (admitted_live_.count(id) == 0) return false;
  }
  // Tombstone; reclaimed at pop time or by compaction. The set makes a
  // double cancel a detected no-op; cancelling an id that already ran
  // remains the caller's bug (heap membership is not cheaply checkable).
  if (!cancelled_.insert(id).second) return false;
  if (id == checked_top_) checked_top_ = kInvalidEventId;
  if (live_count_ > 0) --live_count_;
  // Keep tombstone memory proportional to the live set: once more than
  // half the heap is dead weight, rebuild it without the corpses.
  if (cancelled_.size() > live_count_ / 2 && cancelled_.size() >= 16) {
    compact();
  }
  return true;
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot] = EventFn{};  // destroy captured state promptly
  free_slots_.push_back(slot);
}

void EventQueue::retire_tag(EventId tag) {
  if (!admitted_live_.empty() &&
      static_cast<std::uint8_t>(tag & 0xff) != owner_tag_) {
    admitted_live_.erase(tag);
  }
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) {
    if (cancelled_.count(e.tag) == 0) return false;
    release_slot(e.slot);
    retire_tag(e.tag);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_.clear();
}

void EventQueue::drop_cancelled_slow() {
  while (!heap_.empty() && !cancelled_.empty()) {
    auto it = cancelled_.find(heap_.front().tag);
    if (it == cancelled_.end()) break;
    cancelled_.erase(it);
    release_slot(heap_.front().slot);
    retire_tag(heap_.front().tag);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  if (!heap_.empty()) checked_top_ = heap_.front().tag;
}

EventQueue::Popped EventQueue::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry back = heap_.back();
  heap_.pop_back();
  // Moving out leaves the slot's InlineFn empty, so recycling it is a
  // no-op destroy.
  Popped out{back.time, back.birth_time, back.tag, std::move(slots_[back.slot])};
  free_slots_.push_back(back.slot);
  retire_tag(back.tag);
  assert(live_count_ > 0);
  --live_count_;
  return out;
}

}  // namespace pg::sim

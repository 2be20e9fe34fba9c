#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace bass::sim {

EventId EventQueue::push(Time at, std::function<void()> fn, Duration period) {
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot].fn = std::move(fn);
  slots_[slot].period = period;
  arm(slot, at);
  return EventId{slots_[slot].generation} << 32 | slot;
}

void EventQueue::arm(std::uint32_t slot, Time at) {
  slots_[slot].state = SlotState::kArmed;
  heap_.push(Entry{at, next_seq_++, slot, slots_[slot].generation});
  ++live_count_;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.state = SlotState::kFree;
  // A slot whose generation would wrap is retired: no id is handed out twice.
  if (++s.generation != 0) free_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const SlotState state = slots_[slot].state;
  if (state == SlotState::kFree || slots_[slot].generation != id >> 32) return false;
  // A firing periodic has already left the heap and the live count.
  if (state == SlotState::kArmed) --live_count_;
  release(slot);
  return true;
}

void EventQueue::skip_cancelled() {
  while (!heap_.empty() && slots_[heap_.top().slot].generation != heap_.top().generation) {
    heap_.pop();
  }
}

Time EventQueue::next_time() {
  skip_cancelled();
  assert(!heap_.empty());
  return heap_.top().at;
}

Time EventQueue::pop_and_run() {
  skip_cancelled();
  assert(!heap_.empty());
  const Entry entry = heap_.top();
  heap_.pop();
  --live_count_;
  std::function<void()> fn = std::move(slots_[entry.slot].fn);
  if (slots_[entry.slot].period > 0) {
    slots_[entry.slot].state = SlotState::kFiring;
  } else {
    release(entry.slot);
  }
  fn();
  // Re-read the slot, as the callback may have grown slots_. A fired one-shot
  // or a periodic cancelled meanwhile has a new generation: no re-arm.
  Slot& s = slots_[entry.slot];
  if (s.generation == entry.generation) {
    s.fn = std::move(fn);
    arm(entry.slot, entry.at + s.period);
  }
  return entry.at;
}

}  // namespace bass::sim

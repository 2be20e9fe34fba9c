#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bass::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventId EventQueue::push(Time at, std::function<void()>&& fn, Duration period) {
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
  heap_push(Entry{at, next_seq_++, slot, slots_[slot].generation});
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

void EventQueue::heap_push(const Entry& entry) {
  if (root_spent_) {
    root_spent_ = false;
    sift_down(entry);
    return;
  }
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void EventQueue::heap_pop() {
  root_spent_ = false;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
}

void EventQueue::sift_down(const Entry& entry) {
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[least])) least = c;
    }
    if (!before(heap_[least], entry)) break;
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = entry;
}

void EventQueue::skip_cancelled() {
  while (!heap_.empty() && slots_[heap_.front().slot].generation != heap_.front().generation) {
    heap_pop();
  }
}

Time EventQueue::next_time() {
  skip_cancelled();
  assert(!heap_.empty());
  return heap_.front().at;
}

bool EventQueue::run_next(Time deadline, Time& now) {
  skip_cancelled();
  if (heap_.empty() || heap_.front().at > deadline) return false;
  const Entry entry = heap_.front();
  --live_count_;
  now = entry.at;
  std::function<void()> fn = std::move(slots_[entry.slot].fn);
  if (slots_[entry.slot].period > 0) {
    heap_pop();
    slots_[entry.slot].state = SlotState::kFiring;
  } else {
    release(entry.slot);
    root_spent_ = true;
  }
  fn();
  if (root_spent_) heap_pop();
  // Re-read the slot, as the callback may have grown slots_. A fired one-shot
  // or a periodic cancelled meanwhile has a new generation: no re-arm.
  Slot& s = slots_[entry.slot];
  if (s.generation == entry.generation) {
    s.fn = std::move(fn);
    arm(entry.slot, entry.at + s.period);
  }
  return true;
}

}  // namespace bass::sim

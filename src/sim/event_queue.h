// Cancellable priority event queue behind every timer, one-shot or periodic.
// Equal timestamps fire in push order (FIFO), which keeps runs deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace bass::sim {

// Handle used to cancel a scheduled event: generation << 32 | slot.
// Generations start at 1 and never wrap, so 0 is never a valid id and an id
// that fired or was cancelled stays inert: holders need not reset it.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  // Enqueues `fn` to fire at absolute time `at`; with `period` > 0 it
  // re-arms at `at + period` after each firing until cancelled. `fn` is
  // moved once, straight into its slot.
  EventId push(Time at, std::function<void()>&& fn, Duration period = 0);

  // Cancels a one-shot or periodic event (a periodic also from inside its own
  // callback); false if it already fired or was cancelled. The slot is freed
  // at once; its heap entry is dropped when it reaches the top.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  // Live events; an armed periodic counts once.
  std::size_t size() const { return live_count_; }

  // Cancelled entries still in the heap: at most one per cancel, each dropped
  // once it reaches the top (regression coverage in tests/sim_test.cpp).
  // A running one-shot's spent root (see root_spent_) is not one of them.
  std::size_t cancelled_backlog() const {
    return heap_.size() - live_count_ - (root_spent_ ? 1 : 0);
  }

  // Timestamp of the next live event; only valid when !empty().
  Time next_time();

  // Runs the next live event if it is due at or before `deadline`: sets
  // `now` to its timestamp first, so the callback reads the new clock, and
  // returns true. Returns false, leaving `now` alone, when none is due.
  bool run_next(Time deadline, Time& now);

 private:
  // kFiring: a periodic whose callback is running, re-armed when it returns.
  enum class SlotState : std::uint8_t { kFree, kArmed, kFiring };
  struct Slot {
    std::function<void()> fn;
    Duration period = 0;
    std::uint32_t generation = 1;
    SlotState state = SlotState::kFree;
  };
  // Ties break on seq, drawn at every push (a re-arm draws after its callback).
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;  // stale once the slot's generation moves on
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  void arm(std::uint32_t slot, Time at);
  void release(std::uint32_t slot);
  void skip_cancelled();
  // 4-ary min-heap on (at, seq), sifted with a hole: each level moves one
  // entry instead of swapping two.
  void heap_push(const Entry& entry);
  void heap_pop();
  // Fills the hole at the root with `entry`, sifting it down.
  void sift_down(const Entry& entry);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  // The root is the entry of the one-shot now running (stale: its slot was
  // released). The callback's first push replaces it in place, one sift
  // down instead of a pop and a sift up; run_next pops it if none comes.
  bool root_spent_ = false;
};

}  // namespace bass::sim

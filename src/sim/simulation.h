// The simulation engine: a virtual clock over the event queue. Everything in
// the repository (network, workloads, monitors, controllers) schedules
// callbacks here; running the simulation advances virtual time with zero
// wall-clock dependence.
#pragma once

#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace bass::sim {

class Simulation {
 public:
  Time now() const { return now_; }

  // Schedules `fn` after `delay` (clamped to >= 0). Returns a cancel handle.
  EventId schedule_after(Duration delay, std::function<void()> fn);

  // Schedules `fn` at absolute time `at` (clamped to >= now).
  EventId schedule_at(Time at, std::function<void()> fn);

  // Repeats `fn` every `period` starting at now + period, until the returned
  // id is cancelled. Requires period > 0.
  EventId schedule_periodic(Duration period, std::function<void()> fn);

  // Cancels a one-shot or periodic event; false once it fired or was cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs events until the queue drains or the next event is past `deadline`.
  // The clock lands exactly on `deadline`.
  void run_until(Time deadline);

  // Runs events until the queue is fully drained.
  void run_all();

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  // True when a live event is scheduled at or before `deadline` — the
  // activity probe gated orchestration uses to distinguish "this world
  // would do something this round" from "run_until would only move the
  // clock". Non-const: peeking compacts cancelled tombstones.
  bool has_event_before(Time deadline) {
    return !queue_.empty() && queue_.next_time() <= deadline;
  }
  // Lazily-cancelled entries awaiting heap compaction; bounded by
  // pending_events() (see EventQueue::cancelled_backlog).
  std::size_t cancelled_backlog() const { return queue_.cancelled_backlog(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
};

}  // namespace bass::sim

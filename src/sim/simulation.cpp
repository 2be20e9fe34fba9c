#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace bass::sim {

// Each entry point pushes directly, so a callback moves once: into its slot.
EventId Simulation::schedule_after(Duration delay, std::function<void()> fn) {
  return queue_.push(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

EventId Simulation::schedule_at(Time at, std::function<void()> fn) {
  return queue_.push(std::max(at, now_), std::move(fn));
}

EventId Simulation::schedule_periodic(Duration period, std::function<void()> fn) {
  assert(period > 0);
  return queue_.push(now_ + period, std::move(fn), period);
}

void Simulation::run_until(Time deadline) {
  while (queue_.run_next(deadline, now_)) {}
  now_ = std::max(now_, deadline);
}

void Simulation::run_all() {
  while (queue_.run_next(std::numeric_limits<Time>::max(), now_)) {}
}

}  // namespace bass::sim

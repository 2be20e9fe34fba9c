#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bass::sim {

EventId Simulation::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

EventId Simulation::schedule_at(Time at, std::function<void()> fn) {
  return queue_.push(std::max(at, now_), std::move(fn));
}

EventId Simulation::schedule_periodic(Duration period, std::function<void()> fn) {
  assert(period > 0);
  return queue_.push(now_ + period, std::move(fn), period);
}

void Simulation::run_until(Time deadline) {
  while (!queue_.empty()) {
    const Time at = queue_.next_time();
    if (at > deadline) break;
    now_ = at;
    queue_.pop_and_run();
  }
  now_ = std::max(now_, deadline);
}

void Simulation::run_all() {
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
}

}  // namespace bass::sim

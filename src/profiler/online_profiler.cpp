#include "profiler/online_profiler.h"

#include <algorithm>

namespace bass::profiler {

OnlineProfiler::OnlineProfiler(core::Orchestrator& orchestrator,
                               core::DeploymentId deployment, ProfilerConfig config)
    : orch_(&orchestrator), deployment_(deployment), config_(config) {}

OnlineProfiler::~OnlineProfiler() { stop(); }

void OnlineProfiler::start() {
  if (running_) return;
  running_ = true;
  last_sample_ = orch_->simulation().now();
  tick_ = orch_->simulation().schedule_periodic(config_.sample_interval,
                                                [this] { sample(); });
}

void OnlineProfiler::stop() {
  if (!running_) return;
  running_ = false;
  orch_->simulation().cancel(tick_);
}

net::Bps OnlineProfiler::estimate(app::ComponentId from, app::ComponentId to) const {
  const auto it = edges_.find(key(from, to));
  if (it == edges_.end()) return 0;
  return static_cast<net::Bps>(it->second.envelope_bps * config_.safety_factor);
}

void OnlineProfiler::sample() {
  const sim::Time now = orch_->simulation().now();
  const double dt = sim::to_seconds(now - last_sample_);
  last_sample_ = now;
  if (dt <= 0.0) return;
  ++samples_;

  const auto& graph = orch_->app(deployment_);
  auto& stats = orch_->traffic_stats(deployment_);
  for (const app::Edge& e : graph.edges()) {
    EdgeState& state = edges_[key(e.from, e.to)];
    // Non-destructive read: diff the cumulative totals so the controller's
    // own windows stay untouched.
    const std::int64_t total = stats.total_bytes(e.from, e.to);
    const double rate = static_cast<double>(total - state.last_total_bytes) * 8.0 / dt;
    state.last_total_bytes = total;

    // Attack/release envelope: adopt surges instantly, forget slowly.
    if (rate >= state.envelope_bps) {
      state.envelope_bps = rate;
    } else {
      state.envelope_bps *= (1.0 - config_.release);
      state.envelope_bps = std::max(state.envelope_bps, rate);
    }

    if (samples_ >= config_.warmup_samples && state.envelope_bps > 0.0) {
      const auto requirement =
          static_cast<net::Bps>(state.envelope_bps * config_.safety_factor);
      if (requirement != e.bandwidth &&
          orch_->update_edge_bandwidth(deployment_, e.from, e.to, requirement)) {
        ++updates_;
      }
    }
  }
}

}  // namespace bass::profiler

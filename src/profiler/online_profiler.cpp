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
  const auto& edges = orch_->app(deployment_).edges();
  for (std::size_t i = 0; i < edges.size() && i < edges_.size(); ++i) {
    if (edges[i].from == from && edges[i].to == to) {
      return static_cast<net::Bps>(edges_[i].envelope_bps * config_.safety_factor);
    }
  }
  return 0;
}

void OnlineProfiler::sample() {
  const sim::Time now = orch_->simulation().now();
  const double dt = sim::to_seconds(now - last_sample_);
  last_sample_ = now;
  if (dt <= 0.0) return;
  ++samples_;

  const std::vector<app::Edge>& edges = orch_->app(deployment_).edges();
  edges_.resize(edges.size());
  const auto& stats = orch_->traffic_stats(deployment_);
  pending_.clear();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EdgeState& state = edges_[i];
    // Non-destructive read: diff the cumulative totals so the controller's
    // own windows stay untouched.
    const std::int64_t total = stats.total_bytes(i);
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
      if (requirement != edges[i].bandwidth) pending_.push_back({i, requirement});
    }
  }
  // One publish per sample.
  if (!pending_.empty() && orch_->update_edge_bandwidths(deployment_, pending_)) {
    updates_ += static_cast<int>(pending_.size());
  }
}

}  // namespace bass::profiler

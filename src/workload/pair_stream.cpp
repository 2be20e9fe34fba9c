#include "workload/pair_stream.h"

#include <cassert>

namespace bass::workload {

PairStreamEngine::PairStreamEngine(core::Orchestrator& orchestrator,
                                   core::DeploymentId deployment,
                                   PairStreamConfig config)
    : orch_(&orchestrator), deployment_(deployment), config_(config) {
  assert(config_.from != app::kInvalidComponent && config_.to != app::kInvalidComponent);
}

PairStreamEngine::~PairStreamEngine() { stop(); }

void PairStreamEngine::start() {
  if (running_) return;
  running_ = true;
  orch_->add_listener(deployment_, this);
  open();
  sampler_ = orch_->simulation().schedule_periodic(config_.sample_interval,
                                                   [this] { sample(); });
}

void PairStreamEngine::stop() {
  if (!running_) return;
  running_ = false;
  close();
  orch_->simulation().cancel(sampler_);
}

void PairStreamEngine::open() {
  if (connected_) return;
  if (!orch_->is_up(deployment_, config_.from) || !orch_->is_up(deployment_, config_.to)) {
    return;
  }
  stream_ = orch_->network().open_stream(orch_->node_of(deployment_, config_.from),
                                         orch_->node_of(deployment_, config_.to),
                                         config_.demand);
  connected_ = true;
}

void PairStreamEngine::close() {
  if (!connected_) return;
  orch_->network().close_stream(stream_);
  connected_ = false;
}

void PairStreamEngine::sample() {
  const sim::Time now = orch_->simulation().now();
  const double rate =
      connected_ ? static_cast<double>(orch_->network().stream_rate(stream_)) : 0.0;
  rate_.record(now, rate);
  goodput_.record(now, rate / static_cast<double>(config_.demand));
  if (connected_) {
    const double dt = sim::to_seconds(config_.sample_interval);
    orch_->traffic_stats(deployment_)
        .record(config_.from, config_.to,
                static_cast<std::int64_t>(rate * dt / 8.0));
    orch_->traffic_stats(deployment_)
        .record_offered(config_.from, config_.to,
                        static_cast<std::int64_t>(
                            static_cast<double>(config_.demand) * dt / 8.0));
  }
}

void PairStreamEngine::on_component_down(app::ComponentId component) {
  if (component == config_.from || component == config_.to) close();
}

void PairStreamEngine::on_component_up(app::ComponentId component, net::NodeId node) {
  (void)node;
  if (running_ && (component == config_.from || component == config_.to)) open();
}

}  // namespace bass::workload

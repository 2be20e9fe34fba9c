#include "workload/edge_streams.h"

namespace bass::workload {

EdgeStreamEngine::EdgeStreamEngine(core::Orchestrator& orchestrator,
                                   core::DeploymentId deployment)
    : orch_(&orchestrator), deployment_(deployment) {
  const app::AppGraph& graph = orch_->app(deployment_);
  flows_.reserve(graph.edges().size());
  for (const app::Edge& e : graph.edges()) {
    flows_.push_back({.from = e.from, .to = e.to, .demand = e.bandwidth});
  }
}

EdgeStreamEngine::~EdgeStreamEngine() { stop(); }

void EdgeStreamEngine::start() {
  if (running_) return;
  running_ = true;
  if (!subscription_) subscription_ = orch_->add_listener(deployment_, this);
  for (Flow& flow : flows_) open(flow);
}

void EdgeStreamEngine::stop() {
  if (!running_) return;
  running_ = false;
  for (Flow& flow : flows_) close(flow);
}

net::Bps EdgeStreamEngine::delivered_bps() const {
  net::Bps delivered = 0;
  for (const Flow& flow : flows_) {
    if (flow.connected) delivered += orch_->network().stream_rate(flow.stream);
  }
  return delivered;
}

double EdgeStreamEngine::goodput() const {
  net::Bps demand = 0;
  for (const Flow& flow : flows_) demand += flow.demand;
  return demand > 0 ? static_cast<double>(delivered_bps()) / static_cast<double>(demand)
                    : 0.0;
}

void EdgeStreamEngine::open(Flow& flow) {
  if (flow.connected) return;
  if (!orch_->is_up(deployment_, flow.from) || !orch_->is_up(deployment_, flow.to)) {
    return;
  }
  flow.stream = orch_->network().open_stream(orch_->node_of(deployment_, flow.from),
                                             orch_->node_of(deployment_, flow.to),
                                             flow.demand);
  flow.connected = true;
  flow.recorded = 0;
  flow.offered_from = orch_->simulation().now();
}

void EdgeStreamEngine::close(Flow& flow) {
  if (!flow.connected) return;
  record(flow, orch_->network().close_stream(flow.stream));
  flow.connected = false;
}

void EdgeStreamEngine::record(Flow& flow, std::int64_t delivered) {
  const auto edge = static_cast<std::size_t>(&flow - flows_.data());  // flows_[i] streams edge i
  const sim::Time now = orch_->simulation().now();
  monitor::TrafficStats& stats = orch_->traffic_stats(deployment_);
  stats.record(edge, delivered - flow.recorded);
  stats.record_offered(edge, static_cast<std::int64_t>(
                                 static_cast<double>(flow.demand) *
                                 static_cast<double>(now - flow.offered_from) / 8e6));
  flow.recorded = delivered;
  flow.offered_from = now;
}

void EdgeStreamEngine::flush_traffic() {
  for (Flow& flow : flows_) {
    if (flow.connected) record(flow, orch_->network().stream_bytes(flow.stream));
  }
}

void EdgeStreamEngine::on_component_down(app::ComponentId component) {
  for (Flow& flow : flows_) {
    if (flow.from == component || flow.to == component) close(flow);
  }
}

void EdgeStreamEngine::on_component_up(app::ComponentId component, net::NodeId node) {
  (void)node;
  if (!running_) return;
  for (Flow& flow : flows_) {
    if (flow.from != component && flow.to != component) continue;
    // Reopen at the component's new node (close is a no-op if the outage
    // already closed it).
    close(flow);
    open(flow);
  }
}

}  // namespace bass::workload

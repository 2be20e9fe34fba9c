#include "workload/request_engine.h"

#include <cassert>
#include <memory>

#include "util/logging.h"

namespace bass::workload {

RequestEngine::RequestEngine(core::Orchestrator& orchestrator,
                             core::DeploymentId deployment,
                             RequestWorkloadConfig config)
    : orch_(&orchestrator),
      deployment_(deployment),
      config_(config),
      rng_(config.seed),
      servers_(static_cast<std::size_t>(orchestrator.app(deployment).component_count())),
      parked_(servers_.size()) {
  const auto topo = orch_->app(deployment_).topo_order();
  assert(!topo.empty() && "request engine needs an acyclic app");
  root_ = topo.front();
}

RequestEngine::~RequestEngine() { stop(); }

void RequestEngine::start() {
  if (running_) return;
  running_ = true;
  orch_->add_listener(deployment_, this);
  if (config_.client_node == net::kInvalidNode) {
    config_.client_node = orch_->node_of(deployment_, root_);
  }
  schedule_next_arrival();
}

void RequestEngine::stop() {
  if (!running_) return;
  running_ = false;
  orch_->simulation().cancel(arrival_event_);
}

void RequestEngine::schedule_next_arrival() {
  if (!running_ || config_.rps <= 0.0) return;
  const double gap_s = config_.arrival == RequestWorkloadConfig::Arrival::kConstant
                           ? 1.0 / config_.rps
                           : rng_.exponential(1.0 / config_.rps);
  arrival_event_ = orch_->simulation().schedule_after(sim::seconds_f(gap_s), [this] {
    arrive();
    schedule_next_arrival();
  });
}

void RequestEngine::arrive() {
  if (config_.max_in_flight > 0 && in_flight() >= config_.max_in_flight) {
    ++shed_;
    return;
  }
  ++issued_;
  const sim::Time started = orch_->simulation().now();
  call(root_, config_.client_node, config_.request_bytes, config_.response_bytes,
       [this, started] {
         ++completed_;
         const sim::Time now = orch_->simulation().now();
         latencies_.record(now, now - started);
       });
}

void RequestEngine::call(app::ComponentId component, net::NodeId caller_node,
                         std::int64_t request_bytes, std::int64_t response_bytes,
                         std::function<void()> done) {
  if (!orch_->is_up(deployment_, component)) {
    // Park the whole invocation; it re-resolves the node once the component
    // restarts (possibly elsewhere).
    parked_[static_cast<std::size_t>(component)].push_back(
        [this, component, caller_node, request_bytes, response_bytes,
         done = std::move(done)]() mutable {
          call(component, caller_node, request_bytes, response_bytes, std::move(done));
        });
    return;
  }
  const net::NodeId target_node = orch_->node_of(deployment_, component);
  orch_->network().start_transfer(
      caller_node, target_node, request_bytes,
      [this, component, caller_node, response_bytes, done = std::move(done)]() mutable {
        process(component, caller_node, response_bytes, std::move(done));
      });
}

void RequestEngine::process(app::ComponentId component, net::NodeId caller_node,
                            std::int64_t response_bytes, std::function<void()> done) {
  acquire_slot(component, [this, component, caller_node, response_bytes,
                           done = std::move(done)]() mutable {
    const auto& comp = orch_->app(deployment_).component(component);
    orch_->simulation().schedule_after(
        comp.service_time,
        [this, component, caller_node, response_bytes, done = std::move(done)]() mutable {
          release_slot(component);

          // Fan out to the children this request actually touches.
          std::vector<app::Edge> invoked;
          for (const app::Edge& e : orch_->app(deployment_).out_edges(component)) {
            if (e.probability >= 1.0 || rng_.chance(e.probability)) invoked.push_back(e);
          }

          const net::NodeId my_node = orch_->node_of(deployment_, component);
          // Joined when all children have responded; then the response
          // travels back to the caller.
          auto remaining = std::make_shared<int>(static_cast<int>(invoked.size()) + 1);
          auto finish = [this, component, caller_node, my_node, response_bytes,
                         remaining, done = std::move(done)]() mutable {
            if (--*remaining > 0) return;
            orch_->network().start_transfer(my_node, caller_node, response_bytes,
                                            [done = std::move(done)] { done(); });
          };

          for (const app::Edge& e : invoked) {
            // Passive per-pair accounting: bytes offered when the call is
            // issued, delivered when the response lands. Their ratio is
            // the pair's goodput the controller watches.
            orch_->traffic_stats(deployment_)
                .record_offered(e.from, e.to, e.request_bytes + e.response_bytes);
            call(e.to, my_node, e.request_bytes, e.response_bytes,
                 [this, e, finish]() mutable {
                   orch_->traffic_stats(deployment_)
                       .record(e.from, e.to, e.request_bytes + e.response_bytes);
                   finish();
                 });
          }
          finish();  // the +1 guard: fires immediately when no children
        });
  });
}

void RequestEngine::acquire_slot(app::ComponentId component, std::function<void()> ready) {
  Server& server = servers_[static_cast<std::size_t>(component)];
  const int concurrency =
      std::max(orch_->app(deployment_).component(component).concurrency, 1);
  if (server.busy < concurrency) {
    ++server.busy;
    ready();
    return;
  }
  server.waiting.push_back(std::move(ready));
}

void RequestEngine::release_slot(app::ComponentId component) {
  Server& server = servers_[static_cast<std::size_t>(component)];
  if (!server.waiting.empty()) {
    auto next = std::move(server.waiting.front());
    server.waiting.pop_front();
    next();  // slot handed over directly
    return;
  }
  --server.busy;
}

void RequestEngine::on_component_up(app::ComponentId component, net::NodeId node) {
  (void)node;
  auto& parked = parked_[static_cast<std::size_t>(component)];
  while (!parked.empty()) {
    auto fn = std::move(parked.front());
    parked.pop_front();
    fn();
  }
}

}  // namespace bass::workload

#include "workload/request_engine.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace bass::workload {

RequestEngine::RequestEngine(core::Orchestrator& orchestrator,
                             core::DeploymentId deployment,
                             RequestWorkloadConfig config)
    : orch_(&orchestrator),
      deployment_(deployment),
      config_(config),
      rng_(config.seed) {
  const app::AppGraph& app = orch_->app(deployment_);
  const auto topo = app.topo_order();
  assert(!topo.empty() && "request engine needs an acyclic app");
  root_ = topo.front();

  // Counting sort of the edges by caller: count, prefix-sum, then place in
  // declaration order.
  const std::vector<app::Edge>& edges = app.edges();
  components_.resize(static_cast<std::size_t>(app.component_count()));
  for (const app::Edge& e : edges) ++components_[static_cast<std::size_t>(e.from)].end_child;
  std::uint32_t offset = 0;
  for (Component& c : components_) {
    c.first_child = offset;
    offset += c.end_child;
    c.end_child = c.first_child;
  }
  child_edges_.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    Component& c = components_[static_cast<std::size_t>(edges[i].from)];
    child_edges_[c.end_child++] = static_cast<std::uint32_t>(i);
  }
}

RequestEngine::~RequestEngine() { stop(); }

void RequestEngine::start() {
  if (running_) return;
  running_ = true;
  if (!subscription_) subscription_ = orch_->add_listener(deployment_, this);
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
  call(new_frame({.component = root_,
                  .caller_node = config_.client_node,
                  .request_bytes = config_.request_bytes,
                  .response_bytes = config_.response_bytes,
                  .started = orch_->simulation().now()}));
}

RequestEngine::FrameId RequestEngine::new_frame(const Frame& frame) {
  FrameId f = free_frames_;
  if (f != kNoFrame) {
    free_frames_ = frames_[f].next;
  } else {
    f = static_cast<FrameId>(frames_.size());
    frames_.emplace_back();
  }
  frames_[f] = frame;
  return f;
}

void RequestEngine::push(FrameQueue& queue, FrameId f) {
  frames_[f].next = kNoFrame;
  if (queue.empty()) {
    queue.head = f;
  } else {
    frames_[queue.tail].next = f;
  }
  queue.tail = f;
}

RequestEngine::FrameId RequestEngine::pop(FrameQueue& queue) {
  const FrameId f = queue.head;
  queue.head = frames_[f].next;
  if (queue.empty()) queue.tail = kNoFrame;
  return f;
}

void RequestEngine::call(FrameId f) {
  const Frame& frame = frames_[f];
  if (!orch_->is_up(deployment_, frame.component)) {
    // Park the whole invocation; it re-resolves the node once the component
    // restarts (possibly elsewhere).
    push(components_[static_cast<std::size_t>(frame.component)].parked, f);
    return;
  }
  const net::NodeId target_node = orch_->node_of(deployment_, frame.component);
  orch_->network().start_transfer(frame.caller_node, target_node, frame.request_bytes,
                                  [this, f] { process(f); });
}

void RequestEngine::process(FrameId f) {
  const app::ComponentId component = frames_[f].component;
  Component& server = components_[static_cast<std::size_t>(component)];
  const int concurrency =
      std::max(orch_->app(deployment_).component(component).concurrency, 1);
  if (server.busy < concurrency) {
    ++server.busy;
    start_service(f);
    return;
  }
  push(server.waiting, f);
}

void RequestEngine::start_service(FrameId f) {
  const auto& comp = orch_->app(deployment_).component(frames_[f].component);
  orch_->simulation().schedule_after(comp.service_time, [this, f] { service_done(f); });
}

void RequestEngine::service_done(FrameId f) {
  const app::ComponentId component = frames_[f].component;
  Component& server = components_[static_cast<std::size_t>(component)];
  if (!server.waiting.empty()) {
    start_service(pop(server.waiting));  // slot handed over directly
  } else {
    --server.busy;
  }

  const net::NodeId my_node = orch_->node_of(deployment_, component);
  frames_[f].node = my_node;
  // Joined when all children have responded, then the response travels
  // back to the caller. The +1 guard holds the join open while children
  // are issued; a call never completes synchronously, so counting them as
  // they go is safe, and the coin flips are drawn in edge declaration
  // order (child_edges_).
  frames_[f].pending = 1;
  const std::vector<app::Edge>& edges = orch_->app(deployment_).edges();
  for (std::uint32_t t = server.first_child; t < server.end_child; ++t) {
    const std::uint32_t i = child_edges_[t];
    const app::Edge& e = edges[i];
    if (e.probability < 1.0 && !rng_.chance(e.probability)) continue;
    ++frames_[f].pending;
    // Passive per-pair accounting: bytes offered when the call is issued,
    // delivered when the response lands. Their ratio is the pair's goodput
    // the controller watches.
    orch_->traffic_stats(deployment_)
        .record_offered(i, e.request_bytes + e.response_bytes);
    call(new_frame({.component = e.to,
                    .caller_node = my_node,
                    .edge = i,
                    .request_bytes = e.request_bytes,
                    .response_bytes = e.response_bytes,
                    .parent = f}));
  }
  finish(f);  // drops the guard: fires immediately when no children
}

void RequestEngine::finish(FrameId f) {
  Frame& frame = frames_[f];
  if (--frame.pending > 0) return;
  orch_->network().start_transfer(frame.node, frame.caller_node, frame.response_bytes,
                                  [this, f] { response_landed(f); });
}

void RequestEngine::response_landed(FrameId f) {
  const Frame frame = frames_[f];
  frames_[f].next = free_frames_;
  free_frames_ = f;
  if (frame.parent == kNoFrame) {
    ++completed_;
    const sim::Time now = orch_->simulation().now();
    latencies_.record(now, now - frame.started);
    return;
  }
  orch_->traffic_stats(deployment_)
      .record(frame.edge, frame.request_bytes + frame.response_bytes);
  finish(frame.parent);
}

void RequestEngine::on_component_up(app::ComponentId component, net::NodeId node) {
  (void)node;
  FrameQueue& parked = components_[static_cast<std::size_t>(component)].parked;
  while (!parked.empty()) call(pop(parked));
}

}  // namespace bass::workload

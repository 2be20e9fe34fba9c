#include "workload/camera_pipeline.h"

#include <cassert>

namespace bass::workload {

CameraPipelineEngine::CameraPipelineEngine(core::Orchestrator& orchestrator,
                                           core::DeploymentId deployment,
                                           CameraPipelineConfig config)
    : orch_(&orchestrator),
      deployment_(deployment),
      config_(config),
      rng_(config.seed),
      servers_(static_cast<std::size_t>(orchestrator.app(deployment).component_count())) {
  const auto& g = orch_->app(deployment_);
  camera_ = g.find("camera-stream");
  sampling_ = g.find("frame-sampler");
  detector_ = g.find("object-detector");
  image_ = g.find("image-listener");
  label_ = g.find("label-listener");
  assert(camera_ != app::kInvalidComponent && detector_ != app::kInvalidComponent &&
         "deployment is not the camera pipeline app");
  const std::vector<app::Edge>& edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const app::Edge& e = edges[i];
    if (e.from == camera_ && e.to == sampling_) cam_samp_ = {i, e};
    if (e.from == sampling_ && e.to == detector_) samp_det_ = {i, e};
    if (e.from == detector_ && e.to == image_) det_img_ = {i, e};
    if (e.from == detector_ && e.to == label_) det_lbl_ = {i, e};
  }
}

CameraPipelineEngine::~CameraPipelineEngine() { stop(); }

void CameraPipelineEngine::start() {
  if (running_) return;
  running_ = true;
  ticker_ = orch_->simulation().schedule_periodic(
      sim::seconds_f(1.0 / config_.fps), [this] { capture(); });
}

void CameraPipelineEngine::stop() {
  if (!running_) return;
  running_ = false;
  orch_->simulation().cancel(ticker_);
}

bool CameraPipelineEngine::stage_up(app::ComponentId c) const {
  return orch_->is_up(deployment_, c);
}

void CameraPipelineEngine::acquire_slot(app::ComponentId c, std::function<void()> ready) {
  Server& server = servers_[static_cast<std::size_t>(c)];
  const int concurrency = std::max(orch_->app(deployment_).component(c).concurrency, 1);
  if (server.busy < concurrency) {
    ++server.busy;
    ready();
    return;
  }
  server.waiting.push_back(std::move(ready));
}

void CameraPipelineEngine::release_slot(app::ComponentId c) {
  Server& server = servers_[static_cast<std::size_t>(c)];
  if (!server.waiting.empty()) {
    auto next = std::move(server.waiting.front());
    server.waiting.pop_front();
    next();
    return;
  }
  --server.busy;
}

void CameraPipelineEngine::drop_frame() {
  ++dropped_;
  --in_flight_;
}

// Transfers one request payload of `hop` between the two components'
// current nodes, recording offered/delivered bytes, then continues with
// `next`.
void CameraPipelineEngine::ship(const Hop& hop, std::function<void()> next) {
  const std::size_t edge = hop.index;
  const std::int64_t bytes = hop.edge.request_bytes;
  orch_->traffic_stats(deployment_).record_offered(edge, bytes);
  orch_->network().start_transfer(
      orch_->node_of(deployment_, hop.edge.from), orch_->node_of(deployment_, hop.edge.to),
      bytes, [this, edge, bytes, next = std::move(next)] {
        orch_->traffic_stats(deployment_).record(edge, bytes);
        next();
      });
}

// Runs `component`'s per-frame service (slot + service_time), then `next`.
void CameraPipelineEngine::serve(app::ComponentId component, std::function<void()> next) {
  acquire_slot(component, [this, component, next = std::move(next)] {
    const auto service = orch_->app(deployment_).component(component).service_time;
    orch_->simulation().schedule_after(service, [this, component,
                                                 next = std::move(next)] {
      release_slot(component);
      next();
    });
  });
}

void CameraPipelineEngine::capture() {
  ++captured_;
  // Real-time buffer: a backed-up or broken pipeline discards new frames.
  if (in_flight_ >= config_.frame_buffer || !stage_up(camera_) ||
      !stage_up(sampling_) || !stage_up(detector_)) {
    ++dropped_;
    return;
  }
  ++in_flight_;
  const sim::Time t0 = orch_->simulation().now();
  serve(camera_, [this, t0] {
    if (!stage_up(sampling_)) return drop_frame();
    ship(cam_samp_, [this, t0] { sampling_stage(t0); });
  });
}

void CameraPipelineEngine::sampling_stage(sim::Time t0) {
  if (!stage_up(sampling_)) return drop_frame();
  to_sampling_.record(orch_->simulation().now(), orch_->simulation().now() - t0);
  serve(sampling_, [this, t0] {
    // Only dissimilar frames go on to the detector.
    if (config_.sample_ratio < 1.0 && !rng_.chance(config_.sample_ratio)) {
      ++sampled_out_;
      --in_flight_;
      return;
    }
    if (!stage_up(detector_)) return drop_frame();
    ship(samp_det_, [this, t0] { detector_stage(t0); });
  });
}

void CameraPipelineEngine::detector_stage(sim::Time t0) {
  if (!stage_up(detector_)) return drop_frame();
  to_detector_.record(orch_->simulation().now(), orch_->simulation().now() - t0);
  serve(detector_, [this, t0] {
    // Fan out annotated frames and labels; the frame completes when the
    // annotated image lands (labels are fire-and-forget telemetry).
    if (stage_up(label_)) {
      ship(det_lbl_, [] {});
    }
    if (!stage_up(image_)) return drop_frame();
    ship(det_img_, [this, t0] {
      const sim::Time now = orch_->simulation().now();
      to_image_.record(now, now - t0);
      e2e_.record(now, now - t0);
      ++annotated_;
      --in_flight_;
    });
  });
}

}  // namespace bass::workload

// Camera-processing workload (Fig. 9): a frame pipeline with real-time
// semantics. Frames are captured at a fixed rate at the camera-stream
// component's node, flow camera -> sampler -> detector -> {image, label}
// listeners, and are *dropped* — not queued forever — when the pipeline
// backs up or a stage is mid-migration: a stale frame is worthless to a
// live intersection monitor. End-to-end latency is capture to
// annotated-image receipt, with a per-stage breakdown for diagnosing where
// a placement hurts.
#pragma once

#include <deque>
#include <functional>

#include "core/orchestrator.h"
#include "obs/series.h"
#include "util/rng.h"

namespace bass::workload {

struct CameraPipelineConfig {
  double fps = 10.0;
  // Fraction of frames the sampler judges "dissimilar" and forwards to the
  // detector (the paper's sampler drops near-duplicates).
  double sample_ratio = 1.0;
  // Frames allowed in flight past capture; beyond this the camera drops
  // (the real-time buffer).
  int frame_buffer = 8;
  std::uint64_t seed = 1;
};

class CameraPipelineEngine final {
 public:
  // `deployment` must host app::camera_pipeline_app() (matched by names).
  CameraPipelineEngine(core::Orchestrator& orchestrator,
                       core::DeploymentId deployment, CameraPipelineConfig config);
  ~CameraPipelineEngine();
  CameraPipelineEngine(const CameraPipelineEngine&) = delete;
  CameraPipelineEngine& operator=(const CameraPipelineEngine&) = delete;

  void start();
  void stop();

  // Capture -> annotated-image receipt.
  const obs::LatencyRecorder& e2e() const { return e2e_; }
  // Stage breakdown: capture->sampler service start, ->detector service
  // start, ->image receipt (each includes its transfer + queueing).
  const obs::LatencyRecorder& to_sampler() const { return to_sampling_; }
  const obs::LatencyRecorder& to_detector() const { return to_detector_; }
  const obs::LatencyRecorder& to_image() const { return to_image_; }

  std::int64_t frames_captured() const { return captured_; }
  std::int64_t frames_annotated() const { return annotated_; }
  // Drops: real-time buffer overflow + stage-down + sampled-out frames.
  std::int64_t frames_dropped() const { return dropped_; }
  std::int64_t frames_sampled_out() const { return sampled_out_; }

 private:
  void capture();
  void sampling_stage(sim::Time t0);
  void detector_stage(sim::Time t0);
  void drop_frame();
  // One pipeline edge: its index in the app's edges() (its traffic-stats
  // slot) and the edge itself.
  struct Hop {
    std::size_t index = 0;
    app::Edge edge;
  };
  void ship(const Hop& hop, std::function<void()> next);
  void serve(app::ComponentId component, std::function<void()> next);
  bool stage_up(app::ComponentId c) const;
  void acquire_slot(app::ComponentId c, std::function<void()> ready);
  void release_slot(app::ComponentId c);

  core::Orchestrator* orch_;
  core::DeploymentId deployment_;
  CameraPipelineConfig config_;
  util::Rng rng_;

  app::ComponentId camera_, sampling_, detector_, image_, label_;
  Hop cam_samp_, samp_det_, det_img_, det_lbl_;

  struct Server {
    int busy = 0;
    std::deque<std::function<void()>> waiting;
  };
  std::vector<Server> servers_;

  obs::LatencyRecorder e2e_, to_sampling_, to_detector_, to_image_;
  std::int64_t captured_ = 0;
  std::int64_t annotated_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t sampled_out_ = 0;
  std::int64_t in_flight_ = 0;
  bool running_ = false;
  sim::EventId ticker_ = sim::kInvalidEvent;
};

}  // namespace bass::workload

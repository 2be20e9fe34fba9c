// Online bandwidth profiling — the paper's §8 future-work item
// ("automated online profiling for gathering bandwidth requirements ...
// once an application has been deployed"), replacing the cumbersome
// offline per-pair profiling the evaluation relied on.
//
// The profiler watches each deployed edge's delivered byte counters (the
// same passive TX/RX metric the controller uses, read non-destructively
// from the cumulative totals) and maintains an attack/release envelope of
// the observed rate: jumps are adopted immediately (a requirement estimate
// must never lag a real surge), quiet periods decay slowly (a one-off
// burst shouldn't pin the requirement forever). After a warm-up, the
// envelope — padded with a safety factor — is written back into the
// deployment's edge weights, so Algorithm 3 and the rescheduler reason
// about measured requirements instead of the developer's guesses.
#pragma once

#include <vector>

#include "core/orchestrator.h"

namespace bass::profiler {

struct ProfilerConfig {
  sim::Duration sample_interval = sim::seconds(10);
  // Fraction the envelope decays per sample while below the peak.
  double release = 0.05;
  // Published requirement = safety_factor x envelope.
  double safety_factor = 1.25;
  // Samples observed before estimates are written into the deployment.
  int warmup_samples = 3;
};

class OnlineProfiler {
 public:
  OnlineProfiler(core::Orchestrator& orchestrator, core::DeploymentId deployment,
                 ProfilerConfig config = {});
  ~OnlineProfiler();
  OnlineProfiler(const OnlineProfiler&) = delete;
  OnlineProfiler& operator=(const OnlineProfiler&) = delete;

  void start();
  void stop();

  // Current requirement estimate for an edge (safety factor applied);
  // 0 until the edge has been observed.
  net::Bps estimate(app::ComponentId from, app::ComponentId to) const;

  int samples_taken() const { return samples_; }
  // Number of edge-requirement updates pushed into the orchestrator.
  int updates_published() const { return updates_; }

 private:
  struct EdgeState {
    std::int64_t last_total_bytes = 0;
    double envelope_bps = 0.0;
  };

  void sample();

  core::Orchestrator* orch_;
  core::DeploymentId deployment_;
  ProfilerConfig config_;
  std::vector<EdgeState> edges_;  // by edge index, sized on the first sample
  std::vector<core::EdgeBandwidth> pending_;  // one sample's updates
  sim::EventId tick_ = sim::kInvalidEvent;
  sim::Time last_sample_ = 0;
  int samples_ = 0;
  int updates_ = 0;
  bool running_ = false;
};

}  // namespace bass::profiler

// Passive per-edge traffic for a deployed app: one network stream per app
// edge at the edge's profiled bandwidth, sampled into the deployment's
// TrafficStats every second — the per-component-pair TX/RX
// signal the adaptive bandwidth controller reads (§3.2.2). Streams follow
// migrations (close on component-down, reopen at the new node on
// component-up) and vanish on undeploy. bassd runs one per churn instance;
// the Fig. 8 walkthrough runs one over its single 8 Mbps pair.
#pragma once

#include <vector>

#include "core/orchestrator.h"

namespace bass::workload {

class EdgeStreamEngine final : public core::DeploymentListener {
 public:
  EdgeStreamEngine(core::Orchestrator& orchestrator, core::DeploymentId deployment);
  ~EdgeStreamEngine() override;
  EdgeStreamEngine(const EdgeStreamEngine&) = delete;
  EdgeStreamEngine& operator=(const EdgeStreamEngine&) = delete;

  // Opens the streams and starts sampling; stop() closes them. Restartable.
  void start();
  void stop();

  // Current delivered rate summed over the open streams.
  net::Bps delivered_bps() const;
  // delivered_bps() over the summed demand of every edge (0 without
  // demand): 1 when the mesh carries the app, 0 while it is cut off.
  double goodput() const;

  // DeploymentListener:
  void on_component_down(app::ComponentId component) override;
  void on_component_up(app::ComponentId component, net::NodeId node) override;

 private:
  struct Flow {
    app::ComponentId from = app::kInvalidComponent;
    app::ComponentId to = app::kInvalidComponent;
    net::Bps demand = 0;
    net::StreamId stream = 0;
    bool connected = false;
  };

  void open(Flow& flow);
  void close(Flow& flow);
  void sample();

  core::Orchestrator* orch_;
  core::DeploymentId deployment_;
  std::vector<Flow> flows_;  // one per app edge, in edges() order
  bool running_ = false;
  sim::EventId sampler_ = sim::kInvalidEvent;
  core::Subscription subscription_;
};

}  // namespace bass::workload

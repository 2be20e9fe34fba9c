// Passive per-edge traffic for a deployed app: one network stream per app
// edge at the edge's profiled bandwidth — the per-component-pair TX/RX
// signal the adaptive bandwidth controller reads (§3.2.2). The network
// counts each stream's delivered bytes; the engine copies them into the
// deployment's TrafficStats when the controller reads the stats
// (flush_traffic) and when a stream closes, so the stats carry exact bytes
// and the engine schedules no events of its own. Streams follow migrations
// (close on component-down, reopen at the new node on component-up) and
// vanish on undeploy. bassd runs one per churn instance; the Fig. 8
// walkthrough runs one over its single 8 Mbps pair.
#pragma once

#include <cstdint>
#include <vector>

#include "core/orchestrator.h"

namespace bass::workload {

class EdgeStreamEngine final : public core::DeploymentListener {
 public:
  EdgeStreamEngine(core::Orchestrator& orchestrator, core::DeploymentId deployment);
  ~EdgeStreamEngine() override;
  EdgeStreamEngine(const EdgeStreamEngine&) = delete;
  EdgeStreamEngine& operator=(const EdgeStreamEngine&) = delete;

  // Opens the streams; stop() closes them. Restartable.
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
  void flush_traffic() override;

 private:
  struct Flow {
    app::ComponentId from = app::kInvalidComponent;
    app::ComponentId to = app::kInvalidComponent;
    net::Bps demand = 0;
    net::StreamId stream = 0;
    bool connected = false;
    std::int64_t recorded = 0;   // bytes of `stream` already in the stats
    sim::Time offered_from = 0;  // offered bytes are in the stats up to here
  };

  void open(Flow& flow);
  void close(Flow& flow);
  // Writes the flow's bytes since its last record into the stats: its
  // stream has delivered `delivered` in all, and its demand was offered
  // since offered_from.
  void record(Flow& flow, std::int64_t delivered);

  core::Orchestrator* orch_;
  core::DeploymentId deployment_;
  std::vector<Flow> flows_;  // one per app edge, in edges() order
  bool running_ = false;
  core::Subscription subscription_;
};

}  // namespace bass::workload

// The bassd serving loop (DESIGN.md §10): the reusable long-running control
// plane that a scenario's one-shot setup hands off to. Where Scenario::run()
// deploys one app and drives it for a fixed window, the serving loop keeps
// the orchestrator busy indefinitely — app instances arrive from a seeded
// open-loop churn schedule, pass through the admission queue, live under
// the configured operating mode, and depart through first-class undeploy:
//
//   * static   — placement happens once at admission; no controller, no
//                migrations (the k3s-style baseline).
//   * adaptive — each admitted deployment runs the per-deployment bandwidth
//                controller (Algorithm 3); placements chase link vagaries.
//   * dynamic  — adaptive plus a periodic global rebalance tick that moves
//                one component off the hottest node when its CPU allocation
//                crosses a threshold (the orchestrator-initiated
//                "resource orchestration" the paper sketches in §7).
//
// Everything is sim-clock and seed-driven: the same ServeConfig replays to
// byte-identical journals.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>

#include "core/admission.h"
#include "workload/churn.h"
#include "workload/edge_streams.h"

namespace bass::scenario {

enum class ServeMode { kStatic, kAdaptive, kDynamic };

const char* serve_mode_name(ServeMode mode);
// Accepts "static", "adaptive", "dynamic"; error otherwise.
util::Expected<ServeMode> parse_serve_mode(const std::string& name);

struct ServeConfig {
  workload::ChurnConfig churn;
  ServeMode mode = ServeMode::kAdaptive;
  core::AdmissionConfig admission;
  core::SchedulerKind scheduler = core::SchedulerKind::kBassAuto;
  // Controller parameters for admitted deployments (adaptive & dynamic).
  controller::MigrationParams migration;
  // Dynamic mode: global rebalance cadence, per-tick move budget, and the
  // CPU allocation fraction above which a node sheds work.
  sim::Duration rebalance_interval = sim::minutes(2);
  int rebalance_max_moves = 1;
  double rebalance_cpu_threshold = 0.85;
};

struct ServeStats {
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  std::int64_t departed_live = 0;    // departures that undeployed a live instance
  std::int64_t departed_queued = 0;  // departures cancelled while still queued
  std::int64_t rebalance_moves = 0;  // dynamic mode only
  int live_at_end = 0;               // instances that outlived the run
};

class ServingLoop {
 public:
  // The dynamic rebalance tick reasons about the orchestrator's view of the
  // mesh (its monitor's capacity cache when one is attached).
  ServingLoop(core::Orchestrator& orchestrator, ServeConfig config);
  ~ServingLoop();
  ServingLoop(const ServingLoop&) = delete;
  ServingLoop& operator=(const ServingLoop&) = delete;

  void set_recorder(obs::Recorder* recorder);

  // Builds the churn schedule from the config and arms every event relative
  // to the simulation's current time. Call once, then run the simulation.
  void start();
  // Stops traffic engines and the rebalance timer. Live deployments stay
  // deployed (they are the live_at_end population); pending arrivals that
  // never fired simply don't.
  void stop();

  const ServeStats& stats() const { return stats_; }
  const core::AdmissionStats& admission_stats() const { return admission_.stats(); }
  int queue_depth() const { return admission_.depth(); }
  const std::vector<workload::ChurnEvent>& schedule() const { return schedule_; }

 private:
  struct Live {
    core::DeploymentId deployment = core::kInvalidDeployment;
    std::unique_ptr<workload::EdgeStreamEngine> engine;
  };

  void arrive(const workload::ChurnEvent& event);
  void depart(const workload::ChurnEvent& event);
  void on_admitted(int instance, core::DeploymentId deployment);
  void rebalance();

  core::Orchestrator* orch_;
  ServeConfig config_;
  core::AdmissionQueue admission_;
  obs::Recorder* recorder_ = nullptr;
  std::vector<workload::ChurnEvent> schedule_;
  // Camera and social templates at config_.churn.resource_scale, indexed by
  // AppFamily; the conference slot stays empty.
  std::array<std::shared_ptr<const sched::PreparedApp>, workload::kAppFamilyCount>
      templates_;
  // Keyed by churn instance id; std::map keeps iteration deterministic for
  // the rebalance sweep.
  std::map<int, Live> live_;
  ServeStats stats_;
  sim::EventId rebalance_timer_ = sim::kInvalidEvent;
  bool running_ = false;
};

}  // namespace bass::scenario

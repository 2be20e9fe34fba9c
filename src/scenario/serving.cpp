#include "scenario/serving.h"

#include <algorithm>

#include "sched/rescheduler.h"
#include "util/logging.h"

namespace bass::scenario {

const char* serve_mode_name(ServeMode mode) {
  switch (mode) {
    case ServeMode::kStatic: return "static";
    case ServeMode::kAdaptive: return "adaptive";
    case ServeMode::kDynamic: return "dynamic";
  }
  return "?";
}

util::Expected<ServeMode> parse_serve_mode(const std::string& name) {
  if (name == "static") return ServeMode::kStatic;
  if (name == "adaptive") return ServeMode::kAdaptive;
  if (name == "dynamic") return ServeMode::kDynamic;
  return util::make_error("unknown serve mode '" + name +
                          "' (expected static | adaptive | dynamic)");
}

ServingLoop::ServingLoop(core::Orchestrator& orchestrator, ServeConfig config)
    : orch_(&orchestrator),
      config_(config),
      admission_(orchestrator.simulation(), orchestrator, config.admission) {}

ServingLoop::~ServingLoop() { stop(); }

void ServingLoop::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  admission_.set_recorder(recorder);
}

void ServingLoop::start() {
  if (running_) return;
  running_ = true;
  schedule_ = workload::build_churn_schedule(config_.churn);
  const sim::Time t0 = orch_->simulation().now();
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    // Index capture: schedule_ never changes after this loop.
    orch_->simulation().schedule_at(t0 + schedule_[i].at, [this, i] {
      const workload::ChurnEvent& event = schedule_[i];
      if (event.depart) {
        depart(event);
      } else {
        arrive(event);
      }
    });
  }
  if (config_.mode == ServeMode::kDynamic) {
    rebalance_timer_ = orch_->simulation().schedule_periodic(
        config_.rebalance_interval, [this] { rebalance(); });
  }
}

void ServingLoop::stop() {
  if (!running_) return;
  running_ = false;
  stats_.live_at_end = static_cast<int>(live_.size());
  for (auto& [instance, live] : live_) {
    if (live.engine) live.engine->stop();
  }
  orch_->simulation().cancel(rebalance_timer_);
}

void ServingLoop::arrive(const workload::ChurnEvent& event) {
  ++stats_.arrivals;
  std::shared_ptr<const sched::PreparedApp> app;
  if (event.family == workload::AppFamily::kVideoConference) {
    // Conference pins are per-instance draws, so each one gets its own graph.
    std::vector<net::NodeId> nodes = orch_->cluster().schedulable_nodes();
    if (nodes.empty()) nodes = orch_->cluster().nodes();
    app = sched::PreparedApp::make(
        workload::make_churn_app(event.family, event.instance,
                                 config_.churn.resource_scale, config_.churn.seed, nodes));
  } else {
    // Built on the family's first arrival, then shared by every instance.
    auto& shared = templates_[static_cast<std::size_t>(event.family)];
    if (shared == nullptr) {
      shared = sched::PreparedApp::make(
          workload::make_churn_template(event.family, config_.churn.resource_scale));
    }
    app = shared;
  }
  admission_.submit(event.instance,
                    workload::churn_instance_name(event.family, event.instance),
                    std::move(app), config_.scheduler,
                    [this](int instance, core::DeploymentId deployment, bool admitted) {
                      if (admitted) on_admitted(instance, deployment);
                    });
}

void ServingLoop::on_admitted(int instance, core::DeploymentId deployment) {
  Live live;
  live.deployment = deployment;
  live.engine = std::make_unique<workload::EdgeStreamEngine>(*orch_, deployment);
  live.engine->start();
  if (config_.mode != ServeMode::kStatic) {
    orch_->enable_migration(deployment, config_.migration);
  }
  live_.emplace(instance, std::move(live));
}

void ServingLoop::depart(const workload::ChurnEvent& event) {
  ++stats_.departures;
  const auto it = live_.find(event.instance);
  if (it != live_.end()) {
    ++stats_.departed_live;
    // Stop the traffic source before teardown so its streams' last bytes
    // land in the stats; undeploy then releases resources and journals.
    it->second.engine->stop();
    orch_->undeploy(it->second.deployment);
    live_.erase(it);
    // Freed capacity: give waiting requests their shot immediately instead
    // of waiting out the retry interval.
    admission_.kick();
    return;
  }
  // Never admitted: either still queued (cancel it) or already rejected
  // (nothing to tear down — the admission journal has its story).
  if (admission_.cancel(event.instance)) ++stats_.departed_queued;
}

void ServingLoop::rebalance() {
  if (!running_) return;
  // Find the hottest schedulable node by CPU allocation fraction.
  net::NodeId hot = net::kInvalidNode;
  double hot_frac = config_.rebalance_cpu_threshold;
  for (const net::NodeId node : orch_->cluster().schedulable_nodes()) {
    const auto& spec = orch_->cluster().spec(node);
    if (spec.cpu_milli <= 0) continue;
    const double frac = static_cast<double>(orch_->cluster().usage(node).cpu_milli) /
                        static_cast<double>(spec.cpu_milli);
    if (frac > hot_frac) {
      hot_frac = frac;
      hot = node;
    }
  }
  if (hot == net::kInvalidNode) return;

  // Shed up to the per-tick budget off that node. The rescheduler picks the
  // destination with the same dependency-aware ranking the controller uses.
  const sched::NetworkView view = orch_->view();
  int budget = std::max(config_.rebalance_max_moves, 1);
  for (const auto& [instance, live] : live_) {
    if (budget == 0) break;
    const core::DeploymentId id = live.deployment;
    if (!orch_->deployment_active(id)) continue;
    const app::AppGraph& app = orch_->app(id);
    for (app::ComponentId c = 0; c < app.component_count() && budget > 0; ++c) {
      if (orch_->node_of(id, c) != hot) continue;
      if (!orch_->is_up(id, c)) continue;
      if (app.component(c).pinned_node) continue;
      const auto target = sched::pick_migration_target(app, orch_->placement(id), c,
                                                       orch_->cluster(), view);
      if (!target || *target == hot) continue;
      if (orch_->migrate(id, c, *target)) {
        ++stats_.rebalance_moves;
        --budget;
      }
    }
  }
}

}  // namespace bass::scenario

#include "core/orchestrator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "sched/rescheduler.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bass::core {

namespace {

// Pinned zero-footprint pseudo-components (client attachment points) take
// no node resources — they may sit on cordoned/client-only nodes.
bool needs_resources(const app::Component& comp) {
  return comp.cpu_milli > 0 || comp.memory_mb > 0;
}

// controller_evaluate's per-component flags.
constexpr std::uint8_t kViolating = 1;
constexpr std::uint8_t kEligible = 2;
constexpr std::uint8_t kMoved = 4;

}  // namespace

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBassBfs: return "bass-bfs";
    case SchedulerKind::kBassLongestPath: return "bass-longest-path";
    case SchedulerKind::kBassAuto: return "bass-auto";
    case SchedulerKind::kK3sDefault: return "k3s-default";
  }
  return "?";
}

const char* move_reason_name(MoveReason reason) {
  switch (reason) {
    case MoveReason::kManual: return "manual";
    case MoveReason::kController: return "controller";
    case MoveReason::kDrain: return "drain";
    case MoveReason::kFailover: return "failover";
    case MoveReason::kRestart: return "restart";
  }
  return "?";
}

Orchestrator::Orchestrator(sim::Simulation& sim, net::Network& network,
                           cluster::ClusterState& cluster, OrchestratorConfig config)
    : sim_(&sim), network_(&network), cluster_(&cluster), config_(config) {}

Orchestrator::~Orchestrator() {
  for (Row& row : deployments_) sim_->cancel(row.deployment->controller_tick);
}

Orchestrator::Deployment& Orchestrator::dep(DeploymentId id) {
  return *deployments_.at(static_cast<std::size_t>(id)).deployment;
}

const Orchestrator::Deployment& Orchestrator::dep(DeploymentId id) const {
  return *deployments_.at(static_cast<std::size_t>(id)).deployment;
}

const app::AppGraph& Orchestrator::Deployment::graph() const {
  static const app::AppGraph retired("retired");
  if (profiled != nullptr) return *profiled;
  return app != nullptr ? app->graph() : retired;
}

const std::string& Orchestrator::Deployment::label() const {
  return instance.empty() ? graph().name() : instance;
}

sched::Scheduler& Orchestrator::scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBassBfs: return bfs_;
    case SchedulerKind::kBassLongestPath: return longest_path_;
    case SchedulerKind::kBassAuto: return auto_;
    case SchedulerKind::kK3sDefault: return k3s_;
  }
  return auto_;
}

DeploymentId Orchestrator::add_deployment(std::unique_ptr<Deployment> d) {
  const DeploymentId id = static_cast<DeploymentId>(deployments_.size());
  const std::size_t name_hash = std::hash<std::string>{}(d->instance);
  d->live_slot = live_count_;
  deployments_.push_back({std::move(d), {}});
  deployments_[live_count_++].live = {name_hash, id};
  return id;
}

void Orchestrator::warn(const char* what, DeploymentId id, net::NodeId node) {
  if (recorder_ == nullptr) return;
  obs::OrchestratorWarning w;
  w.at = sim_->now();
  w.what = what;
  w.deployment = id;
  w.node = node;
  w.span = recorder_->new_span();
  w.parent = recorder_->current_span();
  recorder_->record(w);
}

void Orchestrator::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_place_us_ = nullptr;
    m_decision_us_ = nullptr;
    m_downtime_ms_ = nullptr;
    return;
  }
  m_place_us_ = &recorder->metrics().log_timer_us("sched.place_us");
  m_decision_us_ = &recorder->metrics().log_timer_us("orchestrator.decision_us");
  m_downtime_ms_ =
      &recorder->metrics().log_histogram("orchestrator.migration_downtime_ms");
}

sched::NetworkView Orchestrator::view() const {
  return sched::NetworkView(
      *network_, monitor_ != nullptr ? monitor_->cached_capacities().data() : nullptr);
}

util::Expected<DeploymentId> Orchestrator::deploy(app::AppGraph app, SchedulerKind kind,
                                                  const std::string& instance) {
  return deploy(sched::PreparedApp::make(std::move(app)), kind, instance);
}

util::Expected<DeploymentId> Orchestrator::deploy(
    std::shared_ptr<const sched::PreparedApp> app, SchedulerKind kind,
    const std::string& instance) {
  if (!instance.empty() && find_instance(instance) != kInvalidDeployment) {
    // Double-applying would reserve the app's resources a second time under
    // the same identity; reject loudly instead.
    warn("duplicate_deployment", find_instance(instance), net::kInvalidNode);
    util::log_warn() << "deploy: instance '" << instance << "' is already active";
    return util::make_error("instance '" + instance + "' is already deployed");
  }
  const sched::NetworkView view = this->view();
  sched::Scheduler& scheduler = this->scheduler(kind);
  const app::AppGraph& graph = app->graph();

  const auto t0 = std::chrono::steady_clock::now();
  auto result = scheduler.schedule(*app, *cluster_, view);
  const double place_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  if (recorder_ != nullptr) {
    m_place_us_->observe(place_us);
    obs::ScheduleDecision decision;
    decision.at = sim_->now();
    decision.deployment = static_cast<int>(deployments_.size());
    decision.scheduler = scheduler.name();
    decision.components = graph.component_count();
    decision.place_us = place_us;
    decision.success = result.ok();
    decision.span = recorder_->new_span();
    decision.parent = recorder_->current_span();
    if (result.ok()) {
      decision.crossing_bps = sched::crossing_bandwidth(graph, result.value());
    }
    recorder_->record(std::move(decision));
  }
  if (!result.ok()) return util::make_error(result.error());

  auto d = std::make_unique<Deployment>();
  d->instance = instance;
  d->deployed_at = sim_->now();
  d->placement = result.take();
  d->up.assign(static_cast<std::size_t>(graph.component_count()), true);
  d->stats = monitor::TrafficStats(graph.edges().size(), sim_->now());
  for (app::ComponentId c = 0; c < graph.component_count(); ++c) {
    const auto& comp = graph.component(c);
    if (!needs_resources(comp)) continue;
    const net::NodeId node = d->placement[static_cast<std::size_t>(c)];
    const bool ok = cluster_->allocate(node, comp.cpu_milli, comp.memory_mb);
    assert(ok && "scheduler produced an infeasible placement");
    (void)ok;
  }

  d->app = std::move(app);
  const DeploymentId id = add_deployment(std::move(d));
  util::log_info() << "deployed '" << dep(id).label() << "' with "
                   << scheduler_kind_name(kind);
  return id;
}

util::Expected<DeploymentId> Orchestrator::deploy_with_placement(
    app::AppGraph graph, sched::Placement placement) {
  auto prepared = sched::PreparedApp::make(std::move(graph));
  if (!prepared->valid()) return util::make_error(prepared->error());
  const app::AppGraph& app = prepared->graph();
  placement.resize(static_cast<std::size_t>(app.component_count()), net::kInvalidNode);
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& comp = app.component(c);
    if (comp.pinned_node) placement[static_cast<std::size_t>(c)] = *comp.pinned_node;
    if (placement[static_cast<std::size_t>(c)] == net::kInvalidNode) {
      return util::make_error("manual placement misses component '" + comp.name + "'");
    }
  }
  // All-or-nothing resource reservation.
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& comp = app.component(c);
    if (!needs_resources(comp)) continue;
    if (!cluster_->allocate(placement[static_cast<std::size_t>(c)], comp.cpu_milli,
                            comp.memory_mb)) {
      for (app::ComponentId r = 0; r < c; ++r) {
        const auto& rc = app.component(r);
        if (needs_resources(rc)) {
          cluster_->release(placement[static_cast<std::size_t>(r)], rc.cpu_milli, rc.memory_mb);
        }
      }
      return util::make_error("node cannot fit component '" + comp.name + "'");
    }
  }

  auto d = std::make_unique<Deployment>();
  d->deployed_at = sim_->now();
  d->placement = std::move(placement);
  d->up.assign(static_cast<std::size_t>(app.component_count()), true);
  d->stats = monitor::TrafficStats(app.edges().size(), sim_->now());
  d->app = std::move(prepared);
  const DeploymentId id = add_deployment(std::move(d));
  if (recorder_ != nullptr) {
    const Deployment& placed = *deployments_.back().deployment;
    obs::ScheduleDecision decision;
    decision.at = sim_->now();
    decision.deployment = id;
    decision.scheduler = "manual";
    decision.components = placed.graph().component_count();
    decision.crossing_bps = sched::crossing_bandwidth(placed.graph(), placed.placement);
    decision.success = true;
    decision.span = recorder_->new_span();
    decision.parent = recorder_->current_span();
    recorder_->record(std::move(decision));
  }
  return id;
}

const app::AppGraph& Orchestrator::app(DeploymentId id) const { return dep(id).graph(); }

const sched::Placement& Orchestrator::placement(DeploymentId id) const {
  return dep(id).placement;
}

net::NodeId Orchestrator::node_of(DeploymentId id, app::ComponentId component) const {
  return sched::node_of(dep(id).placement, component);
}

bool Orchestrator::is_up(DeploymentId id, app::ComponentId component) const {
  const Deployment& d = dep(id);
  return d.active && d.up.at(static_cast<std::size_t>(component));
}

Subscription Orchestrator::add_listener(DeploymentId id, DeploymentListener* listener) {
  dep(id).listeners.push_back(listener);
  return Subscription(this, id, listener);
}

// Index loops: a listener may subscribe or unsubscribe from its callback.
void Orchestrator::notify_down(const Deployment& d, app::ComponentId component) {
  for (std::size_t i = 0; i < d.listeners.size(); ++i) {
    d.listeners[i]->on_component_down(component);
  }
}

void Orchestrator::notify_up(const Deployment& d, app::ComponentId component,
                             net::NodeId node) {
  for (std::size_t i = 0; i < d.listeners.size(); ++i) {
    d.listeners[i]->on_component_up(component, node);
  }
}

Subscription& Subscription::operator=(Subscription&& other) noexcept {
  if (this != &other) {
    reset();
    orch_ = std::exchange(other.orch_, nullptr);
    deployment_ = other.deployment_;
    listener_ = other.listener_;
  }
  return *this;
}

void Subscription::reset() {
  if (orch_ == nullptr) return;
  std::vector<DeploymentListener*>& listeners = orch_->dep(deployment_).listeners;
  const auto it = std::find(listeners.begin(), listeners.end(), listener_);
  if (it != listeners.end()) listeners.erase(it);
  orch_ = nullptr;
}

monitor::TrafficStats& Orchestrator::traffic_stats(DeploymentId id) {
  return dep(id).stats;
}

bool Orchestrator::update_edge_bandwidths(DeploymentId id,
                                          std::span<const EdgeBandwidth> updates) {
  Deployment& d = dep(id);
  if (d.app == nullptr) return false;  // retired
  const std::size_t edge_count = d.graph().edges().size();
  for (const EdgeBandwidth& u : updates) {
    if (u.edge >= edge_count) return false;
  }
  if (d.profiled == nullptr) d.profiled = std::make_unique<app::AppGraph>(d.app->graph());
  for (const EdgeBandwidth& u : updates) {
    const app::Edge& e = d.profiled->edges()[u.edge];
    d.profiled->set_edge_bandwidth(e.from, e.to, u.bandwidth);
  }
  return true;
}

bool Orchestrator::deployment_active(DeploymentId id) const {
  return id >= 0 && id < static_cast<DeploymentId>(deployments_.size()) &&
         dep(id).active;
}

DeploymentId Orchestrator::find_instance(const std::string& instance) const {
  if (instance.empty()) return kInvalidDeployment;
  // Names are unique among active deployments, so the scan order cannot
  // change the answer.
  const std::size_t name_hash = std::hash<std::string>{}(instance);
  for (std::size_t i = 0; i < live_count_; ++i) {
    const LiveEntry& entry = deployments_[i].live;
    if (entry.name_hash == name_hash && dep(entry.id).instance == instance) return entry.id;
  }
  return kInvalidDeployment;
}

bool Orchestrator::undeploy(DeploymentId id) {
  if (!deployment_active(id)) {
    warn("undeploy_inactive", id, net::kInvalidNode);
    util::log_warn() << "undeploy: deployment " << id << " is not active";
    return false;
  }
  Deployment& d = dep(id);
  // Stop the controller first so no new moves start mid-teardown; in-flight
  // bring-up/recovery callbacks check `active` and become no-ops.
  disable_migration(id);
  int torn_down = 0;
  for (app::ComponentId c = 0; c < d.graph().component_count(); ++c) {
    if (!d.up[static_cast<std::size_t>(c)]) continue;  // mid-move: already released
    const auto& comp = d.graph().component(c);
    d.up[static_cast<std::size_t>(c)] = false;
    if (needs_resources(comp)) {
      cluster_->release(node_of(id, c), comp.cpu_milli, comp.memory_mb);
    }
    notify_down(d, c);
    ++torn_down;
  }
  util::log_info() << "undeployed '" << d.label() << "' (" << torn_down
                   << " components)";
  if (recorder_ != nullptr) {
    obs::DeploymentClosed closed;
    closed.at = sim_->now();
    closed.deployment = id;
    closed.components = torn_down;
    closed.lifetime = sim_->now() - d.deployed_at;
    closed.span = recorder_->new_span();
    closed.parent = recorder_->current_span();
    recorder_->record(closed);
  }
  // Swap-remove from the live index: the last entry takes this one's row.
  const LiveEntry last = deployments_[--live_count_].live;
  deployments_[d.live_slot].live = last;
  dep(last.id).live_slot = d.live_slot;
  // Leave a tombstone: every scheduled callback that captured `id` (bring-
  // up, state transfer, recovery retry, controller tick) checks `active`
  // before it touches a member released here.
  d = Deployment{};
  d.active = false;
  return true;
}

void Orchestrator::enable_migration(DeploymentId id, controller::MigrationParams params) {
  Deployment& d = dep(id);
  if (d.migration_enabled) disable_migration(id);
  d.migration_enabled = true;
  d.params = params;
  d.cooldown.emplace(params);
  d.controller_tick = sim_->schedule_periodic(
      params.evaluation_interval, [this, id] { controller_evaluate(id); });
}

void Orchestrator::disable_migration(DeploymentId id) {
  Deployment& d = dep(id);
  if (!d.migration_enabled) return;
  d.migration_enabled = false;
  sim_->cancel(d.controller_tick);
  d.cooldown.reset();
}

const std::vector<ControllerRound>& Orchestrator::controller_rounds(DeploymentId id) const {
  return dep(id).rounds;
}

const controller::MigrationParams* Orchestrator::migration_params(DeploymentId id) const {
  const Deployment& d = dep(id);
  return d.migration_enabled ? &d.params : nullptr;
}

void Orchestrator::controller_evaluate(DeploymentId id) {
  Deployment& d = dep(id);
  if (!d.active) return;  // tick raced an undeploy in the same round
  const sched::NetworkView view = this->view();
  const sim::Time now = sim_->now();

  // Every round gets a span up front (ids from the deterministic counter,
  // so same-seed runs match) and holds it as the current cause for the
  // whole evaluation: migrations started below, reallocations the network
  // solves for them, and anything the round hook journals (invariant
  // violations) all get parent = this round.
  const obs::SpanId round_span =
      recorder_ != nullptr ? recorder_->new_span() : obs::kNoSpan;
  obs::SpanScope round_scope(recorder_, round_span);
  const auto wall_start = std::chrono::steady_clock::now();

  // Streams count their bytes in the network; their engines write them
  // into the stats before the windows are taken.
  for (std::size_t i = 0; i < d.listeners.size(); ++i) d.listeners[i]->flush_traffic();

  // Observations for every mesh-crossing edge between live components.
  RoundScratch& r = round_;
  auto& observations = r.observations;
  auto& endpoints = r.endpoints;  // parallel to observations
  const app::AppGraph& graph = d.graph();
  const std::vector<app::Edge>& edges = graph.edges();
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    const app::Edge& e = edges[ei];
    if (!is_up(id, e.from) || !is_up(id, e.to)) continue;
    const net::NodeId a = node_of(id, e.from);
    const net::NodeId b = node_of(id, e.to);
    const auto window = d.stats.take_window(ei, now);
    if (a == b) continue;  // colocated pairs never violate
    controller::EdgeObservation obs;
    obs.from = e.from;
    obs.to = e.to;
    obs.required = e.bandwidth;
    obs.measured = window.delivered;
    obs.offered = window.offered;
    obs.path_capacity = view.path_capacity(a, b);
    observations.push_back(obs);
    endpoints.emplace_back(a, b);
  }

  // Headroom state per path, from two passive signals (§4.2/§4.3):
  //  * probed — the net-monitor could not push its spare-capacity probe
  //    through ("when a change is detected in the available headroom"), and
  //  * usage — the deployment's own measured traffic leaves less than
  //    headroom_frac of a link's capacity free ("the component uses the
  //    link to the extent that the headroom on the link shrinks even
  //    without capacity change on the link"). Pair traffic flows both ways
  //    (requests and responses), so it is charged to both directions.
  r.link_usage.resize(static_cast<std::size_t>(view.link_count()), 0.0);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto [a, b] = endpoints[i];
    const auto charge = [&](net::LinkId l) {
      double& usage = r.link_usage[static_cast<std::size_t>(l)];
      if (usage == 0.0) r.used_links.push_back(l);
      usage += static_cast<double>(observations[i].measured);
      return true;
    };
    view.routing().walk(a, b, charge);
    view.routing().walk(b, a, charge);
  }
  auto link_headroom_ok = [&](net::LinkId l) {
    if (monitor_ != nullptr && !monitor_->headroom_ok(l)) return false;
    const double capacity = static_cast<double>(view.link_capacity(l));
    return r.link_usage[static_cast<std::size_t>(l)] <=
           capacity * (1.0 - d.params.headroom_frac);
  };
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto [a, b] = endpoints[i];
    view.routing().walk(a, b, [&](net::LinkId l) {
      if (link_headroom_ok(l)) return true;
      observations[i].path_headroom_ok = false;
      return false;
    });
    util::log_debug() << "obs t=" << sim::to_seconds(now) << " "
                      << graph.component(observations[i].from).name << "->"
                      << graph.component(observations[i].to).name
                      << " req=" << observations[i].required
                      << " meas=" << observations[i].measured
                      << " off=" << observations[i].offered
                      << " cap=" << observations[i].path_capacity
                      << " hdroom_ok=" << observations[i].path_headroom_ok
                      << " violates="
                      << controller::edge_violates(observations[i], d.params);
  }
  for (const net::LinkId l : r.used_links) r.link_usage[static_cast<std::size_t>(l)] = 0.0;
  r.used_links.clear();

  // Pre-dedup violating component set (Table 1's "components exceeding
  // link utilization quota") and the violating-pair adjacency, used below
  // to substitute a partner when a chosen candidate has nowhere to go.
  std::vector<std::uint8_t>& flags = r.flags;
  flags.resize(static_cast<std::size_t>(graph.component_count()), 0);
  const auto has = [&](app::ComponentId c, std::uint8_t flag) {
    return (flags[static_cast<std::size_t>(c)] & flag) != 0;
  };
  const auto set = [&](app::ComponentId c, std::uint8_t flag) {
    flags[static_cast<std::size_t>(c)] |= flag;
  };
  int violating = 0;
  auto& violating_pairs = r.violating_pairs;
  for (const auto& obs : observations) {
    if (!controller::edge_violates(obs, d.params)) continue;
    for (const app::ComponentId c : {obs.from, obs.to}) {
      if (graph.component(c).pinned_node || has(c, kViolating)) continue;
      set(c, kViolating);
      ++violating;
    }
    violating_pairs.emplace_back(obs.from, obs.to);
  }

  const auto candidates =
      controller::select_migration_candidates(graph, observations, d.params);

  // Cooldown state tracks *violation* persistence (a component deduped
  // away this round is still violating — its timer must keep running so it
  // can substitute for an unplaceable partner).
  for (app::ComponentId c = 0; c < graph.component_count(); ++c) {
    if (d.cooldown->should_migrate(c, has(c, kViolating), now)) set(c, kEligible);
  }
  // Execute in candidate (heaviest-first) order, capped per round.
  auto& cleared = r.cleared;
  for (app::ComponentId c : candidates) {
    if (has(c, kEligible)) cleared.push_back(c);
  }

  int started = 0;
  for (app::ComponentId c : cleared) {
    if (d.params.max_migrations_per_round > 0 &&
        started >= d.params.max_migrations_per_round) {
      break;
    }
    if (has(c, kMoved)) continue;
    app::ComponentId mover = c;
    auto target = sched::pick_migration_target(graph, d.placement, c, *cluster_, view);
    if (!target) {
      // The pair rule held this candidate's partners back; moving a partner
      // *instead* (never in addition) is allowed and often feasible when
      // the primary is not (§3.2.2 only forbids moving both).
      for (const auto& [from, to] : violating_pairs) {
        if (from != c && to != c) continue;
        const app::ComponentId partner = (from == c) ? to : from;
        if (partner == c || has(partner, kMoved)) continue;
        if (graph.component(partner).pinned_node) continue;
        if (!has(partner, kEligible)) continue;
        target = sched::pick_migration_target(graph, d.placement, partner, *cluster_,
                                              view);
        if (target) {
          mover = partner;
          break;
        }
      }
    }
    if (!target) {
      util::log_warn() << "no feasible migration target for '"
                       << graph.component(c).name << "' or its partners";
      continue;
    }
    d.cooldown->note_migration(mover, now);
    if (migrate(id, mover, *target, MoveReason::kController)) {
      ++started;
      set(mover, kMoved);
      // The pair rule: the partner(s) of a moved component stay put. The
      // dedup ablation lifts it, so both ends may move in one round.
      if (d.params.dedup_pairs) {
        for (const auto& [from, to] : violating_pairs) {
          if (from == mover) set(to, kMoved);
          if (to == mover) set(from, kMoved);
        }
      }
    }
  }
  observations.clear();
  endpoints.clear();
  violating_pairs.clear();
  cleared.clear();
  std::fill(flags.begin(), flags.end(), 0);

  if (recorder_ != nullptr) {
    // Decision latency covers the full evaluation — observations, headroom
    // math, candidate selection, and starting the moves — for every round,
    // including the quiet ones: p99 over only busy rounds would flatter us.
    m_decision_us_->observe(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - wall_start)
                                .count());
  }
  if (violating > 0 || started > 0) {
    d.rounds.push_back({now, violating, started});
    if (recorder_ != nullptr) {
      obs::ControllerRound round;
      round.at = now;
      round.deployment = id;
      round.violating = violating;
      round.migrations_started = started;
      round.span = round_span;
      recorder_->record(round);
    }
  }
  if (round_hook_) round_hook_(id);
}

void Orchestrator::note_migration_done(DeploymentId id, app::ComponentId component,
                                       net::NodeId from, net::NodeId to,
                                       sim::Time went_down, MoveReason reason,
                                       obs::SpanId span, obs::SpanId parent) {
  const sim::Time now = sim_->now();
  migrations_.push_back({now, id, component, from, to,
                         went_down >= 0 ? went_down : now, reason});
  if (recorder_ == nullptr) return;
  const sim::Duration downtime = went_down >= 0 ? now - went_down : 0;
  m_downtime_ms_->observe(sim::to_millis(downtime));
  // Same span as the MigrationStarted: started/completed are two ends of
  // one move, and the shared id is what `bassctl journal query --span`
  // stitches them back together with.
  recorder_->record(obs::MigrationCompleted{now, id, component, from, to, downtime,
                                            move_reason_name(reason), span, parent});
}

bool Orchestrator::migrate(DeploymentId id, app::ComponentId component,
                           net::NodeId target, MoveReason reason) {
  Deployment& d = dep(id);
  if (!is_up(id, component)) return false;
  if (d.graph().component(component).pinned_node) return false;
  if (target == node_of(id, component)) return false;
  execute_move(id, component, target, reason);
  return true;
}

int Orchestrator::drain_node(net::NodeId node) {
  cluster_->set_schedulable(node, false);
  const sched::NetworkView view = this->view();
  int started = 0;
  for (DeploymentId id = 0; id < static_cast<DeploymentId>(deployments_.size()); ++id) {
    Deployment& d = dep(id);
    for (app::ComponentId c = 0; c < d.graph().component_count(); ++c) {
      if (!is_up(id, c) || node_of(id, c) != node) continue;
      if (d.graph().component(c).pinned_node) {
        util::log_warn() << "drain: '" << d.graph().component(c).name
                         << "' is pinned to node" << node << " and cannot move";
        continue;
      }
      const auto target = sched::pick_migration_target(d.graph(), d.placement, c,
                                                       *cluster_, view);
      if (!target) {
        util::log_warn() << "drain: no target for '" << d.graph().component(c).name
                         << "'";
        continue;
      }
      if (migrate(id, c, *target, MoveReason::kDrain)) ++started;
    }
  }
  return started;
}

void Orchestrator::fail_node(net::NodeId node, sim::Duration detection_delay) {
  if (failed_nodes_.count(node)) {
    // Idempotent, but loudly so: double-failing used to be silent, which
    // hid injector/scenario bugs that fired the same crash twice.
    warn("node_already_failed", kInvalidDeployment, node);
    util::log_warn() << "fail_node: node" << node << " is already down";
    return;
  }
  failed_nodes_.insert(node);
  cluster_->set_schedulable(node, false);
  int dropped = 0;
  for (DeploymentId id = 0; id < static_cast<DeploymentId>(deployments_.size()); ++id) {
    Deployment& d = dep(id);
    for (app::ComponentId c = 0; c < d.graph().component_count(); ++c) {
      if (!is_up(id, c) || node_of(id, c) != node) continue;
      const auto& comp = d.graph().component(c);
      d.up[static_cast<std::size_t>(c)] = false;
      if (comp.cpu_milli > 0 || comp.memory_mb > 0) {
        cluster_->release(node, comp.cpu_milli, comp.memory_mb);
      }
      notify_down(d, c);
      ++dropped;
      // Recovery after detection + cold restart; retries internally while
      // the cluster is too full.
      const sim::Time went_down = sim_->now();
      obs::SpanId span = obs::kNoSpan;
      obs::SpanId parent = obs::kNoSpan;
      if (recorder_ != nullptr) {
        // Outage begins now; the landing node is unknown until recovery.
        // When the fault injector triggered this failure, its fault span is
        // the current cause and becomes this move's parent.
        span = recorder_->new_span();
        parent = recorder_->current_span();
        recorder_->record(obs::MigrationStarted{
            went_down, id, c, node, net::kInvalidNode,
            move_reason_name(MoveReason::kFailover), span, parent});
      }
      sim_->schedule_after(detection_delay + config_.restart_duration,
                           [this, id, c, node, went_down, span, parent] {
                             recover_component(id, c, node, went_down, span,
                                               parent);
                           });
    }
  }
  util::log_info() << "node" << node << " failed; " << dropped << " components dropped";
}

void Orchestrator::recover_node(net::NodeId node) {
  failed_nodes_.erase(node);
  cluster_->set_schedulable(node, true);
  util::log_info() << "node" << node << " recovered (schedulable again)";
}

void Orchestrator::recover_component(DeploymentId id, app::ComponentId component,
                                     net::NodeId failed_node, sim::Time went_down,
                                     obs::SpanId span, obs::SpanId parent) {
  Deployment& d = dep(id);
  // The deployment departed while this component was waiting out its
  // outage: stop the retry loop instead of reviving a ghost.
  if (!d.active) return;
  const auto& comp = d.graph().component(component);
  auto retry = [this, id, component, failed_node, went_down, span, parent] {
    sim_->schedule_after(
        sim::seconds(30), [this, id, component, failed_node, went_down, span, parent] {
          recover_component(id, component, failed_node, went_down, span, parent);
        });
  };
  if (comp.pinned_node) {
    // Pinned components can only live on their node: wait for it to come
    // back (recover_node), then restart in place.
    const net::NodeId pinned = *comp.pinned_node;
    if (failed_nodes_.count(pinned) != 0 ||
        (needs_resources(comp) &&
         !cluster_->allocate(pinned, comp.cpu_milli, comp.memory_mb))) {
      util::log_warn() << "'" << comp.name << "' is pinned to down node"
                       << pinned << "; retrying";
      retry();
      return;
    }
    d.placement[static_cast<std::size_t>(component)] = pinned;
    d.up[static_cast<std::size_t>(component)] = true;
    note_migration_done(id, component, failed_node, pinned, went_down,
                        MoveReason::kFailover, span, parent);
    notify_up(d, component, pinned);
    return;
  }
  const sched::NetworkView view = this->view();
  const auto target =
      sched::pick_migration_target(d.graph(), d.placement, component, *cluster_, view);
  if (target && cluster_->allocate(*target, comp.cpu_milli, comp.memory_mb)) {
    d.placement[static_cast<std::size_t>(component)] = *target;
    d.up[static_cast<std::size_t>(component)] = true;
    note_migration_done(id, component, failed_node, *target, went_down,
                        MoveReason::kFailover, span, parent);
    notify_up(d, component, *target);
    return;
  }
  util::log_warn() << "no surviving node for '" << comp.name << "'; retrying";
  retry();
}

void Orchestrator::restart_component(DeploymentId id, app::ComponentId component) {
  if (!is_up(id, component)) return;
  execute_move(id, component, node_of(id, component), MoveReason::kRestart);
}

void Orchestrator::execute_move(DeploymentId id, app::ComponentId component,
                                net::NodeId target, MoveReason reason) {
  Deployment& d = dep(id);
  const net::NodeId from = node_of(id, component);
  const auto& comp = d.graph().component(component);

  d.up[static_cast<std::size_t>(component)] = false;
  cluster_->release(from, comp.cpu_milli, comp.memory_mb);
  notify_down(d, component);
  util::log_info() << "moving '" << comp.name << "' node" << from << " -> node"
                   << target << " (restart " << sim::to_seconds(config_.restart_duration)
                   << " s, state " << comp.state_mb << " MiB)";
  const sim::Time went_down = sim_->now();
  obs::SpanId span = obs::kNoSpan;
  obs::SpanId parent = obs::kNoSpan;
  if (recorder_ != nullptr) {
    // A controller-round scope (or a fault scope, for injector-driven
    // moves) is open right now; capture it as the move's cause before the
    // asynchronous bring-up outlives it.
    span = recorder_->new_span();
    parent = recorder_->current_span();
    recorder_->record(obs::MigrationStarted{went_down, id, component, from, target,
                                            move_reason_name(reason), span, parent});
  }

  auto bring_up = [this, id, component, from, target, went_down, reason, span,
                   parent] {
    Deployment& d2 = dep(id);
    if (!d2.active) return;  // undeployed mid-move: the migration is void
    const auto& c2 = d2.graph().component(component);
    net::NodeId final_target = target;
    if (needs_resources(c2) &&
        !cluster_->allocate(final_target, c2.cpu_milli, c2.memory_mb)) {
      // The target filled up while we were moving; fall back to the old
      // node, which we know fit the component a restart ago.
      final_target = from;
      if (!cluster_->allocate(final_target, c2.cpu_milli, c2.memory_mb)) {
        // Both ends are gone — the old node failed or was cordoned while
        // the move was in flight (the chaos case). Fall into the failure
        // retry loop instead of reviving the component on a dead node.
        util::log_warn() << "'" << c2.name
                         << "' lost both move endpoints; entering recovery";
        recover_component(id, component, from, went_down, span, parent);
        return;
      }
    }
    d2.placement[static_cast<std::size_t>(component)] = final_target;
    d2.up[static_cast<std::size_t>(component)] = true;
    note_migration_done(id, component, from, final_target, went_down, reason, span,
                        parent);
    notify_up(d2, component, final_target);
  };

  // Stateful components ship their checkpoint across the mesh first (§8);
  // the restart timer runs only once the state has landed. The transfer is
  // real traffic, so migrating a fat component loads the very links the
  // migration is trying to relieve.
  if (comp.state_mb > 0 && target != from) {
    network_->start_transfer(from, target, comp.state_mb * 1024 * 1024,
                             [this, bring_up = std::move(bring_up)] {
                               sim_->schedule_after(config_.restart_duration,
                                                    bring_up);
                             });
  } else {
    sim_->schedule_after(config_.restart_duration, std::move(bring_up));
  }
}

}  // namespace bass::core

// The BASS orchestrator: the "k3s server + BASS extensions" of Fig. 7.
// It owns deployments (app DAG + current placement + component up/down
// state), schedules with any of the three schedulers, and — when migration
// is enabled — runs the bandwidth-controller loop: read passive traffic
// stats and the net-monitor's capacity cache, apply Algorithm 3, pick a
// target node, and execute the move with a realistic restart outage.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "controller/migration_policy.h"
#include "monitor/net_monitor.h"
#include "monitor/traffic_stats.h"
#include "net/network.h"
#include "obs/recorder.h"
#include "sched/bass_scheduler.h"
#include "sched/k3s_scheduler.h"
#include "sched/placement.h"
#include "sched/prepared_app.h"
#include "sim/simulation.h"
#include "util/expected.h"

namespace bass::core {

enum class SchedulerKind { kBassBfs, kBassLongestPath, kBassAuto, kK3sDefault };

const char* scheduler_kind_name(SchedulerKind kind);

struct OrchestratorConfig {
  // Outage while a component is rescheduled and restarted — ~20 s for the
  // mesh experiments (§6.3.2), ~30 s in the microbenchmarks (§6.2.3).
  sim::Duration restart_duration = sim::seconds(20);
};

using DeploymentId = int;
constexpr DeploymentId kInvalidDeployment = -1;

// A re-measured bandwidth requirement for the edge at position `edge` in a
// deployment's AppGraph::edges().
struct EdgeBandwidth {
  std::size_t edge;
  net::Bps bandwidth;
};

// Workload engines implement this to follow their components around.
class DeploymentListener {
 public:
  virtual ~DeploymentListener() = default;
  virtual void on_component_down(app::ComponentId component) { (void)component; }
  virtual void on_component_up(app::ComponentId component, net::NodeId node) {
    (void)component;
    (void)node;
  }
  // Called before the controller reads the deployment's traffic stats: an
  // engine whose bytes accrue in the network rather than per transfer
  // writes them into the stats here.
  virtual void flush_traffic() {}
};

class Orchestrator;

// One listener registration, owned. Destroying or resetting it removes the
// listener from its deployment; on a retired deployment that is a no-op,
// because undeploy already freed the listener list. It must not outlive
// the orchestrator that issued it.
class Subscription {
 public:
  Subscription() = default;
  Subscription(Subscription&& other) noexcept { *this = std::move(other); }
  Subscription& operator=(Subscription&& other) noexcept;
  ~Subscription() { reset(); }

  void reset();
  explicit operator bool() const { return orch_ != nullptr; }

 private:
  friend class Orchestrator;
  Subscription(Orchestrator* orch, DeploymentId deployment,
               DeploymentListener* listener)
      : orch_(orch), deployment_(deployment), listener_(listener) {}

  Orchestrator* orch_ = nullptr;
  DeploymentId deployment_ = kInvalidDeployment;
  DeploymentListener* listener_ = nullptr;
};

// Why a component moved — carried on migration events and journal records
// so the invariant checker can apply controller-only rules (cooldown, pair
// rule) without flagging failovers and drains.
enum class MoveReason {
  kManual,      // experiment called migrate()
  kController,  // bandwidth-controller decision (Algorithm 3)
  kDrain,       // operator drain
  kFailover,    // restart after a node failure
  kRestart,     // down/up in place (Fig. 14(a))
};

const char* move_reason_name(MoveReason reason);

struct MigrationEvent {
  sim::Time at;  // when the move completed (component back up)
  DeploymentId deployment;
  app::ComponentId component;
  net::NodeId from;
  net::NodeId to;
  sim::Time started_at = 0;  // when the component went down for the move
  MoveReason reason = MoveReason::kManual;
};

// One controller evaluation round (Table 1's rows).
struct ControllerRound {
  sim::Time at;
  int violating_components;  // exceeding their link utilization quota
  int migrations_started;
};

class Orchestrator {
 public:
  Orchestrator(sim::Simulation& sim, net::Network& network,
               cluster::ClusterState& cluster, OrchestratorConfig config = {});
  ~Orchestrator();
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // With a monitor attached, scheduling and the controller use its probe
  // cache (the real BASS deployment); without one they fall back to live
  // topology capacities (useful for oracle experiments and tests).
  void attach_monitor(monitor::NetMonitor* monitor) { monitor_ = monitor; }
  // The mesh as placement and migration see it: the attached monitor's
  // capacity cache, else live topology capacities. Decided here only.
  sched::NetworkView view() const;

  // Attaches the run's recorder: deploys journal ScheduleDecision (with
  // wall-clock placement latency), moves journal MigrationStarted/
  // MigrationCompleted (every entry in migration_events() has a matching
  // completed event), controller rounds journal ControllerRound, and
  // migration downtime / placement latency feed registry histograms.
  // nullptr detaches.
  void set_recorder(obs::Recorder* recorder);

  // ---- Deployment lifecycle ----
  // Places a prepared app (sched/prepared_app.h) and holds it shared: every
  // deployment of one template reads the same graph and cached orders.
  // `instance` optionally names the deployment for duplicate detection (and
  // the logs): a second deploy with the name of a still-active instance is
  // rejected (and journals an orchestrator_warning) instead of silently
  // double-applying resources. Empty skips the check — anonymous one-shot
  // experiments keep their historical behavior.
  util::Expected<DeploymentId> deploy(std::shared_ptr<const sched::PreparedApp> app,
                                      SchedulerKind kind,
                                      const std::string& instance = "");
  // Prepares `app`, then deploys it as above.
  util::Expected<DeploymentId> deploy(app::AppGraph app, SchedulerKind kind,
                                      const std::string& instance = "");

  // First-class departure: marks every live component down (listeners see
  // on_component_down and close their streams), releases the node resources
  // deploy acquired, cancels the controller loop and any in-flight moves
  // (their bring-up lambdas become no-ops), and journals a typed
  // DeploymentClosed event. Then the deployment's state (app graph,
  // placement, listeners, traffic stats, controller history) is freed; the
  // slot stays as a tombstone so memory follows live deployments, not
  // arrivals. Returns false — with a journaled warning — when `id` is
  // unknown or already undeployed. DeploymentIds are never reused: journals
  // name deployments by id.
  bool undeploy(DeploymentId id);

  // False once undeploy(id) ran. A retired id stays valid for the read
  // accessors, which then see an empty app graph and placement.
  bool deployment_active(DeploymentId id) const;
  // Active deployment with this instance name, or kInvalidDeployment.
  DeploymentId find_instance(const std::string& instance) const;
  int live_deployment_count() const { return static_cast<int>(live_count_); }

  // Deploys with a caller-chosen placement (experiments reproducing the
  // paper's fixed initial deployments, e.g. "Pion server on node 2").
  // `placement` is indexed by ComponentId; pinned components take their pin
  // and any other entry left at kInvalidNode is an error. Validates resource
  // fit; does NOT check bandwidth feasibility — that is the experimenter's
  // prerogative.
  util::Expected<DeploymentId> deploy_with_placement(app::AppGraph app,
                                                     sched::Placement placement);

  // The deployed graph. The reference stays valid until undeploy(id); after
  // the deployment's first profiler update it names the graph as deployed,
  // so call app(id) again for the profiled one.
  const app::AppGraph& app(DeploymentId id) const;
  const sched::Placement& placement(DeploymentId id) const;
  net::NodeId node_of(DeploymentId id, app::ComponentId component) const;
  bool is_up(DeploymentId id, app::ComponentId component) const;
  // Registers `listener` for the deployment's component down/up callbacks
  // until the returned subscription is destroyed or reset.
  [[nodiscard]] Subscription add_listener(DeploymentId id, DeploymentListener* listener);

  // Passive per-edge traffic counters for this deployment, one slot per
  // edge of app(id); workload engines record into it, the controller reads
  // from it (after each listener's flush_traffic()).
  monitor::TrafficStats& traffic_stats(DeploymentId id);

  // Rewrites the profiled bandwidth requirements of deployed edges, indexed
  // by position in app(id).edges() — the online-profiling extension (§8)
  // feeds re-measured requirements back so the controller and rescheduler
  // reason about reality instead of the developer's offline estimate. The
  // first update copies the deployed graph into the deployment's own, which
  // later updates rewrite in place, so the shared template and every other
  // deployment of it keep theirs. Returns false, changing nothing, when the
  // deployment is retired or an index is past its last edge.
  bool update_edge_bandwidths(DeploymentId id, std::span<const EdgeBandwidth> updates);

  // ---- Migration ----
  void enable_migration(DeploymentId id, controller::MigrationParams params);
  void disable_migration(DeploymentId id);

  // Manual move (used by experiments); true if the migration started.
  bool migrate(DeploymentId id, app::ComponentId component, net::NodeId target,
               MoveReason reason = MoveReason::kManual);

  // kubectl-drain for the mesh: cordons `node` and migrates every live,
  // unpinned component hosted there (across all deployments) to its best
  // alternative. Community meshes lose nodes to power and weather; drain
  // is how an operator empties one gracefully before it goes. Returns the
  // number of migrations started (pinned or unplaceable components stay
  // and are logged).
  int drain_node(net::NodeId node);

  // Abrupt *compute* failure: the node is cordoned, every component it
  // hosted drops instantly (no graceful handoff, checkpoints on the dead
  // node are lost), and after `detection_delay` the orchestrator cold-
  // restarts each one on a surviving node — pinned components wait for
  // their node to come back — retrying periodically while placement is
  // infeasible. The node's radios keep relaying — this models the common
  // mesh failure of a dead compute board behind a live router. A real
  // network partition (the paper scopes those out, §3.1) is modelled
  // separately by fault::Injector downing the member links via
  // Network::set_link_down, so compute and connectivity fail independently.
  void fail_node(net::NodeId node, sim::Duration detection_delay = sim::seconds(10));
  // The failed node's board was replaced / rebooted: uncordons it and makes
  // it schedulable again. Components pinned there rejoin on their next
  // recovery retry; unpinned work drifts back only when the controller or
  // an operator moves it. Also usable as a plain uncordon after drain_node.
  void recover_node(net::NodeId node);
  bool node_failed(net::NodeId node) const { return failed_nodes_.count(node) != 0; }
  const std::set<net::NodeId>& failed_nodes() const { return failed_nodes_; }
  // Down/up in place — the Fig. 14(a) restart-overhead experiment.
  void restart_component(DeploymentId id, app::ComponentId component);

  const std::vector<MigrationEvent>& migration_events() const { return migrations_; }
  const std::vector<ControllerRound>& controller_rounds(DeploymentId id) const;
  int deployment_count() const { return static_cast<int>(deployments_.size()); }
  // Controller parameters while migration is enabled, else nullptr.
  const controller::MigrationParams* migration_params(DeploymentId id) const;

  // Invoked after every controller evaluation round with the deployment id
  // — the fault::Invariants checker hooks in here.
  void set_round_hook(std::function<void(DeploymentId)> hook) {
    round_hook_ = std::move(hook);
  }

  sim::Simulation& simulation() { return *sim_; }
  net::Network& network() { return *network_; }
  cluster::ClusterState& cluster() { return *cluster_; }

 private:
  struct Deployment {
    std::shared_ptr<const sched::PreparedApp> app;  // nullptr once retired
    // The deployment's own copy of the graph, made by the first profiler
    // update and rewritten in place by the next. `app` is kept, so a
    // reference to its graph stays valid until undeploy; its orders served
    // the placement decision and are not read again.
    std::unique_ptr<app::AppGraph> profiled;
    std::string instance;        // duplicate-detection name ("" = anonymous)
    bool active = true;          // false after undeploy
    sim::Time deployed_at = 0;
    sched::Placement placement;
    std::vector<bool> up;
    std::vector<DeploymentListener*> listeners;
    monitor::TrafficStats stats;
    // Controller state (valid while migration is enabled):
    bool migration_enabled = false;
    controller::MigrationParams params;
    std::optional<controller::CooldownTracker> cooldown;
    sim::EventId controller_tick = sim::kInvalidEvent;
    std::vector<ControllerRound> rounds;
    // The row of deployments_ holding this deployment's live entry while
    // it is active.
    std::size_t live_slot = 0;

    // The current graph (`profiled`, else `app`); empty once retired.
    const app::AppGraph& graph() const;
    // The instance name, else the graph's.
    const std::string& label() const;
  };

  // controller_evaluate's buffers, kept across rounds. Between rounds the
  // vectors are empty and link_usage/flags are all zero.
  struct RoundScratch {
    std::vector<controller::EdgeObservation> observations;
    std::vector<std::pair<net::NodeId, net::NodeId>> endpoints;  // parallel
    std::vector<double> link_usage;                              // by LinkId
    std::vector<net::LinkId> used_links;  // links with non-zero usage
    std::vector<std::pair<app::ComponentId, app::ComponentId>> violating_pairs;
    std::vector<app::ComponentId> cleared;
    std::vector<std::uint8_t> flags;  // by ComponentId, kViolating | ...
  };

  friend class Subscription;

  Deployment& dep(DeploymentId id);
  const Deployment& dep(DeploymentId id) const;
  sched::Scheduler& scheduler(SchedulerKind kind);
  // Tell every listener of `d` that `component` went down / came up on
  // `node`.
  static void notify_down(const Deployment& d, app::ComponentId component);
  static void notify_up(const Deployment& d, app::ComponentId component,
                        net::NodeId node);
  // Appends a new deployment and enters it in the live index.
  DeploymentId add_deployment(std::unique_ptr<Deployment> d);
  // Journals an OrchestratorWarning (`what` must be a static literal).
  void warn(const char* what, DeploymentId id, net::NodeId node);
  void controller_evaluate(DeploymentId id);
  // Executes a move; `target` may equal the current node (pure restart).
  void execute_move(DeploymentId id, app::ComponentId component, net::NodeId target,
                    MoveReason reason);
  // Post-failure placement retry loop (see fail_node). `went_down` is when
  // the component dropped (journalled downtime spans the whole outage);
  // `span`/`parent` carry the move's causal identity through the retries so
  // the eventual MigrationCompleted matches its MigrationStarted.
  void recover_component(DeploymentId id, app::ComponentId component,
                         net::NodeId failed_node, sim::Time went_down,
                         obs::SpanId span, obs::SpanId parent);
  // Appends to migrations_ and journals the matching MigrationCompleted.
  void note_migration_done(DeploymentId id, app::ComponentId component,
                           net::NodeId from, net::NodeId to, sim::Time went_down,
                           MoveReason reason, obs::SpanId span,
                           obs::SpanId parent);

  sim::Simulation* sim_;
  net::Network* network_;
  cluster::ClusterState* cluster_;
  monitor::NetMonitor* monitor_ = nullptr;
  obs::Recorder* recorder_ = nullptr;
  obs::LogHistogram* m_place_us_ = nullptr;
  obs::LogHistogram* m_decision_us_ = nullptr;
  obs::LogHistogram* m_downtime_ms_ = nullptr;
  OrchestratorConfig config_;
  // One scheduler of each kind, so their decision scratch is reused.
  sched::BassScheduler bfs_{sched::Heuristic::kBreadthFirst};
  sched::BassScheduler longest_path_{sched::Heuristic::kLongestPath};
  sched::BassScheduler auto_{sched::Heuristic::kAuto};
  sched::K3sScheduler k3s_;
  RoundScratch round_;
  // One entry of the live index: an active deployment's instance-name hash
  // and id.
  struct LiveEntry {
    std::size_t name_hash = 0;
    DeploymentId id = kInvalidDeployment;
  };
  struct Row {
    std::unique_ptr<Deployment> deployment;
    LiveEntry live;
  };
  // Row `id` holds the deployment with that id, every id ever issued
  // (tombstones included). Rows below live_count_ also hold the live
  // index, one entry per active deployment in no order: deploy appends and
  // undeploy swap-removes, so a duplicate check scans only what is live,
  // contiguously, and compares names only on a hash match. The index is
  // never longer than the id table, so it shares its rows and keeping it
  // allocates nothing.
  std::vector<Row> deployments_;
  std::size_t live_count_ = 0;
  std::vector<MigrationEvent> migrations_;
  std::set<net::NodeId> failed_nodes_;
  std::function<void(DeploymentId)> round_hook_;
};

}  // namespace bass::core

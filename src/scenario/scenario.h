// Scenario files: a declarative way to stand up a mesh, an application,
// and a workload without writing C++ — what a community-network operator
// actually edits. The INI schema (see examples/scenarios/*.ini):
//
//   [node alpha]            cpu = 4000        memory_mb = 4096
//                           schedulable = true
//   [link alpha beta]       capacity_mbps = 20
//   [trace alpha beta]      mean_mbps = 12    stddev_frac = 0.2
//                           fades = true      fade_probability = 0.002
//                           fade_depth = 0.25 seed = 7
//   [component producer]    cpu = 3000        memory_mb = 512
//                           service_time_ms = 1   concurrency = 4
//                           pinned = alpha    state_mb = 0
//   [edge producer consumer] bandwidth_mbps = 8  request_bytes = 4000
//                           response_bytes = 8000 probability = 1.0
//                           max_latency_ms = 0
//   [scheduler]             kind = auto       # bfs | longest-path | auto | k3s
//   [monitor]               enabled = true    probe_interval_s = 30
//                           headroom_frac = 0.1
//   [migration]             enabled = true    threshold = 0.5
//                           headroom = 0.2    interval_s = 30
//                           cooldown_s = 30   min_gap_s = 90
//   [profiler]              enabled = false   sample_interval_s = 10
//   [obs]                   enabled = true    journal_capacity = 65536
//   [workload]              type = requests   rps = 50
//                           arrival = constant|exponential
//                           client = alpha    max_in_flight = 0   seed = 1
//   [run]                   duration_s = 600  dot = placement.dot
//
// Generated topologies replace the explicit [node]/[link] sections (it is
// an error to give both) — node names and specs come from the generator:
//
//   [topology]              kind = city_grid  blocks_x = 8  blocks_y = 8
//                           nodes_per_block = 4  gateway_every = 8
//                           intra_mbps = 100  street_mbps = 50
//                           backbone_mbps = 200
//                           cpu = 4000        memory_mb = 4096
//
// Sharded orchestration ([zones], consumed by zone::ShardedOrchestrator via
// `bassctl serve --jobs N`; plain Scenario::from_ini ignores it, so the same
// file also runs unsharded):
//
//   [zones]                 count = 4         method = bfs  # bfs | chunks
//                           round_interval_s = 10
//                           transit_per_border = 1  transit_mbps = 2
//
// Serving scenarios ([serve] present) replace the one-shot app + workload
// with the bassd control-plane loop: no [component]/[edge] sections; apps
// arrive and depart continuously per the churn schedule (DESIGN.md §10):
//
//   [serve]                 mode = adaptive   # static | adaptive | dynamic
//                           seed = 1          arrival_per_min = 2
//                           mean_lifetime_s = 300 resource_scale = 0.25
//                           diurnal_amplitude = 0 diurnal_period_s = 1440
//                           policy = fifo     # fifo | reject | defer
//                           retry_s = 30      max_retries = 5
//                           camera_weight = 1 conference_weight = 1
//                           social_weight = 1 rebalance_interval_s = 120
//                           rebalance_max_moves = 1
//                           rebalance_cpu_threshold = 0.85
//
// Fault injection (all sections optional; see src/fault/ and DESIGN.md):
//
//   [fault node_crash alpha]   at_s = 120  detection_delay_s = 10
//                              duration_s = 60   # auto node_recover
//   [fault node_recover alpha] at_s = 180
//   [fault link_down alpha beta] at_s = 60  duration_s = 30  # auto link_up
//   [fault link_up alpha beta]   at_s = 90
//   [fault link_flap alpha beta] start_s = 0  end_s = 300
//                              period_s = 60  duty = 0.25
//   [fault partition alpha beta] at_s = 100  duration_s = 50  # cut-set
//   [fault probe_loss]         at_s = 0  rate = 0.2  seed = 7
//   [chaos]                 seed = 1          crash_mtbf_s = 300
//                           mttr_s = 120      crash_detection_s = 10
//                           flap_mtbf_s = 120 flap_down_s = 30
//                           probe_loss = 0.0  horizon_s = 0  # 0 = duration
//   [invariants]            enabled = true    # continuous safety checker
//
// Conference scenarios replace [component]/[edge] with client groups — the
// SFU app is built automatically:
//
//   [workload]              type = conference  per_stream_kbps = 250
//                           single_publisher = false
//   [clients alpha]         count = 3
//   [clients beta]          count = 3
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/app_graph.h"
#include "core/orchestrator.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "monitor/net_monitor.h"
#include "obs/flight.h"
#include "obs/recorder.h"
#include "profiler/online_profiler.h"
#include "scenario/serving.h"
#include "trace/player.h"
#include "util/expected.h"
#include "util/ini.h"
#include "workload/request_engine.h"
#include "workload/video_conference.h"

namespace bass::scenario {

struct RunReport {
  // Request workloads:
  std::int64_t requests_issued = 0;
  std::int64_t requests_completed = 0;
  std::int64_t requests_shed = 0;
  double latency_mean_ms = 0;
  double latency_median_ms = 0;
  double latency_p99_ms = 0;
  // Conference workloads: median per-client bitrate per group node.
  std::map<net::NodeId, double> median_bitrate_bps;
  // Always:
  std::size_t migrations = 0;
  std::int64_t probe_bytes = 0;
  // Fault subsystem (0 when no faults / checker configured):
  int faults_injected = 0;
  int invariant_violations = 0;
  // Serving scenarios ([serve] section): churn + admission accounting.
  bool served = false;
  std::int64_t serve_arrivals = 0;
  std::int64_t serve_departures = 0;
  std::int64_t serve_admitted = 0;
  std::int64_t serve_rejected = 0;
  std::int64_t serve_deferred = 0;
  std::int64_t serve_cancelled = 0;
  int serve_peak_queue_depth = 0;
  int serve_live_at_end = 0;
  std::int64_t serve_rebalance_moves = 0;
};

// The mesh substrate a scenario runs on, parsed once so Scenario::from_ini
// and zone::ShardedOrchestrator build identical worlds from the same file.
struct TopologySpec {
  net::Topology topology;
  std::vector<cluster::NodeSpec> specs;  // indexed by NodeId
};

// Builds the mesh from [node]/[link] sections or a [topology] generator
// section (exactly one of the two must be present).
util::Expected<TopologySpec> build_topology(const util::IniFile& ini);

// ---- Shared ini parsers ----
// Exported so the sharded orchestrator configures per-zone worlds with the
// exact semantics (defaults included) of the unsharded scenario path. Timer
// periods ([migration] interval_s, [monitor] probe_interval_s, [serve]
// rebalance_interval_s, [profiler] sample_interval_s, [zones]
// round_interval_s) must round to > 0 µs.

// Reads `key` (seconds, default `fallback_s`) as a timer period; the error
// names the section and key unless 0 < value < 1e12 s and it rounds to at
// least 1 µs.
util::Expected<sim::Duration> parse_period(const util::IniSection& section,
                                           const std::string& key, double fallback_s);
core::SchedulerKind parse_scheduler_kind(const util::IniFile& ini);
sim::Duration parse_run_duration(const util::IniFile& ini);
util::Expected<controller::MigrationParams> parse_migration_params(
    const util::IniSection& mig);
// Requires a [serve] section to be present.
util::Expected<ServeConfig> parse_serve_config(const util::IniFile& ini,
                                               sim::Duration duration);
// [monitor] (nullopt when enabled = false), [obs], [migration] restart_s and
// [invariants] enabled.
util::Expected<std::optional<monitor::MonitorConfig>> parse_monitor_config(
    const util::IniFile& ini);
obs::RecorderConfig parse_recorder_config(const util::IniFile& ini);
core::OrchestratorConfig parse_orchestrator_config(const util::IniFile& ini);
bool parse_invariants_enabled(const util::IniFile& ini);

class Scenario {
 public:
  // Builds a fully wired world from a parsed scenario. The returned object
  // owns the simulation and every subsystem.
  static util::Expected<std::unique_ptr<Scenario>> from_ini(const util::IniFile& ini);
  static util::Expected<std::unique_ptr<Scenario>> from_file(const std::string& path);

  // Runs the configured duration and returns the report. Callable once.
  RunReport run();

  // ---- Introspection (valid after construction) ----
  core::Orchestrator& orchestrator() { return *orch_; }
  net::Network& network() { return *network_; }
  // The run's observability recorder: every subsystem (network, monitor,
  // orchestrator) emits through it from construction onward, so the journal
  // covers initial probing and the deploy decision, not just run(). Export
  // with recorder().journal().write_jsonl(...) / write_trace(...) and
  // recorder().metrics().write_json(...) — bassctl run does exactly that.
  obs::Recorder& recorder() { return *recorder_; }
  // Invalid in serving scenarios, which have no single one-shot app: check
  // deployment() != core::kInvalidDeployment (or serving() != nullptr).
  const app::AppGraph& app() const { return orch_->app(deployment_); }
  core::DeploymentId deployment() const { return deployment_; }
  // Null unless the ini has a [serve] section.
  ServingLoop* serving() { return serving_.get(); }
  net::NodeId node_id(const std::string& name) const;
  std::string node_name(net::NodeId id) const;
  // Null unless the scenario configured faults / the checker (the checker
  // is on by default; [invariants] enabled = false disables it).
  fault::Injector* injector() { return injector_.get(); }
  fault::Invariants* invariants() { return invariants_.get(); }
  // Null unless [obs] flight = true; dumps on the first invariant
  // violation automatically, or on demand via dump().
  obs::FlightRecorder* flight() { return flight_.get(); }
  sim::Duration duration() const { return duration_; }
  sim::Time now() const { return sim_.now(); }
  const std::string& dot_path() const { return dot_path_; }

 private:
  Scenario() = default;

  sim::Simulation sim_;
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<net::Network> network_;
  cluster::ClusterState cluster_;
  std::unique_ptr<monitor::NetMonitor> monitor_;
  std::unique_ptr<core::Orchestrator> orch_;
  std::unique_ptr<trace::TracePlayer> player_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<fault::Invariants> invariants_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<profiler::OnlineProfiler> profiler_;
  std::unique_ptr<workload::RequestEngine> requests_;
  std::unique_ptr<workload::VideoConferenceEngine> conference_;
  std::unique_ptr<ServingLoop> serving_;
  core::DeploymentId deployment_ = core::kInvalidDeployment;
  sim::Duration duration_ = sim::minutes(10);
  std::string dot_path_;
  bool ran_ = false;
};

}  // namespace bass::scenario

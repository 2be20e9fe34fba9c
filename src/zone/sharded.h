// Sharded orchestration: one Orchestrator/MaxMinSolver/ServingLoop per
// zone, each in its own simulation world over a zone-local slice of the
// mesh (zone members plus a one-hop halo of border endpoints), with a
// deterministic border reconciliation pass between rounds.
//
// Scaling argument: the unsharded path carries O(n^2) routing state and
// every control-plane pass (placement, rebalance, probing) walks the whole
// mesh. A zone world is ~n/z nodes, so per-zone routing is O((n/z)^2) and
// control passes shrink by z — near-linear round-time scaling in zone
// count, independent of worker threads. Worker threads (exec::Pool) then
// overlap zone rounds on top.
//
// Determinism contract: zone worlds are fully isolated (own Simulation,
// own Recorder, seeds derived from the zone index), reconciliation runs
// serially on the coordinator after the round barrier, and the merged
// journal is a k-way heap merge of the time-ordered per-zone journals
// keyed on (timestamp, zone order) — so same seed + any --jobs value =>
// byte-identical journals.
//
// Reconciliation (DESIGN.md §11): intra-zone flows never leave their
// world — their allocations are reused untouched. Border (transit) flows
// exist as two stream halves, one per touching world. Each pass rebuilds
// the residual capacity of every link the border flows cross (capacity
// minus non-transit allocation, min over the owning worlds), re-solves
// border flows max-min fair against the union of their touching zones'
// links with one shared solver, and imposes the solved rates back on both
// halves as demand caps. Passes repeat until no rate moves (steady state:
// zero passes change anything; a capacity shift settles in one).
//
// Activity gating (this file + DESIGN.md §11): round cost tracks churn,
// not city size. A zone whose event queue holds nothing at or before the
// round deadline takes a serial clock-advance tick (the same run_until the
// full pass makes, so journals stay byte-identical); reconciliation
// partitions transit flows into link-disjoint border components and
// re-solves only those whose owner zones' allocations changed (an
// allocator pass or an in-place shortcut) since the last look,
// skipping the pass outright when none did. Both halves are provably
// bitwise-neutral: a skipped zone processed no events either way, and a
// clean component's residuals and solved rates are unchanged by
// construction.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/orchestrator.h"
#include "exec/pool.h"
#include "fault/invariants.h"
#include "monitor/net_monitor.h"
#include "net/maxmin.h"
#include "net/network.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "scenario/serving.h"
#include "sim/simulation.h"
#include "util/expected.h"
#include "util/ini.h"
#include "zone/partition.h"

namespace bass::zone {

struct ZonesConfig {
  int count = 2;
  PartitionMethod method = PartitionMethod::kBfsBalanced;
  sim::Duration round_interval = sim::seconds(10);
  // Synthetic cross-zone transit: flows per directed border link, each
  // demanding transit_bps. 0 decouples zones entirely (no reconciliation).
  int transit_per_border = 1;
  net::Bps transit_bps = net::mbps(2);
  // Transit endpoint shaping. false (default): endpoints rotate through
  // each zone's interior, so transit couples to the whole street grid —
  // one city-wide contention component, worst case for per-component
  // gating. true: flows enter/exit at the border link's own routers
  // (classic transit), keeping each border's contention link-disjoint from
  // the others — the regime where dirty-border reconciliation pays off.
  bool transit_local = false;
  // Activity gating: quiescent zones (no event at or before the round
  // deadline) take a clock-advance tick instead of a full pooled pass, and
  // reconciliation only rebuilds border components whose owner zones
  // reallocated. Gated and ungated runs produce byte-identical journals
  // and bitwise-equal final allocations (zone_test locks both); the knob
  // exists as the bench/CI baseline, not as a semantic switch.
  bool gating = true;
  // Sparse-churn shaping: 0 spreads arrivals over every zone (default);
  // K > 0 confines the configured total arrival rate to zones [0, K) —
  // the bench/test handle for "activity lives in one corner of the city".
  int active_zones = 0;
};

// Everything needed to stand up a sharded world; from_ini() fills it from
// the same scenario file the unsharded path reads ([zones] + [topology] /
// [node] + [serve] + [monitor]/[invariants]/[migration]/[obs]/[run]).
struct ShardedBuild {
  net::Topology topology;
  std::vector<cluster::NodeSpec> specs;  // indexed by NodeId
  ZonesConfig zones;
  bool serving = true;
  scenario::ServeConfig serve;
  sim::Duration duration = sim::minutes(10);
  bool monitor_enabled = true;
  monitor::MonitorConfig monitor;
  bool invariants_enabled = true;
  core::OrchestratorConfig orch;
  obs::RecorderConfig recorder;
};

struct ShardedReport {
  // Aggregated over zones (serving builds only):
  std::int64_t serve_arrivals = 0;
  std::int64_t serve_departures = 0;
  std::int64_t serve_admitted = 0;
  std::int64_t serve_rejected = 0;
  std::int64_t serve_deferred = 0;
  std::int64_t serve_cancelled = 0;
  int serve_peak_queue_depth = 0;  // max over zones
  int serve_live_at_end = 0;
  std::size_t migrations = 0;
  int invariant_violations = 0;
  // Sharding:
  int rounds = 0;
  std::int64_t reconcile_iterations = 0;  // passes that changed a rate
  std::size_t border_links = 0;           // directed global border links
  std::size_t transit_streams = 0;        // border flows actually routed
  std::size_t transit_unroutable = 0;     // border flows with no routable path
  std::size_t border_components = 0;      // link-disjoint transit groups
  // Activity gating:
  std::int64_t zone_rounds_full = 0;     // zone-rounds that ran the full pass
  std::int64_t zone_rounds_skipped = 0;  // zone-rounds served by the tick
  std::int64_t border_rebuilds = 0;      // dirty border components re-solved
  std::int64_t reconcile_rounds_skipped = 0;  // rounds with no dirty border
  // Wall-clock split of the round loop (cumulative, µs): quiescent-zone
  // ticks, full zone passes, border reconciliation.
  double tick_wall_us = 0.0;
  double advance_wall_us = 0.0;
  double reconcile_wall_us = 0.0;
};

class ShardedOrchestrator {
 public:
  // `jobs` is the worker count for zone rounds: 0 => one thread per zone
  // (capped at the zone count), 1 => run rounds inline.
  static util::Expected<std::unique_ptr<ShardedOrchestrator>> create(
      ShardedBuild build, std::size_t jobs);
  static util::Expected<std::unique_ptr<ShardedOrchestrator>> from_ini(
      const util::IniFile& ini, std::size_t jobs);

  ~ShardedOrchestrator();

  // start() warms every world up (monitor pre-probe window, transit
  // streams, serving loops); run_round() advances all zones one interval
  // and reconciles; finish() drains, stops, folds per-zone metrics into the
  // coordinator registry, and builds the report. run() does all of it.
  void start();
  void run_round();
  void finish();
  ShardedReport run();

  int zones() const { return static_cast<int>(worlds_.size()); }
  sim::Time now() const { return worlds_.front()->sim.now(); }
  int rounds_total() const { return rounds_total_; }
  int rounds_done() const { return round_; }
  const Partition& partition() const { return partition_; }
  const ShardedReport& report() const { return report_; }
  const ZonesConfig& config() const { return cfg_; }

  // Cumulative phase wall-clock (µs), live during the round loop, so a
  // bench can window out bring-up rounds: round 0's reconcile imposes
  // every initial transit rate and dwarfs the steady-state cost it is
  // trying to measure. finish() folds the same totals into the report.
  struct PhaseWalls {
    double tick_us = 0.0;
    double advance_us = 0.0;
    double reconcile_us = 0.0;
    std::int64_t border_rebuilds = 0;
  };
  PhaseWalls phase_walls() const {
    return {tick_wall_us_, advance_wall_us_, reconcile_wall_us_,
            border_rebuilds_};
  }

  core::Orchestrator& zone_orchestrator(int z);
  net::Network& zone_network(int z);
  obs::Recorder& zone_recorder(int z);
  scenario::ServingLoop* zone_serving(int z);
  // Global <-> zone-local node id mapping (kInvalidNode when the node is
  // not in that world). Halo nodes are present but unschedulable.
  net::NodeId local_node(int z, net::NodeId global) const;
  net::NodeId global_node(int z, net::NodeId local) const;

  // Coordinator-side observability: the recorder carrying zone_round events
  // and (after finish()) the folded per-zone metrics under {zone} labels.
  obs::Recorder& recorder() { return coordinator_; }

  // Per-zone journals annotated with a "zone" field, plus coordinator
  // events, merged event by event in (t_us, source) order: zones in index
  // order, the coordinator last. Byte-identical for same seed across any
  // jobs value.
  std::string merged_journal() const;

 private:
  struct TransitFlow {
    int zone_a = -1;  // egress world (owns the border link's src)
    int zone_b = -1;  // ingress world
    net::StreamId a_stream = 0;
    net::StreamId b_stream = 0;
    net::NodeId a_src = net::kInvalidNode;  // local ids
    net::NodeId a_dst = net::kInvalidNode;
    net::NodeId b_src = net::kInvalidNode;
    net::NodeId b_dst = net::kInvalidNode;
    std::vector<net::LinkId> a_path;      // global link ids of the A half
    std::vector<net::LinkId> b_path;      // global link ids of the B half
    std::vector<net::LinkId> union_links; // dedup union of both halves
    net::Bps demand = 0;
    net::Bps imposed = -1;  // demand cap on both halves (A set first, then B)
  };

  struct World {
    int zone = -1;
    obs::Recorder recorder;
    sim::Simulation sim;
    cluster::ClusterState cluster;
    std::unique_ptr<net::Network> network;
    std::unique_ptr<core::Orchestrator> orch;
    std::unique_ptr<monitor::NetMonitor> monitor;
    std::unique_ptr<fault::Invariants> invariants;
    std::unique_ptr<scenario::ServingLoop> serving;
    std::vector<net::NodeId> local_to_global;
    std::vector<net::NodeId> global_to_local;  // kInvalidNode when absent
    std::vector<net::LinkId> link_to_global;   // local link -> global link
    int interior_count = 0;  // locals [0, interior_count) are zone members
    int border_halves = 0;   // transit stream halves living in this world
    // Reconciliation scratch: transit traffic per *global* link, rebuilt
    // only for links of dirty border components (stale entries elsewhere
    // are never read — components are link-disjoint).
    std::vector<double> transit_load;
    double round_wall_us = 0.0;
    // Activity gating (coordinator-side, touched serially only).
    bool due = true;
    std::int64_t recon_marker = -1;  // network->allocation_changes() last seen
    std::int64_t rounds_full = 0;
    std::int64_t rounds_skipped = 0;
    // Coordinator instruments resolved once at create(): per-round metric
    // updates must not rebuild Labels (zero-alloc steady state).
    obs::LogHistogram* m_round_wall = nullptr;
    obs::Gauge* m_border_streams = nullptr;
    obs::Gauge* m_flows = nullptr;
    obs::Counter* m_skipped_rounds = nullptr;

    explicit World(const obs::RecorderConfig& rc) : recorder(rc) {}
  };

  // Link-disjoint group of transit flows: two flows sharing any global
  // link land in one component. The max-min solve is contention-component
  // local (maxmin_property_test locks it bitwise), so a component whose
  // owner zones did not reallocate solves to exactly its previous rates —
  // reconciliation rebuilds dirty components only.
  struct BorderComponent {
    std::vector<std::size_t> flows;  // indices into transit_, ascending
    std::vector<net::LinkId> links;  // sorted dedup union of member links
    std::vector<int> owner_zones;    // zones whose allocations gate dirtiness
    std::vector<int> load_zones;     // zones carrying member flow halves
  };

  ShardedOrchestrator() : coordinator_(obs::RecorderConfig{}) {}

  void build_world(World& w, const ShardedBuild& build);
  void setup_transit(const ShardedBuild& build);
  void build_components();
  void cache_instruments();
  int reconcile();
  // Opens `zone`'s batch guard unless it is open; close_batches() closes
  // every open guard in zone order, settling each touched zone once.
  void open_batch(int zone);
  void close_batches();
  // Runs every due world to `deadline` (on the pool when there is one),
  // timing each for the zone.round_wall_us histogram.
  void advance(sim::Time deadline);

  Partition partition_;
  std::vector<std::unique_ptr<World>> worlds_;
  std::vector<TransitFlow> transit_;
  // Per global link: the worlds carrying a copy (zone, local id). Interior
  // links appear once, border links twice, halo-halo links never.
  struct LinkOwner {
    int zone = -1;
    net::LinkId local = net::kInvalidLink;
  };
  std::vector<std::array<LinkOwner, 2>> link_owners_;

  obs::Recorder coordinator_;
  net::MaxMinSolver border_solver_;
  std::vector<double> recon_caps_;  // indexed by global link id

  // Border components + persistent reconcile scratch (no per-round heap
  // traffic in steady state — the PR-5 discipline).
  std::vector<BorderComponent> components_;
  std::vector<int> flow_component_;  // transit_ index -> components_ index
  std::vector<std::uint8_t> zone_dirty_;
  std::vector<std::uint8_t> comp_dirty_;
  std::vector<net::AllocEntityRef> entity_scratch_;
  std::vector<std::size_t> entity_flow_;  // entity index -> transit_ index
  // One batch guard slot per zone, open while a pass imposes on the zone.
  // Sized once at creation: BatchUpdate cannot move, so the vector never
  // grows.
  std::vector<std::optional<net::Network::BatchUpdate>> batches_;

  // Cached coordinator instruments (addresses are stable for the registry's
  // lifetime).
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_recon_iterations_ = nullptr;
  obs::Counter* m_dirty_borders_ = nullptr;

  ZonesConfig cfg_;
  sim::Duration duration_ = 0;
  sim::Time base_ = 0;  // sim time when rounds begin (after warmup)
  int rounds_total_ = 0;
  int round_ = 0;
  std::int64_t reconcile_total_ = 0;
  std::int64_t border_rebuilds_ = 0;
  std::int64_t reconcile_skipped_ = 0;
  double tick_wall_us_ = 0.0;
  double advance_wall_us_ = 0.0;
  double reconcile_wall_us_ = 0.0;
  std::size_t skipped_transit_ = 0;  // border flows with no routable path
  std::unique_ptr<exec::Pool> pool_;
  bool started_ = false;
  bool finished_ = false;
  ShardedReport report_;
};

}  // namespace bass::zone

// Tests for the extension features: the auto (combined) heuristic, the
// proportional-share fairness ablation, stateful migration, the pair-dedup
// ablation switch, and the EdgeStreamEngine workload.
#include <gtest/gtest.h>

#include <memory>

#include "app/catalog.h"
#include "controller/migration_policy.h"
#include "core/orchestrator.h"
#include "net/maxmin.h"
#include "obs/series.h"
#include "sched/bass_scheduler.h"
#include "workload/edge_streams.h"

namespace bass {
namespace {

// ---- Auto heuristic ----

struct SchedFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<sched::NetworkView> view;

  explicit SchedFixture(std::int64_t cpu = 12000) {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::gbps(1));
    topo.add_link(1, 2, net::gbps(1));
    topo.add_link(0, 2, net::gbps(1));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    view = std::make_unique<sched::NetworkView>(*network);
    for (int i = 0; i < 3; ++i) cluster.add_node(i, {cpu, 65536, true});
  }
};

TEST(AutoHeuristic, NeverWorseThanEitherHeuristic) {
  SchedFixture f;
  for (const auto& g : {app::camera_pipeline_app(), app::social_network_app(),
                        app::fig6_example()}) {
    const auto bfs =
        sched::BassScheduler(sched::Heuristic::kBreadthFirst)
            .schedule(sched::PreparedApp(g), f.cluster, *f.view);
    const auto lp =
        sched::BassScheduler(sched::Heuristic::kLongestPath)
            .schedule(sched::PreparedApp(g), f.cluster, *f.view);
    const auto combined =
        sched::BassScheduler(sched::Heuristic::kAuto)
            .schedule(sched::PreparedApp(g), f.cluster, *f.view);
    ASSERT_TRUE(bfs.ok() && lp.ok() && combined.ok()) << g.name();
    const auto best = std::min(sched::crossing_bandwidth(g, bfs.value()),
                               sched::crossing_bandwidth(g, lp.value()));
    EXPECT_EQ(sched::crossing_bandwidth(g, combined.value()), best) << g.name();
  }
}

TEST(AutoHeuristic, NameAndKind) {
  EXPECT_EQ(sched::BassScheduler(sched::Heuristic::kAuto).name(), "bass-auto");
  EXPECT_STREQ(core::scheduler_kind_name(core::SchedulerKind::kBassAuto), "bass-auto");
}

TEST(CrossingBandwidth, CountsOnlyMeshEdges) {
  app::AppGraph g("x");
  g.add_component({.name = "a"});
  g.add_component({.name = "b"});
  g.add_component({.name = "c"});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(5)});
  g.add_dependency({.from = 1, .to = 2, .bandwidth = net::mbps(3)});
  const sched::Placement p{0, 0, 1};
  EXPECT_EQ(sched::crossing_bandwidth(g, p), net::mbps(3));
}

// ---- Proportional fairness ablation ----

TEST(ProportionalAllocate, ScalesByOversubscription) {
  // Two flows demand 8 and 2 on a 5 Mbps link: offered 10, scale 0.5.
  const auto r = net::proportional_allocate({5e6}, {{8e6, {0}}, {2e6, {0}}});
  EXPECT_NEAR(r[0], 4e6, 1e3);
  EXPECT_NEAR(r[1], 1e6, 1e3);
}

TEST(ProportionalAllocate, NoScalingWhenUnderSubscribed) {
  const auto r = net::proportional_allocate({10e6}, {{3e6, {0}}, {2e6, {0}}});
  EXPECT_NEAR(r[0], 3e6, 1e3);
  EXPECT_NEAR(r[1], 2e6, 1e3);
}

TEST(ProportionalAllocate, DiffersFromMaxMinUnderAsymmetry) {
  // Max-min equalizes (5/5); proportional preserves the 8:2 ratio.
  const auto mm = net::max_min_allocate({10e6}, {{8e6, {0}}, {8e6, {0}}});
  const auto pr = net::proportional_allocate({10e6}, {{8e6, {0}}, {2e6, {0}}});
  EXPECT_NEAR(mm[0], 5e6, 1e3);
  EXPECT_GT(pr[0], pr[1] * 3);
}

TEST(ProportionalAllocate, WorstLinkGoverns) {
  // Flow over two links; the second is 4x oversubscribed.
  const auto r = net::proportional_allocate(
      {100e6, 5e6}, {{20e6, {0, 1}}, {0.0, {}}});
  EXPECT_NEAR(r[0], 5e6, 1e3);
}

TEST(Network, ProportionalPolicyChangesSharing) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::mbps(10));
  net::NetworkConfig cfg;
  cfg.fairness = net::FairnessPolicy::kProportional;
  net::Network network(sim, std::move(topo), cfg);
  // 8 Mbps and 2 Mbps streams on a 10 Mbps link: proportional keeps 8/2.
  const auto big = network.open_stream(0, 1, net::mbps(8));
  const auto small = network.open_stream(0, 1, net::mbps(2));
  EXPECT_NEAR(static_cast<double>(network.stream_rate(big)), 8e6, 1e5);
  EXPECT_NEAR(static_cast<double>(network.stream_rate(small)), 2e6, 1e5);
  // Shrink the link: both scale by the same 0.5 factor.
  network.set_link_capacity_between(0, 1, net::mbps(5));
  EXPECT_NEAR(static_cast<double>(network.stream_rate(big)), 4e6, 1e5);
  EXPECT_NEAR(static_cast<double>(network.stream_rate(small)), 1e6, 1e5);
}

// ---- Stateful migration ----

struct OrchFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;

  OrchFixture() {
    net::Topology topo;
    for (int i = 0; i < 2; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(80));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    for (int i = 0; i < 2; ++i) cluster.add_node(i, {8000, 8192, true});
    core::OrchestratorConfig cfg;
    cfg.restart_duration = sim::seconds(10);
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster, cfg);
  }
};

TEST(StatefulMigration, StateTransferDelaysRecovery) {
  OrchFixture f;
  app::AppGraph g("stateful");
  app::Component c{.name = "db", .cpu_milli = 1000, .memory_mb = 512};
  c.state_mb = 100;  // 100 MiB of checkpoint over an 80 Mbps link: ~10.5 s
  g.add_component(c);
  const auto id = f.orch->deploy_with_placement(std::move(g), {0}).take();
  ASSERT_TRUE(f.orch->migrate(id, 0, 1));
  // At t=10s (restart alone) the component must still be down: the state
  // transfer (~10.5 s) has to land first.
  f.sim.run_until(sim::seconds(15));
  EXPECT_FALSE(f.orch->is_up(id, 0));
  f.sim.run_until(sim::seconds(25));  // 10.5 s transfer + 10 s restart
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_EQ(f.orch->node_of(id, 0), 1);
}

TEST(StatefulMigration, StatelessComponentRestartsInRestartTime) {
  OrchFixture f;
  app::AppGraph g("stateless");
  g.add_component({.name = "svc", .cpu_milli = 1000, .memory_mb = 256});
  const auto id = f.orch->deploy_with_placement(std::move(g), {0}).take();
  f.orch->migrate(id, 0, 1);
  f.sim.run_until(sim::seconds(11));
  EXPECT_TRUE(f.orch->is_up(id, 0));
}

TEST(StatefulMigration, InPlaceRestartSkipsTransfer) {
  OrchFixture f;
  app::AppGraph g("stateful");
  app::Component c{.name = "db", .cpu_milli = 1000, .memory_mb = 512};
  c.state_mb = 500;
  g.add_component(c);
  const auto id = f.orch->deploy_with_placement(std::move(g), {0}).take();
  f.orch->restart_component(id, 0);  // same node: no state movement
  f.sim.run_until(sim::seconds(11));
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_EQ(f.network->total_bytes_delivered(), 0);
}

TEST(StatefulMigration, TransferConsumesLinkBandwidth) {
  OrchFixture f;
  app::AppGraph g("stateful");
  app::Component c{.name = "db", .cpu_milli = 1000, .memory_mb = 512};
  c.state_mb = 10;
  g.add_component(c);
  const auto id = f.orch->deploy_with_placement(std::move(g), {0}).take();
  f.orch->migrate(id, 0, 1);
  f.sim.run_until(sim::minutes(1));
  EXPECT_NEAR(static_cast<double>(f.network->total_bytes_delivered()),
              10.0 * 1024 * 1024, 1e4);
}

// ---- Pair-dedup ablation ----

TEST(DedupAblation, DisabledKeepsBothEndpoints) {
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 100, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  controller::EdgeObservation obs;
  obs.from = 0;
  obs.to = 1;
  obs.required = net::mbps(8);
  obs.measured = net::mbps(6);
  obs.path_capacity = net::mbps(7);
  controller::MigrationParams params;
  params.utilization_threshold = 0.5;
  params.headroom_frac = 0.2;
  ASSERT_EQ(controller::select_migration_candidates(g, {obs}, params).size(), 1u);
  params.dedup_pairs = false;
  EXPECT_EQ(controller::select_migration_candidates(g, {obs}, params).size(), 2u);
}

// Moves the controller starts in its first violating round for an unpinned
// pair split across a throttled LAN link.
int first_round_moves(bool dedup_pairs) {
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, net::mbps(6));
  topo.add_link(1, 2, net::mbps(50));
  topo.add_link(0, 2, net::mbps(50));
  net::Network network(sim, std::move(topo));
  cluster::ClusterState cluster;
  for (int i = 0; i < 3; ++i) cluster.add_node(i, {8000, 8192, true});
  core::Orchestrator orch(sim, network, cluster);
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 100, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  const auto id = orch.deploy_with_placement(std::move(g), {0, 1}).take();

  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(10);
  params.utilization_threshold = 0.5;
  params.headroom_frac = 0.2;
  params.cooldown = 0;
  params.min_migration_gap = 0;
  params.max_migrations_per_round = 2;
  params.dedup_pairs = dedup_pairs;
  orch.enable_migration(id, params);
  // 5 Mbps recorded on the 6 Mbps link: (a1) with no headroom left.
  sim.schedule_periodic(sim::seconds(1), [&] {
    orch.traffic_stats(id).record(0, net::mbps(5) / 8);
  });
  sim.run_until(sim::seconds(10) + 1);
  const auto& rounds = orch.controller_rounds(id);
  return rounds.empty() ? 0 : rounds.front().migrations_started;
}

TEST(DedupAblation, DisabledMovesBothEndpointsInOneRound) {
  EXPECT_EQ(first_round_moves(/*dedup_pairs=*/false), 2);
  EXPECT_EQ(first_round_moves(/*dedup_pairs=*/true), 1);
}

// ---- EdgeStreamEngine ----

TEST(EdgeStreams, TracksGoodputAndMigration) {
  OrchFixture f;
  app::AppGraph g("pair");
  app::Component anchor{.name = "anchor", .cpu_milli = 100, .memory_mb = 64};
  anchor.pinned_node = 0;
  g.add_component(anchor);
  g.add_component({.name = "worker", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  const auto id = f.orch->deploy_with_placement(std::move(g), {0, 1}).take();

  workload::EdgeStreamEngine engine(*f.orch, id);
  engine.start();
  obs::TimeSeries goodput;
  f.sim.schedule_periodic(sim::seconds(1),
                          [&] { goodput.record(f.sim.now(), engine.goodput()); });
  f.sim.run_until(sim::seconds(30));
  // Healthy 80 Mbps link: goodput ~1.
  EXPECT_NEAR(goodput.mean_in(sim::seconds(5), sim::seconds(30)), 1.0, 0.02);
  EXPECT_EQ(engine.delivered_bps(), net::mbps(8));

  // Degrade the link: goodput tracks the shrink (4/8 = 0.5).
  f.network->set_link_capacity_between(0, 1, net::mbps(4));
  f.sim.run_until(sim::minutes(1));
  EXPECT_NEAR(goodput.mean_in(sim::seconds(40), sim::minutes(1)), 0.5, 0.05);
  // The stream's bytes land in the stats when it closes: 30 s at 8 Mbps
  // plus 30 s at 4 Mbps.
  engine.stop();
  EXPECT_EQ(f.orch->traffic_stats(id).total_bytes(0), 45'000'000);
}

// The stats carry the stream's delivered bytes, not once-a-second samples
// of its rate: a capacity drop between two whole seconds is counted to the
// microsecond (30.5 s at 8 Mbps + 29.5 s at 4 Mbps).
TEST(EdgeStreams, RecordsTheStreamsExactBytes) {
  OrchFixture f;
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 100, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  const auto id = f.orch->deploy_with_placement(std::move(g), {0, 1}).take();
  workload::EdgeStreamEngine engine(*f.orch, id);
  engine.start();
  f.sim.schedule_at(sim::millis(30'500),
                    [&] { f.network->set_link_capacity_between(0, 1, net::mbps(4)); });
  f.sim.run_until(sim::minutes(1));
  engine.stop();
  EXPECT_EQ(f.orch->traffic_stats(id).total_bytes(0), 45'250'000);
}

// A pair deployed at t=600 s on a link that fails the headroom check but
// carries the full 8 Mbps: its first controller window covers the 30 s
// since deploy, not the 630 s since the run began, so it does not read as
// starved and no round records a violation.
TEST(EdgeStreams, LateTenantsFirstWindowStartsAtDeploy) {
  OrchFixture f;
  f.network->set_link_capacity_between(0, 1, net::mbps(9));
  f.sim.run_until(sim::seconds(600));
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 100, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  const auto id = f.orch->deploy_with_placement(std::move(g), {0, 1}).take();
  workload::EdgeStreamEngine engine(*f.orch, id);
  engine.start();
  controller::MigrationParams params;
  params.utilization_threshold = 0.95;  // 8 of 9 Mbps stays under (a1)
  f.orch->enable_migration(id, params);
  f.sim.run_until(sim::seconds(631));
  EXPECT_EQ(engine.delivered_bps(), net::mbps(8));
  EXPECT_TRUE(f.orch->controller_rounds(id).empty());
  engine.stop();
}

TEST(EdgeStreams, GoesQuietWhileComponentDown) {
  OrchFixture f;
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 100, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  const auto id = f.orch->deploy_with_placement(std::move(g), {0, 1}).take();
  workload::EdgeStreamEngine engine(*f.orch, id);
  engine.start();
  obs::TimeSeries rate, goodput;
  f.sim.schedule_periodic(sim::seconds(1), [&] {
    rate.record(f.sim.now(), static_cast<double>(engine.delivered_bps()));
    goodput.record(f.sim.now(), engine.goodput());
  });
  f.sim.run_until(sim::seconds(20));
  f.orch->restart_component(id, 1);  // 10 s outage
  f.sim.run_until(sim::seconds(29));
  EXPECT_LT(rate.mean_in(sim::seconds(22), sim::seconds(29)), 1.0);
  f.sim.run_until(sim::minutes(1));
  EXPECT_NEAR(goodput.mean_in(sim::seconds(40), sim::minutes(1)), 1.0, 0.05);
  engine.stop();
}

}  // namespace
}  // namespace bass

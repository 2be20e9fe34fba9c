// End-to-end integration: the full BASS stack (trace player -> network ->
// monitor -> orchestrator -> controller -> workload engines) on the
// emulated CityLab mesh, asserting system-level invariants rather than
// exact numbers.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "app/catalog.h"
#include "core/orchestrator.h"
#include "fault/invariants.h"
#include "obs/series.h"
#include "profiler/online_profiler.h"
#include "trace/citylab.h"
#include "workload/edge_streams.h"
#include "workload/request_engine.h"
#include "workload/video_conference.h"

namespace bass {
namespace {

struct MeshRig {
  sim::Simulation sim;
  trace::CityLabMesh mesh;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<monitor::NetMonitor> netmon;
  std::unique_ptr<core::Orchestrator> orch;
  std::unique_ptr<fault::Invariants> invariants;
  std::unique_ptr<trace::TracePlayer> player;

  explicit MeshRig(bool fades, std::uint64_t seed = 7) {
    mesh = trace::citylab_mesh();
    network = std::make_unique<net::Network>(sim, mesh.topology);
    cluster.add_node(0, {8000, 8192, false});
    cluster.add_node(1, {8000, 6144, true});
    cluster.add_node(2, {8000, 6144, true});
    cluster.add_node(3, {8000, 6144, true});
    cluster.add_node(4, {5000, 6144, true});
    core::OrchestratorConfig cfg;
    cfg.restart_duration = sim::seconds(10);
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster, cfg);
    // Continuous safety checking after every controller round; tests assert
    // clean() so any invariant regression fails loudly.
    invariants = std::make_unique<fault::Invariants>(*orch);
    invariants->attach();
    netmon = std::make_unique<monitor::NetMonitor>(*network);
    orch->attach_monitor(netmon.get());
    player = std::make_unique<trace::TracePlayer>(*network);
    trace::bind_citylab_traces(mesh, *player, sim::minutes(12), fades, seed);
    netmon->start();
    player->start();
  }
};

TEST(Integration, SocialNetworkSurvivesTheTrace) {
  MeshRig rig(/*fades=*/true);
  const auto id = rig.orch
                      ->deploy(app::social_network_app(0.25),
                               core::SchedulerKind::kBassAuto)
                      .take();
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(30);
  params.utilization_threshold = 0.5;
  params.headroom_frac = 0.2;
  params.cooldown = sim::seconds(30);
  params.min_migration_gap = sim::seconds(90);
  rig.orch->enable_migration(id, params);

  workload::RequestWorkloadConfig cfg;
  cfg.rps = 100;
  cfg.client_node = 0;
  cfg.max_in_flight = 1000;
  cfg.seed = 3;
  workload::RequestEngine engine(*rig.orch, id, cfg);
  engine.start();
  rig.sim.run_until(sim::minutes(10));
  engine.stop();
  rig.sim.run_until(sim::minutes(12));

  // Liveness: the overwhelming majority of issued requests complete, every
  // in-flight request drains, and every component ends the run up.
  EXPECT_GT(engine.completed(), engine.issued() * 95 / 100);
  EXPECT_EQ(engine.in_flight(), 0);
  for (app::ComponentId c = 0; c < 27; ++c) {
    EXPECT_TRUE(rig.orch->is_up(id, c));
    EXPECT_NE(rig.orch->node_of(id, c), net::kInvalidNode);
  }
  // Resource accounting closed: total allocated CPU equals the app's.
  std::int64_t cpu = 0;
  for (net::NodeId n = 0; n <= 4; ++n) cpu += rig.cluster.usage(n).cpu_milli;
  EXPECT_EQ(cpu, app::social_network_app(0.25).total_cpu_milli());
  // Control-plane node hosts nothing.
  EXPECT_EQ(rig.cluster.usage(0).cpu_milli, 0);
  rig.invariants->check_now();
  EXPECT_EQ(rig.invariants->violations(), 0);
}

TEST(Integration, MigrationsOnlyMoveUnpinnedComponents) {
  MeshRig rig(/*fades=*/true, /*seed=*/11);
  const std::vector<std::pair<net::NodeId, int>> groups{{1, 3}, {2, 3}, {3, 3}, {4, 3}};
  auto graph = app::video_conference_app(groups, net::kbps(250));
  sched::Placement manual(static_cast<std::size_t>(graph.component_count()),
                          net::kInvalidNode);
  manual[static_cast<std::size_t>(graph.find("pion-sfu"))] = 3;
  const auto id = rig.orch->deploy_with_placement(std::move(graph), manual).take();
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(30);
  params.utilization_threshold = 0.65;
  params.headroom_frac = 0.2;
  params.cooldown = sim::seconds(30);
  params.min_migration_gap = sim::minutes(2);
  rig.orch->enable_migration(id, params);

  workload::VideoConferenceConfig cfg;
  cfg.groups = {{1, 3}, {2, 3}, {3, 3}, {4, 3}};
  cfg.per_stream = net::kbps(250);
  workload::VideoConferenceEngine engine(*rig.orch, id, cfg);
  engine.start();
  rig.sim.run_until(sim::minutes(10));
  engine.stop();

  const auto& g = rig.orch->app(id);
  for (const auto& m : rig.orch->migration_events()) {
    EXPECT_FALSE(g.component(m.component).pinned_node.has_value());
    EXPECT_NE(m.from, m.to);
  }
  // Client groups never moved from their pinned nodes.
  for (const auto& [node, count] : groups) {
    const auto cg = g.find("clients@node" + std::to_string(node));
    EXPECT_EQ(rig.orch->node_of(id, cg), node);
  }
  rig.invariants->check_now();
  EXPECT_EQ(rig.invariants->violations(), 0);
}

TEST(Integration, ProfilerAndControllerCoexist) {
  MeshRig rig(/*fades=*/false);
  const auto id = rig.orch
                      ->deploy(app::social_network_app(0.25),
                               core::SchedulerKind::kBassLongestPath)
                      .take();
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(30);
  rig.orch->enable_migration(id, params);
  profiler::OnlineProfiler prof(*rig.orch, id, {.sample_interval = sim::seconds(15)});
  prof.start();

  workload::RequestWorkloadConfig cfg;
  cfg.rps = 100;
  cfg.client_node = 0;
  cfg.max_in_flight = 1000;
  workload::RequestEngine engine(*rig.orch, id, cfg);
  engine.start();
  rig.sim.run_until(sim::minutes(5));
  engine.stop();
  prof.stop();
  rig.sim.run_until(sim::minutes(7));

  // The profiler rewrote at least the busy edges, with sane magnitudes
  // (well under the 400-RPS offline profile it replaced).
  EXPECT_GT(prof.updates_published(), 0);
  const auto& g = rig.orch->app(id);
  const auto nginx = g.find("nginx-web-server");
  const auto home = g.find("home-timeline-service");
  net::Bps bw = 0;
  for (const auto& e : g.edges()) {
    if (e.from == nginx && e.to == home) bw = e.bandwidth;
  }
  EXPECT_GT(bw, net::mbps(2));
  EXPECT_LT(bw, net::mbps(40));
  rig.invariants->check_now();
  EXPECT_EQ(rig.invariants->violations(), 0);
}

TEST(Integration, MonitorCacheConvergesToTraceReality) {
  MeshRig rig(/*fades=*/false, /*seed=*/5);
  rig.sim.run_until(sim::minutes(6));  // past a full refresh cycle
  // Every link's cached capacity is within 40% of the live trace value
  // (the trace keeps moving between probes, so exactness is impossible).
  for (int l = 0; l < rig.network->topology().link_count(); ++l) {
    const double cached = static_cast<double>(rig.netmon->cached_capacities()[l]);
    const double live = static_cast<double>(rig.network->topology().link(l).capacity);
    EXPECT_GT(cached, live * 0.6) << "link " << l;
    EXPECT_LT(cached, live * 1.7) << "link " << l;
  }
}

TEST(Integration, DeterministicReplay) {
  auto run = [] {
    MeshRig rig(/*fades=*/true, /*seed=*/9);
    const auto id = rig.orch
                        ->deploy(app::social_network_app(0.25),
                                 core::SchedulerKind::kBassBfs)
                        .take();
    controller::MigrationParams params;
    params.evaluation_interval = sim::seconds(30);
    rig.orch->enable_migration(id, params);
    workload::RequestWorkloadConfig cfg;
    cfg.rps = 100;
    cfg.client_node = 0;
    cfg.max_in_flight = 1000;
    cfg.seed = 4;
    workload::RequestEngine engine(*rig.orch, id, cfg);
    engine.start();
    rig.sim.run_until(sim::minutes(5));
    engine.stop();
    rig.sim.run_until(sim::minutes(6));
    return std::tuple<std::int64_t, double, std::size_t>(
        engine.completed(), engine.latencies().mean_ms(),
        rig.orch->migration_events().size());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_DOUBLE_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

}  // namespace
}  // namespace bass

namespace bass {
namespace {

// The Fig. 8 causal chain as a regression test: capacity drop -> probed
// headroom violation -> starved pair -> migrate away; reverse degradation
// -> migrate back. Uses a compressed version of the bench timeline.
TEST(Integration, Fig8WalkthroughMigratesThereAndBack) {
  const auto mesh = trace::citylab_mesh();
  sim::Simulation sim;
  net::Network network(sim, mesh.topology);
  cluster::ClusterState cluster;
  cluster.add_node(0, {8000, 8192, false});
  for (net::NodeId w : mesh.workers) cluster.add_node(w, {12000, 8192, true});
  core::OrchestratorConfig orch_cfg;
  orch_cfg.restart_duration = sim::seconds(20);
  core::Orchestrator orch(sim, network, cluster, orch_cfg);
  fault::Invariants invariants(orch);
  invariants.attach();
  monitor::NetMonitor netmon(network);
  orch.attach_monitor(&netmon);
  netmon.start();

  app::AppGraph g("pair");
  app::Component anchor{.name = "anchor", .cpu_milli = 12000, .memory_mb = 1024};
  anchor.pinned_node = 3;
  g.add_component(anchor);
  g.add_component({.name = "worker", .cpu_milli = 500, .memory_mb = 128});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  const auto id = orch.deploy_with_placement(std::move(g), {3, 4}).take();

  controller::MigrationParams params;
  params.utilization_threshold = 0.50;
  params.headroom_frac = 0.16;
  params.evaluation_interval = sim::seconds(30);
  params.cooldown = sim::seconds(60);
  params.min_migration_gap = sim::seconds(120);
  orch.enable_migration(id, params);

  workload::EdgeStreamEngine pair(orch, id);
  pair.start();
  obs::TimeSeries goodput;
  sim.schedule_periodic(sim::seconds(1),
                        [&] { goodput.record(sim.now(), pair.goodput()); });

  sim.schedule_at(sim::seconds(200), [&] {
    network.set_link_capacity_between(3, 4, net::mbps(7));
  });
  sim.schedule_at(sim::seconds(700), [&] {
    network.set_link_capacity_between(1, 3, net::mbps(6));
    network.set_link_capacity_between(3, 4, net::mbps(25));
  });

  sim.run_until(sim::minutes(20));
  pair.stop();
  netmon.stop();

  // The paper's round trip: the worker leaves node4 when its link dies and
  // ends up back on node4 once it recovers. (The compressed timeline may
  // route through one intermediate node while the capacity cache
  // refreshes.)
  const auto& events = orch.migration_events();
  ASSERT_GE(events.size(), 2u);
  ASSERT_LE(events.size(), 3u);
  EXPECT_EQ(events.front().from, 4);
  EXPECT_EQ(events.back().to, 4);
  // Goodput recovered after each move (full demand within the last phase).
  EXPECT_GT(goodput.mean_in(sim::minutes(18), sim::minutes(20)), 0.95);
  // Goodput was hurt during the first degradation window before recovery.
  EXPECT_LT(goodput.mean_in(sim::seconds(210), sim::seconds(260)), 0.95);
  invariants.check_now();
  EXPECT_EQ(invariants.violations(), 0);
}

}  // namespace
}  // namespace bass

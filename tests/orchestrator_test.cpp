#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/catalog.h"
#include "core/orchestrator.h"

namespace bass::core {
namespace {

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<Orchestrator> orch;

  // Triangle of 3 workers, 50 Mbps links, 12 cores each.
  Fixture() {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(50));
    topo.add_link(1, 2, net::mbps(50));
    topo.add_link(0, 2, net::mbps(50));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    for (int i = 0; i < 3; ++i) cluster.add_node(i, {12000, 16384, true});
    orch = std::make_unique<Orchestrator>(sim, *network, cluster);
  }
};

app::AppGraph tiny_app() {
  app::AppGraph g("tiny");
  g.add_component({.name = "a", .cpu_milli = 1000, .memory_mb = 128});
  g.add_component({.name = "b", .cpu_milli = 1000, .memory_mb = 128});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8),
                    .request_bytes = 1000, .response_bytes = 1000});
  return g;
}

TEST(Orchestrator, DeployAllocatesResources) {
  Fixture f;
  const auto id = f.orch->deploy(app::camera_pipeline_app(), SchedulerKind::kBassBfs);
  ASSERT_TRUE(id.ok()) << id.error();
  std::int64_t allocated = 0;
  for (int n = 0; n < 3; ++n) allocated += f.cluster.usage(n).cpu_milli;
  EXPECT_EQ(allocated, app::camera_pipeline_app().total_cpu_milli());
  // All components up, every component has a node.
  for (app::ComponentId c = 0; c < 5; ++c) {
    EXPECT_TRUE(f.orch->is_up(id.value(), c));
    EXPECT_NE(f.orch->node_of(id.value(), c), net::kInvalidNode);
  }
}

TEST(Orchestrator, DeployFailureLeavesClusterUntouched) {
  Fixture f;
  app::AppGraph g("huge");
  g.add_component({.name = "x", .cpu_milli = 50000, .memory_mb = 64});
  const auto id = f.orch->deploy(g, SchedulerKind::kBassBfs);
  EXPECT_FALSE(id.ok());
  for (int n = 0; n < 3; ++n) EXPECT_EQ(f.cluster.usage(n).cpu_milli, 0);
}

TEST(Orchestrator, SchedulerKindNames) {
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::kBassBfs), "bass-bfs");
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::kBassLongestPath), "bass-longest-path");
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::kK3sDefault), "k3s-default");
}

struct RecordingListener : DeploymentListener {
  std::vector<app::ComponentId> downs;
  std::vector<std::pair<app::ComponentId, net::NodeId>> ups;
  void on_component_down(app::ComponentId c) override { downs.push_back(c); }
  void on_component_up(app::ComponentId c, net::NodeId n) override {
    ups.emplace_back(c, n);
  }
};

TEST(Orchestrator, ManualMigrationMovesAfterRestart) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  RecordingListener listener;
  const Subscription subscription = f.orch->add_listener(id, &listener);

  const net::NodeId before = f.orch->node_of(id, 0);
  const net::NodeId target = (before + 1) % 3;
  ASSERT_TRUE(f.orch->migrate(id, 0, target));
  EXPECT_FALSE(f.orch->is_up(id, 0));  // down during restart
  EXPECT_EQ(listener.downs.size(), 1u);

  f.sim.run_until(sim::seconds(25));  // default restart is 20 s
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_EQ(f.orch->node_of(id, 0), target);
  ASSERT_EQ(listener.ups.size(), 1u);
  EXPECT_EQ(listener.ups[0].second, target);
  ASSERT_EQ(f.orch->migration_events().size(), 1u);
  EXPECT_EQ(f.orch->migration_events()[0].from, before);
  EXPECT_EQ(f.orch->migration_events()[0].to, target);
}

TEST(Orchestrator, SubscriptionOwnsItsRegistration) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  RecordingListener kept, dropped;
  Subscription keep = f.orch->add_listener(id, &kept);
  {
    Subscription gone = f.orch->add_listener(id, &dropped);
    const Subscription moved = std::move(gone);
    EXPECT_FALSE(gone);
    EXPECT_TRUE(moved);
  }  // `moved` unregisters `dropped` here
  f.orch->restart_component(id, 0);
  EXPECT_EQ(kept.downs.size(), 1u);
  EXPECT_TRUE(dropped.downs.empty());
  ASSERT_TRUE(f.orch->undeploy(id));
  EXPECT_EQ(kept.downs.size(), 2u);  // component 1 torn down
  keep.reset();  // the retired deployment has no listener list left
  EXPECT_FALSE(keep);
}

TEST(Orchestrator, MigrationMovesResourceAccounting) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  const net::NodeId before = f.orch->node_of(id, 0);
  const std::int64_t cpu_before = f.cluster.usage(before).cpu_milli;
  const net::NodeId target = (before + 1) % 3;
  f.orch->migrate(id, 0, target);
  f.sim.run_until(sim::seconds(25));
  EXPECT_EQ(f.cluster.usage(before).cpu_milli, cpu_before - 1000);
  EXPECT_GE(f.cluster.usage(target).cpu_milli, 1000);
}

TEST(Orchestrator, MigrateRejectsBadRequests) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  const net::NodeId here = f.orch->node_of(id, 0);
  EXPECT_FALSE(f.orch->migrate(id, 0, here));  // same node
  f.orch->migrate(id, 0, (here + 1) % 3);
  EXPECT_FALSE(f.orch->migrate(id, 0, (here + 2) % 3));  // already down
}

TEST(Orchestrator, RestartComponentKeepsNode) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  const net::NodeId before = f.orch->node_of(id, 0);
  f.orch->restart_component(id, 0);
  EXPECT_FALSE(f.orch->is_up(id, 0));
  f.sim.run_until(sim::seconds(25));
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_EQ(f.orch->node_of(id, 0), before);
}

TEST(Orchestrator, FallsBackWhenTargetFillsUp) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  const net::NodeId before = f.orch->node_of(id, 0);
  const net::NodeId target = (before + 1) % 3;
  f.orch->migrate(id, 0, target);
  // Fill the target while the component is restarting.
  f.cluster.allocate(target, f.cluster.cpu_free(target), 0);
  f.sim.run_until(sim::seconds(25));
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_EQ(f.orch->node_of(id, 0), before);  // bounced back
}

TEST(Orchestrator, ControllerMigratesUnderViolation) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kK3sDefault).take();
  // k3s spreads the pair across nodes; find the crossing.
  const net::NodeId na = f.orch->node_of(id, 0);
  const net::NodeId nb = f.orch->node_of(id, 1);
  ASSERT_NE(na, nb);

  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(10);
  params.utilization_threshold = 0.5;
  params.headroom_frac = 0.2;
  params.cooldown = sim::seconds(20);
  f.orch->enable_migration(id, params);

  // Strangle the a-b link and report heavy measured traffic on the edge.
  f.network->set_link_capacity_between(na, nb, net::mbps(6));
  const auto feeder = f.sim.schedule_periodic(sim::seconds(5), [&] {
    // 5 Mbps over each 5 s window.
    f.orch->traffic_stats(id).record(0, net::mbps(5) / 8 * 5);
  });

  f.sim.run_until(sim::minutes(3));
  f.sim.cancel(feeder);
  EXPECT_GE(f.orch->migration_events().size(), 1u);
  // After migration the pair is colocated (the rescheduler prefers the
  // dependency's node).
  EXPECT_EQ(f.orch->node_of(id, 0), f.orch->node_of(id, 1));
  EXPECT_FALSE(f.orch->controller_rounds(id).empty());
}

TEST(Orchestrator, ControllerQuietWhenHealthy) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassLongestPath).take();
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(10);
  f.orch->enable_migration(id, params);
  f.sim.run_until(sim::minutes(3));
  EXPECT_TRUE(f.orch->migration_events().empty());
  EXPECT_TRUE(f.orch->controller_rounds(id).empty());
}

TEST(Orchestrator, DisableMigrationStopsController) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kK3sDefault).take();
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(10);
  params.cooldown = sim::seconds(0);
  f.orch->enable_migration(id, params);
  f.orch->disable_migration(id);
  const net::NodeId na = f.orch->node_of(id, 0);
  const net::NodeId nb = f.orch->node_of(id, 1);
  f.network->set_link_capacity_between(na, nb, net::kbps(100));
  f.sim.schedule_periodic(sim::seconds(5), [&] {
    f.orch->traffic_stats(id).record(0, 1'000'000);
  });
  f.sim.run_until(sim::minutes(2));
  EXPECT_TRUE(f.orch->migration_events().empty());
}

}  // namespace
}  // namespace bass::core

namespace bass::core {
namespace {

TEST(Orchestrator, DeployWithPlacementValidatesAndReserves) {
  Fixture f;
  const auto id = f.orch->deploy_with_placement(tiny_app(), {1, 2});
  ASSERT_TRUE(id.ok()) << id.error();
  EXPECT_EQ(f.orch->node_of(id.value(), 0), 1);
  EXPECT_EQ(f.orch->node_of(id.value(), 1), 2);
  EXPECT_EQ(f.cluster.usage(1).cpu_milli, 1000);
  EXPECT_EQ(f.cluster.usage(2).cpu_milli, 1000);
}

TEST(Orchestrator, DeployWithPlacementRejectsMissingComponent) {
  Fixture f;
  const auto id = f.orch->deploy_with_placement(tiny_app(), {1});
  EXPECT_FALSE(id.ok());
  EXPECT_NE(id.error().find("b"), std::string::npos);
  for (int n = 0; n < 3; ++n) EXPECT_EQ(f.cluster.usage(n).cpu_milli, 0);
}

TEST(Orchestrator, DeployWithPlacementRollsBackOnOverflow) {
  Fixture f;
  f.cluster.allocate(1, 11500, 0);  // node 1 nearly full
  const auto id = f.orch->deploy_with_placement(tiny_app(), {1, 1});
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(f.cluster.usage(1).cpu_milli, 11500);  // reservation rolled back
}

TEST(Orchestrator, AutoSchedulerDeploys) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassAuto);
  ASSERT_TRUE(id.ok()) << id.error();
  // The 8 Mbps pair colocates under any BASS heuristic on a 50 Mbps mesh
  // only if beneficial; either way both components are placed and up.
  EXPECT_TRUE(f.orch->is_up(id.value(), 0));
  EXPECT_TRUE(f.orch->is_up(id.value(), 1));
}

TEST(Orchestrator, UpdateEdgeBandwidth) {
  Fixture f;
  const auto id = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  const EdgeBandwidth to_3mbps[] = {{0, net::mbps(3)}};
  const EdgeBandwidth no_such_edge[] = {{1, net::mbps(3)}};
  EXPECT_TRUE(f.orch->update_edge_bandwidths(id, to_3mbps));
  EXPECT_FALSE(f.orch->update_edge_bandwidths(id, no_such_edge));
  EXPECT_EQ(f.orch->app(id).edges()[0].bandwidth, net::mbps(3));
}

// The online profiler's write goes into the deployment's own copy: one
// tenant's profile never reaches the shared template or another deployment
// of it, and a graph reference taken earlier stays readable until undeploy.
TEST(Orchestrator, EdgeUpdateLeavesTheTemplateAndOtherTenantsAlone) {
  Fixture f;
  const auto shared = sched::PreparedApp::make(tiny_app());
  const auto a = f.orch->deploy(shared, SchedulerKind::kBassAuto, "a").take();
  const auto b = f.orch->deploy(shared, SchedulerKind::kBassAuto, "b").take();
  EXPECT_EQ(&f.orch->app(a), &shared->graph());
  EXPECT_EQ(&f.orch->app(b), &shared->graph());
  const app::AppGraph& as_deployed = f.orch->app(a);

  const EdgeBandwidth to_3mbps[] = {{0, net::mbps(3)}};
  ASSERT_TRUE(f.orch->update_edge_bandwidths(a, to_3mbps));
  EXPECT_EQ(f.orch->app(a).edges()[0].bandwidth, net::mbps(3));
  EXPECT_NE(&f.orch->app(a), &shared->graph());
  EXPECT_EQ(&f.orch->app(b), &shared->graph());
  EXPECT_EQ(f.orch->app(b).edges()[0].bandwidth, net::mbps(8));
  EXPECT_EQ(shared->graph().edges()[0].bandwidth, net::mbps(8));
  EXPECT_EQ(as_deployed.edges()[0].bandwidth, net::mbps(8));

  // Later updates rewrite the deployment's copy in place.
  const app::AppGraph& profiled = f.orch->app(a);
  const EdgeBandwidth to_4mbps[] = {{0, net::mbps(4)}};
  ASSERT_TRUE(f.orch->update_edge_bandwidths(a, to_4mbps));
  EXPECT_EQ(&f.orch->app(a), &profiled);
  EXPECT_EQ(profiled.edges()[0].bandwidth, net::mbps(4));

  // A retired deployment lets go of its share; the template lives on.
  EXPECT_TRUE(f.orch->undeploy(b));
  EXPECT_EQ(shared.use_count(), 2);  // `shared` and deployment a
  EXPECT_EQ(f.orch->app(b).component_count(), 0);
  EXPECT_FALSE(f.orch->update_edge_bandwidths(b, to_3mbps));
  EXPECT_TRUE(f.orch->undeploy(a));
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(Orchestrator, MigrationBudgetCapsPerRound) {
  Fixture f;
  // Four independent pairs, all violating at once.
  app::AppGraph g("pairs");
  for (int i = 0; i < 8; ++i) {
    g.add_component({.name = "p" + std::to_string(i), .cpu_milli = 500,
                     .memory_mb = 64});
  }
  for (int i = 0; i < 4; ++i) {
    g.add_dependency({.from = 2 * i, .to = 2 * i + 1, .bandwidth = net::mbps(8),
                      .request_bytes = 1000, .response_bytes = 1000});
  }
  // Spread each pair across the throttled 0-1 boundary.
  const sched::Placement p{0, 1, 0, 1, 0, 1, 0, 1};
  const auto id = f.orch->deploy_with_placement(std::move(g), p).take();

  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(10);
  params.utilization_threshold = 0.3;
  params.headroom_frac = 0.2;
  params.cooldown = sim::seconds(10);
  params.min_migration_gap = sim::minutes(10);
  params.max_migrations_per_round = 2;
  f.orch->enable_migration(id, params);

  f.network->set_link_capacity_between(0, 1, net::mbps(6));
  f.sim.schedule_periodic(sim::seconds(5), [&] {
    for (int i = 0; i < 4; ++i) {
      f.orch->traffic_stats(id).record(static_cast<std::size_t>(i),
                                       net::mbps(5) / 8 * 5 / 4);
    }
  });
  f.sim.run_until(sim::seconds(45));
  // Rounds at 10,20,30,40; violations from 20; first eligible fire at 30.
  // With the budget of 2, at most 2 migrations can have *started* per
  // round; by t=45 at most 4 total.
  EXPECT_LE(f.orch->migration_events().size() +
                static_cast<std::size_t>(0),
            4u);
  for (const auto& round : f.orch->controller_rounds(id)) {
    EXPECT_LE(round.migrations_started, 2);
  }
}

TEST(Orchestrator, MultipleDeploymentsAreIndependent) {
  Fixture f;
  const auto a = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  const auto b = f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs).take();
  EXPECT_NE(a, b);
  f.orch->traffic_stats(a).record(0, 999);
  EXPECT_EQ(f.orch->traffic_stats(b).total_bytes(0), 0);
  f.orch->restart_component(a, 0);
  EXPECT_FALSE(f.orch->is_up(a, 0));
  EXPECT_TRUE(f.orch->is_up(b, 0));
}

TEST(Orchestrator, InstanceNamesAreUniqueAmongLiveDeployments) {
  Fixture f;
  const auto deploy = [&](const std::string& name) {
    return f.orch->deploy(tiny_app(), SchedulerKind::kBassBfs, name);
  };
  const DeploymentId a = deploy("a").take();
  const DeploymentId anonymous = deploy("").take();
  const DeploymentId b = deploy("b").take();
  const DeploymentId c = deploy("c").take();
  EXPECT_EQ(f.orch->live_deployment_count(), 4);
  const auto again = deploy("b");
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.error().find("already deployed"), std::string::npos) << again.error();
  EXPECT_EQ(f.orch->find_instance("b"), b);
  EXPECT_EQ(f.orch->find_instance(""), kInvalidDeployment);
  EXPECT_EQ(f.orch->find_instance("d"), kInvalidDeployment);

  // Undeploying the first entry moves the last one into its place; every
  // name must still resolve, and stay taken.
  ASSERT_TRUE(f.orch->undeploy(a));
  EXPECT_EQ(f.orch->find_instance("a"), kInvalidDeployment);
  EXPECT_EQ(f.orch->find_instance("b"), b);
  EXPECT_EQ(f.orch->find_instance("c"), c);
  EXPECT_FALSE(deploy("c").ok());
  ASSERT_TRUE(f.orch->undeploy(anonymous));
  ASSERT_TRUE(f.orch->undeploy(b));
  EXPECT_EQ(f.orch->live_deployment_count(), 1);
  EXPECT_EQ(f.orch->find_instance("c"), c);

  // A retired name can be deployed again, under a new id.
  const auto b2 = deploy("b");
  ASSERT_TRUE(b2.ok()) << b2.error();
  EXPECT_NE(b2.value(), b);
  EXPECT_EQ(f.orch->find_instance("b"), b2.value());
  const auto a2 = deploy("a");
  ASSERT_TRUE(a2.ok()) << a2.error();
  EXPECT_EQ(f.orch->find_instance("a"), a2.value());
  EXPECT_FALSE(deploy("a").ok());
  EXPECT_EQ(f.orch->live_deployment_count(), 3);
}

}  // namespace
}  // namespace bass::core

namespace bass::core {
namespace {

TEST(Orchestrator, DrainNodeEvacuatesAndCordons) {
  Fixture f;
  const auto id = f.orch->deploy_with_placement(tiny_app(), {1, 1}).take();
  const int moved = f.orch->drain_node(1);
  EXPECT_EQ(moved, 2);
  EXPECT_FALSE(f.cluster.spec(1).schedulable);
  f.sim.run_until(sim::seconds(30));
  EXPECT_NE(f.orch->node_of(id, 0), 1);
  EXPECT_NE(f.orch->node_of(id, 1), 1);
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_TRUE(f.orch->is_up(id, 1));
  EXPECT_EQ(f.cluster.usage(1).cpu_milli, 0);
}

TEST(Orchestrator, DrainSkipsPinnedComponents) {
  Fixture f;
  app::AppGraph g("pinned");
  app::Component pinned{.name = "gateway", .cpu_milli = 100, .memory_mb = 64};
  pinned.pinned_node = 2;
  g.add_component(pinned);
  g.add_component({.name = "svc", .cpu_milli = 100, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  const auto id = f.orch->deploy_with_placement(std::move(g), {net::kInvalidNode, 2}).take();
  const int moved = f.orch->drain_node(2);
  EXPECT_EQ(moved, 1);  // only the unpinned service leaves
  f.sim.run_until(sim::seconds(30));
  EXPECT_EQ(f.orch->node_of(id, 0), 2);
  EXPECT_NE(f.orch->node_of(id, 1), 2);
}

TEST(Orchestrator, DrainAcrossDeployments) {
  Fixture f;
  const auto a = f.orch->deploy_with_placement(tiny_app(), {0, 1}).take();
  const auto b = f.orch->deploy_with_placement(tiny_app(), {1, 2}).take();
  EXPECT_EQ(f.orch->drain_node(1), 2);
  f.sim.run_until(sim::seconds(30));
  EXPECT_NE(f.orch->node_of(a, 1), 1);
  EXPECT_NE(f.orch->node_of(b, 0), 1);
}

}  // namespace
}  // namespace bass::core

namespace bass::core {
namespace {

TEST(Orchestrator, FailNodeDropsAndRecovers) {
  Fixture f;
  const auto id = f.orch->deploy_with_placement(tiny_app(), {1, 1}).take();
  f.orch->fail_node(1, sim::seconds(10));
  // Both components are down immediately; the node is cordoned and empty.
  EXPECT_FALSE(f.orch->is_up(id, 0));
  EXPECT_FALSE(f.orch->is_up(id, 1));
  EXPECT_FALSE(f.cluster.spec(1).schedulable);
  EXPECT_EQ(f.cluster.usage(1).cpu_milli, 0);
  // Detection (10 s) + restart (20 s default) later they're back elsewhere.
  f.sim.run_until(sim::seconds(35));
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_TRUE(f.orch->is_up(id, 1));
  EXPECT_NE(f.orch->node_of(id, 0), 1);
  EXPECT_NE(f.orch->node_of(id, 1), 1);
  EXPECT_EQ(f.orch->migration_events().size(), 2u);
}

TEST(Orchestrator, FailNodeRetriesWhenClusterFull) {
  Fixture f;
  const auto id = f.orch->deploy_with_placement(tiny_app(), {1, 2}).take();
  // Fill the survivors so recovery cannot land at first.
  f.cluster.allocate(0, f.cluster.cpu_free(0), 0);
  f.cluster.allocate(2, f.cluster.cpu_free(2) - 1000, 0);  // 1000m free on 2... minus a's 1000
  f.orch->fail_node(1, sim::seconds(5));
  f.sim.run_until(sim::seconds(40));
  EXPECT_TRUE(f.orch->is_up(id, 0));  // fits the 1000m hole on node 2
  // Free space later; the retry loop eventually lands anything still down.
  f.cluster.release(0, 4000, 0);
  f.sim.run_until(sim::minutes(3));
  EXPECT_TRUE(f.orch->is_up(id, 0));
}

TEST(Orchestrator, FailNodeLeavesOtherNodesAlone) {
  Fixture f;
  const auto id = f.orch->deploy_with_placement(tiny_app(), {0, 2}).take();
  f.orch->fail_node(1, sim::seconds(5));
  EXPECT_TRUE(f.orch->is_up(id, 0));
  EXPECT_TRUE(f.orch->is_up(id, 1));
  f.sim.run_until(sim::minutes(1));
  EXPECT_EQ(f.orch->migration_events().size(), 0u);
}

}  // namespace
}  // namespace bass::core

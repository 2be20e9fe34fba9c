#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "app/catalog.h"
#include "sched/bass_scheduler.h"
#include "sched/k3s_scheduler.h"
#include "sched/rescheduler.h"
#include "sim/simulation.h"

namespace bass::sched {
namespace {

struct MeshFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<NetworkView> view;

  // 4 workers in a line with generous links, 4 cores / 12 GB each (the
  // Fig. 11 d710 cluster shape).
  MeshFixture() {
    net::Topology topo;
    for (int i = 0; i < 4; ++i) topo.add_node();
    topo.add_link(0, 1, net::gbps(1));
    topo.add_link(1, 2, net::gbps(1));
    topo.add_link(2, 3, net::gbps(1));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    view = std::make_unique<NetworkView>(*network);
    for (int i = 0; i < 4; ++i) cluster.add_node(i, {4000, 12288, true});
  }
};

TEST(BassScheduler, SchedulesSocialNetwork) {
  MeshFixture f;
  BassScheduler sched(Heuristic::kLongestPath);
  const auto r =
      sched.schedule(PreparedApp(app::social_network_app()), f.cluster, *f.view);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().size(), 27u);
  // CPU capacity respected on every node.
  std::map<net::NodeId, std::int64_t> used;
  const auto g = app::social_network_app();
  for (app::ComponentId c = 0; c < g.component_count(); ++c) {
    used[r.value().at(c)] += g.component(c).cpu_milli;
  }
  for (const auto& [n, cpu] : used) EXPECT_LE(cpu, 4000);
}

TEST(BassScheduler, NameAndHeuristic) {
  EXPECT_EQ(BassScheduler(Heuristic::kBreadthFirst).name(), "bass-bfs");
  EXPECT_EQ(BassScheduler(Heuristic::kLongestPath).name(), "bass-longest-path");
}

TEST(BassScheduler, RejectsInvalidApp) {
  MeshFixture f;
  app::AppGraph g("cyclic");
  g.add_component({.name = "a"});
  g.add_component({.name = "b"});
  g.add_dependency({.from = 0, .to = 1});
  g.add_dependency({.from = 1, .to = 0});
  const auto r = BassScheduler(Heuristic::kBreadthFirst)
      .schedule(PreparedApp(g), f.cluster, *f.view);
  EXPECT_FALSE(r.ok());
}

TEST(BassScheduler, ColocatesHeavyChainsMoreThanK3s) {
  MeshFixture f;
  const auto g = app::social_network_app();
  const auto bass = BassScheduler(Heuristic::kLongestPath)
      .schedule(PreparedApp(g), f.cluster, *f.view);
  const auto k3s = K3sScheduler().schedule(PreparedApp(g), f.cluster, *f.view);
  ASSERT_TRUE(bass.ok() && k3s.ok());
  auto crossing_bw = [&](const Placement& p) {
    net::Bps total = 0;
    for (const auto& e : g.edges()) {
      if (p.at(e.from) != p.at(e.to)) total += e.bandwidth;
    }
    return total;
  };
  // The whole point of BASS: far less bandwidth crosses the mesh.
  EXPECT_LT(crossing_bw(bass.value()), crossing_bw(k3s.value()));
}

TEST(K3sScheduler, SpreadsAcrossNodes) {
  MeshFixture f;
  app::AppGraph g("spread");
  for (int i = 0; i < 4; ++i) {
    g.add_component({.name = "s" + std::to_string(i), .cpu_milli = 500, .memory_mb = 64});
  }
  const auto r = K3sScheduler().schedule(PreparedApp(g), f.cluster, *f.view);
  ASSERT_TRUE(r.ok());
  std::set<net::NodeId> used;
  for (net::NodeId n : r.value()) used.insert(n);
  // LeastAllocated puts each pod on the emptiest node: all four nodes used.
  EXPECT_EQ(used.size(), 4u);
}

TEST(K3sScheduler, IgnoresBandwidth) {
  // Two nodes joined by a dead link: k3s still spreads (it cannot see
  // bandwidth), which is exactly the failure mode BASS fixes.
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::kbps(1));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {4000, 1024, true});
  cl.add_node(1, {4000, 1024, true});
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(50)});
  const auto r = K3sScheduler().schedule(PreparedApp(g), cl, view);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().at(0), r.value().at(1));
}

TEST(K3sScheduler, FailsWhenNothingFits) {
  MeshFixture f;
  app::AppGraph g("huge");
  g.add_component({.name = "x", .cpu_milli = 9000, .memory_mb = 64});
  EXPECT_FALSE(K3sScheduler().schedule(PreparedApp(g), f.cluster, *f.view).ok());
}

TEST(Rescheduler, PrefersNodeWithMostDependencies) {
  MeshFixture f;
  app::AppGraph g("deps");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});   // migrating
  g.add_component({.name = "d1", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d2", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d3", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  g.add_dependency({.from = 0, .to = 2, .bandwidth = net::mbps(1)});
  g.add_dependency({.from = 3, .to = 0, .bandwidth = net::mbps(1)});
  Placement p{0, 2, 2, 3};
  // Mark current resource usage.
  f.cluster.allocate(0, 500, 64);
  f.cluster.allocate(2, 1000, 128);
  f.cluster.allocate(3, 500, 64);
  const auto target = pick_migration_target(g, p, 0, f.cluster, *f.view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 2);  // two dependencies live on node 2
}

TEST(Rescheduler, NeverReturnsCurrentNode) {
  MeshFixture f;
  app::AppGraph g("pair");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  Placement p{1, 1};
  const auto target = pick_migration_target(g, p, 0, f.cluster, *f.view);
  ASSERT_TRUE(target.has_value());
  EXPECT_NE(*target, 1);
}

TEST(Rescheduler, PinnedComponentNeverMoves) {
  MeshFixture f;
  app::AppGraph g("pin");
  app::Component c{.name = "clients"};
  c.pinned_node = 2;
  g.add_component(c);
  Placement p{2};
  EXPECT_FALSE(pick_migration_target(g, p, 0, f.cluster, *f.view).has_value());
}

TEST(Rescheduler, NoTargetWhenClusterFull) {
  MeshFixture f;
  for (int i = 0; i < 4; ++i) f.cluster.allocate(i, 4000, 1024);
  app::AppGraph g("full");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  Placement p{0};
  EXPECT_FALSE(pick_migration_target(g, p, 0, f.cluster, *f.view).has_value());
}

TEST(Rescheduler, RespectsBandwidthOnTarget) {
  // Node 3 has a starved link; the component's 5 Mbps edge cannot terminate
  // there, so the rescheduler must pick a different node.
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, net::mbps(50));
  topo.add_link(0, 2, net::kbps(100));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  for (int i = 0; i < 3; ++i) cl.add_node(i, {4000, 1024, true});
  app::AppGraph g("bw");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "peer", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(5)});
  Placement p{0, 0};
  cl.allocate(0, 1000, 128);
  const auto target = pick_migration_target(g, p, 0, cl, view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 1);  // node 2 is bandwidth-infeasible
}

TEST(Rescheduler, ReservationsAccumulateAcrossEdges) {
  // The migrating component m talks to d1 and d2, both on the full node 2.
  // From node 1 each 3 Mbps edge fits the 5 Mbps 1-2 link alone but not
  // together, so the rescheduler must skip node 1 (the best-ranked
  // candidate) for node 3.
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_node();
  topo.add_link(0, 2, net::gbps(1));
  topo.add_link(1, 2, net::mbps(5));
  topo.add_link(3, 2, net::gbps(1));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {4000, 1024, true});
  cl.add_node(1, {8000, 1024, true});
  cl.add_node(2, {4000, 1024, true});
  cl.add_node(3, {4000, 1024, true});
  app::AppGraph g("accum");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d1", .cpu_milli = 2000, .memory_mb = 64});
  g.add_component({.name = "d2", .cpu_milli = 2000, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(3)});
  g.add_dependency({.from = 0, .to = 2, .bandwidth = net::mbps(3)});
  const Placement p{0, 2, 2};
  cl.allocate(0, 500, 64);
  cl.allocate(2, 4000, 128);
  const auto target = pick_migration_target(g, p, 0, cl, view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 3);
}

TEST(K3sScheduler, ChargesPinnedComponents) {
  // Node 0 can hold the pinned p or q, not both: q must go to node 1.
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::mbps(100));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {2000, 4096, true});
  cl.add_node(1, {1000, 4096, true});
  app::AppGraph g("pinned");
  app::Component p{.name = "p", .cpu_milli = 1500, .memory_mb = 256};
  p.pinned_node = 0;
  g.add_component(p);
  g.add_component({.name = "q", .cpu_milli = 1000, .memory_mb = 256});
  const auto r = K3sScheduler().schedule(PreparedApp(g), cl, view);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(node_of(r.value(), 0), 0);
  EXPECT_EQ(node_of(r.value(), 1), 1);
}

TEST(Scheduler, RejectsUnknownPinnedNode) {
  MeshFixture f;
  app::AppGraph g("stray");
  g.add_component({.name = "svc", .cpu_milli = 500, .memory_mb = 64});
  app::Component clients{.name = "clients@node7", .cpu_milli = 0, .memory_mb = 0};
  clients.pinned_node = 7;  // the cluster has nodes 0..3
  g.add_component(clients);
  BassScheduler bfs(Heuristic::kBreadthFirst);
  BassScheduler lp(Heuristic::kLongestPath);
  BassScheduler automatic(Heuristic::kAuto);
  K3sScheduler k3s;
  Scheduler* schedulers[] = {&bfs, &lp, &automatic, &k3s};
  for (Scheduler* s : schedulers) {
    const auto r = s->schedule(PreparedApp(g), f.cluster, *f.view);
    ASSERT_FALSE(r.ok()) << s->name();
    EXPECT_NE(r.error().find("clients@node7"), std::string::npos) << r.error();
  }

  // A zero-demand attachment point stays placeable on a known node, even a
  // cordoned one.
  f.cluster.set_schedulable(3, false);
  g.component(1).pinned_node = 3;
  for (Scheduler* s : schedulers) {
    const auto r = s->schedule(PreparedApp(g), f.cluster, *f.view);
    ASSERT_TRUE(r.ok()) << s->name() << ": " << r.error();
    EXPECT_EQ(node_of(r.value(), 1), 3);
  }
}

}  // namespace
}  // namespace bass::sched

namespace bass::sched {
namespace {

TEST(K3sScheduler, MostAllocatedBinPacks) {
  MeshFixture f;
  app::AppGraph g("pack");
  for (int i = 0; i < 4; ++i) {
    g.add_component({.name = "s" + std::to_string(i), .cpu_milli = 500, .memory_mb = 64});
  }
  const auto r = K3sScheduler(K3sScoring::kMostAllocated)
      .schedule(PreparedApp(g), f.cluster, *f.view);
  ASSERT_TRUE(r.ok());
  std::set<net::NodeId> used;
  for (net::NodeId n : r.value()) used.insert(n);
  // All four pods pile onto one node (they fit).
  EXPECT_EQ(used.size(), 1u);
}

TEST(K3sScheduler, MostAllocatedStillBandwidthOblivious) {
  // Even the bin-packing variant happily splits a heavy pair when CPU
  // forces it, without consulting the link.
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::kbps(1));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {1000, 1024, true});
  cl.add_node(1, {1000, 1024, true});
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 800, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 800, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(50)});
  const auto r = K3sScheduler(K3sScoring::kMostAllocated)
      .schedule(PreparedApp(g), cl, view);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().at(0), r.value().at(1));
}

TEST(K3sScheduler, Names) {
  EXPECT_EQ(K3sScheduler().name(), "k3s-default");
  EXPECT_EQ(K3sScheduler(K3sScoring::kMostAllocated).name(), "k3s-most-allocated");
}

}  // namespace
}  // namespace bass::sched

namespace bass::sched {
namespace {

// A full mesh of identical 1 Gbps LAN links, as in the Fig. 10/11 rigs.
struct LanFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<NetworkView> view;

  LanFixture(int nodes, std::int64_t cpu_milli, std::int64_t memory_mb) {
    net::Topology topo;
    for (int i = 0; i < nodes; ++i) topo.add_node();
    for (int i = 0; i < nodes; ++i) {
      for (int j = i + 1; j < nodes; ++j) topo.add_link(i, j, net::gbps(1));
    }
    network = std::make_unique<net::Network>(sim, std::move(topo));
    view = std::make_unique<NetworkView>(*network);
    for (int i = 0; i < nodes; ++i) cluster.add_node(i, {cpu_milli, memory_mb, true});
  }
};

// Exact placement vectors (node per component id) of the catalog apps under
// every scheduler, on the Fig. 10 3-node cluster and the Fig. 11 4-node
// cluster. An empty vector means the scheduler must fail. Any change to
// ranking, packing or bandwidth bookkeeping that moves a component shows
// up here.
TEST(Scheduler, GoldenCatalogPlacements) {
  using Nodes = std::vector<net::NodeId>;
  struct Case {
    int cluster;  // 0 = Fig. 10, 1 = Fig. 11
    const char* app;
    const char* scheduler;
    Nodes expected;
  };
  const std::vector<Case> cases = {
      {0, "camera", "bass-bfs", {0, 0, 1, 1, 1}},
      {0, "camera", "bass-longest-path", {0, 0, 1, 1, 0}},
      {0, "camera", "bass-auto", {0, 0, 1, 1, 1}},
      {0, "camera", "k3s-default", {0, 1, 2, 0, 0}},
      {0, "social", "bass-bfs",
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0}},
      {0, "social", "bass-longest-path",
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1}},
      {0, "social", "bass-auto",
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1}},
      {0, "social", "k3s-default",
       {0, 1, 2, 2, 2, 1, 0, 2, 1, 0, 2, 1, 2, 0, 2, 1, 0, 2, 0, 1, 0, 2, 1, 2, 0, 1, 2}},
      {0, "conference", "bass-bfs", {0, 0, 1, 2}},
      {0, "conference", "bass-longest-path", {0, 0, 1, 2}},
      {0, "conference", "bass-auto", {0, 0, 1, 2}},
      {0, "conference", "k3s-default", {0, 0, 1, 2}},
      // The 8-core detector fits no 4-core d710.
      {1, "camera", "bass-bfs", {}},
      {1, "camera", "bass-longest-path", {}},
      {1, "camera", "bass-auto", {}},
      {1, "camera", "k3s-default", {}},
      {1, "social", "bass-bfs",
       {0, 1, 1, 2, 1, 2, 2, 2, 1, 0, 0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 2, 2, 2, 3, 3, 2, 2}},
      {1, "social", "bass-longest-path",
       {0, 0, 1, 0, 2, 1, 1, 2, 1, 0, 1, 0, 1, 2, 0, 2, 1, 2, 2, 1, 2, 1, 3, 1, 2, 2, 3}},
      {1, "social", "bass-auto",
       {0, 1, 1, 2, 1, 2, 2, 2, 1, 0, 0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 2, 2, 2, 3, 3, 2, 2}},
      {1, "social", "k3s-default",
       {0, 1, 2, 3, 3, 2, 3, 2, 1, 3, 0, 2, 1, 0, 3, 1, 2, 0, 3, 2, 1, 0, 3, 2, 0, 1, 2}},
      {1, "conference", "bass-bfs", {0, 0, 1, 2}},
      {1, "conference", "bass-longest-path", {0, 0, 1, 2}},
      {1, "conference", "bass-auto", {0, 0, 1, 2}},
      {1, "conference", "k3s-default", {0, 0, 1, 2}},
  };

  BassScheduler bfs(Heuristic::kBreadthFirst);
  BassScheduler lp(Heuristic::kLongestPath);
  BassScheduler automatic(Heuristic::kAuto);
  K3sScheduler k3s;
  Scheduler* schedulers[] = {&bfs, &lp, &automatic, &k3s};
  for (const Case& c : cases) {
    LanFixture f(c.cluster == 0 ? 3 : 4, c.cluster == 0 ? 12000 : 4000,
                 c.cluster == 0 ? 131072 : 12288);
    const app::AppGraph g =
        std::string(c.app) == "camera"   ? app::camera_pipeline_app()
        : std::string(c.app) == "social" ? app::social_network_app()
                                         : app::video_conference_app(
                                               {{0, 2}, {1, 3}, {2, 1}}, net::kbps(1500));
    for (Scheduler* s : schedulers) {
      if (s->name() != c.scheduler) continue;
      SCOPED_TRACE(std::string(c.app) + " / " + c.scheduler + " / cluster " +
                   std::to_string(c.cluster));
      const auto r = s->schedule(PreparedApp(g), f.cluster, *f.view);
      ASSERT_EQ(r.ok(), !c.expected.empty());
      if (!r.ok()) continue;
      Nodes got;
      for (app::ComponentId id = 0; id < g.component_count(); ++id) {
        got.push_back(node_of(r.value(), id));
      }
      EXPECT_EQ(got, c.expected);
    }
  }
}

}  // namespace
}  // namespace bass::sched

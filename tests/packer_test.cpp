#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "app/catalog.h"
#include "sched/heuristics.h"
#include "sched/node_ranker.h"
#include "sched/packer.h"
#include "sim/simulation.h"

namespace bass::sched {
namespace {

// Two 12-core worker nodes on a fast LAN (the Fig. 10 microbenchmark shape:
// 16-core machines with ~12 cores allocatable after system reservations).
struct TwoNodeFixture {
  sim::Simulation sim;
  net::Topology topo;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<NetworkView> view;

  explicit TwoNodeFixture(net::Bps link = net::gbps(1)) {
    const auto a = topo.add_node("node1"), b = topo.add_node("node2");
    topo.add_link(a, b, link);
    network = std::make_unique<net::Network>(sim, topo);
    view = std::make_unique<NetworkView>(*network);
    cluster.add_node(a, {12000, 65536, true});
    cluster.add_node(b, {12000, 65536, true});
  }

  PackInput input() {
    ranker_.rank(cluster, *view);
    return PackInput{app_, cluster, *view, ranker_};
  }

  void set_app(app::AppGraph g) { app_ = std::move(g); }
  const app::AppGraph& app() const { return app_; }

 private:
  app::AppGraph app_{"unset"};
  NodeRanker ranker_;  // input()'s ranking, which it refers to
};

TEST(Packer, SequentialPacksCameraLikeThePaper) {
  TwoNodeFixture f;
  f.set_app(app::camera_pipeline_app());
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  ASSERT_TRUE(r.ok()) << r.error();
  const Placement& p = r.value();
  // Fig. 10(b): BFS puts camera+sampler together; detector (8 cores)
  // doesn't fit with them on a 12-core node, so it and the listeners land
  // on the second node.
  const auto n = [&](const char* name) { return p.at(f.app().find(name)); };
  EXPECT_EQ(n("camera-stream"), n("frame-sampler"));
  EXPECT_NE(n("camera-stream"), n("object-detector"));
  EXPECT_EQ(n("object-detector"), n("image-listener"));
  EXPECT_EQ(n("object-detector"), n("label-listener"));
}

TEST(Packer, PathPackPutsLeftoverBackOnFirstNode) {
  TwoNodeFixture f;
  f.set_app(app::camera_pipeline_app());
  const auto r = Packer().path_pack(f.input(), longest_path_paths(f.app()));
  ASSERT_TRUE(r.ok()) << r.error();
  const Placement& p = r.value();
  const auto n = [&](const char* name) { return p.at(f.app().find(name)); };
  // The heaviest path breaks at the detector (capacity), continuing on
  // node2; the leftover label-listener first-fits back onto node1.
  EXPECT_EQ(n("camera-stream"), n("frame-sampler"));
  EXPECT_NE(n("frame-sampler"), n("object-detector"));
  EXPECT_EQ(n("object-detector"), n("image-listener"));
  EXPECT_EQ(n("label-listener"), n("camera-stream"));
}

TEST(Packer, EverythingOnOneNodeWhenItFits) {
  TwoNodeFixture f;
  app::AppGraph g("small");
  for (int i = 0; i < 4; ++i) {
    g.add_component({.name = "s" + std::to_string(i), .cpu_milli = 1000, .memory_mb = 64});
  }
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(5)});
  g.add_dependency({.from = 1, .to = 2, .bandwidth = net::mbps(5)});
  g.add_dependency({.from = 2, .to = 3, .bandwidth = net::mbps(5)});
  f.set_app(std::move(g));
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  ASSERT_TRUE(r.ok());
  std::set<net::NodeId> used;
  for (net::NodeId n : r.value()) used.insert(n);
  EXPECT_EQ(used.size(), 1u);
}

TEST(Packer, FailsWhenCpuExhausted) {
  TwoNodeFixture f;
  app::AppGraph g("huge");
  g.add_component({.name = "x", .cpu_milli = 20000, .memory_mb = 64});
  f.set_app(std::move(g));
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("x"), std::string::npos);
}

TEST(Packer, FallbackUsesStrandedCapacity) {
  TwoNodeFixture f;
  app::AppGraph g("stranded");
  // Order: small(4) big(10) small(4). Advance-only would strand node1's
  // remaining 8 cores when the final small lands; the first-fit fallback
  // must recover.
  g.add_component({.name = "a", .cpu_milli = 4000, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 10000, .memory_mb = 64});
  g.add_component({.name = "c", .cpu_milli = 4000, .memory_mb = 64});
  g.add_component({.name = "d", .cpu_milli = 2000, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(9)});
  g.add_dependency({.from = 1, .to = 2, .bandwidth = net::mbps(8)});
  g.add_dependency({.from = 2, .to = 3, .bandwidth = net::mbps(7)});
  f.set_app(std::move(g));
  // BFS order a,b,c,d: node1 {a}, b->node2, c->node2 (4+10... no: 14>12 so
  // c fits node2? 10+4=14>12 -> fallback finds node1). Either way all four
  // must place.
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().size(), 4u);
}

TEST(Packer, BandwidthConstraintForcesColocation) {
  // Thin 1 Mbps link; the 5 Mbps edge cannot cross it, so the second
  // component must co-locate despite CPU pressure... and if it cannot fit,
  // packing fails.
  TwoNodeFixture f(net::mbps(1));
  app::AppGraph g("bw");
  g.add_component({.name = "p", .cpu_milli = 8000, .memory_mb = 64});
  g.add_component({.name = "q", .cpu_milli = 2000, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(5)});
  f.set_app(std::move(g));
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().at(0), r.value().at(1));
}

TEST(Packer, BandwidthInfeasibleFails) {
  TwoNodeFixture f(net::mbps(1));
  app::AppGraph g("bw-fail");
  g.add_component({.name = "p", .cpu_milli = 8000, .memory_mb = 64});
  g.add_component({.name = "q", .cpu_milli = 8000, .memory_mb = 64});  // can't colocate
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(5)});
  f.set_app(std::move(g));
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  EXPECT_FALSE(r.ok());
}

TEST(Packer, ReservationsAccumulateAcrossEdges) {
  // Link fits one 3 Mbps edge but not two.
  TwoNodeFixture f(net::mbps(5));
  app::AppGraph g("accum");
  g.add_component({.name = "a", .cpu_milli = 6000, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 6000, .memory_mb = 64});
  g.add_component({.name = "c", .cpu_milli = 6000, .memory_mb = 64});
  g.add_component({.name = "d", .cpu_milli = 2000, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(3)});
  g.add_dependency({.from = 2, .to = 3, .bandwidth = net::mbps(3)});
  f.set_app(std::move(g));
  // Pairs (a,b) and (c,d) each need 3 Mbps if split. Capacity allows only
  // one crossing edge; with 12-core nodes each node fits two components,
  // so a feasible packing exists: {a,b} | {c,d} (or similar).
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  ASSERT_TRUE(r.ok()) << r.error();
  const Placement& p = r.value();
  int crossings = 0;
  for (const auto& e : f.app().edges()) {
    if (p.at(e.from) != p.at(e.to)) ++crossings;
  }
  EXPECT_LE(crossings, 1);
}

TEST(Packer, PinnedComponentsStayPut) {
  TwoNodeFixture f;
  app::AppGraph g("pinned");
  app::Component sfu{.name = "sfu", .cpu_milli = 1000, .memory_mb = 64};
  g.add_component(sfu);
  app::Component clients{.name = "clients", .cpu_milli = 0, .memory_mb = 0};
  clients.pinned_node = 1;
  g.add_component(clients);
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(2)});
  f.set_app(std::move(g));
  const auto r = Packer().sequential_pack(f.input(), bfs_order(f.app()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(1), 1);
}

TEST(Packer, RejectsPinnedComponentThatDoesNotFit) {
  TwoNodeFixture f;
  app::AppGraph g("pinned");
  g.add_component({.name = "svc", .cpu_milli = 1000, .memory_mb = 64});
  // Each pin fits node2 alone; together they need 14 of its 12 cores.
  for (const char* name : {"gw-a", "gw-b"}) {
    app::Component gw{.name = name, .cpu_milli = 7000, .memory_mb = 64};
    gw.pinned_node = 1;
    g.add_component(gw);
  }
  f.set_app(std::move(g));
  for (const auto& r : {Packer().sequential_pack(f.input(), bfs_order(f.app())),
                        Packer().path_pack(f.input(), longest_path_paths(f.app()))}) {
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("gw-b"), std::string::npos) << r.error();
  }
}

}  // namespace
}  // namespace bass::sched

namespace bass::sched {
namespace {

TEST(Packer, LatencyConstraintForcesNearPlacement) {
  // Line topology 0-1-2: two hops from node 0 to node 2 at 1 ms each.
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, net::gbps(1));
  topo.add_link(1, 2, net::gbps(1));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  // Components of 8 cores each: two cannot share a 12-core node.
  cl.add_node(0, {12000, 65536, true});
  cl.add_node(1, {12000, 65536, true});
  cl.add_node(2, {12000, 65536, true});

  app::AppGraph g("latency");
  g.add_component({.name = "a", .cpu_milli = 8000, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 8000, .memory_mb = 64});
  app::Edge e{.from = 0, .to = 1, .bandwidth = net::mbps(1)};
  e.max_latency = sim::millis(1);  // at most one hop apart
  g.add_dependency(e);

  NodeRanker ranker;
  ranker.rank(cl, view);
  const auto r = Packer().sequential_pack(PackInput{g, cl, view, ranker}, bfs_order(g));
  ASSERT_TRUE(r.ok()) << r.error();
  const auto na = r.value().at(0);
  const auto nb = r.value().at(1);
  EXPECT_NE(na, nb);  // they can't share (CPU)
  EXPECT_LE(view.path_latency(na, nb), sim::millis(1));
}

TEST(Packer, LatencyConstraintCanMakePackingInfeasible) {
  // Two nodes three hops apart would be needed, but only a 2-hop-separated
  // pair of nodes has capacity: infeasible under a 1-hop latency budget.
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, net::gbps(1));
  topo.add_link(1, 2, net::gbps(1));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {8000, 65536, true});
  cl.add_node(2, {8000, 65536, true});  // node 1 not schedulable (absent)

  app::AppGraph g("latency-fail");
  g.add_component({.name = "a", .cpu_milli = 8000, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 8000, .memory_mb = 64});
  app::Edge e{.from = 0, .to = 1, .bandwidth = net::mbps(1)};
  e.max_latency = sim::millis(1);  // nodes 0 and 2 are 2 ms apart
  g.add_dependency(e);

  NodeRanker ranker;
  ranker.rank(cl, view);
  const auto r = Packer().sequential_pack(PackInput{g, cl, view, ranker}, bfs_order(g));
  EXPECT_FALSE(r.ok());
}

TEST(Packer, UnconstrainedLatencyIgnoresHops) {
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, net::gbps(1));
  topo.add_link(1, 2, net::gbps(1));
  net::Network network(sim, std::move(topo));
  NetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {8000, 65536, true});
  cl.add_node(2, {8000, 65536, true});
  app::AppGraph g("free");
  g.add_component({.name = "a", .cpu_milli = 8000, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 8000, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  NodeRanker ranker;
  ranker.rank(cl, view);
  const auto r = Packer().sequential_pack(PackInput{g, cl, view, ranker}, bfs_order(g));
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace bass::sched

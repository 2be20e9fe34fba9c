#include <gtest/gtest.h>

#include "app/app_graph.h"
#include "app/catalog.h"

namespace bass::app {
namespace {

TEST(AppGraph, BuildAndLookup) {
  AppGraph g("test");
  const ComponentId a = g.add_component({.name = "a"});
  const ComponentId b = g.add_component({.name = "b"});
  g.add_dependency({.from = a, .to = b, .bandwidth = net::mbps(5)});
  EXPECT_EQ(g.component_count(), 2);
  EXPECT_EQ(g.find("b"), b);
  EXPECT_EQ(g.find("zzz"), kInvalidComponent);
  ASSERT_EQ(g.out_edges(a).size(), 1u);
  EXPECT_EQ(g.out_edges(a)[0].to, b);
  EXPECT_EQ(g.in_edges(b)[0].from, a);
  EXPECT_EQ(g.in_degree(a), 0);
  EXPECT_EQ(g.in_degree(b), 1);
}

TEST(AppGraph, TopoOrderRespectsEdges) {
  AppGraph g("test");
  const ComponentId a = g.add_component({.name = "a"});
  const ComponentId b = g.add_component({.name = "b"});
  const ComponentId c = g.add_component({.name = "c"});
  g.add_dependency({.from = c, .to = b});
  g.add_dependency({.from = b, .to = a});
  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], c);
  EXPECT_EQ(order[1], b);
  EXPECT_EQ(order[2], a);
}

TEST(AppGraph, CycleDetected) {
  AppGraph g("cyclic");
  const ComponentId a = g.add_component({.name = "a"});
  const ComponentId b = g.add_component({.name = "b"});
  g.add_dependency({.from = a, .to = b});
  g.add_dependency({.from = b, .to = a});
  EXPECT_TRUE(g.topo_order().empty());
  std::string error;
  EXPECT_FALSE(g.validate(&error));
  EXPECT_NE(error.find("cycle"), std::string::npos);
}

TEST(AppGraph, ValidateEmptyApp) {
  AppGraph g("empty");
  EXPECT_FALSE(g.validate());
}

TEST(AppGraph, ValidateBadProbability) {
  AppGraph g("bad");
  const ComponentId a = g.add_component({.name = "a"});
  const ComponentId b = g.add_component({.name = "b"});
  g.add_dependency({.from = a, .to = b, .bandwidth = 1, .probability = 1.5});
  EXPECT_FALSE(g.validate());
}

TEST(AppGraph, Totals) {
  AppGraph g("totals");
  g.add_component({.name = "a", .cpu_milli = 1000, .memory_mb = 256});
  g.add_component({.name = "b", .cpu_milli = 2000, .memory_mb = 512});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(3)});
  EXPECT_EQ(g.total_cpu_milli(), 3000);
  EXPECT_EQ(g.total_memory_mb(), 768);
  EXPECT_EQ(g.total_bandwidth(), net::mbps(3));
}

TEST(Catalog, Fig6Example) {
  const AppGraph g = fig6_example();
  EXPECT_EQ(g.component_count(), 7);
  EXPECT_TRUE(g.validate());
  // Component "1" is the unique root.
  EXPECT_EQ(g.in_degree(g.find("1")), 0);
}

TEST(Catalog, CameraPipeline) {
  const AppGraph g = camera_pipeline_app();
  EXPECT_EQ(g.component_count(), 5);
  EXPECT_TRUE(g.validate());
  const ComponentId det = g.find("object-detector");
  ASSERT_NE(det, kInvalidComponent);
  EXPECT_EQ(g.component(det).cpu_milli, 8000);  // §6.3.1: 8 cores
  EXPECT_EQ(g.component(g.find("frame-sampler")).cpu_milli, 4000);
  EXPECT_EQ(g.out_edges(det).size(), 2u);  // image + label listeners
}

TEST(Catalog, SocialNetworkHas27Components) {
  const AppGraph g = social_network_app();
  EXPECT_EQ(g.component_count(), 27);  // §6.1: 27 microservices
  EXPECT_TRUE(g.validate());
  // The frontend is the root of the request DAG.
  EXPECT_EQ(g.in_degree(g.find("nginx-web-server")), 0);
  // Paper's Fig. 11 cluster: 4 nodes x 4 cores; the app must fit.
  EXPECT_LE(g.total_cpu_milli(), 16000);
}

TEST(Catalog, VideoConferencePinnedClients) {
  const AppGraph g = video_conference_app({{1, 3}, {2, 3}}, net::kbps(800));
  EXPECT_EQ(g.component_count(), 3);  // sfu + 2 client groups
  EXPECT_TRUE(g.validate());          // pinned edges must not form cycles
  const ComponentId sfu = g.find("pion-sfu");
  EXPECT_FALSE(g.component(sfu).pinned_node.has_value());
  const ComponentId cg1 = g.find("clients@node1");
  ASSERT_NE(cg1, kInvalidComponent);
  EXPECT_EQ(g.component(cg1).pinned_node, 1);
  // Pair requirement: downlink 3 clients x 5 other participants plus
  // uplink 3 publishers, at 800 Kbps per stream.
  bool found = false;
  for (const Edge& e : g.edges()) {
    if (e.from == sfu && e.to == cg1) {
      EXPECT_EQ(e.bandwidth, net::kbps(800) * (3 * 5 + 3));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Catalog, VideoConferenceSingleNode) {
  const AppGraph g = video_conference_app({{0, 9}}, net::kbps(500));
  // 9 participants at one node: downlink 9 x 8 plus uplink 9, x 500 Kbps.
  const ComponentId sfu = g.find("pion-sfu");
  const auto edges = g.out_edges(sfu);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].bandwidth, net::kbps(500) * (9 * 8 + 9));
}

}  // namespace
}  // namespace bass::app

#include "app/dot.h"

namespace bass::app {
namespace {

TEST(Dot, PlainGraphListsComponentsAndEdges) {
  const AppGraph g = camera_pipeline_app();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph \"camera-pipeline\""), std::string::npos);
  EXPECT_NE(dot.find("camera-stream"), std::string::npos);
  EXPECT_NE(dot.find("label=\"4.0M\""), std::string::npos);
  EXPECT_EQ(dot.find("cluster_node"), std::string::npos);
  EXPECT_EQ(dot.find("color=red"), std::string::npos);
}

TEST(Dot, PlacementClustersAndHighlightsCrossings) {
  AppGraph g("xy");
  g.add_component({.name = "x"});
  g.add_component({.name = "y"});
  g.add_component({.name = "z"});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::kbps(500)});
  g.add_dependency({.from = 1, .to = 2, .bandwidth = net::mbps(2)});
  const std::vector<net::NodeId> placement{0, 0, 1};
  const std::string dot = to_dot(g, &placement);
  EXPECT_NE(dot.find("cluster_node0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_node1"), std::string::npos);
  // Only the crossing edge (y->z) is red.
  const auto first_red = dot.find("color=red");
  ASSERT_NE(first_red, std::string::npos);
  EXPECT_EQ(dot.find("color=red", first_red + 1), std::string::npos);
  EXPECT_NE(dot.find("label=\"500K\""), std::string::npos);
}

}  // namespace
}  // namespace bass::app

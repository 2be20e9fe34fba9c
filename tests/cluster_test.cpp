#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace bass::cluster {
namespace {

TEST(Cluster, AddAndQuery) {
  ClusterState c;
  c.add_node(0, {16000, 131072, true});
  c.add_node(2, {4000, 12288, true});  // ids need not be contiguous
  EXPECT_TRUE(c.has_node(0));
  EXPECT_FALSE(c.has_node(1));
  EXPECT_TRUE(c.has_node(2));
  EXPECT_EQ(c.spec(0).cpu_milli, 16000);
  EXPECT_EQ(c.cpu_free(2), 4000);
}

TEST(Cluster, AllocateAndRelease) {
  ClusterState c;
  c.add_node(0, {4000, 1024, true});
  EXPECT_TRUE(c.allocate(0, 3000, 512));
  EXPECT_EQ(c.cpu_free(0), 1000);
  EXPECT_EQ(c.memory_free(0), 512);
  EXPECT_FALSE(c.allocate(0, 2000, 100));  // cpu exhausted
  EXPECT_EQ(c.cpu_free(0), 1000);          // failed allocate changes nothing
  c.release(0, 3000, 512);
  EXPECT_EQ(c.cpu_free(0), 4000);
}

TEST(Cluster, CanFitChecksBothResources) {
  ClusterState c;
  c.add_node(0, {4000, 1024, true});
  EXPECT_TRUE(c.can_fit(0, 4000, 1024));
  EXPECT_FALSE(c.can_fit(0, 4001, 1));
  EXPECT_FALSE(c.can_fit(0, 1, 1025));
  EXPECT_FALSE(c.can_fit(99, 1, 1));  // unknown node
}

TEST(Cluster, UnschedulableNode) {
  ClusterState c;
  c.add_node(0, {4000, 1024, false});
  c.add_node(1, {4000, 1024, true});
  EXPECT_FALSE(c.can_fit(0, 1, 1));
  EXPECT_EQ(c.schedulable_nodes(), (std::vector<net::NodeId>{1}));
  EXPECT_EQ(c.nodes().size(), 2u);
}

TEST(Cluster, ZeroDemandAlwaysFitsOnSchedulable) {
  ClusterState c;
  c.add_node(0, {0, 0, true});
  EXPECT_TRUE(c.can_fit(0, 0, 0));
  EXPECT_TRUE(c.allocate(0, 0, 0));
}

}  // namespace
}  // namespace bass::cluster

#include "sched/node_ranker.h"
#include "sched/network_view.h"
#include "sim/simulation.h"

#include <memory>

namespace bass::cluster {
namespace {

TEST(Cluster, SetSchedulableCordonsAndUncordons) {
  ClusterState c;
  c.add_node(0, {4000, 1024, true});
  c.set_schedulable(0, false);
  EXPECT_FALSE(c.can_fit(0, 1, 1));
  EXPECT_TRUE(c.schedulable_nodes().empty());
  c.set_schedulable(0, true);
  EXPECT_TRUE(c.can_fit(0, 1, 1));
}

TEST(NodeRanker, OrdersByCpuThenLinksThenMemory) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node(), b = topo.add_node(), c = topo.add_node();
  topo.add_link(a, b, net::mbps(10));
  topo.add_link(b, c, net::mbps(30));
  topo.add_link(a, c, net::mbps(10));
  net::Network network(sim, std::move(topo));
  sched::NetworkView view(network);

  ClusterState cl;
  cl.add_node(a, {4000, 1024, true});
  cl.add_node(b, {4000, 1024, true});
  cl.add_node(c, {8000, 1024, true});
  // c has the most CPU; between a (20M of links) and b (40M), b wins.
  const auto ranked = sched::rank_nodes(cl, view);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], c);
  EXPECT_EQ(ranked[1], b);
  EXPECT_EQ(ranked[2], a);

  // Allocations change the ranking: drain c's CPU and it falls to last.
  cl.allocate(c, 7000, 0);
  const auto reranked = sched::rank_nodes(cl, view);
  EXPECT_EQ(reranked[0], b);
  EXPECT_EQ(reranked[2], c);
}

TEST(NodeRanker, ExcludesUnschedulable) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node(), b = topo.add_node();
  topo.add_link(a, b, net::mbps(10));
  net::Network network(sim, std::move(topo));
  sched::NetworkView view(network);
  ClusterState cl;
  cl.add_node(a, {4000, 1024, false});
  cl.add_node(b, {2000, 1024, true});
  const auto ranked = sched::rank_nodes(cl, view);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], b);
}

}  // namespace
}  // namespace bass::cluster

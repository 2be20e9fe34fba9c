#include <gtest/gtest.h>

#include "net/topology.h"

namespace bass::net {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node();
  EXPECT_EQ(t.node_count(), 2);
  EXPECT_EQ(t.node_name(a), "a");
  EXPECT_EQ(t.node_name(b), "node1");

  const auto [ab, ba] = t.add_link(a, b, mbps(10), mbps(5));
  EXPECT_EQ(t.link_count(), 2);
  EXPECT_EQ(t.link(ab).src, a);
  EXPECT_EQ(t.link(ab).dst, b);
  EXPECT_EQ(t.link(ab).capacity, mbps(10));
  EXPECT_EQ(t.link(ba).capacity, mbps(5));
}

TEST(Topology, LinkBetween) {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  const auto [ab, ba] = t.add_link(a, b, mbps(10));
  EXPECT_EQ(t.link_between(a, b), ab);
  EXPECT_EQ(t.link_between(b, a), ba);
  EXPECT_FALSE(t.link_between(a, c).has_value());
}

TEST(Topology, SetCapacity) {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node();
  const auto [ab, ba] = t.add_link(a, b, mbps(10));
  (void)ba;
  t.set_capacity(ab, mbps(3));
  EXPECT_EQ(t.link(ab).capacity, mbps(3));
}

TEST(Topology, OutLinks) {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  t.add_link(a, b, mbps(1));
  t.add_link(a, c, mbps(1));
  EXPECT_EQ(t.out_links(a).size(), 2u);
  EXPECT_EQ(t.out_links(b).size(), 1u);
}

TEST(Units, Helpers) {
  EXPECT_EQ(kbps(240), 240'000);
  EXPECT_EQ(mbps(25), 25'000'000);
  EXPECT_EQ(gbps(1), 1'000'000'000);
}

}  // namespace
}  // namespace bass::net

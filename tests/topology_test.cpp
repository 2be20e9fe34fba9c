#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "net/topology.h"
#include "scenario/scenario.h"
#include "topo/city_grid.h"
#include "util/ini.h"

namespace bass::net {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node();
  EXPECT_EQ(t.node_count(), 2);
  EXPECT_EQ(t.node_name(a), "a");
  EXPECT_EQ(t.node_name(b), "node1");
  EXPECT_EQ(t.find_node("a"), a);
  EXPECT_EQ(t.find_node("node1"), b);
  EXPECT_EQ(t.find_node("A"), kInvalidNode);

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
  // a->b takes the even id, b->a the odd one after it.
  EXPECT_EQ(ab % 2, 0);
  EXPECT_EQ(ba, ab + 1);
  EXPECT_EQ(Topology::reverse(ab), ba);
  EXPECT_EQ(Topology::reverse(ba), ab);
  // Ids outside the mesh have no links, in either position.
  EXPECT_FALSE(t.link_between(-1, b).has_value());
  EXPECT_FALSE(t.link_between(3, a).has_value());
  EXPECT_FALSE(t.link_between(a, -1).has_value());
  EXPECT_FALSE(t.link_between(a, 3).has_value());
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

// The single index's contract, checked on every link of a mesh: links come
// in pairs, reverse() swaps the endpoints, link_between finds both
// directions and nothing else, and find_node resolves every name.
void expect_paired_index(const Topology& t) {
  ASSERT_EQ(t.link_count() % 2, 0);
  for (LinkId l = 0; l < t.link_count(); ++l) {
    const Link& link = t.link(l);
    const LinkId r = Topology::reverse(l);
    ASSERT_EQ(t.link(r).src, link.dst) << "link " << l;
    ASSERT_EQ(t.link(r).dst, link.src) << "link " << l;
    ASSERT_EQ(Topology::reverse(r), l);
    ASSERT_EQ(t.link_between(link.src, link.dst), l);
    ASSERT_EQ(t.link_between(link.dst, link.src), r);
  }
  const int n = t.node_count();
  for (NodeId a = 0; a < n; ++a) {
    std::set<NodeId> neighbours;
    for (const LinkId l : t.out_links(a)) neighbours.insert(t.link(l).dst);
    for (NodeId b = -1; b <= n; ++b) {
      if (neighbours.count(b) == 0) {
        ASSERT_FALSE(t.link_between(a, b).has_value()) << a << "->" << b;
      }
    }
    EXPECT_FALSE(t.link_between(-1, a).has_value());
    EXPECT_FALSE(t.link_between(n, a).has_value());
    EXPECT_EQ(t.find_node(t.node_name(a)), a);
  }
  EXPECT_EQ(t.find_node("no-such-node"), kInvalidNode);
  EXPECT_EQ(t.find_node(""), kInvalidNode);
}

TEST(Topology, ReverseOnEveryLinkOfACityGrid) {
  topo::CityGridParams params;
  params.blocks_x = 6;
  params.blocks_y = 5;
  params.nodes_per_block = 5;
  params.gateway_every = 4;
  const auto grid = topo::make_city_grid(params);
  ASSERT_TRUE(grid.ok()) << grid.error();
  expect_paired_index(grid.value().topology);
}

TEST(Topology, ReverseOnEveryLinkOfAParsedMesh) {
  const auto path = std::filesystem::path(BASS_SOURCE_DIR) / "examples" /
                    "scenarios" / "community_mesh.ini";
  const auto ini = util::load_ini(path.string());
  ASSERT_TRUE(ini.ok()) << ini.error();
  const auto spec = scenario::build_topology(ini.value());
  ASSERT_TRUE(spec.ok()) << spec.error();
  ASSERT_GT(spec.value().topology.link_count(), 0);
  expect_paired_index(spec.value().topology);
}

TEST(Units, Helpers) {
  EXPECT_EQ(kbps(240), 240'000);
  EXPECT_EQ(mbps(25), 25'000'000);
  EXPECT_EQ(gbps(1), 1'000'000'000);
}

}  // namespace
}  // namespace bass::net

#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/routing.h"
#include "routing_reference.h"
#include "util/rng.h"

namespace bass::net {
namespace {

// The src -> dst path as its own vector.
std::vector<LinkId> path_of(const RoutingTable& rt, NodeId src, NodeId dst) {
  std::vector<LinkId> path(static_cast<std::size_t>(rt.hops(src, dst)));
  rt.copy_path(src, dst, path);
  return path;
}

// Line topology a - b - c - d.
Topology line4() {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(b, c, mbps(10));
  t.add_link(c, d, mbps(10));
  return t;
}

TEST(Routing, DirectNeighbor) {
  Topology t = line4();
  RoutingTable rt(t);
  EXPECT_EQ(rt.hops(0, 1), 1);
  ASSERT_EQ(path_of(rt, 0, 1).size(), 1u);
  EXPECT_EQ(t.link(path_of(rt, 0, 1)[0]).dst, 1);
}

TEST(Routing, MultiHopPathIsConnected) {
  Topology t = line4();
  RoutingTable rt(t);
  const auto p = path_of(rt, 0, 3);
  ASSERT_EQ(p.size(), 3u);
  NodeId at = 0;
  for (LinkId l : p) {
    EXPECT_EQ(t.link(l).src, at);
    at = t.link(l).dst;
  }
  EXPECT_EQ(at, 3);
}

TEST(Routing, SelfPathIsEmpty) {
  Topology t = line4();
  RoutingTable rt(t);
  EXPECT_TRUE(path_of(rt, 2, 2).empty());
  EXPECT_EQ(rt.hops(2, 2), 0);
  EXPECT_TRUE(rt.reachable(2, 2));
}

TEST(Routing, PrefersShortestHopCount) {
  // Square with a diagonal: a-b, b-c, a-c. a->c should use the diagonal.
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(b, c, mbps(10));
  t.add_link(a, c, mbps(1));
  RoutingTable rt(t);
  EXPECT_EQ(rt.hops(a, c), 1);
}

TEST(Routing, UnreachablePartition) {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(c, d, mbps(10));
  RoutingTable rt(t);
  EXPECT_FALSE(rt.reachable(a, c));
  EXPECT_TRUE(path_of(rt, a, c).empty());
  EXPECT_TRUE(rt.reachable(a, b));
}

TEST(Routing, DeterministicTieBreak) {
  // Two equal-length routes a->d: via b or via c. BFS explores out-links in
  // insertion order, so the route must go via b (added first) every time.
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(a, c, mbps(10));
  t.add_link(b, d, mbps(10));
  t.add_link(c, d, mbps(10));
  RoutingTable rt(t);
  ASSERT_EQ(path_of(rt, a, d).size(), 2u);
  EXPECT_EQ(t.link(path_of(rt, a, d)[0]).dst, b);
  RoutingTable rt2(t);
  EXPECT_TRUE(std::ranges::equal(path_of(rt, a, d), path_of(rt2, a, d)));
}

TEST(Routing, SymmetricReachability) {
  Topology t = line4();
  RoutingTable rt(t);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(rt.hops(u, v), rt.hops(v, u));
    }
  }
}

}  // namespace
}  // namespace bass::net

namespace bass::net {
namespace {

// Diamond: a-b-d is wide (20,20), a-c-d is narrow (5,5), plus a direct
// skinny a-d link (2).
Topology diamond() {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(20));
  t.add_link(b, d, mbps(20));
  t.add_link(a, c, mbps(5));
  t.add_link(c, d, mbps(5));
  t.add_link(a, d, mbps(2));
  return t;
}

TEST(WidestPath, PrefersFatTwoHopOverSkinnyDirect) {
  Topology t = diamond();
  RoutingTable min_hop(t, RoutingPolicy::kMinHop);
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  // Min-hop takes the direct 2 Mbps link; widest goes via b at 20 Mbps.
  EXPECT_EQ(min_hop.hops(0, 3), 1);
  ASSERT_EQ(widest.hops(0, 3), 2);
  Bps bottleneck = kUnlimitedRate;
  for (LinkId l : path_of(widest, 0, 3)) bottleneck = std::min(bottleneck, t.link(l).capacity);
  EXPECT_EQ(bottleneck, mbps(20));
}

TEST(WidestPath, TieBreaksByHops) {
  // Equal-width routes: direct (10) vs 2-hop (10,10): prefer direct.
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  t.add_link(a, c, mbps(10));
  t.add_link(a, b, mbps(10));
  t.add_link(b, c, mbps(10));
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  EXPECT_EQ(widest.hops(a, c), 1);
}

TEST(WidestPath, PathsAreConnectedAndReachable) {
  Topology t = diamond();
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_TRUE(widest.reachable(u, v));
      if (u == v) continue;
      NodeId at = u;
      for (LinkId l : path_of(widest, u, v)) {
        EXPECT_EQ(t.link(l).src, at);
        at = t.link(l).dst;
      }
      EXPECT_EQ(at, v);
    }
  }
}

TEST(WidestPath, RecomputeFollowsCapacityChanges) {
  Topology t = diamond();
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  ASSERT_EQ(widest.hops(0, 3), 2);
  // Fatten the direct link beyond the b route: routes switch on recompute.
  t.set_capacity(*t.link_between(0, 3), mbps(50));
  widest.recompute();
  EXPECT_EQ(widest.hops(0, 3), 1);
}

TEST(WidestPath, NetworkUsesConfiguredPolicy) {
  bass::sim::Simulation sim;
  NetworkConfig cfg;
  cfg.routing = RoutingPolicy::kWidestPath;
  Network network(sim, diamond(), cfg);
  EXPECT_EQ(network.routing().policy(), RoutingPolicy::kWidestPath);
  // Transfers follow the wide route: a 20 Mbit transfer at 20 Mbps takes
  // ~1 s (the skinny direct link would take 10 s).
  bass::sim::Time done_at = -1;
  network.start_transfer(0, 3, 20'000'000 / 8, [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_NEAR(bass::sim::to_seconds(done_at), 1.0, 0.05);
}

// Reference router: one search per source with every path copied out as
// its own vector — the table's results must equal it pair by pair.
struct ReferenceRoutes {
  std::vector<std::vector<LinkId>> paths;  // [src * n + dst]
  std::vector<bool> reachable;
};

ReferenceRoutes reference_routes(const Topology& topo, RoutingPolicy policy) {
  const int n = topo.node_count();
  ReferenceRoutes out{std::vector<std::vector<LinkId>>(static_cast<std::size_t>(n) * n),
                      std::vector<bool>(static_cast<std::size_t>(n) * n, false)};
  for (NodeId src = 0; src < n; ++src) {
    std::vector<LinkId> in_link(n, kInvalidLink);
    std::vector<bool> reached(n, false);
    reached[src] = true;
    if (policy == RoutingPolicy::kMinHop) {
      std::vector<NodeId> queue{src};
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (LinkId l : topo.out_links(queue[head])) {
          const NodeId v = topo.link(l).dst;
          if (reached[v]) continue;
          reached[v] = true;
          in_link[v] = l;
          queue.push_back(v);
        }
      }
    } else {
      std::vector<Bps> width(n, -1);
      std::vector<int> hops(n, 0);
      std::vector<bool> done(n, false);
      width[src] = kUnlimitedRate;
      for (;;) {
        NodeId u = kInvalidNode;
        for (NodeId v = 0; v < n; ++v) {
          if (done[v] || width[v] < 0) continue;
          if (u == kInvalidNode || width[v] > width[u] ||
              (width[v] == width[u] && hops[v] < hops[u])) {
            u = v;
          }
        }
        if (u == kInvalidNode) break;
        done[u] = true;
        reached[u] = true;
        for (LinkId l : topo.out_links(u)) {
          const NodeId v = topo.link(l).dst;
          const Bps through = std::min(width[u], topo.link(l).capacity);
          if (done[v]) continue;
          if (through > width[v] || (through == width[v] && hops[u] + 1 < hops[v])) {
            width[v] = through;
            hops[v] = hops[u] + 1;
            in_link[v] = l;
          }
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      const std::size_t i = static_cast<std::size_t>(src) * n + dst;
      out.reachable[i] = reached[dst];
      if (!reached[dst]) continue;
      for (NodeId v = dst; v != src; v = topo.link(in_link[v]).src) {
        out.paths[i].push_back(in_link[v]);
      }
      std::reverse(out.paths[i].begin(), out.paths[i].end());
    }
  }
  return out;
}

// Checks every pair of `rt` against the reference router: reachability,
// the exact link sequence, the hop count, and the table-wide summaries.
void expect_matches_reference(const Topology& t, RoutingPolicy policy, const std::string& what) {
  const int n = t.node_count();
  const RoutingTable rt(t, policy);
  const ReferenceRoutes ref = reference_routes(t, policy);
  std::size_t unreachable = 0;
  int max_hops = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t i = static_cast<std::size_t>(u) * n + v;
      ASSERT_EQ(rt.reachable(u, v), ref.reachable[i]) << what << " " << u << "->" << v;
      ASSERT_TRUE(std::ranges::equal(path_of(rt, u, v), ref.paths[i]))
          << what << " " << u << "->" << v;
      ASSERT_EQ(rt.hops(u, v), static_cast<int>(ref.paths[i].size()));
      unreachable += ref.reachable[i] ? 0 : 1;
      max_hops = std::max(max_hops, static_cast<int>(ref.paths[i].size()));
    }
  }
  EXPECT_EQ(rt.unreachable_pairs(), unreachable) << what;
  EXPECT_EQ(rt.max_hops(), max_hops) << what;
}

TEST(Routing, TreeWalkMatchesPerPathReference) {
  util::Rng rng(0x5EED);
  for (int round = 0; round < 60; ++round) {
    // Sparse random meshes with isolated nodes and repeated capacities, so
    // both unreachable pairs and equal-cost ties occur.
    Topology t;
    const int n = static_cast<int>(rng.uniform_int(1, 30));
    for (int i = 0; i < n; ++i) t.add_node();
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (!rng.chance(0.12)) continue;
        t.add_link(a, b, mbps(5 * rng.uniform_int(1, 3)), mbps(5 * rng.uniform_int(1, 3)));
      }
    }
    for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
      expect_matches_reference(t, policy, "round " + std::to_string(round));
    }
  }
}

TEST(Routing, TieHeavyMeshMatchesPerPathReference) {
  // One capacity everywhere: every widest-path decision is a tie on width,
  // so the heap's hops-then-id order alone must reproduce the reference's
  // selection scan, across many equal-hop alternatives per pair.
  util::Rng rng(0x71E5);
  for (int round = 0; round < 2; ++round) {
    Topology t;
    const int n = 220;
    for (int i = 0; i < n; ++i) t.add_node();
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.chance(0.025)) t.add_link(a, b, mbps(10));
      }
    }
    for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
      expect_matches_reference(t, policy, "tie mesh " + std::to_string(round));
    }
  }
}

// Random mesh for the oracle comparison: nodes spread over `islands`
// disconnected groups (plus the odd isolated node), each direction's
// capacity drawn on its own from `widths` values, so asymmetric links and
// equal-width ties both occur.
Topology island_mesh(util::Rng& rng, int n, int islands, int widths, double density) {
  Topology t;
  std::vector<int> island(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    t.add_node();
    island[static_cast<std::size_t>(i)] = static_cast<int>(rng.uniform_int(0, islands));
  }
  auto cap = [&] { return mbps(5 * rng.uniform_int(1, widths)); };
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      // Group `islands` holds isolated nodes: it gets no links at all.
      const int g = island[static_cast<std::size_t>(a)];
      if (g == islands || g != island[static_cast<std::size_t>(b)]) continue;
      if (rng.chance(density)) t.add_link(a, b, cap(), cap());
    }
  }
  return t;
}

// Every accessor of the compact table against the LinkId-per-pair oracle:
// hops, reachable, the copied path, the walked path (reversed, and cut
// short at every length), and the table-wide summaries.
void expect_matches_oracle(const Topology& t, const RoutingTable& rt,
                           const std::string& what) {
  const reference::LinkRoutingTable oracle(t, rt.policy());
  const int n = t.node_count();
  ASSERT_EQ(rt.max_hops(), oracle.max_hops()) << what;
  ASSERT_EQ(rt.unreachable_pairs(), oracle.unreachable_pairs()) << what;
  std::vector<LinkId> copied(static_cast<std::size_t>(rt.max_hops()));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const std::vector<LinkId> expected = oracle.path(u, v);
      ASSERT_EQ(rt.hops(u, v), oracle.hops(u, v)) << what << " " << u << "->" << v;
      ASSERT_EQ(rt.reachable(u, v), oracle.reachable(u, v)) << what << " " << u << "->" << v;
      // Walked first, and cut off past n links, so a broken tree fails
      // here rather than overrunning copy_path's buffer.
      std::vector<LinkId> walked;
      rt.walk(u, v, [&](LinkId l) {
        walked.push_back(l);
        return walked.size() <= static_cast<std::size_t>(n);
      });
      ASSERT_TRUE(std::ranges::equal(walked, std::views::reverse(expected)))
          << what << " " << u << "->" << v;
      const int hops = rt.copy_path(u, v, copied);
      ASSERT_TRUE(std::ranges::equal(std::span(copied).first(static_cast<std::size_t>(hops)),
                                     expected))
          << what << " " << u << "->" << v;
      for (std::size_t k = 0; k < walked.size(); ++k) {
        std::size_t visits = 0;
        rt.walk(u, v, [&](LinkId) { return ++visits <= k; });
        ASSERT_EQ(visits, k + 1) << what << " " << u << "->" << v;
      }
    }
  }
}

TEST(RoutingOracle, CompactTablesMatchLinkIdTables) {
  util::Rng rng(0x0AC1E);
  for (int round = 0; round < 80; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    const int islands = static_cast<int>(rng.uniform_int(1, 3));
    // One width everywhere in some rounds: every widest-path step is a tie.
    const int widths = round % 4 == 0 ? 1 : static_cast<int>(rng.uniform_int(2, 6));
    const double density = rng.uniform(0.05, 0.35);
    const Topology t = island_mesh(rng, n, islands, widths, density);
    for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
      expect_matches_oracle(t, RoutingTable(t, policy), "round " + std::to_string(round));
    }
  }
}

TEST(RoutingOracle, RecomputeMatchesOracleAfterCapacityChanges) {
  util::Rng rng(0xCA9);
  Topology t = island_mesh(rng, 36, 2, 4, 0.2);
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  for (int step = 0; step < 10; ++step) {
    for (int k = 0; k < 8 && t.link_count() > 0; ++k) {
      const auto l = static_cast<LinkId>(rng.uniform_int(0, t.link_count() - 1));
      t.set_capacity(l, mbps(5 * rng.uniform_int(1, 8)));
    }
    widest.recompute();
    expect_matches_oracle(t, widest, "step " + std::to_string(step));
  }
}

TEST(RoutingOracle, HubSlotsReachTheirLimit) {
  // A hub with the most in-links a slot can index, a ring through its
  // spokes, and a few spoke chords, so high slots appear on many trees.
  Topology t;
  const NodeId hub = t.add_node("hub");
  const int spokes = RoutingTable::kMaxInLinks;
  for (int i = 0; i < spokes; ++i) t.add_node();
  for (NodeId s = 1; s <= spokes; ++s) t.add_link(hub, s, mbps(5 + s % 7), mbps(5 + s % 5));
  for (NodeId s = 1; s < spokes; s += 9) t.add_link(s, s + 1, mbps(40));
  for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
    const RoutingTable rt(t, policy);
    EXPECT_EQ(rt.unreachable_pairs(), 0u);
    expect_matches_oracle(t, rt, "hub");
    // The last spoke's link into the hub sits in the hub's last slot.
    ASSERT_EQ(rt.hops(spokes, hub), 1);
    int visits = 0;
    rt.walk(spokes, hub, [&](LinkId l) {
      EXPECT_EQ(l, *t.link_between(spokes, hub));
      return ++visits < 2;
    });
    EXPECT_EQ(visits, 1);
  }
}

TEST(RoutingOracle, RejectsANodeWithTooManyInLinks) {
  Topology t;
  const NodeId hub = t.add_node("hub");
  for (int i = 0; i <= RoutingTable::kMaxInLinks; ++i) t.add_link(hub, t.add_node(), mbps(10));
  for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
    try {
      const RoutingTable rt(t, policy);
      ADD_FAILURE() << "a hub with " << RoutingTable::kMaxInLinks + 1 << " spokes was accepted";
    } catch (const std::length_error& e) {
      EXPECT_NE(std::string(e.what()).find("'hub'"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace bass::net

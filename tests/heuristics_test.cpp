#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "app/catalog.h"
#include "sched/heuristics.h"
#include "sched/prepared_app.h"
#include "util/rng.h"

namespace bass::sched {
namespace {

using app::AppGraph;
using app::ComponentId;

std::vector<std::string> names(const AppGraph& g, const std::vector<ComponentId>& ids) {
  std::vector<std::string> out;
  for (ComponentId id : ids) out.push_back(g.component(id).name);
  return out;
}

// --- The published Fig. 6 orders, reproduced exactly ---

TEST(Heuristics, Fig6BfsOrder) {
  const AppGraph g = app::fig6_example();
  EXPECT_EQ(names(g, bfs_order(g)),
            (std::vector<std::string>{"1", "3", "2", "4", "5", "7", "6"}));
}

TEST(Heuristics, Fig6LongestPathOrder) {
  const AppGraph g = app::fig6_example();
  EXPECT_EQ(names(g, longest_path_order(g)),
            (std::vector<std::string>{"1", "2", "4", "5", "7", "3", "6"}));
}

TEST(Heuristics, Fig6LongestPathDecomposition) {
  const AppGraph g = app::fig6_example();
  const auto paths = longest_path_paths(g);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(names(g, paths[0]), (std::vector<std::string>{"1", "2", "4", "5", "7"}));
  EXPECT_EQ(names(g, paths[1]), (std::vector<std::string>{"3", "6"}));
}

TEST(Heuristics, CameraPipelineOrders) {
  const AppGraph g = app::camera_pipeline_app();
  // Both heuristics walk the chain; the BFS tie-break puts the heavier
  // image edge before the label edge.
  EXPECT_EQ(names(g, bfs_order(g)),
            (std::vector<std::string>{"camera-stream", "frame-sampler",
                                      "object-detector", "image-listener",
                                      "label-listener"}));
  const auto paths = longest_path_paths(g);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(names(g, paths[0]),
            (std::vector<std::string>{"camera-stream", "frame-sampler",
                                      "object-detector", "image-listener"}));
  EXPECT_EQ(names(g, paths[1]), (std::vector<std::string>{"label-listener"}));
}

TEST(Heuristics, BfsStartsAtTopologicalRoot) {
  const AppGraph g = app::social_network_app();
  const auto order = bfs_order(g);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(g.component(order[0]).name, "nginx-web-server");
}

TEST(Heuristics, EmptyOnCyclicGraph) {
  AppGraph g("cyclic");
  const ComponentId a = g.add_component({.name = "a"});
  const ComponentId b = g.add_component({.name = "b"});
  g.add_dependency({.from = a, .to = b});
  g.add_dependency({.from = b, .to = a});
  EXPECT_TRUE(bfs_order(g).empty());
  EXPECT_TRUE(longest_path_paths(g).empty());
}

TEST(Heuristics, DisconnectedComponentsCovered) {
  AppGraph g("disconnected");
  g.add_component({.name = "a"});
  g.add_component({.name = "b"});
  g.add_component({.name = "c"});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  const auto order = bfs_order(g);
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(longest_path_order(g).size(), 3u);
}

// --- Property suite over random DAGs: both heuristics must emit
// permutations covering every component exactly once. ---

class HeuristicProperty : public ::testing::TestWithParam<std::uint64_t> {};

AppGraph random_dag(std::uint64_t seed) {
  util::Rng rng(seed);
  AppGraph g("random");
  const int n = static_cast<int>(rng.uniform_int(1, 20));
  for (int i = 0; i < n; ++i) {
    g.add_component({.name = "c" + std::to_string(i)});
  }
  // Forward edges only (i < j) guarantee acyclicity.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.chance(0.2)) {
        g.add_dependency({.from = i, .to = j,
                          .bandwidth = net::kbps(rng.uniform_int(100, 50000))});
      }
    }
  }
  return g;
}

TEST_P(HeuristicProperty, BfsIsPermutation) {
  const AppGraph g = random_dag(GetParam());
  const auto order = bfs_order(g);
  std::set<ComponentId> seen(order.begin(), order.end());
  EXPECT_EQ(order.size(), static_cast<std::size_t>(g.component_count()));
  EXPECT_EQ(seen.size(), order.size());
}

TEST_P(HeuristicProperty, LongestPathIsPermutationAndPathsAreReal) {
  const AppGraph g = random_dag(GetParam());
  const auto paths = longest_path_paths(g);
  std::set<ComponentId> seen;
  std::size_t total = 0;
  for (const auto& path : paths) {
    total += path.size();
    for (ComponentId c : path) EXPECT_TRUE(seen.insert(c).second);
    // Consecutive path elements must be joined by real edges.
    for (std::size_t i = 1; i < path.size(); ++i) {
      bool found = false;
      for (const app::Edge& e : g.edges()) {
        if (e.from == path[i - 1] && e.to == path[i]) found = true;
      }
      EXPECT_TRUE(found) << "path hop without an edge";
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(g.component_count()));
}

TEST_P(HeuristicProperty, FirstPathIsHeaviest) {
  const AppGraph g = random_dag(GetParam());
  const auto paths = longest_path_paths(g);
  if (paths.empty()) return;
  // The first extracted path must weigh at least as much as any single
  // edge out of its own start vertex (sanity floor for "heaviest").
  auto path_weight = [&](const std::vector<ComponentId>& path) {
    double w = 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      for (const app::Edge& e : g.edges()) {
        if (e.from == path[i - 1] && e.to == path[i]) w += static_cast<double>(e.bandwidth);
      }
    }
    return w;
  };
  const double first = path_weight(paths[0]);
  for (const app::Edge& e : g.edges()) {
    if (e.from == paths[0][0]) {
      EXPECT_GE(first, static_cast<double>(e.bandwidth));
    }
  }
}

// A prepared app's cached orders are the heuristics' from-scratch output.
void expect_prepared_orders_match(const AppGraph& g) {
  SCOPED_TRACE(g.name());
  const PreparedApp prepared(g);
  ASSERT_TRUE(prepared.valid()) << prepared.error();
  EXPECT_EQ(prepared.topo_order(), g.topo_order());
  EXPECT_EQ(prepared.bfs_order(), bfs_order(g));
  EXPECT_EQ(prepared.longest_path_paths(), longest_path_paths(g));
}

TEST_P(HeuristicProperty, PreparedOrdersMatchFromScratch) {
  expect_prepared_orders_match(random_dag(GetParam()));
}

TEST(PreparedApp, CatalogOrdersMatchFromScratch) {
  expect_prepared_orders_match(app::fig6_example());
  expect_prepared_orders_match(app::camera_pipeline_app());
  expect_prepared_orders_match(app::social_network_app());
  expect_prepared_orders_match(app::social_network_app(50.0 / 400.0));
  expect_prepared_orders_match(
      app::video_conference_app({{1, 3}, {2, 1}, {3, 2}}, net::kbps(800)));
}

TEST(PreparedApp, InvalidGraphKeepsItsError) {
  AppGraph g("cycle");
  g.add_component({.name = "a"});
  g.add_component({.name = "b"});
  g.add_dependency({.from = 0, .to = 1});
  g.add_dependency({.from = 1, .to = 0});
  const PreparedApp prepared(std::move(g));
  EXPECT_FALSE(prepared.valid());
  EXPECT_EQ(prepared.error(), "component graph has a cycle");
  EXPECT_TRUE(prepared.topo_order().empty());
  EXPECT_TRUE(prepared.bfs_order().empty());
  EXPECT_TRUE(prepared.longest_path_paths().empty());
}

INSTANTIATE_TEST_SUITE_P(RandomDags, HeuristicProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace bass::sched

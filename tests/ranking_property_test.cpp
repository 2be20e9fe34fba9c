// Property suite for on-demand node ranking and for scheduler reuse.
//
// NodeRanker orders its ranking only as deep as it is read, and the pack
// buffers (NodeBudget, LinkLedger) clear only what the last pack touched.
// Neither may change a decision: every prefix the ranker yields must equal
// the full-sort oracle's (tests/support/ranking_reference.h), and a
// scheduler reused across decisions must answer exactly as a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ranking_reference.h"
#include "sched/bass_scheduler.h"
#include "sched/k3s_scheduler.h"
#include "sched/node_ranker.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace bass::sched {
namespace {

// A mesh whose topology has more node ids than the cluster registers (id
// gaps), with a few unschedulable nodes, and CPU, memory and link
// capacities drawn from small sets so that keys tie on every field but the
// id. `measured` holds one capacity per link for the measured view.
struct World {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::vector<net::Bps> measured;
};

std::unique_ptr<World> random_world(util::Rng& rng, int max_nodes) {
  auto w = std::make_unique<World>();
  const int nodes = static_cast<int>(rng.uniform_int(1, max_nodes));
  net::Topology topo;
  for (int i = 0; i < nodes; ++i) topo.add_node();
  const net::Bps caps[] = {net::mbps(1), net::mbps(2), net::mbps(5)};
  for (int i = 0; i + 1 < nodes; ++i) topo.add_link(i, i + 1, caps[rng.uniform_int(0, 2)]);
  for (int i = 0; i < nodes; ++i) {
    for (int j = i + 2; j < nodes; ++j) {
      if (rng.chance(3.0 / nodes)) topo.add_link(i, j, caps[rng.uniform_int(0, 2)]);
    }
  }
  w->network = std::make_unique<net::Network>(w->sim, std::move(topo));
  for (int l = 0; l < w->network->topology().link_count(); ++l) {
    w->measured.push_back(caps[rng.uniform_int(0, 2)]);
  }
  for (int i = 0; i < nodes; ++i) {
    if (rng.chance(0.15)) continue;  // an id gap: a mesh node outside the cluster
    w->cluster.add_node(i, {rng.uniform_int(0, 3) * 2000, rng.uniform_int(1, 3) * 2048,
                            !rng.chance(0.15)});
  }
  return w;
}

// Reads `ranker` at growing depths in random steps and checks each prefix.
void expect_prefixes_match(NodeRanker& ranker, const std::vector<net::NodeId>& want,
                           util::Rng& rng) {
  ASSERT_EQ(ranker.size(), want.size());
  ASSERT_EQ(ranker.empty(), want.empty());
  std::size_t depth = 0;
  while (depth < want.size()) {
    depth = std::min(want.size(), depth + static_cast<std::size_t>(rng.uniform_int(1, 4)));
    EXPECT_EQ(ranker[depth - 1], want[depth - 1]);  // orders through depth - 1
    for (std::size_t i = 0; i < depth; ++i) {
      ASSERT_EQ(ranker[i], want[i]) << "prefix " << depth << ", index " << i;
    }
  }
}

class NodeRankerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeRankerProperty, EveryPrefixMatchesTheFullSort) {
  util::Rng rng(GetParam());
  const auto w = random_world(rng, 40);
  const NetworkView live(*w->network);
  const NetworkView measured(*w->network, w->measured.data());
  NodeRanker ranker;  // one ranker across every view and re-rank: reuse too
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    for (const NetworkView* view : {&live, &measured}) {
      ranker.rank(w->cluster, *view);
      expect_prefixes_match(ranker, reference::rank_nodes(w->cluster, *view), rng);
      EXPECT_EQ(rank_nodes(w->cluster, *view), reference::rank_nodes(w->cluster, *view));
    }
    // Re-rank after the cluster moves: allocate onto and release from
    // random nodes, which also moves them between CPU and memory ties.
    for (net::NodeId n : w->cluster.nodes()) {
      if (rng.chance(0.3)) w->cluster.allocate(n, rng.uniform_int(0, 2) * 1000, 1024);
      if (rng.chance(0.2) && w->cluster.usage(n).cpu_milli >= 1000) {
        w->cluster.release(n, 1000, 0);
      }
    }
  }
}

TEST_P(NodeRankerProperty, ARankingIgnoresLaterClusterChanges) {
  util::Rng rng(GetParam());
  const auto w = random_world(rng, 24);
  const NetworkView view(*w->network);
  const auto want = reference::rank_nodes(w->cluster, view);
  NodeRanker ranker;
  ranker.rank(w->cluster, view);
  if (!ranker.empty()) {
    EXPECT_EQ(ranker[0], want[0]);
  }
  for (net::NodeId n : w->cluster.nodes()) w->cluster.allocate(n, 1000, 0);
  expect_prefixes_match(ranker, want, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeRankerProperty, ::testing::Range<std::uint64_t>(1, 201));

// ---- Scheduler reuse ----

// One decision's app: 2-7 components, a few of them pinned (attachment
// points or real demands), edges heavy enough to exhaust links, and now and
// then a last component that fits nowhere, so the pack fails after it has
// charged nodes and reserved links.
app::AppGraph random_app(util::Rng& rng, const cluster::ClusterState& cluster, int index) {
  app::AppGraph g("app" + std::to_string(index));
  const int comps = static_cast<int>(rng.uniform_int(2, 7));
  const auto& nodes = cluster.nodes();
  for (int c = 0; c < comps; ++c) {
    app::Component comp{.name = "c" + std::to_string(c),
                        .cpu_milli = rng.uniform_int(1, 4) * 500,
                        .memory_mb = rng.uniform_int(1, 6) * 512};
    if (rng.chance(0.12) && !nodes.empty()) {
      comp.pinned_node = nodes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
      if (rng.chance(0.5)) comp.cpu_milli = comp.memory_mb = 0;  // attachment point
    }
    if (c + 1 == comps && rng.chance(0.15)) comp.cpu_milli = 64000;  // fits nowhere
    g.add_component(comp);
  }
  for (int i = 0; i < comps; ++i) {
    for (int j = i + 1; j < comps; ++j) {
      if (rng.chance(0.4)) {
        g.add_dependency({.from = i, .to = j, .bandwidth = net::kbps(rng.uniform_int(1, 40) * 100)});
      }
    }
  }
  return g;
}

bool same_outcome(const util::Expected<Placement>& a, const util::Expected<Placement>& b) {
  if (a.ok() != b.ok()) return false;
  return a.ok() ? a.value() == b.value() : a.error() == b.error();
}

std::unique_ptr<Scheduler> make_scheduler(int kind) {
  switch (kind) {
    case 0: return std::make_unique<BassScheduler>(Heuristic::kBreadthFirst);
    case 1: return std::make_unique<BassScheduler>(Heuristic::kLongestPath);
    case 2: return std::make_unique<BassScheduler>(Heuristic::kAuto);
    default: return std::make_unique<K3sScheduler>();
  }
}

// The rank of `n` in `ranked` (-1 when `n` is not ranked).
int rank_of(const std::vector<net::NodeId>& ranked, net::NodeId n) {
  const auto it = std::find(ranked.begin(), ranked.end(), n);
  return it == ranked.end() ? -1 : static_cast<int>(it - ranked.begin());
}

TEST(SchedulerReuse, ReusedSchedulersDecideAsFreshOnes) {
  util::Rng rng(0x5EED);
  int failed_midway = 0, deep_reads = 0, fallbacks = 0, pinned = 0;
  for (int world = 0; world < 12; ++world) {
    const auto w = random_world(rng, 30);
    const NetworkView live(*w->network);
    const NetworkView measured(*w->network, w->measured.data());
    std::vector<std::unique_ptr<Scheduler>> reused;
    for (int kind = 0; kind < 4; ++kind) reused.push_back(make_scheduler(kind));
    struct Live {
      net::NodeId node;
      std::int64_t cpu, mem;
    };
    std::vector<Live> charged;
    for (int decision = 0; decision < 60; ++decision) {
      SCOPED_TRACE(testing::Message() << "world " << world << ", decision " << decision);
      const NetworkView& view = rng.chance(0.5) ? live : measured;
      const auto prepared = PreparedApp::make(random_app(rng, w->cluster, decision));
      const auto oracle = reference::rank_nodes(w->cluster, view);
      ASSERT_EQ(rank_nodes(w->cluster, view), oracle);  // what a fresh ranker reads
      for (int kind = 0; kind < 4; ++kind) {
        const auto got = reused[static_cast<std::size_t>(kind)]->schedule(*prepared,
                                                                           w->cluster, view);
        const auto want = make_scheduler(kind)->schedule(*prepared, w->cluster, view);
        ASSERT_TRUE(same_outcome(got, want))
            << reused[static_cast<std::size_t>(kind)]->name() << ": reused "
            << (got.ok() ? "placed" : got.error()) << ", fresh "
            << (want.ok() ? "placed" : want.error());
        if (kind != 0) continue;
        // What the BFS pack exercised: a failure after charging a node, a
        // node below the top, and a step back up the ranking (first-fit).
        const app::AppGraph& g = prepared->graph();
        if (!got.ok() && g.component(g.component_count() - 1).cpu_milli == 64000) {
          ++failed_midway;
        }
        if (!got.ok()) continue;
        int last_rank = -1;
        for (app::ComponentId c : prepared->bfs_order()) {
          if (g.component(c).pinned_node) {
            ++pinned;
            continue;
          }
          const int r = rank_of(oracle, got.value()[static_cast<std::size_t>(c)]);
          if (r > 0) ++deep_reads;
          if (r < last_rank) ++fallbacks;
          last_rank = r;
        }
      }
      // Evolve the cluster as an orchestrator would: deploy some
      // placements, retire older ones, cordon now and then.
      const auto placed = reused[2]->schedule(*prepared, w->cluster, view);
      if (placed.ok() && rng.chance(0.6)) {
        const app::AppGraph& g = prepared->graph();
        for (app::ComponentId c = 0; c < g.component_count(); ++c) {
          const auto& comp = g.component(c);
          const net::NodeId n = placed.value()[static_cast<std::size_t>(c)];
          if (w->cluster.allocate(n, comp.cpu_milli, comp.memory_mb)) {
            charged.push_back({n, comp.cpu_milli, comp.memory_mb});
          }
        }
      }
      while (!charged.empty() && rng.chance(0.3)) {
        const Live l = charged.front();
        charged.erase(charged.begin());
        w->cluster.release(l.node, l.cpu, l.mem);
      }
      if (!w->cluster.nodes().empty() && rng.chance(0.1)) {
        const net::NodeId n = w->cluster.nodes()[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(w->cluster.nodes().size()) - 1))];
        w->cluster.set_schedulable(n, !w->cluster.spec(n).schedulable);
      }
    }
  }
  // The sequence must have exercised every path the reuse could taint.
  EXPECT_GT(failed_midway, 0);
  EXPECT_GT(deep_reads, 0);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(pinned, 0);
}

}  // namespace
}  // namespace bass::sched

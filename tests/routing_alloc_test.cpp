// Routing memory and zero-allocation gates. The routing table keeps only
// per-source trees (a 1-byte in-link slot and a 2-byte hop count, 3 B per
// node pair) over flat arc arrays; paths are walked or copied on demand.
// The global operator new probe checks both halves of that contract: a
// build allocates the two n² arrays plus O(n + m) arcs and scratch, and
// the per-decision consumers (the placement ledger, the network's capacity
// queries, the monitor's cached bottleneck) walk the trees without
// allocating once their own buffers are warm. The topology under the table
// is the mesh's only index, so building it allocates per node, not per link.
#include "alloc_probe.h"  // must be the only TU in this binary including it

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "app/app_graph.h"
#include "monitor/net_monitor.h"
#include "net/network.h"
#include "net/routing.h"
#include "sched/packer.h"
#include "util/rng.h"

namespace bass::net {
namespace {

// Ring plus random chords: connected, sparse and multi-hop.
Topology ring_mesh(int n, util::Rng& rng) {
  Topology t;
  for (int i = 0; i < n; ++i) t.add_node("n" + std::to_string(i));
  auto cap = [&] { return mbps(rng.uniform_int(5, 100)); };
  for (int i = 0; i < n; ++i) t.add_link(i, (i + 1) % n, cap(), cap());
  for (int c = 0; c < n; ++c) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a != b && !t.link_between(a, b)) t.add_link(a, b, cap(), cap());
  }
  return t;
}

// Buffers a vector grown one push_back at a time from empty allocates on
// its way to `size` elements: capacities 1, 2, 4, ... up to the first power
// of two at or above it.
std::int64_t growth_steps(std::size_t size) {
  return size == 0 ? 0 : std::bit_width(size - 1) + 1;
}

TEST(RoutingAlloc, TopologyBuildAllocatesPerNodeNotPerLink) {
  util::Rng rng(0x70B0);
  for (const int n : {64, 300}) {
    const auto snap = testing::take_alloc_snapshot();
    const Topology t = ring_mesh(n, rng);  // short names: no string buffers
    const std::int64_t allocations = testing::allocations_since(snap);
    // Each node's out-link vector doubles up to its degree; the names, the
    // adjacency lists and the links double once each up to their sizes.
    // An index with one entry per directed link would add link_count()
    // more on top.
    std::int64_t bound = 2 * growth_steps(static_cast<std::size_t>(n)) +
                         growth_steps(static_cast<std::size_t>(t.link_count()));
    for (NodeId v = 0; v < n; ++v) bound += growth_steps(t.out_links(v).size());
    EXPECT_LE(allocations, bound) << "n=" << n << ", links=" << t.link_count();
    EXPECT_GT(t.link_count(), 2 * n);
  }
}

TEST(RoutingAlloc, BuildAllocatesTreesPlusLinearScratch) {
  util::Rng rng(0xB0117);
  for (const int n : {64, 300}) {
    const Topology t = ring_mesh(n, rng);
    const auto pairs = static_cast<std::int64_t>(n) * n;
    const std::int64_t linear = static_cast<std::int64_t>(n) + t.link_count();
    for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
      const auto snap = testing::take_alloc_snapshot();
      {
        const RoutingTable rt(t, policy);
        EXPECT_EQ(rt.unreachable_pairs(), 0u);
      }
      // Read both counters first: a failure message allocates too.
      const std::int64_t bytes = testing::bytes_since(snap);
      const std::int64_t allocations = testing::allocations_since(snap);
      // 1 B slot + 2 B hop count per pair; the arcs are 8 B in-arcs and
      // out-arcs per link plus n + 1 group starts, and the search scratch
      // is a BFS queue or a width/done pair plus a heap of at most m + 1
      // 16-byte candidates.
      EXPECT_LE(bytes, pairs * 3 + 32 * linear) << "n=" << n;
      EXPECT_GE(bytes, pairs * 3) << "n=" << n;
      // A fixed number of buffers, not one per source: the two rows, the
      // in-arcs and their starts, the out-arcs, and the BFS queue or
      // widest-path's width, done and heap.
      EXPECT_LE(allocations, policy == RoutingPolicy::kMinHop ? 6 : 8) << "n=" << n;
    }
  }
}

TEST(RoutingAlloc, WalkStopsEarlyAndVisitsTheReversedPath) {
  util::Rng rng(0x3A1C);
  Topology t = ring_mesh(40, rng);
  const NodeId island = t.add_node("island");  // unreachable from the ring
  const int n = t.node_count();
  for (RoutingPolicy policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
    const RoutingTable rt(t, policy);
    EXPECT_EQ(rt.unreachable_pairs(), static_cast<std::size_t>(2 * (n - 1)));
    std::vector<LinkId> copied(static_cast<std::size_t>(rt.max_hops()));
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const int hops = rt.copy_path(u, v, copied);
        ASSERT_EQ(hops, rt.hops(u, v));
        std::vector<LinkId> walked;
        rt.walk(u, v, [&](LinkId l) {
          walked.push_back(l);
          return true;
        });
        ASSERT_EQ(walked.size(), static_cast<std::size_t>(hops)) << u << "->" << v;
        ASSERT_TRUE(std::equal(walked.begin(), walked.end(),
                               std::make_reverse_iterator(copied.begin() + hops)))
            << u << "->" << v;
        if (u == v || u == island || v == island) {
          EXPECT_TRUE(walked.empty());
        }
        // Returning false stops the walk at once: exactly k + 1 visits.
        for (int k = 0; k < hops; ++k) {
          int visits = 0;
          rt.walk(u, v, [&](LinkId l) {
            EXPECT_EQ(l, walked[static_cast<std::size_t>(visits)]);
            return ++visits <= k;
          });
          ASSERT_EQ(visits, k + 1) << u << "->" << v;
        }
      }
    }
  }
}

TEST(RoutingAlloc, PathConsumersAllocateNothingOnceWarm) {
  util::Rng rng(0xFEED);
  sim::Simulation sim;
  Network network(sim, ring_mesh(48, rng));
  const int n = network.topology().node_count();
  monitor::NetMonitor monitor(network);
  const sched::NetworkView view(network);
  const sched::NetworkView measured(network, monitor.cached_capacities().data());

  // A four-component chain with every component placed, one per node.
  app::AppGraph app("chain");
  for (int c = 0; c < 4; ++c) app.add_component({.name = "c" + std::to_string(c)});
  for (int c = 0; c + 1 < 4; ++c) {
    app.add_dependency({.from = c, .to = c + 1, .bandwidth = kbps(50)});
  }
  const sched::Placement placement = {3, 17, 29, 41};
  sched::LinkLedger ledger(view);

  Bps sink = 0;
  auto queries = [&] {
    for (NodeId u = 0; u < n; u += 5) {
      for (NodeId v = 0; v < n; v += 3) {
        sink += view.path_capacity(u, v);
        sink += measured.path_capacity(u, v);
      }
    }
    for (app::ComponentId c = 0; c < 4; ++c) {
      for (NodeId node = 0; node < n; node += 7) {
        sink += ledger.fits(app, placement, c, node) ? 1 : 0;
      }
      ledger.reserve(app, placement, c, true);
    }
  };
  queries();  // warm: solver arena, component scratch, ledger touch list

  const auto snap = testing::take_alloc_snapshot();
  for (int i = 0; i < 3; ++i) queries();
  EXPECT_EQ(testing::allocations_since(snap), 0);
  EXPECT_GT(sink, 0);
}

}  // namespace
}  // namespace bass::net

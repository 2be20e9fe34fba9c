// Property suite for the allocation fast path. Two layers of oracle:
//
//  1. Kernel: the active-set MaxMinSolver must produce rates identical
//     (within kAllocEps-scale tolerance) to the retained brute-force
//     reference kernel on random instances.
//  2. Engine: a Network driven through random topology/flow/capacity churn
//     must report, after every mutation, exactly the rates a from-scratch
//     reference allocation over its current flow set would assign — the
//     invariant that incremental contention-component reallocation is
//     indistinguishable from recomputing the world.
//
// Plus focused checks that a change reprices only its contention component
// (via the flows-touched counter), which is the whole point of the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "maxmin_reference.h"
#include "net/network.h"
#include "util/rng.h"

namespace bass::net {
namespace {

constexpr double kUnlimited = static_cast<double>(kUnlimitedRate);

// Rates live on the 1e5..5e7 bps scale; both kernels freeze at kAllocEps
// thresholds, so agreement well below 1 bps is expected.
constexpr double kRateTol = 1.0;

// ---- Layer 1: kernel vs. brute-force reference ----

// The kernel-vs-oracle check every Layer-1 instance runs through: rates
// agree within `tol`, and every kernel rate is a clean non-negative number
// (the final clamp maps float-noise negatives and -0.0 to +0.0).
void expect_matches_reference(const std::vector<double>& caps,
                              const std::vector<AllocEntity>& entities,
                              double tol) {
  const auto fast = max_min_allocate(caps, entities);
  const auto ref = max_min_allocate_reference(caps, entities);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t f = 0; f < ref.size(); ++f) {
    EXPECT_NEAR(fast[f], ref[f], tol) << "flow " << f;
    EXPECT_GE(fast[f], 0.0) << "flow " << f;
    EXPECT_FALSE(std::signbit(fast[f])) << "flow " << f << " is -0.0";
  }
}

struct KernelCase {
  std::uint64_t seed;
};

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, ActiveSetMatchesReference) {
  util::Rng rng(GetParam().seed);
  const int n_links = static_cast<int>(rng.uniform_int(1, 64));
  const int n_flows = static_cast<int>(rng.uniform_int(1, 128));
  std::vector<double> caps;
  for (int l = 0; l < n_links; ++l) {
    // Include dead links and huge spreads to stress freeze thresholds.
    caps.push_back(rng.chance(0.05) ? 0.0 : rng.uniform(1e5, 50e6));
  }
  std::vector<AllocEntity> entities;
  for (int f = 0; f < n_flows; ++f) {
    AllocEntity e;
    e.demand = rng.chance(0.3) ? kUnlimited : rng.uniform(0.1e6, 40e6);
    if (rng.chance(0.05)) e.demand = 0.0;  // idle entity
    const int path_len = static_cast<int>(rng.uniform_int(1, std::min(n_links, 6)));
    for (int i = 0; i < path_len; ++i) {
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, n_links - 1));
      if (std::find(e.links.begin(), e.links.end(), l) == e.links.end()) {
        e.links.push_back(l);
      }
    }
    entities.push_back(std::move(e));
  }
  expect_matches_reference(caps, entities, kRateTol);
}

TEST_P(KernelEquivalence, SolverScratchReuseIsClean) {
  // Back-to-back solves on one solver instance must match fresh solves:
  // stamped scratch may not leak state between calls.
  util::Rng rng(GetParam().seed + 7000);
  MaxMinSolver solver;
  for (int round = 0; round < 8; ++round) {
    const int n_links = static_cast<int>(rng.uniform_int(1, 16));
    const int n_flows = static_cast<int>(rng.uniform_int(1, 24));
    std::vector<double> caps;
    for (int l = 0; l < n_links; ++l) caps.push_back(rng.uniform(1e6, 30e6));
    std::vector<AllocEntity> owned;
    std::vector<AllocEntityRef> refs;
    for (int f = 0; f < n_flows; ++f) {
      AllocEntity e;
      e.demand = rng.chance(0.4) ? kUnlimited : rng.uniform(0.5e6, 20e6);
      e.links.push_back(static_cast<LinkId>(rng.uniform_int(0, n_links - 1)));
      owned.push_back(std::move(e));
    }
    for (const AllocEntity& e : owned) refs.push_back({e.demand, e.links});
    const auto& fast = solver.solve(caps, refs);
    const auto ref = max_min_allocate_reference(caps, owned);
    for (std::size_t f = 0; f < ref.size(); ++f) {
      EXPECT_NEAR(fast[f], ref[f], kRateTol) << "round " << round << " flow " << f;
      EXPECT_FALSE(std::signbit(fast[f])) << "round " << round << " flow " << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KernelEquivalence,
                         ::testing::Values(KernelCase{1}, KernelCase{2}, KernelCase{3},
                                           KernelCase{4}, KernelCase{5}, KernelCase{6},
                                           KernelCase{7}, KernelCase{8}, KernelCase{9},
                                           KernelCase{10}, KernelCase{11}, KernelCase{12},
                                           KernelCase{13}, KernelCase{14}, KernelCase{15},
                                           KernelCase{16}, KernelCase{17}, KernelCase{18},
                                           KernelCase{19}, KernelCase{20}));

TEST(KernelEquivalenceEdges, RaggedPathsInfiniteDemandsExtremeCapacities) {
  // Path lengths 0/1/3/5 in one solve; capacities span 1e-6..1e15 so shares
  // underflow toward the freeze threshold and dwarf every demand
  // respectively; idle entities (demand 0, empty path) ride along legally.
  const std::vector<double> caps = {1e-6, 1e15, 3e7, 5e5, 1e12, 2.5e6, 1e-3};
  std::vector<AllocEntity> entities;
  entities.push_back({0.0, {}});                               // 0 links, idle
  entities.push_back({kUnlimited, {0}});                       // 1 link, tiny cap
  entities.push_back({kUnlimited, {1}});                       // 1 link, huge cap
  entities.push_back({5e6, {2, 3, 4}});                        // 3 links
  entities.push_back({kUnlimited, {0, 2, 4, 5, 6}});           // 5 links
  entities.push_back({3e5, {6, 5, 3, 1, 0}});                  // 5 links reversed
  entities.push_back({0.0, {}});                               // another idle
  entities.push_back({kUnlimited, {3}});
  expect_matches_reference(caps, entities, kAllocEps);
}

TEST(KernelEquivalenceEdges, SignedZeroAndDeadLinksGivePositiveZeroRates) {
  // A -0.0 capacity yields a -0.0 fair share; no rate may inherit the sign.
  const std::vector<double> caps = {-0.0, 0.0, 1e6};
  std::vector<AllocEntity> entities;
  entities.push_back({kUnlimited, {0}});
  entities.push_back({kUnlimited, {0, 2}});
  entities.push_back({4e5, {1}});
  entities.push_back({-0.0, {2}});  // a -0.0 demand is idle
  entities.push_back({kUnlimited, {2}});
  expect_matches_reference(caps, entities, kAllocEps);
}

TEST(KernelEquivalenceEdges, LoneFlowClosedFormIsBitIdenticalToWaterFilling) {
  // A one-entity solve takes the closed form; the same flow next to an idle
  // entity (demand 0, no links, frozen before the loop starts) runs the
  // general water-filling path. The two must agree bit for bit, on demands
  // within kAllocEps of a capacity, zero and unlimited demands, dead links
  // and capacities no demand can exceed.
  util::Rng rng(2024);
  MaxMinSolver lone_solver;
  MaxMinSolver general_solver;
  for (int trial = 0; trial < 10'000; ++trial) {
    const int n_links = static_cast<int>(rng.uniform_int(1, 8));
    std::vector<double> caps;
    for (int l = 0; l < n_links; ++l) {
      const double u = rng.uniform(0.0, 1.0);
      caps.push_back(u < 0.1    ? 0.0
                     : u < 0.15 ? 2.0 * kUnlimited
                                : rng.uniform(1e5, 50e6));
    }
    std::vector<LinkId> path;
    const int path_len = static_cast<int>(rng.uniform_int(1, n_links));
    for (int i = 0; i < path_len; ++i) {
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, n_links - 1));
      if (std::find(path.begin(), path.end(), l) == path.end()) path.push_back(l);
    }
    const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(path.size()) - 1);
    const double bottleneck =
        caps[static_cast<std::size_t>(path[static_cast<std::size_t>(pick)])];
    double demand = 0.0;
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.1) {
      demand = 0.0;
    } else if (u < 0.3) {
      demand = kUnlimited;
    } else if (u < 0.6 && bottleneck < kUnlimited) {
      // A tie with a path capacity: just below, at, or just past the
      // freeze threshold.
      demand = bottleneck + rng.uniform(-2.0, 2.0) * kAllocEps;
    } else {
      demand = rng.uniform(0.1e6, 40e6);
    }

    const std::vector<AllocEntityRef> lone = {{demand, path}};
    const std::vector<AllocEntityRef> pair = {{demand, path}, {0.0, {}}};
    const double closed = lone_solver.solve(caps, lone)[0];
    const double filled = general_solver.solve(caps, pair)[0];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(closed), std::bit_cast<std::uint64_t>(filled))
        << "trial " << trial << ": demand " << demand << " bottleneck " << bottleneck
        << " closed form " << closed << " water-filling " << filled;
  }
}

// ---- Layer 2: incremental engine vs. from-scratch reference ----

std::vector<LinkId> routed_path(const Network& net, NodeId src, NodeId dst) {
  std::vector<LinkId> path(static_cast<std::size_t>(net.routing().hops(src, dst)));
  net.routing().copy_path(src, dst, path);
  return path;
}

// Shadow model of the Network's flow set, independent of its entity cache.
struct Shadow {
  struct Flow {
    NodeId src, dst;
    double demand;  // kUnlimited for backlogged channels
    bool is_stream;
    StreamId stream = 0;
  };
  std::map<std::pair<NodeId, NodeId>, int> channel_backlog;  // queued transfers
  std::vector<std::pair<StreamId, Flow>> streams;            // open mesh streams

  // From-scratch allocation over the current flow set, using the retained
  // reference kernel — the oracle the incremental engine must match.
  struct Reference {
    std::map<StreamId, double> stream_rates;
    std::vector<double> link_load;  // Σ reference rate over each link's flows
    std::vector<int> link_flows;    // flows crossing each link
  };
  Reference reference(const Network& net) const {
    const auto links = static_cast<std::size_t>(net.topology().link_count());
    std::vector<double> caps(links);
    for (std::size_t l = 0; l < links; ++l) {
      caps[l] = static_cast<double>(net.topology().link(static_cast<LinkId>(l)).capacity);
    }
    std::vector<AllocEntity> entities;
    std::vector<StreamId> ids;
    for (const auto& [pair, backlog] : channel_backlog) {
      if (backlog <= 0) continue;
      entities.push_back({kUnlimited, routed_path(net, pair.first, pair.second)});
      ids.push_back(0);  // channel: no stream id
    }
    for (const auto& [id, flow] : streams) {
      if (flow.demand <= 0.0) continue;
      entities.push_back({flow.demand, routed_path(net, flow.src, flow.dst)});
      ids.push_back(id);
    }
    const auto rates = max_min_allocate_reference(caps, entities);
    Reference ref{{}, std::vector<double>(links, 0.0), std::vector<int>(links, 0)};
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (ids[i] != 0) ref.stream_rates[ids[i]] = rates[i];
      for (LinkId l : entities[i].links) {
        ref.link_load[static_cast<std::size_t>(l)] += rates[i];
        ++ref.link_flows[static_cast<std::size_t>(l)];
      }
    }
    return ref;
  }
};

struct ChurnCase {
  std::uint64_t seed;
};

class IncrementalEquivalence : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(IncrementalEquivalence, ChurnMatchesFromScratchReference) {
  util::Rng rng(GetParam().seed * 7919);
  sim::Simulation sim;

  // Random topology of 2-4 islands so contention components are real:
  // rings with chords per island, no links between islands.
  Topology topo;
  const int islands = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(islands));
  for (int i = 0; i < islands; ++i) {
    const int n = static_cast<int>(rng.uniform_int(3, 6));
    for (int k = 0; k < n; ++k) {
      members[static_cast<std::size_t>(i)].push_back(topo.add_node());
    }
    const auto& isle = members[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < isle.size(); ++k) {
      topo.add_link(isle[k], isle[(k + 1) % isle.size()],
                    mbps(rng.uniform_int(2, 30)));
    }
    if (isle.size() >= 4 && rng.chance(0.5)) {
      topo.add_link(isle[0], isle[2], mbps(rng.uniform_int(2, 30)));
    }
  }
  // Zero per-hop latency so completion callbacks land in the same
  // run_until() window as the channel deactivation they report — the
  // shadow's channel set then exactly mirrors the engine's at check time.
  NetworkConfig cfg;
  cfg.per_hop_latency = 0;
  Network net(sim, topo, cfg);
  Shadow shadow;

  auto random_pair = [&](NodeId& src, NodeId& dst) {
    const auto& isle =
        members[static_cast<std::size_t>(rng.uniform_int(0, islands - 1))];
    src = isle[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(isle.size()) - 1))];
    do {
      dst = isle[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(isle.size()) - 1))];
    } while (dst == src);
  };

  auto check = [&] {
    const auto expected = shadow.reference(net).stream_rates;
    for (const auto& [id, rate] : expected) {
      EXPECT_NEAR(static_cast<double>(net.stream_rate(id)), rate, kRateTol)
          << "stream " << id;
    }
    for (int l = 0; l < topo.link_count(); ++l) {
      EXPECT_LE(net.link_allocated(l), net.link_capacity(l) + 1)
          << "link " << l << " oversubscribed";
    }
  };

  // 120 random mutations: stream open/close/demand-change, transfer
  // start/completion (via time advance), capacity churn — sometimes
  // batched like a trace tick.
  for (int step = 0; step < 120; ++step) {
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.25) {
      NodeId src, dst;
      random_pair(src, dst);
      const Bps demand = rng.chance(0.2) ? 0 : mbps(rng.uniform_int(1, 20));
      const StreamId id = net.open_stream(src, dst, demand);
      shadow.streams.push_back(
          {id, {src, dst, static_cast<double>(demand), true, id}});
    } else if (op < 0.4 && !shadow.streams.empty()) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shadow.streams.size()) - 1));
      net.close_stream(shadow.streams[idx].first);
      shadow.streams.erase(shadow.streams.begin() +
                           static_cast<std::ptrdiff_t>(idx));
    } else if (op < 0.55 && !shadow.streams.empty()) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shadow.streams.size()) - 1));
      const Bps demand = rng.chance(0.2) ? 0 : mbps(rng.uniform_int(1, 20));
      net.set_stream_demand(shadow.streams[idx].first, demand);
      shadow.streams[idx].second.demand = static_cast<double>(demand);
    } else if (op < 0.7) {
      NodeId src, dst;
      random_pair(src, dst);
      const auto key = std::make_pair(src, dst);
      ++shadow.channel_backlog[key];
      net.start_transfer(src, dst, rng.uniform_int(100'000, 5'000'000),
                         [&shadow, key] { --shadow.channel_backlog[key]; });
    } else if (op < 0.9) {
      // Trace tick: batch-update 1-4 random links.
      Network::BatchUpdate batch(net);
      const int updates = static_cast<int>(rng.uniform_int(1, 4));
      for (int u = 0; u < updates; ++u) {
        const LinkId l =
            static_cast<LinkId>(rng.uniform_int(0, topo.link_count() - 1));
        net.set_link_capacity(l, mbps(rng.uniform_int(1, 30)));
      }
    } else {
      // Let transfers drain / complete so channels churn too.
      sim.run_until(sim.now() + sim::millis(rng.uniform_int(50, 2000)));
    }
    check();
  }
  sim.run_all();
  check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(ChurnCase{1}, ChurnCase{2}, ChurnCase{3},
                                           ChurnCase{4}, ChurnCase{5}, ChurnCase{6},
                                           ChurnCase{7}, ChurnCase{8}, ChurnCase{9},
                                           ChurnCase{10}, ChurnCase{11}, ChurnCase{12}));

// ---- Uncontended-churn shortcuts vs. from-scratch reference ----

// Network rates and link loads are read back truncated to whole bps, so
// "within kAllocEps of the oracle" reads: the oracle value lies within
// kAllocEps of [read, read + 1).
void expect_truncation_of(Bps read, double expected, double eps, const char* what,
                          std::int64_t which) {
  EXPECT_LE(std::abs(static_cast<double>(read) + 0.5 - expected), 0.5 + eps)
      << what << " " << which << " reads " << read << ", oracle " << expected;
}

class UncontendedChurn : public ::testing::TestWithParam<ChurnCase> {};

// Mostly-uncontended stream churn, the regime the in-place shortcut serves:
// opens, closes and demand changes (up, down, to 0 and back), alone or in
// batches that mix them, some batches led by a capacity change. Mixed in are
// oversubscribing streams, backlogged transfers and capacity ticks that
// saturate links. After every step each stream rate matches the reference
// kernel's allocation of the whole flow set, and each link's allocation is
// the sum of its flows' reference rates, both within kAllocEps: the
// shortcuts and the passes together stay indistinguishable from recomputing
// the world. Inside a batch whose changes have all applied in place so far,
// the same holds after each change, before the batch closes.
TEST_P(UncontendedChurn, ShortcutsMatchFromScratchReference) {
  util::Rng rng(GetParam().seed * 104729);
  sim::Simulation sim;

  // A 10-node ring with chords; links are wide next to the small streams.
  Topology topo;
  constexpr int kNodes = 10;
  for (int i = 0; i < kNodes; ++i) topo.add_node();
  for (int i = 0; i < kNodes; ++i) {
    topo.add_link(i, (i + 1) % kNodes, mbps(rng.uniform_int(20, 100)));
  }
  for (int c = 0; c < 3; ++c) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
    const auto b = static_cast<NodeId>((a + rng.uniform_int(2, kNodes / 2)) % kNodes);
    if (!topo.link_between(a, b)) topo.add_link(a, b, mbps(rng.uniform_int(20, 100)));
  }
  NetworkConfig cfg;
  cfg.per_hop_latency = 0;  // completions land in the window that drains them
  Network net(sim, topo, cfg);
  Shadow shadow;
  const AllocStats& stats = net.alloc_stats();

  auto random_pair = [&](NodeId& src, NodeId& dst) {
    src = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
    do {
      dst = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
    } while (dst == src);
  };

  auto check = [&](int step) {
    const Shadow::Reference ref = shadow.reference(net);
    for (const auto& [id, rate] : ref.stream_rates) {
      expect_truncation_of(net.stream_rate(id), rate, kAllocEps, "stream", id);
    }
    for (int l = 0; l < topo.link_count(); ++l) {
      const auto li = static_cast<std::size_t>(l);
      expect_truncation_of(net.link_allocated(l), ref.link_load[li],
                           kAllocEps * (ref.link_flows[li] + 1), "link", l);
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  };

  // Nine in ten streams are small enough to fit; the rest oversubscribe.
  auto random_demand = [&]() -> Bps {
    return rng.chance(0.9) ? kbps(rng.uniform_int(100, 3000)) : mbps(rng.uniform_int(20, 120));
  };
  auto open = [&] {
    NodeId src, dst;
    random_pair(src, dst);
    const Bps demand = random_demand();
    const StreamId id = net.open_stream(src, dst, demand);
    shadow.streams.push_back({id, {src, dst, static_cast<double>(demand), true, id}});
  };
  auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(shadow.streams.size()) - 1));
  };
  auto close = [&] {
    const std::size_t idx = pick();
    net.close_stream(shadow.streams[idx].first);
    shadow.streams.erase(shadow.streams.begin() + static_cast<std::ptrdiff_t>(idx));
  };
  // Up, down, to 0, or back from 0.
  std::int64_t demand_shortcuts = 0;
  auto change_demand = [&] {
    auto& [id, flow] = shadow.streams[pick()];
    Bps demand;
    if (flow.demand <= 0.0) {
      demand = random_demand();
    } else if (rng.chance(0.15)) {
      demand = 0;
    } else if (rng.chance(0.5)) {
      demand = static_cast<Bps>(flow.demand * rng.uniform(1.1, 3.0));
    } else {
      demand = static_cast<Bps>(flow.demand * rng.uniform(0.2, 0.9));
    }
    const std::int64_t before = stats.shortcuts;
    net.set_stream_demand(id, demand);
    flow.demand = static_cast<double>(demand);
    demand_shortcuts += stats.shortcuts - before;
  };

  std::int64_t batch_shortcuts = 0;
  for (int step = 0; step < 400; ++step) {
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.35 || shadow.streams.empty()) {
      open();
    } else if (op < 0.62) {
      close();
    } else if (op < 0.77) {
      change_demand();
    } else if (op < 0.81) {
      NodeId src, dst;
      random_pair(src, dst);
      const auto key = std::make_pair(src, dst);
      ++shadow.channel_backlog[key];
      net.start_transfer(src, dst, rng.uniform_int(100'000, 2'000'000),
                         [&shadow, key] { --shadow.channel_backlog[key]; });
    } else if (op < 0.86) {
      // Capacity tick, sometimes low enough to saturate what runs there.
      Network::BatchUpdate batch(net);
      const int updates = static_cast<int>(rng.uniform_int(1, 3));
      for (int u = 0; u < updates; ++u) {
        const auto l = static_cast<LinkId>(rng.uniform_int(0, topo.link_count() - 1));
        net.set_link_capacity(l, mbps(rng.uniform_int(2, 100)));
      }
    } else if (op < 0.95) {
      // A batch of stream changes, a third of them led by a capacity change.
      Network::BatchUpdate batch(net);
      bool settled = true;  // every change so far applied in place
      if (rng.chance(0.33)) {
        const auto l = static_cast<LinkId>(rng.uniform_int(0, topo.link_count() - 1));
        net.set_link_capacity(l, mbps(rng.uniform_int(2, 100)));
        settled = false;
      }
      const int changes = static_cast<int>(rng.uniform_int(2, 6));
      for (int c = 0; c < changes; ++c) {
        const std::int64_t before = stats.shortcuts;
        const double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.35 || shadow.streams.empty()) {
          open();
        } else if (kind < 0.6) {
          close();
        } else {
          change_demand();
        }
        batch_shortcuts += stats.shortcuts - before;
        settled = settled && stats.shortcuts > before;
        if (settled) check(step);
        if (::testing::Test::HasFailure()) return;
      }
    } else {
      sim.run_until(sim.now() + sim::millis(rng.uniform_int(50, 1000)));
    }
    check(step);
    if (::testing::Test::HasFailure()) return;
  }
  sim.run_all();
  check(400);

  // Both paths ran: most stream changes skipped the pass, some did not, and
  // demand changes and changes inside batches took the shortcut too.
  EXPECT_GT(stats.shortcuts, 150);
  EXPECT_GT(stats.reallocations, 20);
  EXPECT_GT(demand_shortcuts, 20);
  EXPECT_GT(batch_shortcuts, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UncontendedChurn,
                         ::testing::Values(ChurnCase{1}, ChurnCase{2}, ChurnCase{3},
                                           ChurnCase{4}, ChurnCase{5}, ChurnCase{6},
                                           ChurnCase{7}, ChurnCase{8}));

// ---- Lone-transfer shortcuts vs. from-scratch reference ----

class LoneTransfers : public ::testing::TestWithParam<ChurnCase> {};

// Request-path traffic: mostly one-hop transfers between ring neighbours,
// which often run alone on their path (their channel opens at the lone
// closed-form rate and goes idle in place), mixed with multi-hop transfers
// that share links, probe-sized streams, cancels, and capacity ticks inside
// batches, some with a transfer started in the same batch. After every step
// each stream rate and each link's allocation matches the reference
// kernel's allocation of the whole flow set within kAllocEps.
TEST_P(LoneTransfers, ShortcutsMatchFromScratchReference) {
  util::Rng rng(GetParam().seed * 15485863);
  sim::Simulation sim;

  // A 12-node ring with a few chords.
  Topology topo;
  constexpr int kNodes = 12;
  for (int i = 0; i < kNodes; ++i) topo.add_node();
  for (int i = 0; i < kNodes; ++i) {
    topo.add_link(i, (i + 1) % kNodes, mbps(rng.uniform_int(10, 100)));
  }
  for (int c = 0; c < 3; ++c) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
    const auto b = static_cast<NodeId>((a + rng.uniform_int(3, kNodes / 2)) % kNodes);
    if (!topo.link_between(a, b)) topo.add_link(a, b, mbps(rng.uniform_int(10, 100)));
  }
  NetworkConfig cfg;
  cfg.per_hop_latency = 0;  // completions land in the window that drains them
  Network net(sim, topo, cfg);
  Shadow shadow;
  struct Sent {
    TransferId id;
    std::pair<NodeId, NodeId> key;
  };
  std::vector<Sent> sent;

  auto start = [&](bool neighbours) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
    NodeId dst;
    if (neighbours) {
      dst = static_cast<NodeId>((src + (rng.chance(0.5) ? 1 : kNodes - 1)) % kNodes);
    } else {
      do {
        dst = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      } while (dst == src);
    }
    const auto key = std::make_pair(src, dst);
    ++shadow.channel_backlog[key];
    const TransferId id = net.start_transfer(
        src, dst, rng.uniform_int(5'000, 400'000),
        [&shadow, key] { --shadow.channel_backlog[key]; });
    sent.push_back({id, key});
  };

  auto check = [&](int step) {
    const Shadow::Reference ref = shadow.reference(net);
    for (const auto& [id, rate] : ref.stream_rates) {
      expect_truncation_of(net.stream_rate(id), rate, kAllocEps, "stream", id);
    }
    for (int l = 0; l < topo.link_count(); ++l) {
      const auto li = static_cast<std::size_t>(l);
      expect_truncation_of(net.link_allocated(l), ref.link_load[li],
                           kAllocEps * (ref.link_flows[li] + 1), "link", l);
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  };

  int lone_opens = 0;
  for (int step = 0; step < 500; ++step) {
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.4) {
      const auto before = net.alloc_stats().shortcuts;
      start(rng.chance(0.75));
      if (net.alloc_stats().shortcuts > before) ++lone_opens;
    } else if (op < 0.52) {
      // Probe-sized streams; one in ten oversubscribes instead.
      NodeId src = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      NodeId dst = static_cast<NodeId>((src + rng.uniform_int(1, kNodes - 1)) % kNodes);
      const Bps demand = rng.chance(0.9) ? kbps(rng.uniform_int(50, 2000))
                                         : mbps(rng.uniform_int(20, 120));
      const StreamId id = net.open_stream(src, dst, demand);
      shadow.streams.push_back({id, {src, dst, static_cast<double>(demand), true, id}});
    } else if (op < 0.64 && !shadow.streams.empty()) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shadow.streams.size()) - 1));
      net.close_stream(shadow.streams[idx].first);
      shadow.streams.erase(shadow.streams.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op < 0.69 && !sent.empty()) {
      const Sent& t = sent[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sent.size()) - 1))];
      if (net.cancel_transfer(t.id)) --shadow.channel_backlog[t.key];
    } else if (op < 0.77) {
      // Capacity tick, sometimes with a transfer started inside the batch.
      Network::BatchUpdate batch(net);
      const int updates = static_cast<int>(rng.uniform_int(1, 3));
      for (int u = 0; u < updates; ++u) {
        const auto l = static_cast<LinkId>(rng.uniform_int(0, topo.link_count() - 1));
        net.set_link_capacity(l, mbps(rng.uniform_int(2, 100)));
      }
      if (rng.chance(0.3)) start(true);
    } else {
      sim.run_until(sim.now() + sim::millis(rng.uniform_int(1, 300)));
    }
    check(step);
    if (::testing::Test::HasFailure()) return;
  }
  sim.run_all();
  check(500);

  // Lone channels skipped their pass; contended changes still took one.
  EXPECT_GT(lone_opens, 40);
  EXPECT_GT(net.alloc_stats().reallocations, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoneTransfers,
                         ::testing::Values(ChurnCase{1}, ChurnCase{2}, ChurnCase{3},
                                           ChurnCase{4}, ChurnCase{5}, ChurnCase{6},
                                           ChurnCase{7}, ChurnCase{8}));

// ---- Contention-component isolation ----

TEST(ContentionComponents, CapacityChangeTouchesOnlyItsComponent) {
  sim::Simulation sim;
  // Two disjoint islands: 0-1-2 (line) and 3-4-5 (line).
  Topology topo;
  for (int i = 0; i < 6; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(1, 2, mbps(10));
  topo.add_link(3, 4, mbps(10));
  topo.add_link(4, 5, mbps(10));
  Network net(sim, topo);

  // Island A: 3 flows across 0-1-2. Island B: 2 flows across 3-4-5.
  net.open_stream(0, 2, mbps(6));
  net.open_stream(0, 1, mbps(6));
  net.open_stream(1, 2, mbps(6));
  const StreamId b1 = net.open_stream(3, 5, mbps(6));
  const StreamId b2 = net.open_stream(3, 4, mbps(6));

  // A capacity blip on island A's 0->1 link must reprice only island A.
  const auto before = net.alloc_stats().flows_touched;
  if (auto l = net.topology().link_between(0, 1)) {
    net.set_link_capacity(*l, mbps(4));
  }
  EXPECT_EQ(net.alloc_stats().last_flows_touched, 3);
  EXPECT_EQ(net.alloc_stats().flows_touched - before, 3);
  // Island B's rates are untouched (and still correct).
  EXPECT_NEAR(static_cast<double>(net.stream_rate(b1)), 5e6, kRateTol);
  EXPECT_NEAR(static_cast<double>(net.stream_rate(b2)), 5e6, kRateTol);
}

TEST(ContentionComponents, DisjointPathsOnSharedIslandStayIndependent) {
  sim::Simulation sim;
  // Star: center 0 with leaves 1..4. Flow 1->0 and flow 2->0 share no
  // directed link with flow 0->3, so they are separate components even in
  // one connected island.
  Topology topo;
  for (int i = 0; i < 5; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(0, 2, mbps(10));
  topo.add_link(0, 3, mbps(10));
  topo.add_link(0, 4, mbps(10));
  Network net(sim, topo);

  net.open_stream(1, 0, mbps(8));
  net.open_stream(0, 3, mbps(8));
  net.open_stream(0, 4, mbps(8));

  if (auto l = net.topology().link_between(1, 0)) {
    net.set_link_capacity(*l, mbps(3));
  }
  // Only the 1->0 stream shares the dirtied directed link.
  EXPECT_EQ(net.alloc_stats().last_flows_touched, 1);
}

TEST(ContentionComponents, IdleLinkChangeTouchesNoFlows) {
  sim::Simulation sim;
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(1, 2, mbps(10));
  Network net(sim, topo);
  net.open_stream(0, 1, mbps(5));

  if (auto l = net.topology().link_between(2, 1)) {
    net.set_link_capacity(*l, mbps(3));  // reverse direction: no flows
  }
  EXPECT_EQ(net.alloc_stats().last_flows_touched, 0);
  EXPECT_GT(net.alloc_stats().reallocations, 0);
}

TEST(ContentionComponents, StatsAccumulate) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, mbps(10));
  Network net(sim, topo);
  // Each stream alone oversubscribes the link, so both opens take a pass.
  net.open_stream(0, 1, mbps(12));
  net.open_stream(0, 1, mbps(12));
  const auto& stats = net.alloc_stats();
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.flows_touched, 1 + 2);  // first solo, then both
  EXPECT_EQ(stats.max_component_flows, 2);
  EXPECT_EQ(stats.full_reallocations, 2);  // one shared link: all flows
  EXPECT_GE(stats.alloc_seconds, 0.0);
}

}  // namespace
}  // namespace bass::net

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "net/network.h"
#include "sched/network_view.h"
#include "trace/citylab.h"
#include "trace/generator.h"
#include "trace/player.h"
#include "trace/trace.h"

namespace bass::trace {
namespace {

TEST(BandwidthTrace, StepFunctionLookup) {
  BandwidthTrace t;
  t.append(sim::seconds(0), net::mbps(10));
  t.append(sim::seconds(10), net::mbps(5));
  EXPECT_EQ(t.value_at(-sim::seconds(1)), net::mbps(10));
  EXPECT_EQ(t.value_at(sim::seconds(0)), net::mbps(10));
  EXPECT_EQ(t.value_at(sim::seconds(9)), net::mbps(10));
  EXPECT_EQ(t.value_at(sim::seconds(10)), net::mbps(5));
  EXPECT_EQ(t.value_at(sim::seconds(100)), net::mbps(5));
}

TEST(BandwidthTrace, EmptyTrace) {
  BandwidthTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.value_at(0), 0);
  EXPECT_EQ(t.duration(), 0);
}

TEST(BandwidthTrace, Stats) {
  BandwidthTrace t;
  t.append(0, net::mbps(10));
  t.append(sim::seconds(1), net::mbps(20));
  EXPECT_DOUBLE_EQ(t.mean_bps(), 15e6);
  EXPECT_EQ(t.min_bps(), net::mbps(10));
  EXPECT_EQ(t.max_bps(), net::mbps(20));
}

TEST(BandwidthTrace, StddevSinglePointIsZero) {
  BandwidthTrace t;
  t.append(0, 5);
  EXPECT_EQ(t.stddev_bps(), 0.0);
  EXPECT_EQ(BandwidthTrace().mean_bps(), 0.0);
}

TEST(BandwidthTrace, StddevKnownValue) {
  // Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
  BandwidthTrace t;
  sim::Time at = 0;
  for (const net::Bps bps : {2, 4, 4, 4, 5, 5, 7, 9}) t.append(at++, bps);
  EXPECT_DOUBLE_EQ(t.stddev_bps(), 2.0);
}

TEST(BandwidthTrace, CsvRoundTrip) {
  BandwidthTrace t;
  t.append(0, net::mbps(7));
  t.append(sim::seconds(30), net::kbps(7620));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bass_trace_test.csv").string();
  ASSERT_TRUE(t.save_csv(path));
  const auto loaded = BandwidthTrace::load_csv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->points()[1].bps, net::kbps(7620));
  EXPECT_EQ(loaded->points()[1].at, sim::seconds(30));
  std::filesystem::remove(path);
}

TEST(Generator, MatchesTargetStatistics) {
  GeneratorParams p;
  p.mean_bps = net::kbps(19900);
  p.stddev_frac = 0.10;
  p.duration = sim::minutes(120);  // long trace for tight convergence
  util::Rng rng(11);
  const BandwidthTrace t = generate_trace(p, rng);
  EXPECT_NEAR(t.mean_bps(), 19.9e6, 19.9e6 * 0.05);
  EXPECT_NEAR(t.stddev_bps() / t.mean_bps(), 0.10, 0.03);
}

TEST(Generator, VariableLinkHasHigherSpread) {
  util::Rng rng_a(5), rng_b(5);
  const BandwidthTrace stable = generate_trace(fig2_stable_link(), rng_a);
  const BandwidthTrace variable = generate_trace(fig2_variable_link(), rng_b);
  EXPECT_GT(variable.stddev_bps() / variable.mean_bps(),
            stable.stddev_bps() / stable.mean_bps());
}

TEST(Generator, Deterministic) {
  GeneratorParams p;
  util::Rng a(9), b(9);
  const auto t1 = generate_trace(p, a);
  const auto t2 = generate_trace(p, b);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1.points()[i].bps, t2.points()[i].bps);
  }
}

TEST(Generator, FadesReachDepth) {
  GeneratorParams p;
  p.mean_bps = net::mbps(20);
  p.fade_probability = 0.02;
  p.fade_depth_frac = 0.25;
  p.duration = sim::minutes(30);
  util::Rng rng(3);
  const BandwidthTrace t = generate_trace(p, rng);
  EXPECT_LT(static_cast<double>(t.min_bps()), 20e6 * 0.3);
}

TEST(Generator, RespectsFloor) {
  GeneratorParams p;
  p.mean_bps = net::kbps(500);
  p.stddev_frac = 2.0;  // wild process, would go negative without the floor
  p.floor_bps = net::kbps(100);
  util::Rng rng(17);
  const BandwidthTrace t = generate_trace(p, rng);
  EXPECT_GE(t.min_bps(), net::kbps(100));
}

TEST(Player, DrivesLinkCapacities) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node(), b = topo.add_node();
  topo.add_link(a, b, net::mbps(10));
  net::Network network(sim, std::move(topo));
  const sched::NetworkView view(network);

  BandwidthTrace t;
  t.append(sim::seconds(5), net::mbps(4));
  t.append(sim::seconds(10), net::mbps(2));
  TracePlayer player(network);
  player.add_bidirectional(a, b, t);
  player.start();

  sim.run_until(sim::seconds(6));
  EXPECT_EQ(view.path_capacity(a, b), net::mbps(4));
  EXPECT_EQ(view.path_capacity(b, a), net::mbps(4));
  sim.run_until(sim::seconds(11));
  EXPECT_EQ(view.path_capacity(a, b), net::mbps(2));
}

TEST(Player, BidirectionalOnUnlinkedNodesThrowsNamingBoth) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node("roof"), b = topo.add_node("mast"),
             c = topo.add_node("cellar");
  topo.add_link(a, b, net::mbps(10));
  net::Network network(sim, std::move(topo));
  TracePlayer player(network);
  BandwidthTrace t;
  t.append(0, net::mbps(4));
  try {
    player.add_bidirectional(a, c, t);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'roof'"), std::string::npos) << what;
    EXPECT_NE(what.find("'cellar'"), std::string::npos) << what;
  }
  EXPECT_THROW(player.add_bidirectional(a, 7, t), std::invalid_argument);
  // Nothing was bound: starting plays no trace.
  player.start();
  EXPECT_EQ(network.link_capacity(*network.topology().link_between(a, b)),
            net::mbps(10));
}

TEST(Player, LoopsWhenRequested) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node(), b = topo.add_node();
  topo.add_link(a, b, net::mbps(10));
  net::Network network(sim, std::move(topo));
  const sched::NetworkView view(network);

  BandwidthTrace t;
  t.append(sim::seconds(0), net::mbps(8));
  t.append(sim::seconds(2), net::mbps(3));
  TracePlayer player(network);
  player.add_bidirectional(a, b, t);
  player.start(/*loop=*/true);

  // One full cycle is ~3 s (2 s trace + 1 s restart gap); after several
  // cycles the capacity still alternates.
  sim.run_until(sim::seconds(30));
  const net::Bps cap = view.path_capacity(a, b);
  EXPECT_TRUE(cap == net::mbps(8) || cap == net::mbps(3));
  EXPECT_GT(network.reallocation_count(), 10);
}

TEST(CityLab, MeshShape) {
  const CityLabMesh mesh = citylab_mesh();
  EXPECT_EQ(mesh.topology.node_count(), 5);
  EXPECT_EQ(mesh.workers.size(), 4u);
  // node3-node4 link averages 25 Mbps (Fig. 8 setup).
  const auto l = mesh.topology.link_between(3, 4);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(mesh.topology.link(*l).capacity, net::mbps(25));
  // Fully connected (every pair reachable).
  net::RoutingTable rt(mesh.topology);
  for (net::NodeId u = 0; u < 5; ++u) {
    for (net::NodeId v = 0; v < 5; ++v) EXPECT_TRUE(rt.reachable(u, v));
  }
}

TEST(CityLab, TraceBindingCoversAllLinks) {
  const CityLabMesh mesh = citylab_mesh();
  sim::Simulation sim;
  net::Network network(sim, mesh.topology);
  TracePlayer player(network);
  bind_citylab_traces(mesh, player, sim::minutes(1), /*fades=*/false, /*seed=*/1);
  player.start();
  sim.run_until(sim::seconds(30));
  // Every link should have been driven away from its exact initial mean at
  // least once by now (the OU process almost surely moves).
  int moved = 0;
  for (const auto& l : mesh.links) {
    const auto id = mesh.topology.link_between(l.a, l.b);
    if (network.link_capacity(*id) != l.mean_bps) ++moved;
  }
  EXPECT_GT(moved, 0);
}

}  // namespace
}  // namespace bass::trace

namespace bass::trace {
namespace {

TEST(Generator, FadeDurationRespected) {
  GeneratorParams p;
  p.mean_bps = net::mbps(20);
  p.fade_probability = 1.0;  // fade starts immediately
  p.fade_depth_frac = 0.25;
  p.fade_duration = sim::seconds(40);
  p.duration = sim::minutes(2);
  util::Rng rng(1);
  const BandwidthTrace t = generate_trace(p, rng);
  // Every sample in the first 40 s is capped at 5 Mbps.
  for (const auto& pt : t.points()) {
    if (pt.at < sim::seconds(40)) {
      EXPECT_LE(pt.bps, net::mbps(5));
    }
  }
}

TEST(Generator, StepGranularityRespected) {
  GeneratorParams p;
  p.step = sim::seconds(5);
  p.duration = sim::minutes(1);
  util::Rng rng(2);
  const BandwidthTrace t = generate_trace(p, rng);
  EXPECT_EQ(t.size(), 13u);  // t=0,5,...,60
  EXPECT_EQ(t.points()[1].at, sim::seconds(5));
}

TEST(Player, SharedTimestampsApplyAsOneBatch) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node(), b = topo.add_node(), c = topo.add_node();
  topo.add_link(a, b, net::mbps(10));
  topo.add_link(b, c, net::mbps(10));
  net::Network network(sim, std::move(topo));
  network.open_stream(a, c, net::mbps(8));  // something to reallocate

  BandwidthTrace t1, t2;
  for (int i = 1; i <= 5; ++i) {
    t1.append(sim::seconds(i), net::mbps(3 + i));
    t2.append(sim::seconds(i), net::mbps(4 + i));
  }
  TracePlayer player(network);
  player.add_bidirectional(a, b, t1);
  player.add_bidirectional(b, c, t2);
  const auto before = network.reallocation_count();
  player.start();
  sim.run_until(sim::minutes(1));
  // 5 ticks, 4 links, but one reallocation per tick thanks to batching.
  EXPECT_LE(network.reallocation_count() - before, 5 + 1);
}

TEST(Player, EmptyPlayerIsANoOp) {
  sim::Simulation sim;
  net::Topology topo;
  const auto a = topo.add_node(), b = topo.add_node();
  topo.add_link(a, b, net::mbps(10));
  net::Network network(sim, std::move(topo));
  const sched::NetworkView view(network);
  TracePlayer player(network);
  player.start(/*loop=*/true);
  sim.run_until(sim::minutes(1));
  EXPECT_EQ(view.path_capacity(a, b), net::mbps(10));
  EXPECT_EQ(player.max_duration(), 0);
}

TEST(CityLab, PerLinkFadeDepthClasses) {
  const CityLabMesh mesh = citylab_mesh();
  for (const auto& l : mesh.links) {
    EXPECT_GT(l.fade_depth, 0.0);
    EXPECT_LE(l.fade_depth, 1.0);
  }
  // The Fig. 2 "variable" class link collapses harder than the stable one.
  double stable_depth = 0, variable_depth = 0;
  for (const auto& l : mesh.links) {
    if (l.mean_bps == net::kbps(19900)) stable_depth = l.fade_depth;
    if (l.mean_bps == net::kbps(7620)) variable_depth = l.fade_depth;
  }
  EXPECT_GT(stable_depth, variable_depth);
}

}  // namespace
}  // namespace bass::trace

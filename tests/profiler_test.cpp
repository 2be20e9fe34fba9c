#include <gtest/gtest.h>

#include <memory>

#include "profiler/online_profiler.h"
#include "workload/request_engine.h"

namespace bass::profiler {
namespace {

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;
  core::DeploymentId id = core::kInvalidDeployment;

  Fixture() {
    net::Topology topo;
    topo.add_node();
    topo.add_node();
    topo.add_link(0, 1, net::mbps(100));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    cluster.add_node(0, {8000, 8192, true});
    cluster.add_node(1, {8000, 8192, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);

    app::AppGraph g("profiled");
    g.add_component({.name = "front", .cpu_milli = 100, .memory_mb = 64,
                     .service_time = sim::millis(1), .concurrency = 8});
    g.add_component({.name = "back", .cpu_milli = 100, .memory_mb = 64,
                     .service_time = sim::millis(1), .concurrency = 8});
    // Deliberately wrong offline profile: 50 Mbps claimed.
    g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(50),
                      .request_bytes = 4000, .response_bytes = 6000});
    id = orch->deploy(g, core::SchedulerKind::kBassBfs).take();
  }
};

TEST(OnlineProfiler, ConvergesToObservedRate) {
  Fixture f;
  workload::RequestWorkloadConfig cfg;
  cfg.rps = 50;  // 50 * 10 KB * 8 = 4 Mbps of edge traffic
  cfg.client_node = 0;
  workload::RequestEngine engine(*f.orch, f.id, cfg);
  engine.start();

  ProfilerConfig pcfg;
  pcfg.sample_interval = sim::seconds(10);
  pcfg.safety_factor = 1.25;
  OnlineProfiler profiler(*f.orch, f.id, pcfg);
  profiler.start();

  f.sim.run_until(sim::minutes(3));
  engine.stop();
  profiler.stop();

  // 4 Mbps observed * 1.25 safety = ~5 Mbps requirement.
  const double estimate = static_cast<double>(profiler.estimate(0, 1));
  EXPECT_NEAR(estimate, 5e6, 1e6);
  // The deployment's edge weight was rewritten from the bogus 50 Mbps.
  net::Bps deployed = 0;
  for (const auto& e : f.orch->app(f.id).edges()) {
    if (e.from == 0 && e.to == 1) deployed = e.bandwidth;
  }
  EXPECT_NEAR(static_cast<double>(deployed), estimate, 1e5);
  EXPECT_GT(profiler.updates_published(), 0);
}

TEST(OnlineProfiler, EnvelopeTracksSurgeImmediately) {
  Fixture f;
  workload::RequestWorkloadConfig cfg;
  cfg.rps = 10;
  cfg.client_node = 0;
  workload::RequestEngine engine(*f.orch, f.id, cfg);
  engine.start();
  OnlineProfiler profiler(*f.orch, f.id, {.sample_interval = sim::seconds(5)});
  profiler.start();
  f.sim.run_until(sim::minutes(1));
  const auto low = profiler.estimate(0, 1);

  // Surge: feed extra traffic directly into the stats (a burst).
  f.orch->traffic_stats(f.id).record(0, 20'000'000);  // 20 MB burst
  f.sim.run_until(sim::minutes(1) + sim::seconds(6));
  const auto high = profiler.estimate(0, 1);
  EXPECT_GT(high, low * 5);
}

TEST(OnlineProfiler, EnvelopeDecaysAfterBurst) {
  Fixture f;
  OnlineProfiler profiler(*f.orch, f.id,
                          {.sample_interval = sim::seconds(5), .release = 0.2});
  profiler.start();
  f.orch->traffic_stats(f.id).record(0, 50'000'000);
  f.sim.run_until(sim::seconds(6));
  const auto peak = profiler.estimate(0, 1);
  ASSERT_GT(peak, 0);
  f.sim.run_until(sim::minutes(3));
  const auto decayed = profiler.estimate(0, 1);
  EXPECT_LT(decayed, peak / 2);
  EXPECT_GT(decayed, 0);
}

TEST(OnlineProfiler, NoUpdatesBeforeWarmup) {
  Fixture f;
  ProfilerConfig pcfg;
  pcfg.sample_interval = sim::seconds(10);
  pcfg.warmup_samples = 100;  // effectively never within this test
  OnlineProfiler profiler(*f.orch, f.id, pcfg);
  profiler.start();
  f.orch->traffic_stats(f.id).record(0, 10'000'000);
  f.sim.run_until(sim::minutes(2));
  EXPECT_EQ(profiler.updates_published(), 0);
  // The original (wrong) offline profile is untouched.
  EXPECT_EQ(f.orch->app(f.id).edges()[0].bandwidth, net::mbps(50));
}

TEST(OnlineProfiler, StopHaltsSampling) {
  Fixture f;
  OnlineProfiler profiler(*f.orch, f.id, {.sample_interval = sim::seconds(5)});
  profiler.start();
  f.sim.run_until(sim::seconds(21));
  profiler.stop();
  const int samples = profiler.samples_taken();
  EXPECT_EQ(samples, 4);
  f.sim.run_until(sim::minutes(2));
  EXPECT_EQ(profiler.samples_taken(), samples);
}

TEST(AppGraph, SetEdgeBandwidth) {
  app::AppGraph g("mut");
  g.add_component({.name = "a"});
  g.add_component({.name = "b"});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  EXPECT_TRUE(g.set_edge_bandwidth(0, 1, net::mbps(7)));
  EXPECT_EQ(g.edges()[0].bandwidth, net::mbps(7));
  EXPECT_FALSE(g.set_edge_bandwidth(1, 0, net::mbps(7)));  // no such edge
}

}  // namespace
}  // namespace bass::profiler

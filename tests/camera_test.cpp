#include <gtest/gtest.h>

#include <memory>

#include "app/catalog.h"
#include "workload/camera_pipeline.h"

namespace bass::workload {
namespace {

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;
  core::DeploymentId id = core::kInvalidDeployment;

  explicit Fixture(net::Bps link = net::gbps(1),
                   core::SchedulerKind kind = core::SchedulerKind::kBassBfs) {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) topo.add_link(i, j, link);
    }
    network = std::make_unique<net::Network>(sim, std::move(topo));
    for (int i = 0; i < 3; ++i) cluster.add_node(i, {12000, 16384, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);
    id = orch->deploy(app::camera_pipeline_app(), kind).take();
  }
};

TEST(CameraPipeline, AnnotatesEveryFrameWhenHealthy) {
  Fixture f;
  CameraPipelineConfig cfg;
  cfg.fps = 10;
  CameraPipelineEngine engine(*f.orch, f.id, cfg);
  engine.start();
  f.sim.run_until(sim::minutes(2));
  engine.stop();
  f.sim.run_until(sim::minutes(3));
  EXPECT_NEAR(static_cast<double>(engine.frames_captured()), 1200, 5);
  EXPECT_EQ(engine.frames_annotated() + engine.frames_dropped() +
                engine.frames_sampled_out(),
            engine.frames_captured());
  // Healthy fast cluster: virtually nothing drops.
  EXPECT_LT(engine.frames_dropped(), 10);
  // e2e = ~2+120+180 ms compute plus small transfers.
  EXPECT_NEAR(engine.e2e().mean_ms(), 305, 30);
}

TEST(CameraPipeline, StageBreakdownIsMonotone) {
  Fixture f;
  CameraPipelineEngine engine(*f.orch, f.id, {});
  engine.start();
  f.sim.run_until(sim::minutes(1));
  engine.stop();
  f.sim.run_until(sim::minutes(2));
  ASSERT_GT(engine.to_sampler().count(), 0u);
  EXPECT_LT(engine.to_sampler().mean_ms(), engine.to_detector().mean_ms());
  EXPECT_LT(engine.to_detector().mean_ms(), engine.to_image().mean_ms());
  EXPECT_DOUBLE_EQ(engine.to_image().mean_ms(), engine.e2e().mean_ms());
}

TEST(CameraPipeline, SamplerDropsDissimilarFraction) {
  Fixture f;
  CameraPipelineConfig cfg;
  cfg.fps = 20;
  cfg.sample_ratio = 0.4;
  cfg.seed = 7;
  CameraPipelineEngine engine(*f.orch, f.id, cfg);
  engine.start();
  f.sim.run_until(sim::minutes(2));
  engine.stop();
  f.sim.run_until(sim::minutes(3));
  const double forwarded =
      static_cast<double>(engine.frames_annotated()) /
      static_cast<double>(engine.frames_annotated() + engine.frames_sampled_out());
  EXPECT_NEAR(forwarded, 0.4, 0.05);
}

TEST(CameraPipeline, StarvedLinkDropsFramesInsteadOfQueueing) {
  // k3s spreads the stages; strangle every link so transfers crawl.
  Fixture f(net::mbps(2), core::SchedulerKind::kK3sDefault);
  CameraPipelineConfig cfg;
  cfg.fps = 10;
  cfg.frame_buffer = 8;
  CameraPipelineEngine engine(*f.orch, f.id, cfg);
  engine.start();
  f.sim.run_until(sim::minutes(2));
  engine.stop();
  f.sim.run_until(sim::minutes(4));
  // 50 KB frames at 10 fps = 4 Mbps over 2 Mbps links: half must drop,
  // but delivered frames stay bounded-latency (the buffer's job).
  EXPECT_GT(engine.frames_dropped(), engine.frames_captured() / 4);
  EXPECT_LT(engine.e2e().percentile_ms(100), 10'000.0);
}

TEST(CameraPipeline, MigrationDropsFramesThenRecovers) {
  Fixture f;
  CameraPipelineEngine engine(*f.orch, f.id, {});
  engine.start();
  const auto det = f.orch->app(f.id).find("object-detector");
  f.sim.schedule_at(sim::seconds(30), [&] { f.orch->restart_component(f.id, det); });
  f.sim.run_until(sim::minutes(2));
  engine.stop();
  f.sim.run_until(sim::minutes(3));
  // ~20 s outage at 10 fps: roughly 200 frames dropped, none parked.
  EXPECT_NEAR(static_cast<double>(engine.frames_dropped()), 200, 40);
  // Post-restart the pipeline annotates again at full quality.
  EXPECT_GT(engine.frames_annotated(), 900);
  EXPECT_LT(engine.e2e().percentile_ms(100), 2'000.0);
}

TEST(CameraPipeline, TrafficStatsFeedTheController) {
  Fixture f;
  CameraPipelineEngine engine(*f.orch, f.id, {});
  engine.start();
  f.sim.run_until(sim::minutes(1));
  engine.stop();
  f.sim.run_until(sim::minutes(2));
  const auto& g = f.orch->app(f.id);
  // ~600 frames x 50 KB on the camera->sampler edge, the catalog's first.
  ASSERT_EQ(g.edges()[0].from, g.find("camera-stream"));
  ASSERT_EQ(g.edges()[0].to, g.find("frame-sampler"));
  EXPECT_NEAR(static_cast<double>(f.orch->traffic_stats(f.id).total_bytes(0)),
              600.0 * 50000.0, 600.0 * 50000.0 * 0.05);
}

}  // namespace
}  // namespace bass::workload

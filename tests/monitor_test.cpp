#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "monitor/net_monitor.h"
#include "monitor/traffic_stats.h"
#include "sched/network_view.h"

namespace bass::monitor {
namespace {

TEST(TrafficStats, RecordAndTotals) {
  TrafficStats stats(3);
  stats.record(1, 1000);
  stats.record(1, 500);
  stats.record(2, 100);
  EXPECT_EQ(stats.edge_count(), 3u);
  EXPECT_EQ(stats.total_bytes(1), 1500);
  EXPECT_EQ(stats.total_bytes(2), 100);
  EXPECT_EQ(stats.total_bytes(0), 0);
}

TEST(TrafficStats, TakeWindowResetsWindow) {
  TrafficStats stats(3);
  stats.record(1, 12'500);  // 100 kbit
  // Over 10 s that is 10 kbps.
  EXPECT_EQ(stats.take_window(1, sim::seconds(10)).delivered, net::kbps(10));
  // Window reset: nothing since t=10.
  EXPECT_EQ(stats.take_window(1, sim::seconds(20)).delivered, 0);
  EXPECT_EQ(stats.total_bytes(1), 12'500);  // totals persist
}

// Totals are the non-destructive read (the online profiler diffs them), so
// reading them leaves the controller's window intact.
TEST(TrafficStats, TotalsDoNotResetTheWindow) {
  TrafficStats stats(3);
  stats.record(1, 12'500);
  EXPECT_EQ(stats.total_bytes(1), 12'500);
  EXPECT_EQ(stats.total_bytes(1), 12'500);
  EXPECT_EQ(stats.take_window(1, sim::seconds(10)).delivered, net::kbps(10));
}

TEST(TrafficStats, ZeroWindowIsZeroRate) {
  TrafficStats stats(3);
  stats.record(1, 1000);
  EXPECT_EQ(stats.take_window(1, 0).delivered, 0);
}

// A retired deployment's stats have no slots: in-flight traffic that lands
// after undeploy is dropped, and reads see zero.
TEST(TrafficStats, EdgesPastTheEndReadZero) {
  TrafficStats stats(1);
  stats.record(1, 1000);
  stats.record_offered(1, 1000);
  EXPECT_EQ(stats.total_bytes(0), 0);
  EXPECT_EQ(stats.total_bytes(1), 0);
  const auto window = stats.take_window(1, sim::seconds(1));
  EXPECT_EQ(window.delivered, 0);
  EXPECT_EQ(window.offered, 0);
}

struct MonitorFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;

  // 3 nodes in a line, 20 Mbps links.
  MonitorFixture() {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, net::mbps(20));
    network = std::make_unique<net::Network>(sim, std::move(topo));
  }
};

TEST(NetMonitor, StartupFullProbesMeasureCapacity) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  for (int l = 0; l < f.network->topology().link_count(); ++l) {
    EXPECT_NEAR(static_cast<double>(monitor.cached_capacities()[l]), 20e6, 20e6 * 0.02)
        << "link " << l;
  }
  EXPECT_EQ(monitor.full_probe_count(), 4);
  monitor.stop();
}

TEST(NetMonitor, CachedPathCapacityIsBottleneck) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  f.network->set_link_capacity_between(1, 2, net::mbps(5));
  const sched::NetworkView measured(*f.network, monitor.cached_capacities().data());
  // Cache still says 20 until the next probe discovers the change.
  EXPECT_NEAR(static_cast<double>(measured.path_capacity(0, 2)), 20e6, 1e6);
  monitor.full_probe(*f.network->topology().link_between(1, 2));
  f.sim.run_until(sim::seconds(4));
  EXPECT_NEAR(static_cast<double>(measured.path_capacity(0, 2)), 5e6, 0.5e6);
  monitor.stop();
}

TEST(NetMonitor, HeadroomProbesRunPeriodically) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::minutes(2));
  // 4 links probed at t=30,60,90,120.
  EXPECT_EQ(monitor.headroom_probe_count(), 16);
  monitor.stop();
}

TEST(NetMonitor, HeadroomViolationDetectedAndFullProbeFollows) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  cfg.headroom_frac = 0.10;
  NetMonitor monitor(*f.network, cfg);

  int violations = 0;
  net::LinkId violated = net::kInvalidLink;
  monitor.set_violation_callback([&](net::LinkId l, net::Bps) {
    ++violations;
    violated = l;
  });
  monitor.start();
  f.sim.run_until(sim::seconds(5));

  // Saturate link 0->1 with app traffic and shrink that direction only:
  // the 2 Mbps headroom probe can no longer be delivered alongside the
  // demand. (The reverse direction stays healthy, pinning down which link
  // the violation fires for.)
  const auto link01 = *f.network->topology().link_between(0, 1);
  f.network->open_stream(0, 1, net::kUnlimitedRate);
  f.network->set_link_capacity(link01, net::mbps(1));

  f.sim.run_until(sim::minutes(2));
  EXPECT_GT(violations, 0);
  EXPECT_EQ(violated, link01);
  // The follow-up full probe updated the cache downward.
  EXPECT_LT(monitor.cached_capacities()[link01], net::mbps(3));
  monitor.stop();
}

TEST(NetMonitor, HeadroomOkWhenLinkIdle) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::minutes(2));
  for (int l = 0; l < f.network->topology().link_count(); ++l) {
    EXPECT_TRUE(monitor.headroom_ok(l));
  }
  monitor.stop();
}

TEST(NetMonitor, ProbeOverheadIsBounded) {
  // §6.3.4: 30 s interval, 1 s probes at 10 % capacity => ~0.33 % of link
  // traffic. Verify the measured overhead is in that ballpark.
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::minutes(10));
  monitor.stop();
  const double probe_bytes = static_cast<double>(monitor.probe_bytes_sent());
  // Capacity-seconds available over 10 min on 4 links of 20 Mbps:
  const double capacity_bytes = 4 * 20e6 / 8 * 600;
  const double startup_flood = 4 * 20e6 / 8 * 1;  // one 1 s flood per link
  EXPECT_LT(probe_bytes - startup_flood, capacity_bytes * 0.005);
  EXPECT_GT(probe_bytes, 0);
}

// Each probe reads its goodput from its own stream: with no result lost,
// the bytes the monitor books are exactly those its journaled probes
// carried, headroom probes and the floods their violations trigger alike.
TEST(NetMonitor, ProbeBytesMatchJournaledProbes) {
  MonitorFixture f;
  obs::Recorder recorder;
  NetMonitor monitor(*f.network);
  monitor.set_recorder(&recorder);
  monitor.start();
  f.sim.run_until(sim::seconds(5));
  // Contending app traffic on a shrunken link: headroom probes there come
  // up short and each triggers a flood.
  f.network->open_stream(0, 1, net::kUnlimitedRate);
  f.network->set_link_capacity(*f.network->topology().link_between(0, 1), net::mbps(1));
  f.sim.run_until(sim::minutes(3));
  monitor.stop();

  std::int64_t journaled = 0;
  int full = 0;
  int headroom = 0;
  recorder.journal().for_each([&](const obs::Event& e) {
    if (const auto* probe = std::get_if<obs::ProbeCompleted>(&e)) {
      journaled += probe->bytes;
      ++(probe->full ? full : headroom);
    }
  });
  EXPECT_EQ(monitor.probes_dropped(), 0);
  EXPECT_GT(full, 4);  // startup floods plus violation follow-ups
  EXPECT_GT(headroom, 0);
  EXPECT_GT(journaled, 0);
  EXPECT_EQ(monitor.probe_bytes_sent(), journaled);
}

TEST(MeasuredNetworkView, ReflectsCache) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  const sched::NetworkView view(*f.network, monitor.cached_capacities().data());
  EXPECT_EQ(view.link_count(), 4);
  EXPECT_NEAR(static_cast<double>(view.link_capacity(0)), 20e6, 1e6);
  EXPECT_NEAR(static_cast<double>(view.node_link_capacity(1)), 40e6, 2e6);
  EXPECT_EQ(view.routing().hops(0, 2), 2);
  EXPECT_NEAR(static_cast<double>(view.path_capacity(0, 2)), 20e6, 1e6);
  monitor.stop();
}

}  // namespace
}  // namespace bass::monitor

namespace bass::monitor {
namespace {

TEST(NetMonitor, DisplacementDetectedOnSaturatedLink) {
  // A saturated link still *delivers* a fair-share probe, but doing so
  // displaces application traffic — which must count as a headroom
  // violation (otherwise a congested link looks healthy to the probe).
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(5));
  // Fill 0->1 completely with a backlogged stream at its full capacity.
  f.network->open_stream(0, 1, net::kUnlimitedRate);
  int violations = 0;
  monitor.set_violation_callback([&](net::LinkId, net::Bps) { ++violations; });
  f.sim.run_until(sim::minutes(2));
  EXPECT_GT(violations, 0);
  const auto link01 = *f.network->topology().link_between(0, 1);
  EXPECT_FALSE(monitor.headroom_ok(link01));
  monitor.stop();
}

TEST(NetMonitor, FullRefreshRecoversStaleLowCapacity) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  cfg.full_refresh_interval = sim::minutes(2);
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::seconds(5));

  const auto link01 = *f.network->topology().link_between(0, 1);
  // Degrade, let a violation-triggered full probe cache the low value.
  f.network->set_link_capacity(link01, net::mbps(2));
  // Saturate so the headroom probe notices the degradation.
  const auto hog = f.network->open_stream(0, 1, net::kUnlimitedRate);
  f.sim.run_until(sim::seconds(70));
  EXPECT_LT(monitor.cached_capacities()[link01], net::mbps(5));
  // Recover the link; only the periodic refresh can discover it (headroom
  // probes are sized off the stale-low cache and keep passing).
  f.network->close_stream(hog);
  f.network->set_link_capacity(link01, net::mbps(20));
  f.sim.run_until(sim::minutes(5));
  EXPECT_GT(monitor.cached_capacities()[link01], net::mbps(15));
  monitor.stop();
}

TEST(NetMonitor, AlwaysFullProbeAblationFloodsEveryRound) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  cfg.always_full_probe = true;
  cfg.full_refresh_interval = 0;
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::minutes(2));
  monitor.stop();
  EXPECT_EQ(monitor.headroom_probe_count(), 0);
  // Startup round (4) + 4 rounds x 4 links.
  EXPECT_EQ(monitor.full_probe_count(), 20);
}

TEST(NetMonitor, ViolationNotRaisedByBriefProbeOfIdleLink) {
  // Probing an idle link must never displace anything or fail.
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  int violations = 0;
  monitor.set_violation_callback([&](net::LinkId, net::Bps) { ++violations; });
  monitor.start();
  f.sim.run_until(sim::minutes(5));
  EXPECT_EQ(violations, 0);
  monitor.stop();
}

}  // namespace
}  // namespace bass::monitor

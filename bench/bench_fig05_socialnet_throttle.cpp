// Fig. 5 — Average end-to-end latency of the DeathStarBench social network
// at 400 RPS (exponential arrivals) on a 3-node cluster, with one node's
// egress throttled to 25 Mbps for 2 minutes mid-run. The "sufficient
// bandwidth" run stays flat; the throttled run's latency inflates by an
// order of magnitude during the restriction (paper Fig. 5).
#include "common.h"

#include "workload/request_engine.h"

using namespace bass;

namespace {

obs::TimeSeries run(bool throttle) {
  // The paper deploys with the default k3s scheduler for this motivation
  // experiment (BASS is not in the picture yet).
  bench::LanCluster rig(3, 12000, 131072);
  const auto id =
      rig.orch->deploy(app::social_network_app(), core::SchedulerKind::kK3sDefault);
  if (!id.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", id.error().c_str());
    std::exit(1);
  }

  workload::RequestWorkloadConfig cfg;
  cfg.rps = 400;
  cfg.arrival = workload::RequestWorkloadConfig::Arrival::kExponential;
  cfg.client_node = 0;
  cfg.seed = 5;
  workload::RequestEngine engine(*rig.orch, id.value(), cfg);
  engine.start();

  if (throttle) {
    // Find a node hosting a heavy-traffic service and throttle it between
    // t=120 s and t=240 s (the paper throttles "one of the links").
    const auto target = rig.orch->node_of(
        id.value(), rig.orch->app(id.value()).find("post-storage-service"));
    rig.sim.schedule_at(sim::minutes(2),
                        [&, target] { rig.limit_node_egress(target, net::mbps(25)); });
    rig.sim.schedule_at(sim::minutes(4),
                        [&, target] { rig.restore_node_egress(target, net::gbps(1)); });
  }

  rig.sim.run_until(sim::minutes(6));
  engine.stop();
  rig.sim.run_until(sim::minutes(8));
  return engine.latencies().series().binned_mean(sim::seconds(10));
}

void print_series(const char* name, const obs::TimeSeries& series) {
  std::printf("%s (mean latency ms per 10 s bin):\n", name);
  for (const auto& s : series.samples()) {
    if (s.at > sim::minutes(6)) break;
    std::printf("  t=%3.0fs %10.1f ms\n", sim::to_seconds(s.at), s.value);
  }
  if (bench::csv_enabled()) {
    series.write_csv(std::string("fig05_") + name + ".csv", "latency_ms");
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 5: social network latency under a 25 Mbps throttle (400 RPS)");
  const auto baseline = run(false);
  const auto throttled = run(true);
  print_series("sufficient-bandwidth", baseline);
  print_series("throttled-120s-240s", throttled);

  const double calm = baseline.mean_in(sim::minutes(2), sim::minutes(4));
  const double constrained = throttled.mean_in(sim::minutes(2), sim::minutes(4));
  std::printf("\nmean latency during the window: %.1f ms (sufficient) vs %.1f ms "
              "(throttled) -> %.1fx inflation (paper: ~an order of magnitude)\n",
              calm, constrained, constrained / std::max(calm, 1e-9));
  return 0;
}

// Fig. 12 — Video conference under a mid-run bandwidth restriction, with
// and without BASS's migration support (§6.2.3). Nine participants at
// node 3, the Pion server starts on node 2 (the Fig. 3 setup); 10 s into
// the run, node 2's egress is throttled; the restriction lifts after
// 3 minutes.
//
// With a 30 s evaluation interval BASS migrates the SFU to node 1 and the
// participants regain their bitrate after the ~30 s reconnect window; with
// no migration the conference limps through the full 3-minute restriction.
#include "common.h"

#include "workload/video_conference.h"

using namespace bass;

namespace {

obs::TimeSeries run(bool migration_enabled, sim::Duration interval) {
  core::OrchestratorConfig orch_cfg;
  orch_cfg.restart_duration = sim::seconds(20);  // + 10 s reconnect = ~30 s outage
  bench::LanCluster rig(3, 16000, 131072, net::gbps(1), orch_cfg);
  // Node 3 only hosts the client processes (the paper's load machine) —
  // cordon it so the SFU can't colocate with its own clients.
  rig.cluster.set_schedulable(2, false);
  // The monitor keeps the controller's capacity view honest.
  monitor::NetMonitor netmon(*rig.network);
  rig.orch->attach_monitor(&netmon);
  netmon.start();

  const net::Bps kStream = net::mbps(2);
  const int kParticipants = 9;
  auto graph = app::video_conference_app({{2, kParticipants}}, kStream);
  sched::Placement manual(static_cast<std::size_t>(graph.component_count()),
                          net::kInvalidNode);
  manual[static_cast<std::size_t>(graph.find("pion-sfu"))] = 1;  // server starts on node 2
  const auto id = rig.orch->deploy_with_placement(std::move(graph), manual);
  if (!id.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", id.error().c_str());
    std::exit(1);
  }

  if (migration_enabled) {
    controller::MigrationParams params;
    params.evaluation_interval = interval;
    params.utilization_threshold = 0.65;
    params.headroom_frac = 0.20;
    params.cooldown = interval;  // react after one confirming round
    params.min_migration_gap = sim::minutes(2);
    rig.orch->enable_migration(id.value(), params);
  }

  workload::VideoConferenceConfig cfg;
  cfg.groups = {{2, kParticipants}};
  cfg.per_stream = kStream;
  cfg.single_publisher = true;
  cfg.reconnect_delay = sim::seconds(10);
  workload::VideoConferenceEngine engine(*rig.orch, id.value(), cfg);
  engine.start();

  // t=10 s: node 2 egress throttled below the 16 Mbps forwarding demand;
  // t=190 s: restriction lifted (red vertical lines in the paper's figure).
  rig.sim.schedule_at(sim::seconds(10), [&] {
    rig.limit_node_egress(1, net::mbps(6));
  });
  rig.sim.schedule_at(sim::seconds(190), [&] {
    rig.restore_node_egress(1, net::gbps(1));
  });

  rig.sim.run_until(sim::minutes(5));
  engine.stop();
  netmon.stop();
  return engine.bitrate_series(2).binned_mean(sim::seconds(10));
}

void print_series(const char* name, const obs::TimeSeries& s) {
  std::printf("\n%s (per-client bitrate, 10 s bins):\n", name);
  for (const auto& p : s.samples()) {
    std::printf("  t=%3.0fs %8.0f Kbps\n", sim::to_seconds(p.at), p.value / 1e3);
  }
  if (bench::csv_enabled()) {
    s.write_csv(std::string("fig12_") + name + ".csv", "bps");
  }
}

}  // namespace

int main() {
  bench::print_header("Fig. 12: video conference bitrate, migration vs none");
  std::printf("restriction imposed t=10s, lifted t=190s (red lines in the paper)\n");
  const auto with30 = run(true, sim::seconds(30));
  const auto without = run(false, sim::seconds(30));
  print_series("migration-30s-interval", with30);
  print_series("no-migration", without);
  std::printf("\nexpect: the 30 s-interval run dips during the ~30 s migration+\n"
              "reconnect window then recovers to full bitrate; the no-migration\n"
              "run stays degraded for the whole 3-minute restriction (Fig. 12)\n");
  return 0;
}

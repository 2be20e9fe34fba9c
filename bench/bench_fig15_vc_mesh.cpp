// Fig. 15(b) — Video conference on the emulated CityLab mesh: 3 clients at
// each of the 4 worker nodes, a 10-minute conference over the replayed
// bandwidth trace, comparing no migration against migration at 65% and 85%
// link-utilization thresholds.
//
// Paper: migration at the 65% threshold lifts node 1's median from
// ~1.4 Mbps to ~1.6 Mbps and doubles node 2's (240 -> 480 Kbps); nodes 3
// and 4 see no improvement.
#include "common.h"

#include "workload/video_conference.h"

using namespace bass;

namespace {

struct Row {
  double median_bps[5] = {0, 0, 0, 0, 0};  // indexed by node id
  std::size_t migrations = 0;
};

Row run(bool migration, double threshold) {
  core::OrchestratorConfig orch_cfg;
  orch_cfg.restart_duration = sim::seconds(20);  // §6.3.2 measured overhead
  bench::CityLabRig rig(sim::minutes(10), /*variation=*/true, /*fades=*/true,
                        /*seed=*/151, orch_cfg);
  rig.start();

  const net::Bps kStream = net::kbps(250);
  const std::vector<std::pair<net::NodeId, int>> groups{{1, 3}, {2, 3}, {3, 3}, {4, 3}};
  // The paper deploys the Pion server "on one of the 4 worker nodes"
  // (§6.3.2) — a fixed starting point, not a bandwidth-aware placement —
  // and relies on migration to correct it. Node 3 reaches node 2's clients
  // only over the weak 7.62 Mbps link, which cannot carry the forwarding
  // load; BASS's own scheduler would never pick it (it chooses node 1).
  auto graph = app::video_conference_app(groups, kStream);
  sched::Placement manual(static_cast<std::size_t>(graph.component_count()),
                          net::kInvalidNode);
  manual[static_cast<std::size_t>(graph.find("pion-sfu"))] = 3;
  const auto id = rig.orch->deploy_with_placement(std::move(graph), manual);
  if (!id.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", id.error().c_str());
    std::exit(1);
  }
  if (migration) {
    controller::MigrationParams params;
    params.evaluation_interval = sim::seconds(30);
    params.utilization_threshold = threshold;
    params.headroom_frac = 0.20;
    params.cooldown = sim::seconds(30);
    params.min_migration_gap = sim::minutes(2);
    rig.orch->enable_migration(id.value(), params);
  }

  workload::VideoConferenceConfig cfg;
  cfg.groups = {{1, 3}, {2, 3}, {3, 3}, {4, 3}};
  cfg.per_stream = kStream;
  cfg.reconnect_delay = sim::seconds(10);
  workload::VideoConferenceEngine engine(*rig.orch, id.value(), cfg);
  engine.start();
  rig.sim.run_until(sim::minutes(10));
  engine.stop();

  if (std::getenv("BASS_BENCH_VERBOSE") != nullptr) {
    for (const auto& m : rig.orch->migration_events()) {
      std::printf("    moved t=%4.0fs SFU node%d -> node%d\n", sim::to_seconds(m.at),
                  m.from, m.to);
    }
  }

  Row row;
  for (net::NodeId n = 1; n <= 4; ++n) {
    row.median_bps[n] = engine.median_bitrate(n, sim::seconds(10));
  }
  row.migrations = rig.orch->migration_events().size();
  return row;
}

}  // namespace

int main() {
  bench::print_header("Fig. 15(b): per-node conference bitrate on the CityLab mesh");
  std::printf("12 participants (3 per worker node), 10-minute conference\n\n");
  std::printf("%-22s %10s %10s %10s %10s %11s\n", "strategy", "node1", "node2",
              "node3", "node4", "migrations");

  const struct {
    const char* name;
    bool migration;
    double threshold;
  } rows[] = {
      {"no-migration", false, 0.0},
      {"migration@65%", true, 0.65},
      {"migration@85%", true, 0.85},
  };
  for (const auto& r : rows) {
    const Row row = run(r.migration, r.threshold);
    std::printf("%-22s %7.0fKbps %7.0fKbps %7.0fKbps %7.0fKbps %11zu\n", r.name,
                row.median_bps[1] / 1e3, row.median_bps[2] / 1e3,
                row.median_bps[3] / 1e3, row.median_bps[4] / 1e3, row.migrations);
  }
  std::printf("\nexpect: the 65%% threshold lifts the medians at the constrained\n"
              "nodes (paper: node1 1.4->1.6 Mbps, node2 240->480 Kbps) and leaves\n"
              "the healthy nodes unchanged (paper Fig. 15(b))\n");
  return 0;
}

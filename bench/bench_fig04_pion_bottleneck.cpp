// Fig. 4 — Per-client bandwidth and packet loss vs participant count for
// the Pion SFU behind a 30 Mbps bottleneck (the Fig. 3 setup: clients on
// node 3, server on node 2, node 2's egress tc-limited to 30 Mbps).
//
// One participant publishes a ~3 Mbps feed; every other participant
// subscribes to it (the paper's conference mode). Beyond ~10 participants
// the forwarded copies exceed the bottleneck, bitrate per client collapses
// and loss climbs — the bandwidth-obliviousness k3s cannot see.
#include "common.h"

#include "workload/video_conference.h"

using namespace bass;

int main() {
  bench::print_header("Fig. 4: Pion per-client bitrate & loss vs participants");
  std::printf("bottleneck 30 Mbps at server egress, 3 Mbps published stream\n");
  std::printf("%12s %18s %12s\n", "participants", "bitrate/client", "loss");

  const net::Bps kStream = net::mbps(3);
  for (int participants = 2; participants <= 20; participants += 2) {
    // Fresh 3-node LAN per point (node index 1 = "node 2" of the paper).
    bench::LanCluster rig(3, 16000, 131072);
    rig.limit_node_egress(1, net::mbps(30));

    const std::vector<std::pair<net::NodeId, int>> groups{{2, participants}};
    auto app_graph = app::video_conference_app(groups, kStream);
    sched::Placement manual(static_cast<std::size_t>(app_graph.component_count()),
                            net::kInvalidNode);
    manual[static_cast<std::size_t>(app_graph.find("pion-sfu"))] = 1;  // server fixed on node 2
    const auto id = rig.orch->deploy_with_placement(std::move(app_graph), manual);
    if (!id.ok()) {
      std::printf("deploy failed: %s\n", id.error().c_str());
      return 1;
    }

    workload::VideoConferenceConfig cfg;
    cfg.groups = {{2, participants}};
    cfg.per_stream = kStream;
    cfg.single_publisher = true;
    workload::VideoConferenceEngine engine(*rig.orch, id.value(), cfg);
    engine.start();
    rig.sim.run_until(sim::minutes(2));
    engine.stop();

    const double bitrate = engine.mean_bitrate(2, sim::seconds(5));
    const double loss = engine.mean_loss(2, sim::seconds(5));
    std::printf("%12d %15.0f Kbps %11.1f%%\n", participants, bitrate / 1e3,
                loss * 100.0);
  }
  std::printf("\nexpect: full 3 Mbps and ~0%% loss up to ~10 participants, then "
              "collapse (paper Fig. 4)\n");
  return 0;
}

// Ablation — bandwidth-sharing model (DESIGN.md §5): the evaluation's
// conclusions should not hinge on the simulator's max-min assumption.
// Re-runs the Fig. 4 bottleneck sweep under both fairness policies: the
// collapse point and trend must agree even though the sharing rule differs.
#include "common.h"

#include "workload/video_conference.h"

using namespace bass;

namespace {

struct Point {
  double bitrate;
  double loss;
};

Point run(net::FairnessPolicy policy, int participants) {
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) topo.add_link(i, j, net::gbps(1));
  }
  net::NetworkConfig ncfg;
  ncfg.fairness = policy;
  net::Network network(sim, std::move(topo), ncfg);
  cluster::ClusterState cluster;
  for (int i = 0; i < 3; ++i) cluster.add_node(i, {16000, 131072, true});
  core::Orchestrator orch(sim, network, cluster);

  {
    net::Network::BatchUpdate batch(network);
    for (net::LinkId l : network.topology().out_links(1)) {
      network.set_link_capacity(l, net::mbps(30));
    }
  }

  const net::Bps kStream = net::mbps(3);
  auto graph = app::video_conference_app({{2, participants}}, kStream);
  sched::Placement manual(static_cast<std::size_t>(graph.component_count()),
                          net::kInvalidNode);
  manual[static_cast<std::size_t>(graph.find("pion-sfu"))] = 1;
  const auto id = orch.deploy_with_placement(std::move(graph), manual).take();

  workload::VideoConferenceConfig cfg;
  cfg.groups = {{2, participants}};
  cfg.per_stream = kStream;
  cfg.single_publisher = true;
  workload::VideoConferenceEngine engine(orch, id, cfg);
  engine.start();
  sim.run_until(sim::minutes(1));
  engine.stop();
  return {engine.mean_bitrate(2, sim::seconds(5)), engine.mean_loss(2, sim::seconds(5))};
}

}  // namespace

int main() {
  bench::print_header("Ablation: max-min vs proportional sharing (Fig. 4 sweep)");
  std::printf("%12s | %18s %8s | %18s %8s\n", "participants", "maxmin Kbps/client",
              "loss", "prop Kbps/client", "loss");
  for (int participants = 4; participants <= 20; participants += 4) {
    const Point mm = run(net::FairnessPolicy::kMaxMin, participants);
    const Point pr = run(net::FairnessPolicy::kProportional, participants);
    std::printf("%12d | %18.0f %7.1f%% | %18.0f %7.1f%%\n", participants,
                mm.bitrate / 1e3, mm.loss * 100, pr.bitrate / 1e3, pr.loss * 100);
  }
  std::printf("\nexpect: identical trend and collapse point (~10 participants at\n"
              "30 Mbps / 3 Mbps streams) under both sharing models — the paper's\n"
              "conclusions do not depend on the max-min assumption\n");
  return 0;
}

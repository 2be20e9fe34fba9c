// Fig. 8 — Migration walkthrough. A component pair requiring 8 Mbps runs
// between node 3 and node 4 of the CityLab subset (node3-node4 link:
// 25 Mbps). Headroom is 4 Mbps (~20% of capacity), probed every 30 s; the
// goodput/utilization threshold is 50%.
//
// Timeline (mirroring the paper):  the node3-node4 link capacity drops at
// t=540 s -> the headroom probe detects the shrink -> a full probe
// re-estimates the link -> goodput falls under threshold -> the moveable
// end migrates node4 -> node1. At t=1119 s node1-node3 degrades and
// node3-node4 recovers -> the component migrates back.
//
//   bench_fig08_migration_timeline [--check-claims]
//
// --check-claims exits 1 unless `worker` migrates exactly twice —
// node4->node1 between t=540 s and t=1119 s, then node1->node4 after
// t=1119 s — some 60 s goodput bin before each migration reads below 95 %,
// and the last bin before t=1119 s and the run's last bin read at least
// 99 %. Unknown arguments exit 2.
#include "common.h"

#include <cstring>

#include "obs/series.h"
#include "workload/edge_streams.h"

using namespace bass;

namespace {

constexpr sim::Time kDrop = sim::seconds(540);
constexpr sim::Time kSwap = sim::seconds(1119);
constexpr sim::Duration kBin = sim::minutes(1);

bool claim(bool held, const char* what) {
  if (!held) std::printf("claim failed: %s\n", what);
  return held;
}

// The paper's timeline, read off the run: the migrations and the 60 s
// goodput bins printed above.
bool claims_hold(const core::Orchestrator& orch, core::DeploymentId id,
                 const obs::TimeSeries& bins) {
  std::vector<core::MigrationEvent> moves;
  for (const auto& m : orch.migration_events()) {
    if (orch.app(id).component(m.component).name == "worker") moves.push_back(m);
  }
  if (!claim(moves.size() == 2, "worker migrates exactly twice")) return false;
  bool held = claim(moves[0].from == 4 && moves[0].to == 1 && moves[0].at > kDrop &&
                        moves[0].at < kSwap,
                    "first migration is node4->node1 between t=540 s and t=1119 s");
  held = claim(moves[1].from == 1 && moves[1].to == 4 && moves[1].at > kSwap,
               "second migration is node1->node4 after t=1119 s") &&
         held;
  // Goodput collapses before each move: some bin that starts after the
  // previous move (or the run's start) and ends before this one takes the
  // component down reads below 95 %, so the move's own downtime is no part
  // of it.
  sim::Time since = 0;
  for (const auto& m : moves) {
    bool dipped = false;
    for (const auto& b : bins.samples()) {
      if (b.at >= since && b.at + kBin <= m.started_at && b.value < 0.95) dipped = true;
    }
    held = claim(dipped, "goodput falls below 95 % before each migration") && held;
    since = m.at;
  }
  // Recovered between the trips: the last bin that ends by t=1119 s (the
  // t=1020 s bin; the t=1080 s one spans the swap).
  bool recovered = false;
  for (const auto& b : bins.samples()) {
    if (b.at + kBin <= kSwap) recovered = b.value >= 0.99;
  }
  held = claim(recovered, "the last bin before t=1119 s reads at least 99 %") && held;
  held = claim(!bins.empty() && bins.samples().back().value >= 0.99,
               "the last bin reads at least 99 %") &&
         held;
  return held;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_claims = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-claims") == 0) {
      check_claims = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s [--check-claims]\n", argv[i],
                   argv[0]);
      return 2;
    }
  }
  bench::print_header("Fig. 8: migration on bandwidth change (component pair)");

  // CityLab topology with calm links (we drive the two relevant links by
  // hand to follow the paper's timeline exactly).
  const auto mesh = trace::citylab_mesh();
  sim::Simulation sim;
  net::Network network(sim, mesh.topology);
  cluster::ClusterState cluster;
  cluster.add_node(0, {8000, 8192, false});
  for (net::NodeId w : mesh.workers) cluster.add_node(w, {12000, 8192, true});
  core::OrchestratorConfig orch_cfg;
  orch_cfg.restart_duration = sim::seconds(20);
  core::Orchestrator orch(sim, network, cluster, orch_cfg);
  monitor::NetMonitor netmon(network);
  obs::Recorder recorder;
  network.set_recorder(&recorder);
  orch.set_recorder(&recorder);
  netmon.set_recorder(&recorder);
  orch.attach_monitor(&netmon);
  netmon.start();

  // The pair: "anchor" pinned at node 3 (filling it — so the pair can
  // never co-locate and must ride the mesh, as in the paper's walkthrough),
  // "worker" initially on node 4.
  app::AppGraph g("pair");
  app::Component anchor{.name = "anchor", .cpu_milli = 12000, .memory_mb = 1024};
  anchor.pinned_node = 3;
  g.add_component(anchor);
  g.add_component({.name = "worker", .cpu_milli = 500, .memory_mb = 128});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  sched::Placement manual{3, 4};
  const auto id = orch.deploy_with_placement(std::move(g), manual);
  if (!id.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", id.error().c_str());
    return 1;
  }

  controller::MigrationParams params;
  params.utilization_threshold = 0.50;  // 50% goodput threshold
  params.headroom_frac = 0.16;          // 4 Mbps of the 25 Mbps link
  params.evaluation_interval = sim::seconds(30);
  params.cooldown = sim::seconds(60);
  params.min_migration_gap = sim::seconds(120);
  orch.enable_migration(id.value(), params);

  // One 8 Mbps stream over the pair's only edge; goodput sampled each second.
  workload::EdgeStreamEngine pair(orch, id.value());
  pair.start();
  obs::TimeSeries goodput_series;
  sim.schedule_periodic(sim::seconds(1),
                        [&] { goodput_series.record(sim.now(), pair.goodput()); });

  // ---- The paper's capacity script ----
  sim.schedule_at(kDrop, [&] {
    std::printf("t= 540s  node3-node4 capacity drops 25 -> 7 Mbps\n");
    network.set_link_capacity_between(3, 4, net::mbps(7));
  });
  sim.schedule_at(kSwap, [&] {
    std::printf("t=1119s  node1-node3 degrades to 6 Mbps, node3-node4 back to 25\n");
    network.set_link_capacity_between(1, 3, net::mbps(6));
    network.set_link_capacity_between(3, 4, net::mbps(25));
  });

  netmon.set_violation_callback([&](net::LinkId link, net::Bps delivered) {
    const auto& l = network.topology().link(link);
    std::printf("t=%5.0fs  headroom violation on %s->%s (probe delivered %.1f Mbps)\n",
                sim::to_seconds(sim.now()),
                network.topology().node_name(l.src).c_str(),
                network.topology().node_name(l.dst).c_str(),
                static_cast<double>(delivered) / 1e6);
  });

  sim.run_until(sim::minutes(30));
  pair.stop();
  netmon.stop();

  std::printf("\nmigrations:\n");
  for (const auto& m : orch.migration_events()) {
    std::printf("  t=%5.0fs  %s: node%d -> node%d\n", sim::to_seconds(m.at),
                orch.app(id.value()).component(m.component).name.c_str(), m.from, m.to);
  }

  std::printf("\ngoodput (60 s means):\n");
  const auto goodput = goodput_series.binned_mean(kBin);
  for (const auto& s : goodput.samples()) {
    std::printf("  t=%5.0fs  goodput=%4.0f%%\n", sim::to_seconds(s.at), s.value * 100);
  }
  if (bench::csv_enabled()) {
    goodput_series.write_csv("fig08_goodput.csv", "goodput_frac");
  }

  std::printf("\nexpect: goodput collapses after t=540, recovers after the first\n"
              "migration (node4->node1), collapses again after t=1119 and recovers\n"
              "after migrating back (paper Fig. 8)\n");

  // Probe costs, headroom violations, and migration downtimes accumulated
  // by the live instrumentation, through the shared snapshot path.
  bench::write_bench_json("fig08_migration_timeline", recorder.metrics(), sim.now());
  if (!check_claims) return 0;
  const bool held = claims_hold(orch, id.value(), goodput);
  std::printf("claims: %s\n", held ? "hold" : "FAILED");
  return held ? 0 : 1;
}

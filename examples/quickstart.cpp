// Quickstart: the BASS public API in ~80 lines.
//
//   1. Describe a mesh (nodes + links with capacities).
//   2. Describe an application as a component DAG with bandwidth edges.
//   3. Deploy with a BASS heuristic and inspect the placement.
//   4. Shrink a link, let the net-monitor + controller migrate the
//      offending component, and watch goodput recover.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "core/orchestrator.h"
#include "obs/series.h"
#include "workload/edge_streams.h"

using namespace bass;

int main() {
  // --- 1. The mesh: a triangle of 20 Mbps wireless links. ---
  sim::Simulation sim;
  net::Topology topo;
  const auto alpha = topo.add_node("alpha");
  const auto beta = topo.add_node("beta");
  const auto gamma = topo.add_node("gamma");
  topo.add_link(alpha, beta, net::mbps(20));
  topo.add_link(beta, gamma, net::mbps(20));
  topo.add_link(alpha, gamma, net::mbps(20));
  net::Network network(sim, std::move(topo));

  cluster::ClusterState cluster;
  cluster.add_node(alpha, {.cpu_milli = 4000, .memory_mb = 4096});
  cluster.add_node(beta, {.cpu_milli = 4000, .memory_mb = 4096});
  cluster.add_node(gamma, {.cpu_milli = 4000, .memory_mb = 4096});

  core::Orchestrator orch(sim, network, cluster);
  monitor::NetMonitor netmon(network);  // probes links, caches capacities
  orch.attach_monitor(&netmon);
  netmon.start();

  // --- 2. The application: producer -> consumer needing 8 Mbps. The
  // producer sits with its sensor hardware on alpha; the consumer is too
  // big to share that node, so it must ride a mesh link somewhere. ---
  app::AppGraph app("hello-mesh");
  app::Component producer_spec{.name = "producer", .cpu_milli = 3000,
                               .memory_mb = 512};
  producer_spec.pinned_node = alpha;
  const auto producer = app.add_component(producer_spec);
  const auto consumer = app.add_component(
      {.name = "consumer", .cpu_milli = 3000, .memory_mb = 512});
  app.add_dependency({.from = producer, .to = consumer, .bandwidth = net::mbps(8)});

  // --- 3. Deploy with the longest-path heuristic. ---
  const auto id = orch.deploy(app, core::SchedulerKind::kBassLongestPath);
  if (!id.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", id.error().c_str());
    return 1;
  }
  std::printf("placement: producer->%s  consumer->%s\n",
              network.topology().node_name(orch.node_of(id.value(), producer)).c_str(),
              network.topology().node_name(orch.node_of(id.value(), consumer)).c_str());

  // --- 4. Enable migration and degrade the link the pair is using. ---
  controller::MigrationParams params;
  params.utilization_threshold = 0.5;
  params.headroom_frac = 0.2;
  params.evaluation_interval = sim::seconds(30);
  params.cooldown = sim::seconds(30);
  orch.enable_migration(id.value(), params);

  // Stream the app's edge at its 8 Mbps and sample goodput every second.
  workload::EdgeStreamEngine engine(orch, id.value());
  engine.start();
  obs::TimeSeries goodput;
  sim.schedule_periodic(sim::seconds(1),
                        [&] { goodput.record(sim.now(), engine.goodput()); });

  sim.schedule_at(sim::minutes(2), [&] {
    const auto a = orch.node_of(id.value(), producer);
    const auto b = orch.node_of(id.value(), consumer);
    if (a != b) {
      std::printf("t=120s: degrading the %s-%s link to 3 Mbps\n",
                  network.topology().node_name(a).c_str(),
                  network.topology().node_name(b).c_str());
      network.set_link_capacity_between(a, b, net::mbps(3));
    } else {
      std::printf("t=120s: pair colocated on %s; nothing to degrade\n",
                  network.topology().node_name(a).c_str());
    }
  });

  sim.run_until(sim::minutes(10));
  engine.stop();
  netmon.stop();

  for (const auto& m : orch.migration_events()) {
    std::printf("t=%.0fs: migrated %s from %s to %s\n", sim::to_seconds(m.at),
                app.component(m.component).name.c_str(),
                network.topology().node_name(m.from).c_str(),
                network.topology().node_name(m.to).c_str());
  }
  std::printf("goodput before degradation: %3.0f%%   after recovery: %3.0f%%\n",
              100 * goodput.mean_in(sim::seconds(30), sim::minutes(2)),
              100 * goodput.mean_in(sim::minutes(8), sim::minutes(10)));
  return 0;
}

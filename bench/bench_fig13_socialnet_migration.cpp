// Fig. 13 — Social network end-to-end latency at 400 RPS under a 25 Mbps
// throttle on two nodes, comparing monitoring/migration intervals of
// 30/60/90 s against no migration (§6.2.3).
//
// Paper: no migration runs up to ~50% higher latency; the 30 s interval
// reacts fastest and yields the lowest tail.
#include "common.h"

#include "util/logging.h"
#include "workload/request_engine.h"

using namespace bass;

namespace {

struct Result {
  obs::TimeSeries series;
  double mean_ms;
  double p99_ms;
  std::size_t migrations;
};

Result run(bool migration, sim::Duration interval) {
  core::OrchestratorConfig orch_cfg;
  orch_cfg.restart_duration = sim::seconds(20);
  // 6 cores allocatable per node: the 12.6-core app must spread across all
  // three nodes, as in the paper ("we enable component scheduling on all 3
  // nodes"), leaving the third node room to absorb migrating components.
  bench::LanCluster rig(3, 6000, 131072, net::gbps(1), orch_cfg);
  monitor::NetMonitor netmon(*rig.network);
  rig.orch->attach_monitor(&netmon);
  netmon.start();

  const auto id = rig.orch->deploy(app::social_network_app(),
                                   core::SchedulerKind::kBassLongestPath);
  if (!id.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", id.error().c_str());
    std::exit(1);
  }
  if (migration) {
    controller::MigrationParams params;
    params.evaluation_interval = interval;
    params.utilization_threshold = 0.50;
    params.headroom_frac = 0.20;
    params.cooldown = interval;
    params.min_migration_gap = interval * 2;
    rig.orch->enable_migration(id.value(), params);
  }

  if (std::getenv("BASS_BENCH_VERBOSE") != nullptr) {
    const auto& g = rig.orch->app(id.value());
    for (const auto& e : g.edges()) {
      const auto a = rig.orch->node_of(id.value(), e.from);
      const auto b = rig.orch->node_of(id.value(), e.to);
      if (a != b) {
        std::printf("    crossing %-22s -> %-22s req=%5.1fM node%d->node%d\n",
                    g.component(e.from).name.c_str(), g.component(e.to).name.c_str(),
                    static_cast<double>(e.bandwidth) / 1e6, a + 1, b + 1);
      }
    }
  }

  workload::RequestWorkloadConfig cfg;
  cfg.rps = 400;
  cfg.client_node = 0;
  cfg.seed = 13;
  cfg.max_in_flight = 4000;  // wrk-style bounded connection pool
  workload::RequestEngine engine(*rig.orch, id.value(), cfg);
  engine.start();

  // Ten seconds in, throttle the egress of two of the three nodes
  // (whichever two host the most components); lift after 3 minutes.
  rig.sim.schedule_at(sim::seconds(10), [&] {
    std::vector<int> count(3, 0);
    for (net::NodeId n : rig.orch->placement(id.value())) ++count[n];
    std::vector<net::NodeId> nodes{0, 1, 2};
    std::sort(nodes.begin(), nodes.end(),
              [&](net::NodeId a, net::NodeId b) { return count[a] > count[b]; });
    rig.limit_node_egress(nodes[0], net::mbps(25));
    rig.limit_node_egress(nodes[1], net::mbps(25));
  });
  rig.sim.schedule_at(sim::seconds(190), [&] {
    for (net::NodeId n = 0; n < 3; ++n) rig.restore_node_egress(n, net::gbps(1));
  });

  rig.sim.run_until(sim::minutes(5));
  engine.stop();
  rig.sim.run_until(sim::minutes(7));
  netmon.stop();

  Result r;
  r.series = engine.latencies().series().binned_mean(sim::seconds(10));
  r.mean_ms = engine.latencies().mean_ms();
  r.p99_ms = engine.latencies().p99_ms();
  r.migrations = rig.orch->migration_events().size();
  if (std::getenv("BASS_BENCH_VERBOSE") != nullptr) {
    for (const auto& round : rig.orch->controller_rounds(id.value())) {
      std::printf("    round t=%4.0fs violating=%d migrated=%d\n",
                  sim::to_seconds(round.at), round.violating_components,
                  round.migrations_started);
    }
    for (const auto& m : rig.orch->migration_events()) {
      std::printf("    moved t=%4.0fs %-24s node%d->node%d\n", sim::to_seconds(m.at),
                  rig.orch->app(id.value()).component(m.component).name.c_str(),
                  m.from + 1, m.to + 1);
    }
  }
  return r;
}

}  // namespace

int main() {
  if (std::getenv("BASS_BENCH_DEBUG") != nullptr) {
    util::set_log_level(util::LogLevel::kDebug);
  }
  bench::print_header("Fig. 13: social net latency under throttling, by interval");
  std::printf("throttle 25 Mbps on two nodes, t=10s..190s; 400 RPS\n");
  std::printf("%-16s %10s %12s %12s\n", "config", "mean (ms)", "p99 (ms)",
              "migrations");

  const struct {
    const char* name;
    bool migration;
    sim::Duration interval;
  } configs[] = {
      {"interval-30s", true, sim::seconds(30)},
      {"interval-60s", true, sim::seconds(60)},
      {"interval-90s", true, sim::seconds(90)},
      {"no-migration", false, sim::seconds(30)},
  };

  std::vector<std::pair<const char*, obs::TimeSeries>> all;
  for (const auto& c : configs) {
    const Result r = run(c.migration, c.interval);
    std::printf("%-16s %10.1f %12.1f %12zu\n", c.name, r.mean_ms, r.p99_ms,
                r.migrations);
    all.emplace_back(c.name, r.series);
  }

  std::printf("\nper-10s mean latency (ms):\n      t(s)");
  for (const auto& [name, s] : all) std::printf(" %14s", name);
  std::printf("\n");
  for (sim::Time t = 0; t <= sim::minutes(5); t += sim::seconds(10)) {
    std::printf("%10.0f", sim::to_seconds(t));
    for (const auto& [name, s] : all) {
      double v = 0;
      for (const auto& p : s.samples()) {
        if (p.at == t) v = p.value;
      }
      std::printf(" %14.1f", v);
    }
    std::printf("\n");
  }
  if (bench::csv_enabled()) {
    for (const auto& [name, s] : all) {
      s.write_csv(std::string("fig13_") + name + ".csv", "latency_ms");
    }
  }
  std::printf("\nexpect: no-migration worst (paper: up to 50%% higher); 30 s interval\n"
              "reacts fastest and has the best tail (paper Fig. 13)\n");
  return 0;
}

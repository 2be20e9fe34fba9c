// Scenario runner: stand up a mesh + application + workload from a
// declarative INI file and report what happened — no C++ required.
//
//   ./build/examples/mesh_scenario examples/scenarios/community_mesh.ini
//
// Exits 1 on a scenario error and 2 on a [serve] scenario, which has no
// single app to report on (run those with `bassctl serve`).
#include <cstdio>
#include <fstream>
#include <vector>

#include "app/dot.h"
#include "scenario/scenario.h"

using namespace bass;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "examples/scenarios/community_mesh.ini";
  auto loaded = scenario::Scenario::from_file(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", loaded.error().c_str());
    return 1;
  }
  auto& scene = *loaded.value();
  if (scene.serving() != nullptr) {
    std::fprintf(stderr,
                 "%s is a [serve] scenario (churning tenants, no single app); "
                 "run it with `bassctl serve %s`\n",
                 path.c_str(), path.c_str());
    return 2;
  }

  std::printf("scenario: %s (%.0f s simulated)\n", path.c_str(),
              sim::to_seconds(scene.duration()));
  std::printf("initial placement:\n");
  for (app::ComponentId c = 0; c < scene.app().component_count(); ++c) {
    std::printf("  %-16s -> %s\n", scene.app().component(c).name.c_str(),
                scene.node_name(scene.orchestrator().node_of(scene.deployment(), c))
                    .c_str());
  }

  const auto report = scene.run();
  // Read after the run: with [profiler] on, it re-weighted the app's edges.
  const auto& graph = scene.app();

  std::printf("\nresults:\n");
  std::printf("  requests: %lld issued, %lld completed, %lld shed\n",
              static_cast<long long>(report.requests_issued),
              static_cast<long long>(report.requests_completed),
              static_cast<long long>(report.requests_shed));
  std::printf("  latency:  mean %.1f ms  median %.1f ms  p99 %.1f ms\n",
              report.latency_mean_ms, report.latency_median_ms,
              report.latency_p99_ms);
  std::printf("  probes:   %.2f MB of measurement traffic\n",
              static_cast<double>(report.probe_bytes) / 1e6);
  std::printf("  migrations: %zu\n", report.migrations);
  for (const auto& m : scene.orchestrator().migration_events()) {
    std::printf("    t=%5.0fs %-16s %s -> %s\n", sim::to_seconds(m.at),
                graph.component(m.component).name.c_str(),
                scene.node_name(m.from).c_str(), scene.node_name(m.to).c_str());
  }

  if (!scene.dot_path().empty()) {
    std::ofstream out(scene.dot_path());
    out << app::to_dot(graph, &scene.orchestrator().placement(scene.deployment()));
    std::printf("  placement graph written to %s\n", scene.dot_path().c_str());
  }
  return 0;
}

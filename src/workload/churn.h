// Open-loop churn workload for the long-running control plane (bassd,
// DESIGN.md §10): app instances arrive as a seeded Poisson process —
// optionally modulated by a diurnal rate curve — live an exponential
// lifetime, and depart. The whole schedule is generated up front from the
// seed as a plain data vector, so the arrival process is (a) trivially
// testable for determinism and (b) replayable byte-for-byte: same seed ⇒
// identical event list ⇒ identical journals. Each admitted instance's
// traffic comes from a workload::EdgeStreamEngine (edge_streams.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/app_graph.h"
#include "net/types.h"
#include "sim/time.h"

namespace bass::workload {

// The three app families the paper evaluates (§6.1), drawn per arrival.
enum class AppFamily { kCameraPipeline = 0, kVideoConference = 1, kSocialNetwork = 2 };
constexpr int kAppFamilyCount = 3;

const char* app_family_name(AppFamily family);

struct ChurnConfig {
  std::uint64_t seed = 1;
  // Base Poisson arrival rate. With diurnal_amplitude > 0 the instantaneous
  // rate is arrival_per_min * (1 + amplitude * sin(2π t / diurnal_period))
  // — a compressed day/night curve — sampled by thinning, which preserves
  // determinism (every candidate arrival consumes exactly two rng draws).
  double arrival_per_min = 2.0;
  double diurnal_amplitude = 0.0;  // 0 = homogeneous; must stay < 1
  sim::Duration diurnal_period = sim::minutes(24);
  // Exponential instance lifetime; departures past `duration` are dropped
  // (those instances outlive the run and show up in live_at_end).
  sim::Duration mean_lifetime = sim::minutes(5);
  sim::Duration duration = sim::minutes(30);
  // Family mix weights (relative; <= 0 removes the family from the mix).
  double camera_weight = 1.0;
  double conference_weight = 1.0;
  double social_weight = 1.0;
  // Scales catalog cpu/memory/bandwidth so churn instances are mesh-sized:
  // the full catalog apps are built for the paper's dedicated experiments
  // (the camera detector alone wants 8 cores) and would choke a small mesh
  // at any realistic arrival rate.
  double resource_scale = 0.25;
};

struct ChurnEvent {
  sim::Time at = 0;
  bool depart = false;  // false = arrival
  int instance = -1;    // arrival order, 0-based; pairs arrivals/departures
  AppFamily family = AppFamily::kCameraPipeline;
};

// Pure function of the config — same config, same vector. Events are
// ordered by (at, generation sequence); an instance's departure never
// precedes its arrival.
std::vector<ChurnEvent> build_churn_schedule(const ChurnConfig& config);

// "<family>#<instance>": the name duplicate detection keys on.
std::string churn_instance_name(AppFamily family, int instance);

// Builds the right-sized app graph for one churn instance: the catalog
// family graph named churn_instance_name() with resources/bandwidth scaled
// by `resource_scale`. Conference instances pin their client
// pseudo-components to nodes drawn from `mesh_nodes` with
// Rng(seed ^ instance) — deterministic per instance.
app::AppGraph make_churn_app(AppFamily family, int instance,
                             double resource_scale, std::uint64_t seed,
                             const std::vector<net::NodeId>& mesh_nodes);

// The graph every camera or social instance at `resource_scale` shares:
// make_churn_app's graph under the family name. The serving loop prepares
// it once per family (sched::PreparedApp) instead of once per arrival.
// Conference instances have no template: their pins are per-instance.
app::AppGraph make_churn_template(AppFamily family, double resource_scale);

}  // namespace bass::workload

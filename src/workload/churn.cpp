#include "workload/churn.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>

#include "app/catalog.h"
#include "util/rng.h"
#include "util/strings.h"

namespace bass::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Churn scaling. Zero-resource pinned pseudo-components (conference client
// groups) pass through untouched; everything else keeps a floor so scaling
// never produces a zero-demand pod the packer would place for free.
void scale_resources(app::Component& comp, double scale) {
  if (comp.cpu_milli <= 0 && comp.memory_mb <= 0) return;
  comp.cpu_milli = std::max<std::int64_t>(
      50, static_cast<std::int64_t>(static_cast<double>(comp.cpu_milli) * scale));
  comp.memory_mb = std::max<std::int64_t>(
      16, static_cast<std::int64_t>(static_cast<double>(comp.memory_mb) * scale));
}

net::Bps scaled_bandwidth(net::Bps bandwidth, double scale) {
  return std::max<net::Bps>(
      net::kbps(50), static_cast<net::Bps>(static_cast<double>(bandwidth) * scale));
}

// Scaled copy of a catalog graph under a churn-instance name.
app::AppGraph scaled_copy(const app::AppGraph& base, const std::string& name,
                          double scale) {
  app::AppGraph g(name);
  for (app::ComponentId c = 0; c < base.component_count(); ++c) {
    app::Component comp = base.component(c);
    scale_resources(comp, scale);
    g.add_component(std::move(comp));
  }
  for (app::Edge e : base.edges()) {
    e.bandwidth = scaled_bandwidth(e.bandwidth, scale);
    g.add_dependency(e);
  }
  return g;
}

// Camera and social graphs depend on nothing but the scale.
app::AppGraph scaled_catalog_app(AppFamily family, double scale, const std::string& name) {
  if (family == AppFamily::kCameraPipeline) {
    return scaled_copy(app::camera_pipeline_app(), name, scale);
  }
  // profile_scale already scales the social app's edge bandwidths; the
  // cpu/memory scaling comes from scaled_copy (bandwidth is re-scaled from
  // the already-reduced profile, floored at 50 kbps).
  return scaled_copy(app::social_network_app(1.0), name, scale);
}

}  // namespace

const char* app_family_name(AppFamily family) {
  switch (family) {
    case AppFamily::kCameraPipeline: return "camera";
    case AppFamily::kVideoConference: return "conference";
    case AppFamily::kSocialNetwork: return "social";
  }
  return "?";
}

std::vector<ChurnEvent> build_churn_schedule(const ChurnConfig& config) {
  std::vector<ChurnEvent> events;
  const double per_us = config.arrival_per_min / static_cast<double>(sim::kMinute);
  if (per_us <= 0.0 || config.duration <= 0) return events;
  const double amplitude = std::clamp(config.diurnal_amplitude, 0.0, 0.95);
  const double peak_per_us = per_us * (1.0 + amplitude);

  // Family CDF from the (clamped) weights.
  double weights[kAppFamilyCount] = {std::max(config.camera_weight, 0.0),
                                     std::max(config.conference_weight, 0.0),
                                     std::max(config.social_weight, 0.0)};
  double total_weight = weights[0] + weights[1] + weights[2];
  if (total_weight <= 0.0) {
    weights[0] = total_weight = 1.0;  // degenerate mix: all camera
  }

  util::Rng rng(config.seed);
  double t = 0.0;  // microseconds, double to avoid quantized thinning bias
  int instance = 0;
  int seq = 0;
  while (true) {
    // Thinning for the non-homogeneous rate: candidate arrivals come at the
    // peak rate, each kept with probability rate(t)/peak — a fixed two
    // draws per candidate, so the stream of rng consumption (and thus the
    // schedule) is a pure function of the config.
    t += rng.exponential(1.0 / peak_per_us);
    const double keep = rng.uniform(0.0, 1.0);
    if (t >= static_cast<double>(config.duration)) break;
    const double phase =
        2.0 * kPi * t / static_cast<double>(std::max<sim::Duration>(config.diurnal_period, 1));
    const double rate_frac = (1.0 + amplitude * std::sin(phase)) / (1.0 + amplitude);
    if (keep >= rate_frac) continue;

    const double pick = rng.uniform(0.0, total_weight);
    AppFamily family = AppFamily::kSocialNetwork;
    if (pick < weights[0]) {
      family = AppFamily::kCameraPipeline;
    } else if (pick < weights[0] + weights[1]) {
      family = AppFamily::kVideoConference;
    }
    const double lifetime =
        rng.exponential(static_cast<double>(std::max<sim::Duration>(config.mean_lifetime, 1)));

    const sim::Time arrive_at = static_cast<sim::Time>(t);
    events.push_back({arrive_at, false, instance, family});
    ++seq;
    const double depart_t = t + lifetime;
    if (depart_t < static_cast<double>(config.duration)) {
      events.push_back({static_cast<sim::Time>(depart_t), true, instance, family});
      ++seq;
    }
    ++instance;
  }
  (void)seq;
  // Departures interleave with later arrivals; order by time with the
  // generation sequence as the deterministic tiebreak (arrivals were pushed
  // before their departures, and stable_sort preserves that on ties).
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.at < b.at; });
  return events;
}

std::string churn_instance_name(AppFamily family, int instance) {
  return util::str_format("%s#%d", app_family_name(family), instance);
}

app::AppGraph make_churn_template(AppFamily family, double resource_scale) {
  assert(family != AppFamily::kVideoConference && "conference pins are per-instance");
  return scaled_catalog_app(family, resource_scale, app_family_name(family));
}

app::AppGraph make_churn_app(AppFamily family, int instance,
                             double resource_scale, std::uint64_t seed,
                             const std::vector<net::NodeId>& mesh_nodes) {
  const std::string name = churn_instance_name(family, instance);
  switch (family) {
    case AppFamily::kCameraPipeline:
    case AppFamily::kSocialNetwork:
      return scaled_catalog_app(family, resource_scale, name);
    case AppFamily::kVideoConference: {
      // Client groups land on per-instance deterministic nodes: a small
      // conference between two or three mesh locations.
      assert(!mesh_nodes.empty());
      util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(instance + 1)));
      const int groups = mesh_nodes.size() >= 3 && rng.chance(0.5) ? 3 : 2;
      const std::size_t picks = std::min(static_cast<std::size_t>(groups), mesh_nodes.size());
      // Partial Fisher–Yates for the first `picks` nodes, without copying
      // the node list. Step i swaps positions i and j >= i and never reads
      // position i again, so it records only j's new value, in `moved`
      // (newest last); the draws are the copying shuffle's.
      std::array<std::pair<std::size_t, net::NodeId>, 3> moved{};
      std::array<net::NodeId, 3> picked{};
      for (std::size_t i = 0; i < picks; ++i) {
        const auto at = [&](std::size_t pos) {
          for (std::size_t k = i; k-- > 0;) {
            if (moved[k].first == pos) return moved[k].second;
          }
          return mesh_nodes[pos];
        };
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(i),
                            static_cast<std::int64_t>(mesh_nodes.size()) - 1));
        picked[i] = at(j);
        moved[i] = {j, at(i)};
      }
      std::vector<std::pair<net::NodeId, int>> clients;
      for (std::size_t i = 0; i < picks; ++i) {
        clients.emplace_back(picked[i], static_cast<int>(rng.uniform_int(1, 3)));
      }
      const auto per_stream = static_cast<net::Bps>(
          std::max(25.0, 250.0 * resource_scale) * 1e3);
      // Built once under the instance name and scaled in place. The star
      // has one edge per client group, so (from, to) names each edge.
      app::AppGraph g = app::video_conference_app(clients, per_stream, name);
      for (app::ComponentId c = 0; c < g.component_count(); ++c) {
        scale_resources(g.component(c), resource_scale);
      }
      for (std::size_t i = 0; i < g.edges().size(); ++i) {
        const app::Edge& e = g.edges()[i];
        g.set_edge_bandwidth(e.from, e.to, scaled_bandwidth(e.bandwidth, resource_scale));
      }
      return g;
    }
  }
  return app::AppGraph(name);
}

}  // namespace bass::workload

#include "sched/k3s_scheduler.h"

#include <algorithm>

#include "obs/recorder.h"
#include "util/strings.h"

namespace bass::sched {

util::Expected<Placement> K3sScheduler::schedule(const PreparedApp& prepared,
                                                 const cluster::ClusterState& cluster,
                                                 const NetworkView& view) {
  BASS_OBS_SCOPE("sched.schedule_us");
  (void)view;  // bandwidth-oblivious by design
  if (!prepared.valid()) return util::make_error(prepared.error());
  const app::AppGraph& app = prepared.graph();

  const auto& nodes = cluster.nodes();
  const auto schedulable = [&](net::NodeId n) { return cluster.spec(n).schedulable; };
  if (std::none_of(nodes.begin(), nodes.end(), schedulable)) {
    return util::make_error("no schedulable nodes");
  }

  budget_.reset(cluster);
  Placement placement;
  if (auto error = place_pinned(app, cluster, budget_, placement)) return std::move(*error);
  // Pods arrive at the scheduler one at a time, in submission (id) order.
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& comp = app.component(c);
    if (comp.pinned_node) continue;
    net::NodeId best = net::kInvalidNode;
    double best_score = -1.0;
    for (net::NodeId n : nodes) {
      if (!schedulable(n) || !budget_.fits(n, comp)) continue;
      // Average free fraction after placing the pod; LeastAllocated prefers
      // the emptiest node, MostAllocated the fullest that still fits.
      const auto& spec = cluster.spec(n);
      const double cpu_frac =
          spec.cpu_milli == 0
              ? 0.0
              : static_cast<double>(budget_.cpu_free(n) - comp.cpu_milli) /
                    static_cast<double>(spec.cpu_milli);
      const double mem_frac =
          spec.memory_mb == 0
              ? 0.0
              : static_cast<double>(budget_.memory_free(n) - comp.memory_mb) /
                    static_cast<double>(spec.memory_mb);
      double score = (cpu_frac + mem_frac) / 2.0;
      if (scoring_ == K3sScoring::kMostAllocated) score = 1.0 - score;
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    }
    if (best == net::kInvalidNode) {
      return util::make_error(util::str_format(
          "k3s: no node fits component '%s'", comp.name.c_str()));
    }
    budget_.charge(best, comp);
    placement[static_cast<std::size_t>(c)] = best;
  }
  return placement;
}

}  // namespace bass::sched

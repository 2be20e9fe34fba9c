#include "sched/rescheduler.h"

#include <algorithm>
#include <vector>

#include "sched/node_ranker.h"
#include "sched/packer.h"

namespace bass::sched {

std::optional<net::NodeId> pick_migration_target(const app::AppGraph& app,
                                                 const Placement& placement,
                                                 app::ComponentId component,
                                                 const cluster::ClusterState& cluster,
                                                 const NetworkView& view) {
  const net::NodeId current = node_of(placement, component);
  const auto& comp = app.component(component);
  if (comp.pinned_node) return std::nullopt;  // attachment points never move

  // Count deployed dependencies (in either direction) per node.
  std::vector<int> dep_count(cluster.node_bound(), 0);
  for_each_placed_peer(app, placement, component, [&](const app::Edge&, net::NodeId peer) {
    if (cluster.has_node(peer)) ++dep_count[static_cast<std::size_t>(peer)];
  });

  // Candidates ordered: most co-deployed dependencies first, then the
  // generic node ranking; the current node is excluded (a migration must
  // actually move the component).
  std::vector<net::NodeId> ranked = rank_nodes(cluster, view);
  std::stable_sort(ranked.begin(), ranked.end(), [&](net::NodeId a, net::NodeId b) {
    return dep_count[static_cast<std::size_t>(a)] > dep_count[static_cast<std::size_t>(b)];
  });

  // The rest of the deployment's crossing edges hold their reservations
  // wherever the component lands.
  LinkLedger ledger(view);
  ledger.reserve(app, placement, component, false);
  // Best effort: when the mesh is so degraded that no target satisfies
  // every bandwidth constraint, still move. Preferring a dependency's node
  // co-locates a communicating pair and *removes* its traffic from the
  // mesh; failing that, any node with spare compute gets the component off
  // its starved links (the ranked order already favours well-connected
  // nodes). `ranked` is dependency-count-major, so both preferences are
  // the first node with room.
  std::optional<net::NodeId> best_effort;
  for (net::NodeId n : ranked) {
    if (n == current || !cluster.can_fit(n, comp.cpu_milli, comp.memory_mb)) continue;
    if (ledger.fits(app, placement, component, n)) return n;
    if (!best_effort) best_effort = n;
  }
  return best_effort;
}

}  // namespace bass::sched

#include "ranking_reference.h"

#include <algorithm>
#include <cstdint>
#include <tuple>

namespace bass::sched::reference {

using NodeKey = std::tuple<std::int64_t, net::Bps, std::int64_t, net::NodeId>;

std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view) {
  // Each node's key is computed once; the id makes the order strict and total.
  std::vector<NodeKey> keys;
  for (net::NodeId n : cluster.nodes()) {
    if (!cluster.spec(n).schedulable) continue;
    keys.emplace_back(-cluster.cpu_free(n), -view.node_link_capacity(n),
                      -cluster.memory_free(n), n);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<net::NodeId> nodes;
  nodes.reserve(keys.size());
  for (const auto& key : keys) nodes.push_back(std::get<3>(key));
  return nodes;
}

}  // namespace bass::sched::reference

#include "sched/node_ranker.h"

#include <algorithm>

namespace bass::sched {

namespace {

using NodeKey = std::tuple<std::int64_t, net::Bps, std::int64_t, net::NodeId>;

void rank_into(const cluster::ClusterState& cluster, const NetworkView& view,
               std::vector<NodeKey>& keys, std::vector<net::NodeId>& nodes) {
  // Each node's key is computed once; the id makes the order strict and total.
  keys.clear();
  for (net::NodeId n : cluster.nodes()) {
    if (!cluster.spec(n).schedulable) continue;
    keys.emplace_back(-cluster.cpu_free(n), -view.node_link_capacity(n),
                      -cluster.memory_free(n), n);
  }
  std::sort(keys.begin(), keys.end());
  nodes.clear();
  nodes.reserve(keys.size());
  for (const auto& key : keys) nodes.push_back(std::get<3>(key));
}

}  // namespace

std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view) {
  std::vector<NodeKey> keys;
  std::vector<net::NodeId> nodes;
  rank_into(cluster, view, keys, nodes);
  return nodes;
}

const std::vector<net::NodeId>& NodeRanker::rank(const cluster::ClusterState& cluster,
                                                 const NetworkView& view) {
  rank_into(cluster, view, keys_, nodes_);
  return nodes_;
}

}  // namespace bass::sched

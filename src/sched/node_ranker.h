// Node ranking for the BASS packer (§3.2.1): "rank nodes based on their
// CPU, memory, and combined capacity across all of the node's links".
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "sched/network_view.h"

namespace bass::sched {

// Schedulable nodes ordered best-first: most free CPU, then largest
// combined link capacity, then most free memory, then lowest id.
std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view);

// rank_nodes() with its buffers kept across calls; a scheduler owns one.
class NodeRanker {
 public:
  // The ranking, valid until the next call.
  const std::vector<net::NodeId>& rank(const cluster::ClusterState& cluster,
                                       const NetworkView& view);

 private:
  std::vector<std::tuple<std::int64_t, net::Bps, std::int64_t, net::NodeId>> keys_;
  std::vector<net::NodeId> nodes_;
};

}  // namespace bass::sched

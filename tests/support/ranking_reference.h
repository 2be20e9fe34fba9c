// Test-only oracle for sched::NodeRanker: the full-sort ranking the ranker
// replaced, kept verbatim so the on-demand order can be compared with it
// at every depth.
#pragma once

#include <vector>

#include "cluster/cluster.h"
#include "sched/network_view.h"

namespace bass::sched::reference {

// Schedulable nodes ordered best-first: most free CPU, then largest
// combined link capacity, then most free memory, then lowest id.
std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view);

}  // namespace bass::sched::reference

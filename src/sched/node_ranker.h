// Node ranking for the BASS packer (§3.2.1): "rank nodes based on their
// CPU, memory, and combined capacity across all of the node's links".
//
// A decision reads the ranking from the top and usually stops at the first
// node, so the ranker orders it on demand: rank() builds every schedulable
// node's key in one pass that also finds the best, and only a read past
// index 0 heap-orders the rest, one node per read. One decision costs O(n)
// for the keys plus O(k log n) for k nodes read. The key is a strict total
// order, so every prefix equals the fully sorted ranking's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "sched/network_view.h"

namespace bass::sched {

// Schedulable nodes ordered best-first: most free CPU, then largest
// combined link capacity, then most free memory, then lowest id. Keys are
// built at rank() time and never cached across decisions, since link
// capacities and measured views change between them. A scheduler owns one
// and reuses its buffers.
class NodeRanker {
 public:
  // Ranks `cluster`'s schedulable nodes; the ranking stays valid (and
  // independent of later cluster or view changes) until the next call.
  void rank(const cluster::ClusterState& cluster, const NetworkView& view);

  std::size_t size() const { return prefix_.size() + heap_.size(); }
  bool empty() const { return size() == 0; }
  // The i-th best node (i < size()); orders the ranking down to i first.
  net::NodeId operator[](std::size_t i) {
    if (i >= prefix_.size()) order_through(i);
    return prefix_[i];
  }

 private:
  using Key = std::tuple<std::int64_t, net::Bps, std::int64_t, net::NodeId>;
  void order_through(std::size_t i);

  std::vector<Key> heap_;             // the nodes not read yet
  bool heaped_ = false;               // heap_ is a heap, not just a list
  std::vector<net::NodeId> prefix_;   // the ranking read so far, best first
};

// The whole ranking, drained from a NodeRanker.
std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view);

}  // namespace bass::sched

// Mesh routing with deterministic tie-breaking. The paper assumes routing
// is decentralized and out of the orchestrator's control (§1, §3.1); BASS
// only *observes* paths (via traceroute) and must work with whatever the
// mesh runs. Two steady-state models are provided:
//
//  * kMinHop — shortest path by hop count (802.11s default metric's shape);
//  * kWidestPath — maximize the bottleneck capacity along the path, ties
//    broken by fewer hops (the shape of link-quality metrics like
//    BATMAN/OLSR-ETX, which route around weak links).
//
// Routes are computed against the capacities at recompute() time and held
// stable — real mesh protocols damp route flapping, and the paper's BASS
// explicitly does not chase routing dynamics.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "net/topology.h"
#include "net/types.h"

namespace bass::net {

enum class RoutingPolicy { kMinHop, kWidestPath };

class RoutingTable {
 public:
  explicit RoutingTable(const Topology& topo,
                        RoutingPolicy policy = RoutingPolicy::kMinHop)
      : topo_(&topo), policy_(policy) {
    recompute();
  }

  RoutingPolicy policy() const { return policy_; }

  // Rebuilds all routes (call if the topology gained nodes/links, or to
  // re-evaluate widest paths against current capacities).
  void recompute();

  // Directed links traversed from src to dst; empty when src == dst or
  // unreachable. The path is precomputed and stable — our "traceroute".
  // The span points into the table's path pool and stays valid until the
  // next recompute(), so callers (Network's entity cache, the allocator)
  // may hold it instead of copying.
  std::span<const LinkId> path(NodeId src, NodeId dst) const;

  // Number of hops from src to dst (0 when colocated).
  int hops(NodeId src, NodeId dst) const {
    return static_cast<int>(path(src, dst).size());
  }

  bool reachable(NodeId src, NodeId dst) const;

 private:
  // Pass 1 of recompute() for one source: fills `in_link` (the link into
  // each reached node) and `hops` (path lengths), both indexed by NodeId.
  void search_min_hop(NodeId src, LinkId* in_link, std::size_t* hops);
  void search_widest(NodeId src, LinkId* in_link, std::size_t* hops);
  std::size_t index(NodeId src, NodeId dst) const {
    assert(src >= 0 && src < topo_->node_count() && dst >= 0 && dst < topo_->node_count());
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(topo_->node_count()) +
           static_cast<std::size_t>(dst);
  }

  const Topology* topo_;
  RoutingPolicy policy_;
  // All paths back to back: path (src, dst) is
  // pool_[offsets_[i], offsets_[i + 1]) with i = src * n + dst.
  std::vector<LinkId> pool_;
  std::vector<std::size_t> offsets_;
};

}  // namespace bass::net

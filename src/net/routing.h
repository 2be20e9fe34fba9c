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
//
// Storage is the per-source trees the searches produce, not the paths: for
// every (src, dst) the link into dst on src's tree and the hop count, 6 B
// per pair. A path is read on demand, either walked from dst back to src
// (walk(); for sums, minima and early-exit checks, which do not care about
// link order) or copied out in src -> dst order (copy_path(); for callers
// that keep the path, such as Network's entities).
#pragma once

#include <cassert>
#include <cstdint>
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

  // Number of hops from src to dst (0 when colocated or unreachable).
  int hops(NodeId src, NodeId dst) const { return hops_[index(src, dst)]; }
  // The longest routed path, in hops: a bound for any copy_path() buffer.
  int max_hops() const { return max_hops_; }

  bool reachable(NodeId src, NodeId dst) const {
    return src == dst || hops_[index(src, dst)] > 0;
  }
  // Ordered pairs (src != dst) with no route; 0 on a connected mesh.
  std::size_t unreachable_pairs() const { return unreachable_pairs_; }

  // Visits the directed links of the src -> dst path from dst back to src,
  // stopping early when `f(link)` returns false. Visits nothing when
  // src == dst or dst is unreachable. The precomputed, stable route is our
  // "traceroute".
  template <class F>
  void walk(NodeId src, NodeId dst, F&& f) const {
    const LinkId* in_link = in_link_.data() + index(src, 0);
    const Link* links = topo_->links().data();
    for (NodeId v = dst; v != src;) {
      const LinkId l = in_link[v];
      if (l == kInvalidLink || !f(l)) return;
      v = links[l].src;
    }
  }

  // Writes the src -> dst path, in src -> dst order, to the front of `out`
  // and returns its length, hops(src, dst).
  int copy_path(NodeId src, NodeId dst, std::span<LinkId> out) const {
    const int n = hops(src, dst);
    assert(out.size() >= static_cast<std::size_t>(n));
    int i = n;
    walk(src, dst, [&](LinkId l) {
      out[static_cast<std::size_t>(--i)] = l;
      return true;
    });
    return n;
  }

 private:
  struct SearchScratch;
  // One source's search: fills `in_link` (the link into each reached node)
  // and `hops` (path lengths), both indexed by NodeId.
  void search_min_hop(NodeId src, LinkId* in_link, std::uint16_t* hops,
                      SearchScratch& scratch) const;
  void search_widest(NodeId src, LinkId* in_link, std::uint16_t* hops,
                     SearchScratch& scratch) const;
  std::size_t index(NodeId src, NodeId dst) const {
    assert(src >= 0 && src < topo_->node_count() && dst >= 0 && dst < topo_->node_count());
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(topo_->node_count()) +
           static_cast<std::size_t>(dst);
  }

  const Topology* topo_;
  RoutingPolicy policy_;
  // Row src of each array is src's tree: in_link_[src * n + v] is the link
  // into v (kInvalidLink for src itself and unreachable v), hops_ the
  // length of the src -> v path.
  std::vector<LinkId> in_link_;
  std::vector<std::uint16_t> hops_;
  int max_hops_ = 0;
  std::size_t unreachable_pairs_ = 0;
};

}  // namespace bass::net

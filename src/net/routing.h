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
// every (src, dst) the in-link of dst on src's tree, as a 1-byte slot (its
// position among dst's in-links), and the 2-byte hop count, 3 B per pair.
// The in-links themselves sit once in a flat array grouped by destination,
// so a hop costs two dependent loads: the slot, then the {link, src} arc.
// A slot caps a node at kMaxInLinks in-links. A path is read on demand,
// either walked from dst back to src (walk(); for sums, minima and
// early-exit checks, which do not care about link order) or copied out in
// src -> dst order (copy_path(); for callers that keep the path, such as
// Network's entities).
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
  // Most in-links a node may have: its tree entries store the in-link as a
  // 1-byte slot, and 0xFF means "no link".
  static constexpr int kMaxInLinks = 254;

  // Throws std::length_error if a node has more than kMaxInLinks in-links
  // (naming the node) or the mesh more than 65535 nodes.
  explicit RoutingTable(const Topology& topo,
                        RoutingPolicy policy = RoutingPolicy::kMinHop)
      : topo_(&topo), policy_(policy) {
    recompute();
  }

  RoutingPolicy policy() const { return policy_; }

  // Rebuilds all routes (call if the topology gained nodes/links, or to
  // re-evaluate widest paths against current capacities). Throws like the
  // constructor.
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
    const std::uint8_t* slot = slot_.data() + index(src, 0);
    const InArc* arcs = in_arcs_.data();
    const std::uint32_t* begin = in_begin_.data();
    for (NodeId v = dst; v != src;) {
      const std::uint8_t s = slot[v];
      if (s == kNoSlot) return;
      const InArc& arc = arcs[begin[v] + s];
      if (!f(arc.link)) return;
      v = arc.src;
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
  static constexpr std::uint8_t kNoSlot = 0xFF;
  // An in-link of a node, stored in the node's group of in_arcs_.
  struct InArc {
    LinkId link;
    NodeId src;
  };
  struct SearchScratch;
  // What one source's search reached: nodes including src, and the longest
  // path in hops.
  struct TreeSummary {
    std::size_t reached;
    int max_hops;
  };
  // One source's search: fills `slot` (the in-link slot of each reached
  // node) and `hops` (path lengths), both indexed by NodeId.
  TreeSummary search_min_hop(NodeId src, std::uint8_t* slot, std::uint16_t* hops,
                             SearchScratch& scratch) const;
  TreeSummary search_widest(NodeId src, std::uint8_t* slot, std::uint16_t* hops,
                            SearchScratch& scratch) const;
  // Groups the links into in_arcs_ and the scratch's out-arcs; throws as
  // the constructor documents.
  void build_arcs(SearchScratch& scratch);
  std::size_t index(NodeId src, NodeId dst) const {
    assert(src >= 0 && src < topo_->node_count() && dst >= 0 && dst < topo_->node_count());
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(topo_->node_count()) +
           static_cast<std::size_t>(dst);
  }

  const Topology* topo_;
  RoutingPolicy policy_;
  // Row src of each array is src's tree: slot_[src * n + v] is the slot of
  // the link into v (kNoSlot for src itself and unreachable v), hops_ the
  // length of the src -> v path.
  std::vector<std::uint8_t> slot_;
  std::vector<std::uint16_t> hops_;
  // The in-links grouped by destination: v's are
  // in_arcs_[in_begin_[v], in_begin_[v + 1]), in source-id order, and a
  // slot indexes that range.
  std::vector<std::uint32_t> in_begin_;
  std::vector<InArc> in_arcs_;
  int max_hops_ = 0;
  std::size_t unreachable_pairs_ = 0;
};

}  // namespace bass::net

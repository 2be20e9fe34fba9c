// Test-only oracle for net::RoutingTable: the table as it stored its trees
// before in-link slots, a 4-byte LinkId per (src, dst) pair next to the hop
// count, built by the same BFS and heap-based widest-path search. The
// compact table must answer every accessor exactly as this one does.
#pragma once

#include <cstdint>
#include <vector>

#include "net/routing.h"
#include "net/topology.h"

namespace bass::net::reference {

class LinkRoutingTable {
 public:
  LinkRoutingTable(const Topology& topo, RoutingPolicy policy);

  int hops(NodeId src, NodeId dst) const { return hops_[index(src, dst)]; }
  bool reachable(NodeId src, NodeId dst) const {
    return src == dst || hops_[index(src, dst)] > 0;
  }
  int max_hops() const { return max_hops_; }
  std::size_t unreachable_pairs() const { return unreachable_pairs_; }
  // The src -> dst path in src -> dst order; empty when src == dst or dst
  // is unreachable.
  std::vector<LinkId> path(NodeId src, NodeId dst) const;

 private:
  std::size_t index(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }
  void search_min_hop(NodeId src, LinkId* in_link, std::uint16_t* hops) const;
  void search_widest(NodeId src, LinkId* in_link, std::uint16_t* hops) const;

  const Topology* topo_;
  int n_;
  // Row src is src's tree: in_link_[src * n + v] is the link into v
  // (kInvalidLink for src itself and unreachable v).
  std::vector<LinkId> in_link_;
  std::vector<std::uint16_t> hops_;
  int max_hops_ = 0;
  std::size_t unreachable_pairs_ = 0;
};

}  // namespace bass::net::reference

// Static mesh shape: named nodes and directed links with capacities.
// Capacities are mutable (that is the whole point of this paper); the set of
// nodes and links is fixed once built. This is the mesh's only index: names,
// links and adjacency all live here.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/types.h"

namespace bass::net {

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bps capacity = 0;
};

class Topology {
 public:
  NodeId add_node(std::string name = {});

  // Adds a bidirectional link as two directed links with consecutive ids:
  // a->b gets the even id and b->a the odd one after it, so reverse() maps
  // each direction to the other. Returns {a->b, b->a}.
  std::pair<LinkId, LinkId> add_link(NodeId a, NodeId b, Bps capacity_ab, Bps capacity_ba);
  std::pair<LinkId, LinkId> add_link(NodeId a, NodeId b, Bps capacity) {
    return add_link(a, b, capacity, capacity);
  }

  // The opposite direction of a link: same endpoints, swapped.
  static LinkId reverse(LinkId l) { return l ^ 1; }

  int node_count() const { return static_cast<int>(node_names_.size()); }
  int link_count() const { return static_cast<int>(links_.size()); }

  const std::string& node_name(NodeId n) const { return node_names_.at(n); }
  const Link& link(LinkId l) const { return links_.at(l); }
  const std::vector<Link>& links() const { return links_; }

  // The first node with this name, or kInvalidNode. A linear scan: meant for
  // parsing, not for per-event lookups.
  NodeId find_node(const std::string& name) const;

  void set_capacity(LinkId l, Bps capacity) { links_.at(l).capacity = capacity; }

  // Directed link from a to b, if the nodes are 1-hop neighbors; nullopt for
  // any a outside [0, node_count()). Scans a's out-links, which routing caps
  // at RoutingTable::kMaxInLinks.
  std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  // Outgoing directed links of a node (for neighbor probing).
  const std::vector<LinkId>& out_links(NodeId n) const { return out_links_.at(n); }

 private:
  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
};

}  // namespace bass::net

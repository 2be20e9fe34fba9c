#include "net/topology.h"

#include <algorithm>
#include <cassert>

namespace bass::net {

NodeId Topology::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(node_names_.size());
  if (name.empty()) name = "node" + std::to_string(id);
  node_names_.push_back(std::move(name));
  out_links_.emplace_back();
  return id;
}

std::pair<LinkId, LinkId> Topology::add_link(NodeId a, NodeId b, Bps capacity_ab,
                                             Bps capacity_ba) {
  assert(a != b && a >= 0 && b >= 0 && a < node_count() && b < node_count());
  assert(!link_between(a, b).has_value() && "duplicate link");
  const LinkId ab = static_cast<LinkId>(links_.size());
  links_.push_back({a, b, capacity_ab});
  out_links_[a].push_back(ab);
  const LinkId ba = reverse(ab);
  links_.push_back({b, a, capacity_ba});
  out_links_[b].push_back(ba);
  return {ab, ba};
}

NodeId Topology::find_node(const std::string& name) const {
  const auto it = std::find(node_names_.begin(), node_names_.end(), name);
  return it == node_names_.end() ? kInvalidNode
                                 : static_cast<NodeId>(it - node_names_.begin());
}

std::optional<LinkId> Topology::link_between(NodeId a, NodeId b) const {
  if (a < 0 || a >= node_count()) return std::nullopt;
  for (const LinkId l : out_links_[static_cast<std::size_t>(a)]) {
    if (links_[static_cast<std::size_t>(l)].dst == b) return l;
  }
  return std::nullopt;
}

}  // namespace bass::net

#include "net/topology.h"

#include <cassert>

namespace bass::net {

namespace {
std::int64_t endpoint_key(NodeId a, NodeId b) {
  return (static_cast<std::int64_t>(a) << 32) | static_cast<std::uint32_t>(b);
}
}  // namespace

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
  by_endpoints_[endpoint_key(a, b)] = ab;
  const LinkId ba = static_cast<LinkId>(links_.size());
  links_.push_back({b, a, capacity_ba});
  out_links_[b].push_back(ba);
  by_endpoints_[endpoint_key(b, a)] = ba;
  return {ab, ba};
}

std::optional<LinkId> Topology::link_between(NodeId a, NodeId b) const {
  const auto it = by_endpoints_.find(endpoint_key(a, b));
  if (it == by_endpoints_.end()) return std::nullopt;
  return it->second;
}

}  // namespace bass::net

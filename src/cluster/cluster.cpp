#include "cluster/cluster.h"

#include <cassert>

namespace bass::cluster {

void ClusterState::add_node(net::NodeId node, NodeSpec spec) {
  assert(node >= 0);
  if (static_cast<std::size_t>(node) >= entries_.size()) {
    entries_.resize(static_cast<std::size_t>(node) + 1);
  }
  assert(!entries_[static_cast<std::size_t>(node)].has_value() && "node already added");
  entries_[static_cast<std::size_t>(node)] = Entry{spec, NodeUsage{}};
  order_.push_back(node);
}

void ClusterState::set_schedulable(net::NodeId node, bool schedulable) {
  entry(node).spec.schedulable = schedulable;
}

bool ClusterState::can_fit(net::NodeId node, std::int64_t cpu_milli,
                           std::int64_t memory_mb) const {
  if (!has_node(node)) return false;
  const Entry& e = entry(node);
  if (!e.spec.schedulable) return false;
  return cpu_free(node) >= cpu_milli && memory_free(node) >= memory_mb;
}

bool ClusterState::allocate(net::NodeId node, std::int64_t cpu_milli,
                            std::int64_t memory_mb) {
  if (!can_fit(node, cpu_milli, memory_mb)) return false;
  Entry& e = entry(node);
  e.usage.cpu_milli += cpu_milli;
  e.usage.memory_mb += memory_mb;
  return true;
}

void ClusterState::release(net::NodeId node, std::int64_t cpu_milli,
                           std::int64_t memory_mb) {
  Entry& e = entry(node);
  e.usage.cpu_milli -= cpu_milli;
  e.usage.memory_mb -= memory_mb;
  assert(e.usage.cpu_milli >= 0 && e.usage.memory_mb >= 0);
}

std::vector<net::NodeId> ClusterState::schedulable_nodes() const {
  std::vector<net::NodeId> out;
  out.reserve(order_.size());
  for (net::NodeId n : order_) {
    if (entry(n).spec.schedulable) out.push_back(n);
  }
  return out;
}

}  // namespace bass::cluster

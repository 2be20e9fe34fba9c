// Compute-side resource accounting: per-node CPU (milli-cores, Kubernetes
// style) and memory (MiB) capacities with allocation tracking. Nodes are
// identified by their network NodeId so placement ties directly into the
// mesh topology.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/types.h"

namespace bass::cluster {

struct NodeSpec {
  std::int64_t cpu_milli = 0;   // 1000 = one core
  std::int64_t memory_mb = 0;   // MiB
  bool schedulable = true;      // false for control-plane nodes
};

struct NodeUsage {
  std::int64_t cpu_milli = 0;
  std::int64_t memory_mb = 0;
};

class ClusterState {
 public:
  // Registers a node. `node` must match the network topology's NodeId.
  void add_node(net::NodeId node, NodeSpec spec);

  // Cordons/uncordons a node after registration (kubectl-cordon style).
  void set_schedulable(net::NodeId node, bool schedulable);

  bool has_node(net::NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < entries_.size() &&
           entries_[static_cast<std::size_t>(node)].has_value();
  }
  // Inline: the node ranker reads these for every node of every decision.
  const NodeSpec& spec(net::NodeId node) const { return entry(node).spec; }
  const NodeUsage& usage(net::NodeId node) const { return entry(node).usage; }

  std::int64_t cpu_free(net::NodeId node) const {
    const Entry& e = entry(node);
    return e.spec.cpu_milli - e.usage.cpu_milli;
  }
  std::int64_t memory_free(net::NodeId node) const {
    const Entry& e = entry(node);
    return e.spec.memory_mb - e.usage.memory_mb;
  }

  // True if the node is schedulable and can host the extra demand.
  bool can_fit(net::NodeId node, std::int64_t cpu_milli, std::int64_t memory_mb) const;

  // Reserves resources; returns false (and changes nothing) if it can't fit.
  bool allocate(net::NodeId node, std::int64_t cpu_milli, std::int64_t memory_mb);
  void release(net::NodeId node, std::int64_t cpu_milli, std::int64_t memory_mb);

  // All registered nodes, in registration order.
  const std::vector<net::NodeId>& nodes() const { return order_; }
  std::vector<net::NodeId> schedulable_nodes() const;
  // One past the largest registered NodeId: the size of NodeId-indexed arrays.
  std::size_t node_bound() const { return entries_.size(); }

 private:
  struct Entry {
    NodeSpec spec;
    NodeUsage usage;
  };
  const Entry& entry(net::NodeId node) const {
    assert(has_node(node));
    return *entries_[static_cast<std::size_t>(node)];
  }
  Entry& entry(net::NodeId node) {
    assert(has_node(node));
    return *entries_[static_cast<std::size_t>(node)];
  }

  std::vector<std::optional<Entry>> entries_;  // indexed by NodeId
  std::vector<net::NodeId> order_;
};

}  // namespace bass::cluster

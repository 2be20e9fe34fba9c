// The application model: components (pods) with CPU/memory demands, wired
// into a DAG whose edge weights are the maximum bandwidth requirement
// between the two components (gathered by offline profiling in the paper,
// §5). Edges also carry the per-RPC message sizes and invocation
// probabilities the workload engine uses to generate traffic consistent
// with those bandwidth requirements.
//
// Edge direction follows data flow: u -> v means u invokes/feeds v, and
// Algorithm 1's "dependencies of u" are u's out-neighbors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/types.h"
#include "sim/time.h"

namespace bass::app {

using ComponentId = std::int32_t;
constexpr ComponentId kInvalidComponent = -1;

struct Component {
  std::string name;
  std::int64_t cpu_milli = 100;
  std::int64_t memory_mb = 64;

  // Workload parameters (unused by the scheduler itself):
  sim::Duration service_time = sim::millis(1);  // per-request compute time
  int concurrency = 1;                          // parallel requests served
  // Pinned components (e.g. the pseudo-components modelling conference
  // clients at fixed mesh nodes) are placed here and never migrated.
  std::optional<net::NodeId> pinned_node;

  // State carried across a migration (a CRIU-style checkpoint, §8). The
  // paper's evaluation assumes stateless components (0 = restart cold);
  // stateful ones ship this many MiB over the mesh before coming back up,
  // so migrating them costs transfer time *and* bandwidth.
  std::int64_t state_mb = 0;
};

struct Edge {
  ComponentId from = kInvalidComponent;
  ComponentId to = kInvalidComponent;
  net::Bps bandwidth = 0;  // the profiled requirement (the heuristics' weight)

  // Maximum one-way network latency the pair tolerates; 0 = unconstrained.
  // §3.2 lists latency among the placement constraints: the packer rejects
  // placements whose routed path exceeds this.
  sim::Duration max_latency = 0;

  // Workload parameters:
  std::int64_t request_bytes = 1024;
  std::int64_t response_bytes = 1024;
  double probability = 1.0;  // chance this edge is invoked per request
};

class AppGraph {
 public:
  explicit AppGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  ComponentId add_component(Component c);
  // Adds a directed dependency edge; asserts both endpoints exist.
  void add_dependency(Edge e);

  int component_count() const { return static_cast<int>(components_.size()); }
  const Component& component(ComponentId id) const { return components_.at(id); }
  Component& component(ComponentId id) { return components_.at(id); }
  const std::vector<Edge>& edges() const { return edges_; }

  ComponentId find(const std::string& name) const;  // kInvalidComponent if absent

  // Updates the profiled bandwidth requirement of the (from, to) edge (the
  // online-profiling extension rewrites requirements at runtime). Returns
  // false when no such edge exists.
  bool set_edge_bandwidth(ComponentId from, ComponentId to, net::Bps bandwidth);

  // Outgoing edges of a component (its dependencies), in insertion order.
  std::vector<Edge> out_edges(ComponentId id) const;
  std::vector<Edge> in_edges(ComponentId id) const;
  int in_degree(ComponentId id) const;

  // Kahn topological order, ties broken by lowest component id. Empty if
  // the graph has a cycle.
  std::vector<ComponentId> topo_order() const;

  // True when the graph is a DAG with at least one component. On success
  // `order`, when given, receives topo_order() (computed once for both).
  bool validate(std::string* error = nullptr,
                std::vector<ComponentId>* order = nullptr) const;

  std::int64_t total_cpu_milli() const;
  std::int64_t total_memory_mb() const;
  // Sum of all edge bandwidth requirements.
  net::Bps total_bandwidth() const;

 private:
  std::string name_;
  std::vector<Component> components_;
  std::vector<Edge> edges_;
};

}  // namespace bass::app

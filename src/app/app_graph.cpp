#include "app/app_graph.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace bass::app {

ComponentId AppGraph::add_component(Component c) {
  const ComponentId id = static_cast<ComponentId>(components_.size());
  components_.push_back(std::move(c));
  return id;
}

void AppGraph::add_dependency(Edge e) {
  assert(e.from >= 0 && e.from < component_count());
  assert(e.to >= 0 && e.to < component_count());
  assert(e.from != e.to);
  edges_.push_back(e);
}

ComponentId AppGraph::find(const std::string& name) const {
  for (ComponentId id = 0; id < component_count(); ++id) {
    if (components_[id].name == name) return id;
  }
  return kInvalidComponent;
}

bool AppGraph::set_edge_bandwidth(ComponentId from, ComponentId to, net::Bps bandwidth) {
  for (Edge& e : edges_) {
    if (e.from == from && e.to == to) {
      e.bandwidth = bandwidth;
      return true;
    }
  }
  return false;
}

std::vector<Edge> AppGraph::out_edges(ComponentId id) const {
  std::vector<Edge> out;
  for (const Edge& e : edges_) {
    if (e.from == id) out.push_back(e);
  }
  return out;
}

std::vector<Edge> AppGraph::in_edges(ComponentId id) const {
  std::vector<Edge> out;
  for (const Edge& e : edges_) {
    if (e.to == id) out.push_back(e);
  }
  return out;
}

int AppGraph::in_degree(ComponentId id) const {
  int n = 0;
  for (const Edge& e : edges_) {
    if (e.to == id) ++n;
  }
  return n;
}

std::vector<ComponentId> AppGraph::topo_order() const {
  const int n = component_count();
  std::vector<int> indeg(n, 0);
  for (const Edge& e : edges_) ++indeg[e.to];

  // Min-heap on component id for a deterministic order.
  std::vector<ComponentId> heap;
  heap.reserve(static_cast<std::size_t>(n));
  std::priority_queue<ComponentId, std::vector<ComponentId>, std::greater<>> ready(
      std::greater<>{}, std::move(heap));
  for (ComponentId id = 0; id < n; ++id) {
    if (indeg[id] == 0) ready.push(id);
  }
  std::vector<ComponentId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const ComponentId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (const Edge& e : edges_) {
      if (e.from == u && --indeg[e.to] == 0) ready.push(e.to);
    }
  }
  if (static_cast<int>(order.size()) != n) return {};  // cycle
  return order;
}

bool AppGraph::validate(std::string* error, std::vector<ComponentId>* order) const {
  if (component_count() == 0) {
    if (error) *error = "application has no components";
    return false;
  }
  std::vector<ComponentId> topo = topo_order();
  // With at least one component, only a cycle leaves the order empty.
  if (topo.empty()) {
    if (error) *error = "component graph has a cycle";
    return false;
  }
  for (const Edge& e : edges_) {
    if (e.bandwidth < 0) {
      if (error) *error = "negative edge bandwidth";
      return false;
    }
    if (e.probability < 0.0 || e.probability > 1.0) {
      if (error) *error = "edge probability outside [0,1]";
      return false;
    }
  }
  for (const Component& c : components_) {
    if (c.cpu_milli < 0 || c.memory_mb < 0) {
      if (error) *error = "negative component resource demand";
      return false;
    }
  }
  if (order) *order = std::move(topo);
  return true;
}

std::int64_t AppGraph::total_cpu_milli() const {
  std::int64_t total = 0;
  for (const Component& c : components_) total += c.cpu_milli;
  return total;
}

std::int64_t AppGraph::total_memory_mb() const {
  std::int64_t total = 0;
  for (const Component& c : components_) total += c.memory_mb;
  return total;
}

net::Bps AppGraph::total_bandwidth() const {
  net::Bps total = 0;
  for (const Edge& e : edges_) total += e.bandwidth;
  return total;
}

}  // namespace bass::app

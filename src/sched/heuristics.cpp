#include "sched/heuristics.h"

#include <algorithm>
#include <limits>
#include <span>

namespace bass::sched {

namespace {

// Out-edges grouped by source component, each group in insertion order:
// one flat array plus offsets, built once per call.
class Adjacency {
 public:
  explicit Adjacency(const app::AppGraph& app)
      : begin_(static_cast<std::size_t>(app.component_count()) + 1, 0),
        out_(app.edges().size()) {
    for (const app::Edge& e : app.edges()) ++begin_[static_cast<std::size_t>(e.from) + 1];
    for (std::size_t c = 1; c < begin_.size(); ++c) begin_[c] += begin_[c - 1];
    // Fill with begin_[c] as c's cursor, which leaves it at c's end...
    for (const app::Edge& e : app.edges()) out_[begin_[static_cast<std::size_t>(e.from)]++] = e;
    // ...that is, at the start of c + 1.
    for (std::size_t c = begin_.size() - 1; c > 0; --c) begin_[c] = begin_[c - 1];
    begin_[0] = 0;
  }

  std::span<const app::Edge> out(app::ComponentId c) const {
    const auto i = static_cast<std::size_t>(c);
    return {out_.data() + begin_[i], out_.data() + begin_[i + 1]};
  }

 private:
  std::vector<std::size_t> begin_;  // by ComponentId, plus one end offset
  std::vector<app::Edge> out_;
};

}  // namespace

std::vector<app::ComponentId> bfs_order(const app::AppGraph& app) {
  return bfs_order(app, app.topo_order());
}

std::vector<app::ComponentId> bfs_order(const app::AppGraph& app,
                                        const std::vector<app::ComponentId>& topo) {
  if (topo.empty()) return {};
  const Adjacency adj(app);

  std::vector<bool> visited(static_cast<std::size_t>(app.component_count()), false);
  std::vector<app::ComponentId> order;
  order.reserve(topo.size());

  struct QueueEntry {
    app::ComponentId comp;
    net::Bps discover_weight;  // bandwidth of the edge that found it
  };
  std::vector<QueueEntry> queue;
  queue.reserve(topo.size());

  // The outer loop restarts the BFS from the topologically first unvisited
  // vertex, covering multi-root and disconnected graphs.
  for (app::ComponentId root : topo) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    queue.push_back({root, std::numeric_limits<net::Bps>::max()});
    visited[static_cast<std::size_t>(root)] = true;
    while (!queue.empty()) {
      // Frontier ordered by the discovering edge's bandwidth, heaviest
      // first; ties broken by component id for determinism.
      auto best = std::min_element(queue.begin(), queue.end(),
                                   [](const QueueEntry& a, const QueueEntry& b) {
                                     if (a.discover_weight != b.discover_weight) {
                                       return a.discover_weight > b.discover_weight;
                                     }
                                     return a.comp < b.comp;
                                   });
      const app::ComponentId current = best->comp;
      queue.erase(best);
      order.push_back(current);
      // Components are marked visited when enqueued (Algorithm 1 line 11),
      // so a vertex keeps the weight of the edge that discovered it first.
      for (const app::Edge& e : adj.out(current)) {
        if (visited[static_cast<std::size_t>(e.to)]) continue;
        visited[static_cast<std::size_t>(e.to)] = true;
        queue.push_back({e.to, e.bandwidth});
      }
    }
  }
  return order;
}

std::vector<std::vector<app::ComponentId>> longest_path_paths(const app::AppGraph& app) {
  return longest_path_paths(app, app.topo_order());
}

std::vector<std::vector<app::ComponentId>> longest_path_paths(
    const app::AppGraph& app, const std::vector<app::ComponentId>& topo) {
  if (topo.empty()) return {};
  const Adjacency adj(app);
  const std::size_t n = static_cast<std::size_t>(app.component_count());

  std::vector<bool> visited(n, false);
  std::vector<std::vector<app::ComponentId>> paths;
  std::size_t covered = 0;
  constexpr double kUnreached = -1.0;
  std::vector<double> dist;
  std::vector<app::ComponentId> parent;

  while (covered < n) {
    // Start from the topologically first unvisited vertex (Algorithm 2's
    // findUnvisitedVertex on the topo-sorted component list).
    app::ComponentId start = app::kInvalidComponent;
    for (app::ComponentId c : topo) {
      if (!visited[static_cast<std::size_t>(c)]) {
        start = c;
        break;
      }
    }

    // Heaviest path from `start` through unvisited vertices: longest-path
    // DP over the topological order (exact, and O(V+E) per round).
    dist.assign(n, kUnreached);
    parent.assign(n, app::kInvalidComponent);
    dist[static_cast<std::size_t>(start)] = 0.0;
    for (app::ComponentId u : topo) {
      if (visited[static_cast<std::size_t>(u)]) continue;
      if (dist[static_cast<std::size_t>(u)] == kUnreached) continue;
      for (const app::Edge& e : adj.out(u)) {
        if (visited[static_cast<std::size_t>(e.to)]) continue;
        const double cand = dist[static_cast<std::size_t>(u)] + static_cast<double>(e.bandwidth);
        if (cand > dist[static_cast<std::size_t>(e.to)]) {
          dist[static_cast<std::size_t>(e.to)] = cand;
          parent[static_cast<std::size_t>(e.to)] = u;
        }
      }
    }

    app::ComponentId leaf = start;
    for (app::ComponentId c : topo) {
      if (visited[static_cast<std::size_t>(c)] || dist[static_cast<std::size_t>(c)] == kUnreached) {
        continue;
      }
      if (dist[static_cast<std::size_t>(c)] > dist[static_cast<std::size_t>(leaf)]) leaf = c;
    }

    std::size_t length = 0;
    for (app::ComponentId v = leaf; v != app::kInvalidComponent; v = parent[static_cast<std::size_t>(v)]) {
      ++length;
    }
    std::vector<app::ComponentId> path(length);
    for (app::ComponentId v = leaf; v != app::kInvalidComponent; v = parent[static_cast<std::size_t>(v)]) {
      path[--length] = v;
    }
    for (app::ComponentId v : path) visited[static_cast<std::size_t>(v)] = true;
    covered += path.size();
    paths.push_back(std::move(path));
  }
  return paths;
}

std::vector<app::ComponentId> longest_path_order(const app::AppGraph& app) {
  std::vector<app::ComponentId> order;
  for (const auto& path : longest_path_paths(app)) {
    order.insert(order.end(), path.begin(), path.end());
  }
  return order;
}

}  // namespace bass::sched

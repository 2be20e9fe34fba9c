// An application readied for placement once, then shared. Algorithms 1 and
// 2 depend only on the DAG and its edge weights, so the topological order,
// the BFS order and the longest-path decomposition are computed when the
// app is prepared, not on every placement decision (the paper's Table 4
// treats DAG processing as a one-time cost per application).
//
// A PreparedApp is immutable. Deployments hold it by
// std::shared_ptr<const PreparedApp>, so every instance of a churn template
// shares one graph and one set of orders. The only writer of a deployed
// graph, the online profiler's edge-bandwidth update, writes into the
// deployment's own copy of the graph (Orchestrator::update_edge_bandwidths),
// so one tenant's profile never reaches the template or another tenant.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "app/app_graph.h"

namespace bass::sched {

class PreparedApp {
 public:
  // Validates `graph`; when it is valid, computes its orders. An invalid
  // graph is kept with its error, so a deploy of it still journals a failed
  // placement decision.
  explicit PreparedApp(app::AppGraph graph);

  static std::shared_ptr<const PreparedApp> make(app::AppGraph graph) {
    return std::make_shared<const PreparedApp>(std::move(graph));
  }

  const app::AppGraph& graph() const { return graph_; }
  // Empty when the graph is a valid DAG; AppGraph::validate's message else.
  const std::string& error() const { return error_; }
  bool valid() const { return error_.empty(); }

  // Empty unless valid().
  const std::vector<app::ComponentId>& topo_order() const { return topo_; }
  const std::vector<app::ComponentId>& bfs_order() const { return bfs_; }
  const std::vector<std::vector<app::ComponentId>>& longest_path_paths() const {
    return paths_;
  }

 private:
  app::AppGraph graph_;
  std::string error_;
  std::vector<app::ComponentId> topo_;
  std::vector<app::ComponentId> bfs_;
  std::vector<std::vector<app::ComponentId>> paths_;
};

}  // namespace bass::sched

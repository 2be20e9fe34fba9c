#include "sched/prepared_app.h"

#include "sched/heuristics.h"

namespace bass::sched {

PreparedApp::PreparedApp(app::AppGraph graph) : graph_(std::move(graph)) {
  if (!graph_.validate(&error_, &topo_)) return;
  bfs_ = sched::bfs_order(graph_, topo_);
  paths_ = sched::longest_path_paths(graph_, topo_);
}

}  // namespace bass::sched

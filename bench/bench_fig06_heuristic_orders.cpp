// Fig. 6 — Component orders chosen by the two heuristics on the example
// DAG, and the resulting placements assuming two 4-core nodes with 1-core
// components (the figure's colors). Published orders:
//   BFS:          1, 3, 2, 4, 5, 7, 6
//   longest-path: 1, 2, 4, 5, 7, 3, 6
#include "common.h"

#include "sched/heuristics.h"
#include "sched/node_ranker.h"
#include "sched/packer.h"

using namespace bass;

namespace {

std::string join(const app::AppGraph& g, const std::vector<app::ComponentId>& ids) {
  std::string out;
  for (app::ComponentId c : ids) {
    if (!out.empty()) out += ", ";
    out += g.component(c).name;
  }
  return out;
}

void print_placement(const char* name, const app::AppGraph& g,
                     const sched::Placement& p) {
  std::printf("%-13s placement: ", name);
  for (app::ComponentId c = 0; c < g.component_count(); ++c) {
    std::printf("%s->node%d  ", g.component(c).name.c_str(), sched::node_of(p, c) + 1);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::print_header("Fig. 6: heuristic component orders on the example DAG");
  const app::AppGraph g = app::fig6_example();

  const auto bfs = sched::bfs_order(g);
  const auto lp = sched::longest_path_order(g);
  std::printf("BFS order:          %s   (paper: 1, 3, 2, 4, 5, 7, 6)\n",
              join(g, bfs).c_str());
  std::printf("longest-path order: %s   (paper: 1, 2, 4, 5, 7, 3, 6)\n",
              join(g, lp).c_str());

  // Two 4-core nodes, each component needs one core (figure caption).
  bench::LanCluster rig(2, 4000, 8192);
  sched::NetworkView view(*rig.network);
  const std::vector<net::NodeId> ranked = sched::rank_nodes(rig.cluster, view);
  const sched::PackInput in{g, rig.cluster, view, ranked};

  sched::Packer packer;
  const auto bfs_placed = packer.sequential_pack(in, bfs);
  const auto lp_placed = packer.path_pack(in, sched::longest_path_paths(g));
  if (bfs_placed.ok()) print_placement("BFS", g, bfs_placed.value());
  if (lp_placed.ok()) print_placement("longest-path", g, lp_placed.value());
  return 0;
}

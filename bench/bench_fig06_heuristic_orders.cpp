// Fig. 6 — Component orders chosen by the two heuristics on the example
// DAG, and the resulting placements assuming two 4-core nodes with 1-core
// components (the figure's colors). Published orders:
//   BFS:          1, 3, 2, 4, 5, 7, 6
//   longest-path: 1, 2, 4, 5, 7, 3, 6
//
//   bench_fig06_heuristic_orders [--check-claims]
//
// --check-claims exits 1 unless both orders equal the published ones and
// each placement puts at most four 1-core components on each 4-core node.
// Unknown arguments exit 2.
#include "common.h"

#include <cstring>

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

// The figure's claims about one placement: every component is placed and
// no node hosts more than its 4 cores' worth of 1-core components.
bool placement_holds(const char* name, const app::AppGraph& g,
                     const util::Expected<sched::Placement>& placed, int nodes) {
  if (!placed.ok()) {
    std::printf("claim failed: %s placement: %s\n", name, placed.error().c_str());
    return false;
  }
  std::vector<int> per_node(static_cast<std::size_t>(nodes), 0);
  for (app::ComponentId c = 0; c < g.component_count(); ++c) {
    const net::NodeId n = sched::node_of(placed.value(), c);
    if (n < 0 || n >= nodes) {
      std::printf("claim failed: %s placement leaves %s unplaced\n", name,
                  g.component(c).name.c_str());
      return false;
    }
    ++per_node[static_cast<std::size_t>(n)];
  }
  for (int n = 0; n < nodes; ++n) {
    if (per_node[static_cast<std::size_t>(n)] > 4) {
      std::printf("claim failed: %s placement puts %d components on node%d\n", name,
                  per_node[static_cast<std::size_t>(n)], n + 1);
      return false;
    }
  }
  return true;
}

bool order_holds(const char* name, const std::string& got, const char* paper) {
  if (got == paper) return true;
  std::printf("claim failed: %s order %s, paper %s\n", name, got.c_str(), paper);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_claims = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-claims") == 0) {
      check_claims = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s [--check-claims]\n", argv[i],
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("Fig. 6: heuristic component orders on the example DAG");
  const app::AppGraph g = app::fig6_example();

  constexpr const char* kPaperBfs = "1, 3, 2, 4, 5, 7, 6";
  constexpr const char* kPaperLp = "1, 2, 4, 5, 7, 3, 6";
  const auto bfs = sched::bfs_order(g);
  const auto lp = sched::longest_path_order(g);
  const std::string bfs_names = join(g, bfs);
  const std::string lp_names = join(g, lp);
  std::printf("BFS order:          %s   (paper: %s)\n", bfs_names.c_str(), kPaperBfs);
  std::printf("longest-path order: %s   (paper: %s)\n", lp_names.c_str(), kPaperLp);

  // Two 4-core nodes, each component needs one core (figure caption).
  // Seven components overflow the first node, so both packs read the
  // ranking past its top.
  constexpr int kNodes = 2;
  bench::LanCluster rig(kNodes, 4000, 8192);
  sched::NetworkView view(*rig.network);
  sched::NodeRanker ranked;
  ranked.rank(rig.cluster, view);
  const sched::PackInput in{g, rig.cluster, view, ranked};

  sched::Packer packer;
  const auto bfs_placed = packer.sequential_pack(in, bfs);
  const auto lp_placed = packer.path_pack(in, sched::longest_path_paths(g));
  if (bfs_placed.ok()) print_placement("BFS", g, bfs_placed.value());
  if (lp_placed.ok()) print_placement("longest-path", g, lp_placed.value());
  if (!check_claims) return 0;

  bool held = order_holds("BFS", bfs_names, kPaperBfs);
  held = order_holds("longest-path", lp_names, kPaperLp) && held;
  held = placement_holds("BFS", g, bfs_placed, kNodes) && held;
  held = placement_holds("longest-path", g, lp_placed, kNodes) && held;
  std::printf("claims: %s\n", held ? "hold" : "FAILED");
  return held ? 0 : 1;
}

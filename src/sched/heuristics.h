// The two component-ordering heuristics of §3.2.1.
//
// Breadth-first (Algorithm 1): BFS over the component DAG from its
// topologically first vertex, with the frontier ordered by the bandwidth of
// the edge that discovered each vertex (descending). The paper's prose
// ("sort the yet unexplored components by the edge bandwidth to the
// currently explored component", §1) and its Fig. 6 example both use the
// discovering-edge weight; Algorithm 1's `paths[]` bookkeeping suggests a
// cumulative weight, but that ordering contradicts the published example
// order, so we follow the prose + example.
//
// Longest path (Algorithm 2): repeatedly extract the heaviest (by edge
// weight sum) path among the unvisited vertices, starting from the
// topologically first unvisited vertex, emitting each path front-to-back.
// Algorithm 2's backtracking loop as printed drops the leaf and reverses
// the path; we implement the intent shown in Fig. 6 (1,2,4,5,7,3,6).
#pragma once

#include <vector>

#include "app/app_graph.h"

namespace bass::sched {

// Flat placement order for the BFS heuristic. Covers every component,
// including those unreachable from the first root (each starts a new BFS).
std::vector<app::ComponentId> bfs_order(const app::AppGraph& app);
// As above, over `app`'s topological order as topo_order() returns it.
std::vector<app::ComponentId> bfs_order(const app::AppGraph& app,
                                        const std::vector<app::ComponentId>& topo);

// The longest-path heuristic's path decomposition: each inner vector is one
// heaviest path, in data-flow order; concatenated they cover every
// component exactly once.
std::vector<std::vector<app::ComponentId>> longest_path_paths(const app::AppGraph& app);
std::vector<std::vector<app::ComponentId>> longest_path_paths(
    const app::AppGraph& app, const std::vector<app::ComponentId>& topo);

// Flattened longest-path order (concatenation of the paths).
std::vector<app::ComponentId> longest_path_order(const app::AppGraph& app);

}  // namespace bass::sched

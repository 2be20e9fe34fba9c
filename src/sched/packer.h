// The placement core (§3.2.1): greedy bin packing of an ordered component
// list onto ranked nodes, with CPU/memory as hard constraints and edge
// bandwidth reservations checked against link capacities along routed
// paths. The rescheduler re-places one component against the same link
// bookkeeping (LinkLedger).
//
// Two filling disciplines, matching the two heuristics' intent:
//  * sequential_pack — fill the current node until something doesn't fit,
//    then advance and never go back (BFS heuristic: producers and their
//    heaviest consumers cluster on the best node).
//  * path_pack — each heaviest path restarts from the best-ranked node so
//    whole chains co-locate; leftover short paths first-fit into remaining
//    gaps (longest-path heuristic).
// Both are one loop (sequential_pack is path_pack over a single path) and
// fall back to a first-fit scan before declaring failure, so a large
// mid-order component cannot strand free capacity.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "sched/network_view.h"
#include "sched/placement.h"
#include "util/expected.h"

namespace bass::sched {

// Free CPU and memory per node, indexed by NodeId, as a placement is built.
class NodeBudget {
 public:
  NodeBudget() = default;
  explicit NodeBudget(const cluster::ClusterState& cluster) { reset(cluster); }
  // Re-reads every node's free CPU and memory, reusing the buffers.
  void reset(const cluster::ClusterState& cluster);

  std::int64_t cpu_free(net::NodeId n) const { return cpu_[static_cast<std::size_t>(n)]; }
  std::int64_t memory_free(net::NodeId n) const { return mem_[static_cast<std::size_t>(n)]; }
  bool fits(net::NodeId n, const app::Component& comp) const {
    return cpu_free(n) >= comp.cpu_milli && memory_free(n) >= comp.memory_mb;
  }
  void charge(net::NodeId n, const app::Component& comp) {
    cpu_[static_cast<std::size_t>(n)] -= comp.cpu_milli;
    mem_[static_cast<std::size_t>(n)] -= comp.memory_mb;
  }

 private:
  std::vector<std::int64_t> cpu_;
  std::vector<std::int64_t> mem_;
};

// Starts `placement` (overwritten, its storage reused) with every pinned
// component on its node, charged to `budget` first. Fails naming the first
// pin whose node the cluster does not know, or whose non-zero demand cannot
// be hosted there (unschedulable or out of room). Zero-demand attachment
// points sit on any known node.
std::optional<util::Error> place_pinned(const app::AppGraph& app,
                                        const cluster::ClusterState& cluster,
                                        NodeBudget& budget, Placement& placement);

// Calls fn(edge, peer_node) for each edge of `c` whose other end is placed.
template <typename Fn>
void for_each_placed_peer(const app::AppGraph& app, const Placement& placement,
                          app::ComponentId c, Fn&& fn) {
  for (const app::Edge& e : app.edges()) {
    if (e.from != c && e.to != c) continue;
    const net::NodeId peer = node_of(placement, e.from == c ? e.to : e.from);
    if (peer != net::kInvalidNode) fn(e, peer);
  }
}

// Bandwidth reserved per directed link by the mesh-crossing edges of a
// placement (components at kInvalidNode are not placed yet).
class LinkLedger {
 public:
  LinkLedger() = default;
  explicit LinkLedger(const NetworkView& view) { reset(view); }
  // Drops every reservation and binds `view`, which must outlive the use
  // until the next reset; the buffers are reused.
  void reset(const NetworkView& view);

  // Reserves the crossing edges between placed components that touch `c`
  // (`of_c`) or that do not (`!of_c`; c = kInvalidComponent selects all).
  void reserve(const app::AppGraph& app, const Placement& placement, app::ComponentId c,
               bool of_c);
  // True when `c`'s edges to its placed peers, routed from `node`, fit
  // *cumulatively* on top of the reservations: two of c's edges whose paths
  // share a link must fit together. An unreachable peer or a path over an
  // edge's max_latency (§3.2) is infeasible. `c`'s own entry is ignored.
  bool fits(const app::AppGraph& app, const Placement& placement, app::ComponentId c,
            net::NodeId node);

 private:
  const NetworkView* view_ = nullptr;
  std::vector<net::Bps> reserved_;  // by LinkId
  // fits() scratch: tentative additions by LinkId, and the links they touch.
  std::vector<net::Bps> scratch_;
  std::vector<net::LinkId> touched_;
};

struct PackInput {
  const app::AppGraph& app;
  const cluster::ClusterState& cluster;
  const NetworkView& view;
  std::span<const net::NodeId> ranked_nodes;  // best first
};

// The packing loop with its per-decision buffers (node budget, link
// ledger) kept across calls; a scheduler owns one.
class Packer {
 public:
  // Each pack overwrites `out`, reusing its storage (a caller that packs
  // every decision keeps one buffer), and returns the reason it failed, if
  // it did; `out` is then unspecified.
  std::optional<util::Error> sequential_pack(const PackInput& input,
                                             const std::vector<app::ComponentId>& order,
                                             Placement& out);
  std::optional<util::Error> path_pack(
      const PackInput& input, const std::vector<std::vector<app::ComponentId>>& paths,
      Placement& out);
  // The same packs into a fresh placement.
  util::Expected<Placement> sequential_pack(const PackInput& input,
                                            const std::vector<app::ComponentId>& order);
  util::Expected<Placement> path_pack(
      const PackInput& input, const std::vector<std::vector<app::ComponentId>>& paths);

 private:
  std::optional<util::Error> pack(const PackInput& input,
                                  std::span<const std::vector<app::ComponentId>> paths,
                                  Placement& placement);

  NodeBudget budget_;
  LinkLedger ledger_;
};

}  // namespace bass::sched

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
//
// A pack pays for what it reads and touches: it reads the NodeRanker only
// as deep as it needs (the top node, in the common case), and its node
// budget and link ledger clear only the nodes and links the last pack
// charged, so reusing a Packer never costs the cluster's size.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "sched/network_view.h"
#include "sched/node_ranker.h"
#include "sched/placement.h"
#include "util/expected.h"

namespace bass::sched {

// Free CPU and memory per node as a placement is built: the cluster's free
// resources minus this pack's charges. The charges are an overlay indexed
// by NodeId, and reset() clears only the nodes the last pack charged, so a
// pack costs what it touches, not the cluster's size.
class NodeBudget {
 public:
  NodeBudget() = default;
  explicit NodeBudget(const cluster::ClusterState& cluster) { reset(cluster); }
  // Drops the charges and binds `cluster`, which must outlive the use until
  // the next reset; the buffers are reused.
  void reset(const cluster::ClusterState& cluster);

  // Registered nodes only.
  std::int64_t cpu_free(net::NodeId n) const {
    assert(cluster_->has_node(n));
    return cluster_->cpu_free(n) - cpu_[static_cast<std::size_t>(n)];
  }
  std::int64_t memory_free(net::NodeId n) const {
    assert(cluster_->has_node(n));
    return cluster_->memory_free(n) - mem_[static_cast<std::size_t>(n)];
  }
  bool fits(net::NodeId n, const app::Component& comp) const {
    return cpu_free(n) >= comp.cpu_milli && memory_free(n) >= comp.memory_mb;
  }
  void charge(net::NodeId n, const app::Component& comp) {
    assert(cluster_->has_node(n));
    const auto i = static_cast<std::size_t>(n);
    // A node is touched when its overlay leaves zero (demands are >= 0).
    if (cpu_[i] == 0 && mem_[i] == 0 && (comp.cpu_milli != 0 || comp.memory_mb != 0)) {
      charged_.push_back(n);
    }
    cpu_[i] += comp.cpu_milli;
    mem_[i] += comp.memory_mb;
  }

 private:
  const cluster::ClusterState* cluster_ = nullptr;
  std::vector<std::int64_t> cpu_;  // this pack's charges, by NodeId
  std::vector<std::int64_t> mem_;
  std::vector<net::NodeId> charged_;  // the nodes with a non-zero charge
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
  // Drops every reservation (only the links the last user reserved are
  // cleared) and binds `view`, which must outlive the use until the next
  // reset; the buffers are reused.
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
  std::vector<net::LinkId> reserved_links_;  // the links with a reservation
  // fits() scratch: tentative additions by LinkId, and the links they touch.
  std::vector<net::Bps> scratch_;
  std::vector<net::LinkId> touched_;
};

struct PackInput {
  const app::AppGraph& app;
  const cluster::ClusterState& cluster;
  const NetworkView& view;
  NodeRanker& ranked_nodes;  // ranked for this decision; read best first
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

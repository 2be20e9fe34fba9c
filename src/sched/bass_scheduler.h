// The BASS scheduler: pick an ordering heuristic, rank the nodes, pack.
#pragma once

#include <memory>
#include <string>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "sched/network_view.h"
#include "sched/node_ranker.h"
#include "sched/packer.h"
#include "sched/placement.h"
#include "sched/prepared_app.h"
#include "util/expected.h"

namespace bass::sched {

// Common interface so the orchestrator and benches can swap schedulers.
// schedule() reuses the scheduler's scratch buffers, hence non-const: one
// instance serves one thread (the orchestrator keeps one of each kind).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  // Fails with app.error() when the prepared graph is invalid.
  virtual util::Expected<Placement> schedule(const PreparedApp& app,
                                             const cluster::ClusterState& cluster,
                                             const NetworkView& view) = 0;
};

// kAuto implements the paper's §8 future-work idea of combining the two
// heuristics: it builds both placements and keeps the one that leaves less
// bandwidth crossing the mesh (the quantity both heuristics try to
// minimize), so a fan-out-shaped app gets the BFS packing and a pipeline
// gets the longest-path packing without the developer choosing.
enum class Heuristic { kBreadthFirst, kLongestPath, kAuto };

const char* heuristic_name(Heuristic h);

// Total profiled bandwidth on edges whose endpoints sit on different nodes
// — the scheduler's figure of merit for a placement.
net::Bps crossing_bandwidth(const app::AppGraph& app, const Placement& placement);

class BassScheduler final : public Scheduler {
 public:
  explicit BassScheduler(Heuristic heuristic) : heuristic_(heuristic) {}

  std::string name() const override;
  Heuristic heuristic() const { return heuristic_; }

  // Reads the app's cached orders; ranks the nodes and packs.
  util::Expected<Placement> schedule(const PreparedApp& app,
                                     const cluster::ClusterState& cluster,
                                     const NetworkView& view) override;

 private:
  Heuristic heuristic_;
  // Decision scratch, reused across schedule() calls.
  NodeRanker ranker_;
  Packer packer_;
  // kAuto packs both orders here and copies out only the winner.
  Placement bfs_placement_;
  Placement lp_placement_;
};

}  // namespace bass::sched

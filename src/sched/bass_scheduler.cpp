#include "sched/bass_scheduler.h"

#include "obs/recorder.h"

namespace bass::sched {

const char* heuristic_name(Heuristic h) {
  switch (h) {
    case Heuristic::kBreadthFirst: return "bfs";
    case Heuristic::kLongestPath: return "longest-path";
    case Heuristic::kAuto: return "auto";
  }
  return "?";
}

net::Bps crossing_bandwidth(const app::AppGraph& app, const Placement& placement) {
  net::Bps total = 0;
  for (const app::Edge& e : app.edges()) {
    if (node_of(placement, e.from) != node_of(placement, e.to)) total += e.bandwidth;
  }
  return total;
}

std::string BassScheduler::name() const {
  return std::string("bass-") + heuristic_name(heuristic_);
}

util::Expected<Placement> BassScheduler::schedule(const PreparedApp& app,
                                                  const cluster::ClusterState& cluster,
                                                  const NetworkView& view) {
  BASS_OBS_SCOPE("sched.schedule_us");
  if (!app.valid()) return util::make_error(app.error());

  ranker_.rank(cluster, view);
  if (ranker_.empty()) return util::make_error("no schedulable nodes");
  const PackInput input{app.graph(), cluster, view, ranker_};

  if (heuristic_ == Heuristic::kBreadthFirst) {
    return packer_.sequential_pack(input, app.bfs_order());
  }
  if (heuristic_ == Heuristic::kLongestPath) {
    return packer_.path_pack(input, app.longest_path_paths());
  }

  // kAuto: pack both orders into the reused buffers and copy out only the
  // placement with less mesh-crossing bandwidth; ties resolve to BFS. When
  // BFS fails, the longest-path outcome stands, failure included.
  auto bfs_error = packer_.sequential_pack(input, app.bfs_order(), bfs_placement_);
  auto lp_error = packer_.path_pack(input, app.longest_path_paths(), lp_placement_);
  if (bfs_error) {
    if (lp_error) return std::move(*lp_error);
    return lp_placement_;
  }
  if (lp_error) return bfs_placement_;
  return crossing_bandwidth(app.graph(), lp_placement_) <
                 crossing_bandwidth(app.graph(), bfs_placement_)
             ? lp_placement_
             : bfs_placement_;
}

}  // namespace bass::sched

#include "sched/node_ranker.h"

#include <algorithm>
#include <functional>

namespace bass::sched {

void NodeRanker::rank(const cluster::ClusterState& cluster, const NetworkView& view) {
  heap_.clear();
  prefix_.clear();
  heaped_ = false;
  heap_.reserve(cluster.nodes().size());
  prefix_.reserve(cluster.nodes().size());
  // Keys are negated so that the best node has the smallest key.
  std::size_t best = 0;
  for (net::NodeId n : cluster.nodes()) {
    if (!cluster.spec(n).schedulable) continue;
    heap_.emplace_back(-cluster.cpu_free(n), -view.node_link_capacity(n),
                       -cluster.memory_free(n), n);
    if (heap_.back() < heap_[best]) best = heap_.size() - 1;
  }
  if (heap_.empty()) return;
  prefix_.push_back(std::get<3>(heap_[best]));
  heap_[best] = heap_.back();
  heap_.pop_back();
}

void NodeRanker::order_through(std::size_t i) {
  // std::greater makes the heap's front its smallest key: the next best.
  if (!heaped_) {
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    heaped_ = true;
  }
  while (prefix_.size() <= i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    prefix_.push_back(std::get<3>(heap_.back()));
    heap_.pop_back();
  }
}

std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view) {
  NodeRanker ranker;
  ranker.rank(cluster, view);
  std::vector<net::NodeId> nodes;
  nodes.reserve(ranker.size());
  for (std::size_t i = 0; i < ranker.size(); ++i) nodes.push_back(ranker[i]);
  return nodes;
}

}  // namespace bass::sched

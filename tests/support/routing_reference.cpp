#include "routing_reference.h"

#include <algorithm>

namespace bass::net::reference {

LinkRoutingTable::LinkRoutingTable(const Topology& topo, RoutingPolicy policy)
    : topo_(&topo), n_(topo.node_count()) {
  const auto n = static_cast<std::size_t>(n_);
  in_link_.assign(n * n, kInvalidLink);
  hops_.assign(n * n, 0);
  for (NodeId src = 0; src < n_; ++src) {
    LinkId* in_link = in_link_.data() + index(src, 0);
    std::uint16_t* hops = hops_.data() + index(src, 0);
    if (policy == RoutingPolicy::kWidestPath) {
      search_widest(src, in_link, hops);
    } else {
      search_min_hop(src, in_link, hops);
    }
    std::size_t reached = 0;
    for (std::size_t v = 0; v < n; ++v) {
      max_hops_ = std::max<int>(max_hops_, hops[v]);
      reached += hops[v] > 0 ? 1 : 0;
    }
    unreachable_pairs_ += n - 1 - reached;
  }
}

std::vector<LinkId> LinkRoutingTable::path(NodeId src, NodeId dst) const {
  std::vector<LinkId> out;
  for (NodeId v = dst; v != src;) {
    const LinkId l = in_link_[index(src, v)];
    if (l == kInvalidLink) return {};
    out.push_back(l);
    v = topo_->link(l).src;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void LinkRoutingTable::search_min_hop(NodeId src, LinkId* in_link,
                                      std::uint16_t* hops) const {
  // BFS, neighbors in out-link insertion order.
  std::vector<NodeId> queue{src};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = topo_->link(l).dst;
      if (v == src || in_link[v] != kInvalidLink) continue;
      in_link[v] = l;
      hops[v] = static_cast<std::uint16_t>(hops[u] + 1);
      queue.push_back(v);
    }
  }
}

void LinkRoutingTable::search_widest(NodeId src, LinkId* in_link,
                                     std::uint16_t* hops) const {
  // Dijkstra maximizing the bottleneck capacity, ties broken by hop count,
  // then by lower node id, with lazy deletion of stale candidates.
  struct Candidate {
    Bps width;
    std::uint16_t hops;
    NodeId node;
  };
  std::vector<Bps> width(static_cast<std::size_t>(n_), -1);
  std::vector<char> done(static_cast<std::size_t>(n_), 0);
  std::vector<Candidate> heap;
  const auto worse = [](const Candidate& a, const Candidate& b) {
    if (a.width != b.width) return a.width < b.width;
    if (a.hops != b.hops) return a.hops > b.hops;
    return a.node > b.node;
  };

  width[src] = kUnlimitedRate;
  heap.push_back({kUnlimitedRate, 0, src});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const NodeId u = heap.back().node;
    heap.pop_back();
    if (done[u]) continue;
    done[u] = 1;
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = topo_->link(l).dst;
      if (done[v]) continue;
      const Bps through = std::min(width[u], topo_->link(l).capacity);
      const auto h = static_cast<std::uint16_t>(hops[u] + 1);
      if (through > width[v] || (through == width[v] && h < hops[v])) {
        width[v] = through;
        hops[v] = h;
        in_link[v] = l;
        heap.push_back({through, h, v});
        std::push_heap(heap.begin(), heap.end(), worse);
      }
    }
  }
}

}  // namespace bass::net::reference

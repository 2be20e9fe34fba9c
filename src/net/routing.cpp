#include "net/routing.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace bass::net {

void RoutingTable::recompute() {
  const auto n = static_cast<std::size_t>(topo_->node_count());
  // Pass 1: one search per source. Row src of `tree` holds the link into
  // each node the search reached, and offsets_[src * n + dst + 1] the hop
  // count of the src -> dst path (0 when colocated or unreachable).
  std::vector<LinkId> tree(n * n, kInvalidLink);
  offsets_.assign(n * n + 1, 0);
  for (NodeId src = 0; src < static_cast<NodeId>(n); ++src) {
    LinkId* in_link = tree.data() + src * n;
    std::size_t* hops = offsets_.data() + src * n + 1;
    if (policy_ == RoutingPolicy::kWidestPath) {
      search_widest(src, in_link, hops);
    } else {
      search_min_hop(src, in_link, hops);
    }
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  // Pass 2: each path is its parent's path plus the link into it, so a
  // node's path is copied once its parent's is in place. `chain` holds the
  // nodes between dst and its nearest filled ancestor.
  pool_.assign(offsets_.back(), kInvalidLink);
  std::vector<char> filled(n);
  std::vector<NodeId> chain;
  for (std::size_t src = 0; src < n; ++src) {
    const LinkId* in_link = tree.data() + src * n;
    const std::size_t* off = offsets_.data() + src * n;
    std::fill(filled.begin(), filled.end(), 0);
    filled[src] = 1;
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (filled[dst] || off[dst + 1] == off[dst]) continue;  // done or unreachable
      chain.clear();
      for (auto v = static_cast<NodeId>(dst); !filled[v]; v = topo_->link(in_link[v]).src) {
        chain.push_back(v);
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const LinkId l = in_link[*it];
        const NodeId u = topo_->link(l).src;
        const auto tail = std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(off[u]),
                                    pool_.begin() + static_cast<std::ptrdiff_t>(off[u + 1]),
                                    pool_.begin() + static_cast<std::ptrdiff_t>(off[*it]));
        *tail = l;
        filled[*it] = 1;
      }
    }
  }
}

void RoutingTable::search_min_hop(NodeId src, LinkId* in_link, std::size_t* hops) {
  // BFS. Neighbors are explored in out-link insertion order, which fixes
  // the tie-break deterministically; `queue` is FIFO by its read index.
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(topo_->node_count()));
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = topo_->link(l).dst;
      if (v == src || in_link[v] != kInvalidLink) continue;
      in_link[v] = l;
      hops[v] = hops[u] + 1;
      queue.push_back(v);
    }
  }
}

void RoutingTable::search_widest(NodeId src, LinkId* in_link, std::size_t* hops) {
  // Dijkstra maximizing the bottleneck capacity, ties broken by hop count,
  // then by lower node id.
  const int n = topo_->node_count();
  std::vector<Bps> width(n, -1);
  std::vector<bool> done(n, false);
  width[src] = kUnlimitedRate;

  for (int round = 0; round < n; ++round) {
    NodeId u = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (done[v] || width[v] < 0) continue;
      if (u == kInvalidNode || width[v] > width[u] ||
          (width[v] == width[u] && hops[v] < hops[u])) {
        u = v;
      }
    }
    if (u == kInvalidNode) break;
    done[u] = true;
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = topo_->link(l).dst;
      if (done[v]) continue;
      const Bps through = std::min(width[u], topo_->link(l).capacity);
      const std::size_t h = hops[u] + 1;
      if (through > width[v] || (through == width[v] && h < hops[v])) {
        width[v] = through;
        hops[v] = h;
        in_link[v] = l;
      }
    }
  }
}

std::span<const LinkId> RoutingTable::path(NodeId src, NodeId dst) const {
  const std::size_t i = index(src, dst);
  return {pool_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
}

bool RoutingTable::reachable(NodeId src, NodeId dst) const {
  const std::size_t i = index(src, dst);
  return src == dst || offsets_[i + 1] > offsets_[i];
}

}  // namespace bass::net

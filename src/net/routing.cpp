#include "net/routing.h"

#include <algorithm>
#include <cassert>

namespace bass::net {

// Per-search buffers, sized once per recompute() and reused by every
// source, so a rebuild allocates the two n² arrays plus O(n + m).
struct RoutingTable::SearchScratch {
  struct Candidate {
    Bps width;
    std::uint16_t hops;
    NodeId node;
  };
  std::vector<NodeId> queue;     // min-hop BFS frontier
  std::vector<Bps> width;        // widest: best bottleneck so far
  std::vector<char> done;        // widest: node finalized
  std::vector<Candidate> heap;   // widest: lazy-deletion candidates
};

void RoutingTable::recompute() {
  const auto n = static_cast<std::size_t>(topo_->node_count());
  assert(n <= 65535 && "hop counts are stored in 16 bits");
  in_link_.assign(n * n, kInvalidLink);
  hops_.assign(n * n, 0);
  max_hops_ = 0;
  unreachable_pairs_ = 0;

  SearchScratch scratch;
  if (policy_ == RoutingPolicy::kWidestPath) {
    scratch.width.resize(n);
    scratch.done.resize(n);
    scratch.heap.reserve(static_cast<std::size_t>(topo_->link_count()) + 1);
  } else {
    scratch.queue.reserve(n);
  }
  for (NodeId src = 0; src < static_cast<NodeId>(n); ++src) {
    LinkId* in_link = in_link_.data() + index(src, 0);
    std::uint16_t* hops = hops_.data() + index(src, 0);
    if (policy_ == RoutingPolicy::kWidestPath) {
      search_widest(src, in_link, hops, scratch);
    } else {
      search_min_hop(src, in_link, hops, scratch);
    }
    std::size_t reached = 0;
    for (std::size_t v = 0; v < n; ++v) {
      max_hops_ = std::max<int>(max_hops_, hops[v]);
      reached += hops[v] > 0 ? 1 : 0;
    }
    unreachable_pairs_ += n - 1 - reached;
  }
}

void RoutingTable::search_min_hop(NodeId src, LinkId* in_link, std::uint16_t* hops,
                                  SearchScratch& scratch) const {
  // BFS. Neighbors are explored in out-link insertion order, which fixes
  // the tie-break deterministically; `queue` is FIFO by its read index.
  std::vector<NodeId>& queue = scratch.queue;
  queue.clear();
  queue.push_back(src);
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

void RoutingTable::search_widest(NodeId src, LinkId* in_link, std::uint16_t* hops,
                                 SearchScratch& scratch) const {
  // Dijkstra maximizing the bottleneck capacity, ties broken by hop count,
  // then by lower node id. Improvements push a new candidate and leave the
  // old one in the heap; a node's best candidate always pops first, so any
  // later pop of a finalized node is stale and skipped.
  using Candidate = SearchScratch::Candidate;
  std::vector<Bps>& width = scratch.width;
  std::vector<char>& done = scratch.done;
  std::vector<Candidate>& heap = scratch.heap;
  std::fill(width.begin(), width.end(), -1);
  std::fill(done.begin(), done.end(), 0);
  heap.clear();
  // Max-heap order: wider first, then fewer hops, then lower id.
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

}  // namespace bass::net

#include "net/routing.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace bass::net {

// Per-search buffers, sized once per recompute() and reused by every
// source, so a rebuild allocates the two n² arrays plus O(n + m).
struct RoutingTable::SearchScratch {
  // An out-link of a node: its destination and the link's index in
  // in_arcs_, so the slot is `in_arc - in_begin_[dst]`.
  struct OutArc {
    NodeId dst;
    std::uint32_t in_arc;
  };
  struct Candidate {
    Bps width;
    std::uint16_t hops;
    NodeId node;
  };
  // The out-links grouped by source, in out_links order. Every link has
  // its reverse (Topology::add_link), so a node has as many out-links as
  // in-links and u's out-arcs share its in-arc range:
  // out_arcs[in_begin_[u], in_begin_[u + 1]).
  std::vector<OutArc> out_arcs;
  std::vector<NodeId> queue;     // min-hop BFS frontier, n slots
  std::vector<Bps> width;        // widest: best bottleneck so far
  std::vector<char> done;        // widest: node finalized
  std::vector<Candidate> heap;   // widest: lazy-deletion candidates
};

void RoutingTable::recompute() {
  const auto n = static_cast<std::size_t>(topo_->node_count());
  SearchScratch scratch;
  build_arcs(scratch);  // first: it throws before the n² arrays exist
  slot_.assign(n * n, kNoSlot);
  hops_.assign(n * n, 0);
  max_hops_ = 0;
  unreachable_pairs_ = 0;

  if (policy_ == RoutingPolicy::kWidestPath) {
    scratch.width.resize(n);
    scratch.done.resize(n);
    scratch.heap.reserve(static_cast<std::size_t>(topo_->link_count()) + 1);
  } else {
    scratch.queue.resize(n);
  }
  for (NodeId src = 0; src < static_cast<NodeId>(n); ++src) {
    std::uint8_t* slot = slot_.data() + index(src, 0);
    std::uint16_t* hops = hops_.data() + index(src, 0);
    const TreeSummary tree = policy_ == RoutingPolicy::kWidestPath
                                 ? search_widest(src, slot, hops, scratch)
                                 : search_min_hop(src, slot, hops, scratch);
    max_hops_ = std::max(max_hops_, tree.max_hops);
    unreachable_pairs_ += n - tree.reached;
  }
}

void RoutingTable::build_arcs(SearchScratch& scratch) {
  const int n = topo_->node_count();
  if (n > 65535) {
    throw std::length_error(std::to_string(n) +
                            " nodes; hop counts are stored in 16 bits, so routing "
                            "supports at most 65535");
  }
  const std::vector<Link>& links = topo_->links();
  // Count each node's in-links, then turn the counts into group starts.
  in_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Link& l : links) ++in_begin_[static_cast<std::size_t>(l.dst) + 1];
  for (NodeId v = 0; v < n; ++v) {
    if (in_begin_[v + 1] > static_cast<std::uint32_t>(kMaxInLinks)) {
      throw std::length_error("node '" + topo_->node_name(v) + "' has " +
                              std::to_string(in_begin_[v + 1]) +
                              " in-links; routing supports at most " +
                              std::to_string(kMaxInLinks));
    }
    in_begin_[v + 1] += in_begin_[v];
  }
  // One pass over every source's out-links places each link in its
  // destination's group, with in_begin_[v] running ahead as v's cursor,
  // and records its out-arc. A group thus lists in-links by source id.
  in_arcs_.resize(links.size());
  scratch.out_arcs.resize(links.size());
  std::uint32_t next = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = links[l].dst;
      const std::uint32_t at = in_begin_[v]++;
      in_arcs_[at] = {l, u};
      scratch.out_arcs[next++] = {v, at};
    }
  }
  // Each cursor now holds its group's end, the next group's start.
  for (NodeId v = n; v > 0; --v) in_begin_[v] = in_begin_[v - 1];
  in_begin_[0] = 0;
#ifndef NDEBUG
  for (NodeId u = 0; u < n; ++u) {
    assert(topo_->out_links(u).size() == in_begin_[u + 1] - in_begin_[u] &&
           "out-arcs share the in-arc ranges");
  }
#endif
}

RoutingTable::TreeSummary RoutingTable::search_min_hop(NodeId src, std::uint8_t* slot,
                                                       std::uint16_t* hops,
                                                       SearchScratch& scratch) const {
  // BFS. Neighbors are explored in out-link insertion order, which fixes
  // the tie-break deterministically; `queue` is FIFO by its read index and
  // holds each reached node once, so n slots suffice.
  const std::uint32_t* begin = in_begin_.data();
  const SearchScratch::OutArc* out = scratch.out_arcs.data();
  NodeId* queue = scratch.queue.data();
  std::size_t tail = 0;
  queue[tail++] = src;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId u = queue[head];
    const auto h = static_cast<std::uint16_t>(hops[u] + 1);
    for (std::uint32_t a = begin[u]; a < begin[u + 1]; ++a) {
      const NodeId v = out[a].dst;
      if (v == src || slot[v] != kNoSlot) continue;
      slot[v] = static_cast<std::uint8_t>(out[a].in_arc - begin[v]);
      hops[v] = h;
      queue[tail++] = v;
    }
  }
  // Nodes leave the queue in hop order, so the last one is the farthest.
  return {tail, hops[queue[tail - 1]]};
}

RoutingTable::TreeSummary RoutingTable::search_widest(NodeId src, std::uint8_t* slot,
                                                      std::uint16_t* hops,
                                                      SearchScratch& scratch) const {
  // Dijkstra maximizing the bottleneck capacity, ties broken by hop count,
  // then by lower node id. Improvements push a new candidate and leave the
  // old one in the heap; a node's best candidate always pops first, so any
  // later pop of a finalized node is stale and skipped.
  using Candidate = SearchScratch::Candidate;
  const std::uint32_t* begin = in_begin_.data();
  const SearchScratch::OutArc* out = scratch.out_arcs.data();
  const Link* links = topo_->links().data();
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

  TreeSummary tree{0, 0};
  width[src] = kUnlimitedRate;
  heap.push_back({kUnlimitedRate, 0, src});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const NodeId u = heap.back().node;
    heap.pop_back();
    if (done[u]) continue;
    done[u] = 1;
    ++tree.reached;
    tree.max_hops = std::max<int>(tree.max_hops, hops[u]);
    for (std::uint32_t a = begin[u]; a < begin[u + 1]; ++a) {
      const NodeId v = out[a].dst;
      if (done[v]) continue;
      const Bps capacity = links[in_arcs_[out[a].in_arc].link].capacity;
      const Bps through = std::min(width[u], capacity);
      const auto h = static_cast<std::uint16_t>(hops[u] + 1);
      if (through > width[v] || (through == width[v] && h < hops[v])) {
        width[v] = through;
        hops[v] = h;
        slot[v] = static_cast<std::uint8_t>(out[a].in_arc - begin[v]);
        heap.push_back({through, h, v});
        std::push_heap(heap.begin(), heap.end(), worse);
      }
    }
  }
  return tree;
}

}  // namespace bass::net

#include "net/maxmin.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>


namespace bass::net {

namespace {

// 4-ary min-heap primitives over (level, dense link) entries. Quarter the
// depth of a binary heap and sift-down-in-place re-keying (levels only
// rise) make retire/re-key/pop single-sift operations. The index tiebreak
// makes the ordering total, so the pop sequence — and with it the solve —
// is independent of heap shape.
using HeapEntry = std::pair<double, std::uint32_t>;

inline void heap_sift_down(HeapEntry* h, std::size_t n, std::size_t i) {
  const HeapEntry v = h[i];
  for (;;) {
    const std::size_t c = 4 * i + 1;
    if (c >= n) break;
    std::size_t m = c;
    const std::size_t end = std::min(c + 4, n);
    for (std::size_t j = c + 1; j < end; ++j) {
      if (h[j] < h[m]) m = j;
    }
    if (!(h[m] < v)) break;
    h[i] = h[m];
    i = m;
  }
  h[i] = v;
}

inline void heap_build(HeapEntry* h, std::size_t n) {
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) heap_sift_down(h, n, i);
}

inline void heap_pop(HeapEntry* h, std::size_t& n) {
  h[0] = h[--n];
  if (n > 1) heap_sift_down(h, n, 0);
}

}  // namespace

void MaxMinSolver::ensure_links(std::size_t nl) {
  if (link_stamp_.size() >= nl) return;
  link_stamp_.resize(nl, 0);
  link_dense_.resize(nl, 0);
}

const std::vector<double>& MaxMinSolver::solve(
    const std::vector<double>& capacities,
    const std::vector<AllocEntityRef>& entities) {
  const std::size_t nf = entities.size();
  if (nf == 1) {
    rates_.assign(1, lone_rate(capacities, entities.front()));
    return rates_;
  }
  rates_.assign(nf, 0.0);  // assign() reuses capacity: no alloc at steady state
  ensure_links(capacities.size());
  ++stamp_;
  if (stamp_ == 0) {  // wrapped: invalidate every stale stamp
    std::fill(link_stamp_.begin(), link_stamp_.end(), 0u);
    stamp_ = 1;
  }

  // Pass 0: total path length T over demanding entities bounds every dense
  // array (≤ T distinct active links, exactly T CSR slots both ways), so
  // one arena reset up front covers the whole solve. The bound is padded
  // past the worst-case carve sum (nf·29 + T·60 + ~112 incl. alignment).
  std::size_t total_links = 0;
  for (const AllocEntityRef& e : entities) {
    if (e.demand > 0.0) total_links += e.links.size();
  }
  const std::size_t T = total_links;
  arena_.reset(nf * 32 + T * 72 + 128);
  demand_ = arena_.alloc<double>(nf);
  frozen_ = arena_.alloc<char>(nf);
  demand_events_ = arena_.alloc<HeapEntry>(nf);
  flow_off_ = arena_.alloc<std::uint32_t>(nf + 1);
  flow_dense_ = arena_.alloc<std::uint32_t>(T);
  active_links_ = arena_.alloc<LinkId>(T);
  remaining_ = arena_.alloc<double>(T);
  unfrozen_ = arena_.alloc<double>(T);
  offered_ = arena_.alloc<double>(T);
  csr_off_ = arena_.alloc<std::uint32_t>(T + 1);
  csr_pos_ = arena_.alloc<std::uint32_t>(T);
  csr_flows_ = arena_.alloc<std::int32_t>(T);
  heap_ = arena_.alloc<HeapEntry>(T);

  // Pass 1: stamp links into dense slots (index = discovery order, so the
  // layout — and with it every tie-break — is deterministic), record each
  // flow's path as dense indices (flow CSR), and count flows per link.
  std::size_t num_active = 0;   // K: distinct active links
  std::size_t num_finite = 0;   // flows with a finite demand cap
  std::size_t unfrozen_count = 0;
  std::uint32_t cursor = 0;
  flow_off_[0] = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    const AllocEntityRef& e = entities[f];
    if (e.demand <= 0.0) {
      frozen_[f] = 1;
      demand_[f] = 0.0;
      flow_off_[f + 1] = cursor;
      continue;
    }
    assert(!e.links.empty() &&
           "demanding entity must traverse links");
    frozen_[f] = 0;
    demand_[f] = e.demand;
    ++unfrozen_count;
    if (e.demand < static_cast<double>(kUnlimitedRate)) {
      demand_events_[num_finite++] = {e.demand, static_cast<std::uint32_t>(f)};
    }
    for (LinkId l : e.links) {
      const auto li = static_cast<std::size_t>(l);
      assert(l >= 0 && li < capacities.size());
      if (link_stamp_[li] != stamp_) {
        link_stamp_[li] = stamp_;
        link_dense_[li] = static_cast<std::uint32_t>(num_active);
        active_links_[num_active] = l;
        csr_pos_[num_active] = 0;
        offered_[num_active] = 0.0;
        ++num_active;
      }
      const std::uint32_t k = link_dense_[li];
      ++csr_pos_[k];
      offered_[k] += e.demand;
      flow_dense_[cursor++] = k;
    }
    flow_off_[f + 1] = cursor;
  }
  const std::size_t K = num_active;

  // Pass 2: prefix-sum the per-link counts into CSR offsets; csr_pos_
  // becomes the fill cursor. unfrozen_ doubles as the count (a double so
  // the saturation scan divides without converting), remaining_ starts at
  // capacity.
  std::uint32_t run = 0;
  for (std::size_t k = 0; k < K; ++k) {
    csr_off_[k] = run;
    const std::uint32_t cnt = csr_pos_[k];
    run += cnt;
    csr_pos_[k] = csr_off_[k];
    remaining_[k] = capacities[static_cast<std::size_t>(active_links_[k])];
    unfrozen_[k] = static_cast<double>(cnt);
  }
  csr_off_[K] = run;

  // Pass 3: scatter flows into the link CSR through the cursors.
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint32_t t = flow_off_[f]; t < flow_off_[f + 1]; ++t) {
      csr_flows_[csr_pos_[flow_dense_[t]]++] = static_cast<std::int32_t>(f);
    }
  }

  // Ascending demand frontier: the next flow to demand-freeze is always at
  // `next_demand`, so a round never scans the whole flow set for the
  // smallest remaining demand. Sorting (demand, flow) pairs keys the
  // comparison in-array (no indirection) and ties break by index for
  // determinism — pair ordering is exactly (demand asc, flow asc).
  std::sort(demand_events_, demand_events_ + num_finite);
  std::size_t next_demand = 0;

  // Event-driven filling: instead of raising a water level in increments
  // and rescanning links, process "events" — the level at which a link
  // saturates, L_sat(l) = remaining_l / unfrozen_l, or a demand is met —
  // in ascending order from a min-heap. Freezing a flow at level L only
  // raises L_sat of the links it crossed (remaining drops by L ≤ L_sat,
  // unfrozen drops by 1), so heap entries are lower bounds and can be
  // revalidated lazily on pop: each round costs O(log) plus the freezes it
  // performs, never a scan of the active link set. The initial saturation
  // scan computes each link's fair share over the dense SoA.
  // Only links that can actually saturate enter the heap: a link whose
  // offered load (Σ demand of its flows, with kUnlimitedRate dwarfing any
  // capacity) fits inside its capacity never runs out of headroom — each of
  // its flows demand-freezes first, since the global demand frontier is
  // always at or below such a link's fair share. Skipping them (typically
  // most links in a demand-capped workload) shrinks the heap and eliminates
  // their retire pops; they still take freeze subtractions, which is
  // harmless bookkeeping.
  std::size_t heap_size = 0;
  for (std::size_t k = 0; k < K; ++k) {
    if (offered_[k] > remaining_[k]) {
      heap_[heap_size++] = {remaining_[k] / unfrozen_[k],
                            static_cast<std::uint32_t>(k)};
    }
  }
  heap_build(heap_, heap_size);

  // Every unfrozen flow has received exactly the common raises since round
  // 0, so the water level IS its running allocation; freezing records the
  // level (or the demand) instead of accumulating per-flow.
  double level = 0.0;

  auto freeze = [&](std::int32_t f, double rate) {
    const auto fi = static_cast<std::size_t>(f);
    frozen_[fi] = 1;
    rates_[fi] = rate;
    --unfrozen_count;
    for (std::uint32_t t = flow_off_[fi]; t < flow_off_[fi + 1]; ++t) {
      remaining_[flow_dense_[t]] -= rate;
      unfrozen_[flow_dense_[t]] -= 1.0;
    }
  };

  // Each round freezes at least one flow; the guard is float head room.
  std::size_t guard = nf + 2;
  while (unfrozen_count > 0 && guard-- > 0) {
    // Next demand event.
    while (next_demand < num_finite &&
           frozen_[demand_events_[next_demand].second]) {
      ++next_demand;
    }
    const double demand_level = next_demand < num_finite
                                    ? demand_events_[next_demand].first
                                    : std::numeric_limits<double>::infinity();

    // O(1) fast path. Heap keys are lower bounds and every live link keeps
    // an entry, so the (possibly stale) top already lower-bounds the true
    // minimum saturation level: a demand at or below it is necessarily the
    // next event, and the round costs one compare plus the freeze — no
    // revalidation. Most rounds of a finite-demand-heavy workload land
    // here.
    if (next_demand < num_finite &&
        (heap_size == 0 || demand_level <= heap_[0].first + kAllocEps)) {
      level = std::max(level, demand_level);
      const std::uint32_t f = demand_events_[next_demand++].second;
      freeze(static_cast<std::int32_t>(f), demand_[f]);
      continue;
    }

    // Slow path: find the next link-saturation event, revalidating stale
    // heap entries lazily.
    double link_level = std::numeric_limits<double>::infinity();
    std::size_t link_idx = 0;  // dense; valid only when link_level is finite
    while (heap_size > 0) {
      const auto [stored, k] = heap_[0];
      if (unfrozen_[k] <= 0.0) {  // fully frozen: retire the link
        heap_pop(heap_, heap_size);
        continue;
      }
      const double cur = remaining_[k] / unfrozen_[k];
      if (cur > stored + kAllocEps) {  // stale lower bound: re-key in place
        heap_[0].first = cur;
        heap_sift_down(heap_, heap_size, 0);
        continue;
      }
      link_level = std::max(cur, level);  // float noise may lag the level
      link_idx = k;
      break;
    }
    if (!std::isfinite(std::min(link_level, demand_level))) break;

    if (demand_level <= link_level + kAllocEps) {
      level = std::max(level, demand_level);
      const std::uint32_t f = demand_events_[next_demand++].second;
      freeze(static_cast<std::int32_t>(f), demand_[f]);
    } else {
      level = std::max(level, link_level);
      heap_pop(heap_, heap_size);
      for (std::uint32_t i = csr_off_[link_idx]; i < csr_off_[link_idx + 1]; ++i) {
        const std::int32_t f = csr_flows_[i];
        if (!frozen_[static_cast<std::size_t>(f)]) freeze(f, level);
      }
    }
  }

  // Guard exhaustion (pathological float behaviour): pin leftovers at the
  // final level, mirroring the reference kernel's running allocations.
  for (std::size_t f = 0; f < nf; ++f) {
    if (!frozen_[f]) rates_[f] = std::min(demand_[f], level);
    // Clamp float-noise-negative rates; `x > 0 ? x : 0` also maps -0.0 to
    // +0.0.
    rates_[f] = rates_[f] > 0.0 ? rates_[f] : 0.0;
  }
  return rates_;
}

// Water-filling with one flow, in closed form. With m the least capacity
// among path links the demand exceeds (the only links that enter the
// heap), the general loop takes one round: a finite demand at or below
// max(m, 0) + kAllocEps freezes at the demand (the fast path, or the slow
// path's demand check once the level is clamped at 0), anything else
// freezes at the saturation level max(m, 0). An unlimited demand never
// demand-freezes, so with no saturating link the loop breaks at level 0.
// Every comparison and max() is the one the loop makes, so the result is
// bit-identical to it.
double MaxMinSolver::lone_rate(const std::vector<double>& capacities,
                               const AllocEntityRef& e) {
  double rate = 0.0;
  if (e.demand > 0.0) {
    assert(!e.links.empty() && "demanding entity must traverse links");
    const bool finite = e.demand < static_cast<double>(kUnlimitedRate);
    // No demand exceeds a +inf capacity: m stays +inf iff no link saturates.
    constexpr double kNone = std::numeric_limits<double>::infinity();
    double m = kNone;
    for (LinkId l : e.links) {
      const double cap = capacities[static_cast<std::size_t>(l)];
      if (e.demand > cap) m = std::min(m, cap);
    }
    if (m == kNone) {
      rate = finite ? e.demand : 0.0;
    } else {
      const double level = std::max(m, 0.0);
      rate = finite && e.demand <= level + kAllocEps ? e.demand : level;
    }
  }
  return rate > 0.0 ? rate : 0.0;
}

std::vector<double> max_min_allocate(const std::vector<double>& capacities,
                                     const std::vector<AllocEntity>& entities) {
  thread_local MaxMinSolver solver;
  std::vector<AllocEntityRef> refs;
  refs.reserve(entities.size());
  for (const AllocEntity& e : entities) refs.push_back({e.demand, e.links});
  return solver.solve(capacities, refs);
}

namespace {

std::vector<double> proportional_impl(const std::vector<double>& capacities,
                                      const std::vector<AllocEntityRef>& entities) {
  const std::size_t nf = entities.size();
  const std::size_t nl = capacities.size();

  // Only "unlimited" backlogged flows are capped (to the largest single
  // capacity) so they weigh links sensibly; finite demands keep their true
  // magnitude, preserving demand ratios in the proportional split.
  double max_capacity = 0.0;
  for (double c : capacities) max_capacity = std::max(max_capacity, c);
  auto effective_demand = [&](const AllocEntityRef& e) {
    return e.demand >= static_cast<double>(kUnlimitedRate) ? max_capacity : e.demand;
  };

  std::vector<double> offered(nl, 0.0);
  for (const AllocEntityRef& e : entities) {
    if (e.demand <= 0.0) continue;
    for (LinkId l : e.links) offered[static_cast<std::size_t>(l)] += effective_demand(e);
  }

  std::vector<double> alloc(nf, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    const AllocEntityRef& e = entities[f];
    if (e.demand <= 0.0) continue;
    double scale = 1.0;
    for (LinkId l : e.links) {
      const std::size_t li = static_cast<std::size_t>(l);
      if (offered[li] > capacities[li]) {
        scale = std::min(scale, offered[li] <= 0.0 ? 0.0 : capacities[li] / offered[li]);
      }
    }
    alloc[f] = effective_demand(e) * std::max(scale, 0.0);
  }
  return alloc;
}

}  // namespace

std::vector<double> proportional_allocate(const std::vector<double>& capacities,
                                          const std::vector<AllocEntity>& entities) {
  std::vector<AllocEntityRef> refs;
  refs.reserve(entities.size());
  for (const AllocEntity& e : entities) refs.push_back({e.demand, e.links});
  return proportional_impl(capacities, refs);
}

std::vector<double> proportional_allocate_refs(
    const std::vector<double>& capacities,
    const std::vector<AllocEntityRef>& entities) {
  return proportional_impl(capacities, entities);
}

}  // namespace bass::net

// Max-min fair bandwidth allocation (progressive filling / water-filling)
// with per-flow demand caps. Pure functions so the fairness invariants are
// directly testable; the Network wraps them with event-driven bookkeeping.
//
// This models what TCP-like congestion control converges to on shared
// links, which is the regime the paper's testbed (tc-shaped links carrying
// real application traffic) operates in.
//
// MaxMinSolver is the production active-set kernel. All unfrozen flows
// share one common water level, and the candidate bottleneck set (link
// saturation levels plus a sorted demand frontier) is kept in a lazy
// min-heap, so a round costs O(log links) instead of a scan of every
// flow × every link. Entities reference their paths instead of owning
// copies. Scratch is flat struct-of-arrays carved from a bump arena:
// per-solve state lives in dense arrays indexed by *active-link position*
// (assigned via a version stamp, so cost scales with the links the
// entities cross, not with `capacities`), and the link↔flow incidence is
// CSR (offsets + one flat index array, both directions). Steady-state
// solves perform zero heap allocations once the arena reaches the
// workload's high-water mark (asserted by tests/maxmin_alloc_test.cpp and
// gated in bench_alloc_fastpath).
//
// The original brute-force kernel lives on as a test oracle in
// tests/support/maxmin_reference.h, outside the library.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/types.h"
#include "util/arena.h"

namespace bass::net {

struct AllocEntity {
  // Demand cap in bps; use kUnlimitedRate for backlogged flows.
  double demand = 0.0;
  // Directed links the flow traverses (no duplicates). Must be non-empty
  // for any entity with positive demand.
  std::vector<LinkId> links;
};

// Non-owning entity: the path lives elsewhere (the routing table, in
// Network's case) and must outlive the solve call.
struct AllocEntityRef {
  double demand = 0.0;
  std::span<const LinkId> links;
};

// Absolute slack below which a link counts as saturated / a demand as met.
// Shared with the test oracle so both kernels freeze at identical
// thresholds.
inline constexpr double kAllocEps = 1e-3;  // 0.001 bps

// Active-set water-filling solver with reusable scratch. A single instance
// amortizes its arena and per-link stamp arrays across solves; solve cost
// scales with the links the entities cross, not with the size of
// `capacities`.
class MaxMinSolver {
 public:
  // Returns the max-min fair rate (bps) per entity, in input order. The
  // returned reference is invalidated by the next solve() call.
  // `capacities[l]` is the capacity of directed link l; every LinkId in an
  // entity path must index into it. A lone entity is solved in closed form,
  // bit-identical to the water-filling loop (half of all request-path
  // passes reprice exactly one flow).
  const std::vector<double>& solve(const std::vector<double>& capacities,
                                   const std::vector<AllocEntityRef>& entities);

  // The closed form solve() uses for a lone entity: its rate when nothing
  // else crosses any link of its path.
  static double lone_rate(const std::vector<double>& capacities,
                          const AllocEntityRef& entity);

  // Scratch diagnostics: arena high-water capacity and how often it grew.
  // A warmed-up solver's growth count stops moving (zero-alloc steady
  // state); tests assert this directly.
  std::size_t scratch_bytes() const { return arena_.capacity(); }
  std::int64_t scratch_growths() const { return arena_.growths(); }

 private:
  // (saturation level, dense active-link index); ordered by std::greater so
  // the heap is a min-heap over levels with index tie-break.
  using HeapEntry = std::pair<double, std::uint32_t>;

  void ensure_links(std::size_t nl);

  // ---- Persistent per-link state (indexed by LinkId, grow-only) ----
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> link_stamp_;  // == stamp_ => link is active
  std::vector<std::uint32_t> link_dense_;  // LinkId -> dense active index

  // ---- Per-solve scratch, carved from the arena each solve ----
  // Dense SoA over active links (index = discovery order, deterministic):
  util::Arena arena_;
  double* remaining_ = nullptr;      // residual capacity
  double* unfrozen_ = nullptr;       // unfrozen flow count (double: the
                                     // fair-share division needs no convert)
  double* offered_ = nullptr;        // Σ demand over the link's flows
  LinkId* active_links_ = nullptr;   // dense index -> LinkId
  // CSR incidence, both directions:
  std::uint32_t* csr_off_ = nullptr;   // link k's flows: csr_flows_[off[k]..off[k+1])
  std::uint32_t* csr_pos_ = nullptr;   // build cursors (counts, then fill)
  std::int32_t* csr_flows_ = nullptr;
  std::uint32_t* flow_off_ = nullptr;  // flow f's links: flow_dense_[off[f]..off[f+1])
  std::uint32_t* flow_dense_ = nullptr;
  // Per-flow state:
  double* demand_ = nullptr;  // dense copy (cache-friendly freeze/epilogue)
  char* frozen_ = nullptr;
  HeapEntry* demand_events_ = nullptr;  // (demand, flow), sorted ascending
  HeapEntry* heap_ = nullptr;

  std::vector<double> rates_;  // the returned allocation
};

// Convenience wrapper over MaxMinSolver for owned entities (tests, ad-hoc
// callers). Returns the max-min fair rate (bps) for each entity, in input
// order.
std::vector<double> max_min_allocate(const std::vector<double>& capacities,
                                     const std::vector<AllocEntity>& entities);

// Proportional-share alternative (ablation baseline): every flow is scaled
// by the worst oversubscription ratio along its path, so a congested link
// punishes all of its flows proportionally to their demands instead of
// equalizing them. Models rate-proportional behaviours (e.g. UDP senders
// without backoff, or weighted shaping).
std::vector<double> proportional_allocate(const std::vector<double>& capacities,
                                          const std::vector<AllocEntity>& entities);

// Reference-based variant used by Network's entity cache. The unlimited-
// demand cap is the max over the *full* capacities vector, so a solve
// restricted to one contention component yields exactly the rates of a
// whole-network solve (the cap is global, the per-link offered loads are
// component-local by construction).
std::vector<double> proportional_allocate_refs(
    const std::vector<double>& capacities,
    const std::vector<AllocEntityRef>& entities);

}  // namespace bass::net

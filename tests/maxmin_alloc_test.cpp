// Zero-allocation steady-state guarantees. The perf contract (DESIGN.md
// §5c) is that once the solver's arena and the engine's pools reach their
// workload high-water mark, churn rounds touch no allocator at all. These
// tests measure that with a global operator new/delete probe rather than
// trusting the arena's own bookkeeping: any allocation anywhere in the
// process during the measured window fails the test.
#include "alloc_probe.h"  // must be the only TU in this binary including it

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "net/maxmin.h"
#include "net/network.h"
#include "obs/recorder.h"
#include "util/rng.h"

namespace bass::net {
namespace {

// A fixed pool of paths over a synthetic link space, with churn that
// mutates demands and swaps entities in and out — the access pattern
// Network generates, minus the engine.
struct SolverWorkload {
  std::vector<double> capacities;
  std::vector<std::vector<LinkId>> paths;
  std::vector<AllocEntityRef> entities;
  util::Rng rng{0xBA55};

  SolverWorkload(std::size_t links, std::size_t flows) {
    capacities.resize(links);
    for (auto& c : capacities) {
      c = static_cast<double>(mbps(rng.uniform_int(5, 100)));
    }
    paths.resize(flows);
    entities.resize(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      const std::size_t hops = rng.uniform_int(1, 6);
      for (std::size_t h = 0; h < hops; ++h) {
        const LinkId l = static_cast<LinkId>(
            (f * 37 + h * 11 + rng.uniform_int(0, links - 1)) % links);
        bool dup = false;
        for (LinkId seen : paths[f]) dup |= (seen == l);
        if (!dup) paths[f].push_back(l);
      }
      entities[f] = {demand_for(f), paths[f]};
    }
  }

  double demand_for(std::size_t f) {
    if (rng.chance(0.2)) return static_cast<double>(kUnlimitedRate);
    (void)f;
    return static_cast<double>(mbps(rng.uniform_int(1, 50)));
  }

  // One churn round: a demand flip plus one entity leaving and re-entering
  // with a different path from the pool.
  void churn() {
    const std::size_t a = rng.uniform_int(0, entities.size() - 1);
    entities[a].demand = demand_for(a);
    const std::size_t b = rng.uniform_int(0, entities.size() - 1);
    const std::size_t p = rng.uniform_int(0, paths.size() - 1);
    entities[b] = {demand_for(b), paths[p]};
  }
};

TEST(MaxMinAlloc, SolverSteadyStateAllocatesNothing) {
  SolverWorkload w(/*links=*/120, /*flows=*/200);
  MaxMinSolver solver;

  for (int round = 0; round < 200; ++round) {  // warm-up: arena finds its high-water
    w.churn();
    solver.solve(w.capacities, w.entities);
  }
  const std::int64_t growths = solver.scratch_growths();

  const auto snap = testing::take_alloc_snapshot();
  for (int round = 0; round < 1000; ++round) {
    w.churn();
    solver.solve(w.capacities, w.entities);
  }
  EXPECT_EQ(testing::allocations_since(snap), 0);
  EXPECT_EQ(testing::bytes_since(snap), 0);
  EXPECT_EQ(solver.scratch_growths(), growths) << "arena grew after warm-up";
  EXPECT_GT(solver.scratch_bytes(), 0u);
}

// End-to-end: the engine's stream churn path (open → reallocate → close →
// reallocate) is allocation-free once slot pools, occupancy lists, and the
// solver arena are warm.
TEST(MaxMinAlloc, NetworkStreamChurnSteadyStateAllocatesNothing) {
  util::Rng rng(7);
  sim::Simulation sim;
  Topology topo;
  const int n = 32;
  for (int i = 0; i < n; ++i) topo.add_node();
  for (int i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n, mbps(rng.uniform_int(5, 60)));
  }
  for (int i = 0; i < n / 2; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a != b && !topo.link_between(a, b)) {
      topo.add_link(a, b, mbps(rng.uniform_int(5, 60)));
    }
  }
  Network network(sim, topo);

  // A steady state needs a recurring flow population: churn closes a stream
  // and reopens the same (src, dst, demand) triple, so the concurrent flow
  // multiset — and with it every per-link occupancy high-water mark — is
  // constant after the pool is first filled. (Fully random flows keep
  // setting new per-link occupancy records, which is legitimate amortized
  // vector growth, not steady state.)
  struct Triple {
    NodeId src, dst;
    Bps demand;
  };
  std::vector<Triple> triples;
  for (int i = 0; i < 48; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
    triples.push_back({src, dst, mbps(rng.uniform_int(1, 40))});
  }
  std::vector<StreamId> pool;
  pool.reserve(triples.size());
  for (const Triple& t : triples) {
    pool.push_back(network.open_stream(t.src, t.dst, t.demand));
  }

  auto churn = [&] {
    const std::size_t victim = rng.uniform_int(0, pool.size() - 1);
    network.close_stream(pool[victim]);
    const Triple& t = triples[victim];
    pool[victim] = network.open_stream(t.src, t.dst, t.demand);
  };
  for (int i = 0; i < 200; ++i) churn();  // warm-up: pools reach high-water

  const auto snap = testing::take_alloc_snapshot();
  for (int i = 0; i < 200; ++i) churn();
  EXPECT_EQ(testing::allocations_since(snap), 0)
      << "engine stream churn allocated after warm-up";
  EXPECT_EQ(network.stream_count(), 48u);
}

// The request path's traffic: finite transfers over the mesh and over
// loopback, each completing into a callback whose captures fit
// std::function's inline buffer. Transfers live in free-listed slots and a
// completion moves the callback into the event queue, so once the slot
// pools reach their high-water mark a round of transfers allocates nothing.
TEST(MaxMinAlloc, NetworkTransferChurnSteadyStateAllocatesNothing) {
  util::Rng rng(11);
  sim::Simulation sim;
  Topology topo;
  const int n = 16;
  for (int i = 0; i < n; ++i) topo.add_node();
  for (int i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n, mbps(rng.uniform_int(5, 60)));
  }
  Network network(sim, topo);

  struct Triple {
    NodeId src, dst;
    std::int64_t bytes;
  };
  std::vector<Triple> triples;
  for (int i = 0; i < 64; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    // Every fourth transfer is colocated and goes over loopback.
    const auto dst =
        i % 4 == 0 ? src : static_cast<NodeId>(rng.uniform_int(0, n - 1));
    triples.push_back({src, dst, rng.uniform_int(1'000, 200'000)});
  }
  std::vector<int> hits(triples.size(), 0);
  std::vector<TransferId> ids(triples.size());

  // One round: every transfer starts, one queued mesh transfer is
  // cancelled, and the simulation drains.
  int cancelled = 0;
  auto round = [&] {
    for (std::size_t i = 0; i < triples.size(); ++i) {
      const Triple& t = triples[i];
      ids[i] = network.start_transfer(t.src, t.dst, t.bytes, [&hits, i] { ++hits[i]; });
    }
    for (std::size_t i = triples.size(); i-- > 0;) {
      if (network.cancel_transfer(ids[i])) {
        ++cancelled;
        break;
      }
    }
    sim.run_all();
  };
  for (int i = 0; i < 5; ++i) round();  // warm-up: pools reach high-water

  const auto snap = testing::take_alloc_snapshot();
  for (int i = 0; i < 20; ++i) round();
  EXPECT_EQ(testing::allocations_since(snap), 0)
      << "transfer churn allocated after warm-up";
  EXPECT_EQ(cancelled, 25);
  int delivered = 0;
  for (int h : hits) delivered += h;
  EXPECT_EQ(delivered, 25 * static_cast<int>(triples.size()) - cancelled);
  EXPECT_EQ(network.active_channel_count(), 0u);
}

}  // namespace
}  // namespace bass::net

namespace bass::obs {
namespace {

// Timed by BASS_OBS_SCOPE, as the packer kernels are. The name is longer
// than std::string's inline buffer, so building a key from it would
// allocate.
void profiled_kernel() { BASS_OBS_SCOPE("sched.sequential_pack_us"); }

// A profiling scope resolves its timer by name at every exit; once the timer
// is registered that lookup must not touch the heap.
TEST(Recorder, ScopedTimerAllocatesNothingOnceRegistered) {
  Recorder recorder;
  ScopedGlobalRecorder guard(&recorder);
  profiled_kernel();  // registers the timer

  const auto snap = testing::take_alloc_snapshot();
  for (int i = 0; i < 100; ++i) profiled_kernel();
  EXPECT_EQ(testing::allocations_since(snap), 0)
      << "a profiling scope allocated after its timer was registered";
  EXPECT_EQ(recorder.metrics().log_timer_us("sched.sequential_pack_us").count(), 101);
}

}  // namespace
}  // namespace bass::obs

// Simulator engine microbenchmarks (google-benchmark): regression guard
// for the hot paths every experiment leans on — the event queue, the
// max-min allocator, and the flow engine's transfer pipeline. A 20-minute
// social-network run executes a few million events; these keep that cheap.
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>

#include "net/maxmin.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/rng.h"

using namespace bass;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(1);
  // Pre-generate timestamps so RNG cost stays out of the loop.
  std::vector<sim::Time> times;
  for (int i = 0; i < batch; ++i) times.push_back(rng.uniform_int(0, 1'000'000));
  for (auto _ : state) {
    sim::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      queue.push(times[static_cast<std::size_t>(i)], [&fired] { ++fired; });
    }
    sim::Time now = 0;
    while (queue.run_next(std::numeric_limits<sim::Time>::max(), now)) {}
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1'000)->Arg(10'000);

// The request path's regime: about ten pending events, and every firing
// pushes one more (a hop scheduling the next), so the heap stays shallow
// and each event costs a pop, a push and its callback's moves. The
// fill-and-drain cases above measure deep heaps instead.
void BM_EventQueueSteady(benchmark::State& state) {
  constexpr int kPending = 10;
  struct Load {
    sim::EventQueue queue;
    sim::Time now = 0;
    std::vector<sim::Duration> delays = std::vector<sim::Duration>(1024);
    std::size_t next = 0;
    void arm() {
      queue.push(now + delays[next++ & 1023], [this] { arm(); });
    }
  } load;
  util::Rng rng(3);
  for (sim::Duration& delay : load.delays) delay = rng.uniform_int(0, 1'000);
  for (int i = 0; i < kPending; ++i) load.arm();
  for (auto _ : state) {
    load.queue.run_next(std::numeric_limits<sim::Time>::max(), load.now);
  }
  benchmark::DoNotOptimize(load.now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteady);

void BM_MaxMinAllocate(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const int flows = static_cast<int>(state.range(1));
  util::Rng rng(2);
  std::vector<double> capacities;
  for (int l = 0; l < links; ++l) capacities.push_back(rng.uniform(1e6, 100e6));
  std::vector<net::AllocEntity> entities;
  for (int f = 0; f < flows; ++f) {
    net::AllocEntity e;
    e.demand = rng.chance(0.5) ? static_cast<double>(net::kUnlimitedRate)
                               : rng.uniform(1e6, 50e6);
    const int hops = static_cast<int>(rng.uniform_int(1, 4));
    for (int h = 0; h < hops; ++h) {
      const net::LinkId l = static_cast<net::LinkId>(rng.uniform_int(0, links - 1));
      if (std::find(e.links.begin(), e.links.end(), l) == e.links.end()) {
        e.links.push_back(l);
      }
    }
    entities.push_back(std::move(e));
  }
  for (auto _ : state) {
    auto rates = net::max_min_allocate(capacities, entities);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinAllocate)->Args({16, 32})->Args({16, 128})->Args({64, 512});

void BM_NetworkTransferPipeline(benchmark::State& state) {
  // Sustained small transfers across a contended 4-node line: measures the
  // full settle/reallocate/event path.
  const int transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    net::Topology topo;
    for (int i = 0; i < 4; ++i) topo.add_node();
    for (int i = 0; i < 3; ++i) topo.add_link(i, i + 1, net::mbps(50));
    net::Network network(sim, std::move(topo));
    int completed = 0;
    for (int t = 0; t < transfers; ++t) {
      const net::NodeId src = t % 4;
      const net::NodeId dst = (t + 1 + t % 3) % 4;
      sim.schedule_at(sim::millis(t), [&network, src, dst, &completed] {
        network.start_transfer(src, dst, 20'000, [&completed] { ++completed; });
      });
    }
    sim.run_all();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_NetworkTransferPipeline)->Arg(1'000)->Arg(5'000);

void BM_StreamChurn(benchmark::State& state) {
  // Open/close streams under contention: every call is a reallocation.
  for (auto _ : state) {
    sim::Simulation sim;
    net::Topology topo;
    for (int i = 0; i < 5; ++i) topo.add_node();
    for (int i = 0; i < 4; ++i) topo.add_link(i, i + 1, net::mbps(30));
    net::Network network(sim, std::move(topo));
    std::vector<net::StreamId> live;
    for (int round = 0; round < 200; ++round) {
      live.push_back(network.open_stream(round % 5, (round + 2) % 5, net::mbps(3)));
      if (live.size() > 16) {
        network.close_stream(live.front());
        live.erase(live.begin());
      }
    }
    benchmark::DoNotOptimize(network.reallocation_count());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_StreamChurn);

}  // namespace

BENCHMARK_MAIN();

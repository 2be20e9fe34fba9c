// Zero-allocation request path. The social network's open-loop workload
// (the engine behind the §6.3 figures) keeps every invocation in a
// free-listed frame slab, every transfer in a free-listed network slot, and
// every callback small enough for std::function's inline buffer. Once
// those pools reach their high-water mark, requests run without touching
// the allocator; the global operator new probe checks that, so an
// allocation anywhere on the path fails the test.
#include "alloc_probe.h"  // must be the only TU in this binary including it

#include <gtest/gtest.h>

#include "app/catalog.h"
#include "core/orchestrator.h"
#include "workload/request_engine.h"

namespace bass::workload {
namespace {

TEST(RequestAlloc, SocialNetworkSteadyStateAllocatesNothing) {
  // The workload tests' rig: a 3-node line of 100 Mbps links.
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  for (int i = 0; i + 1 < 3; ++i) topo.add_link(i, i + 1, net::mbps(100));
  net::Network network(sim, std::move(topo));
  cluster::ClusterState cluster;
  for (int i = 0; i < 3; ++i) cluster.add_node(i, {16000, 32768, true});
  core::Orchestrator orch(sim, network, cluster);

  const auto id =
      orch.deploy(app::social_network_app(50.0 / 400.0), core::SchedulerKind::kK3sDefault)
          .take();
  RequestWorkloadConfig cfg;
  cfg.rps = 50;
  cfg.client_node = 0;
  RequestEngine engine(orch, id, cfg);
  engine.start();
  sim.run_until(sim::seconds(60));  // warm-up: pools reach high-water
  const std::int64_t warm_completed = engine.completed();

  const auto snap = testing::take_alloc_snapshot();
  sim.run_until(sim::seconds(130));
  const std::int64_t allocations = testing::allocations_since(snap);
  const std::int64_t measured = engine.completed() - warm_completed;

  ASSERT_GE(measured, 3000);
  // Only the latency recorder's sample vectors may still grow (amortised
  // doubling: a handful of allocations over thousands of requests).
  EXPECT_LT(allocations, 10) << allocations << " allocations over " << measured
                             << " requests";
  engine.stop();
  sim.run_until(sim::seconds(140));
  EXPECT_EQ(engine.in_flight(), 0);
}

}  // namespace
}  // namespace bass::workload

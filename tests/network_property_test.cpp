// Property suite for the flow-level network engine: conservation,
// completion, and fairness invariants under randomized traffic and
// capacity churn. These are the guarantees every experiment leans on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "util/rng.h"

namespace bass::net {
namespace {

struct Scenario {
  std::uint64_t seed;
};

class NetworkChurn : public ::testing::TestWithParam<Scenario> {};

TEST_P(NetworkChurn, EveryTransferCompletesAndBytesBalance) {
  util::Rng rng(GetParam().seed);
  sim::Simulation sim;

  // Random connected topology: a ring plus random chords.
  const int n = static_cast<int>(rng.uniform_int(3, 7));
  Topology topo;
  for (int i = 0; i < n; ++i) topo.add_node();
  for (int i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n, mbps(rng.uniform_int(2, 30)));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 2; j < n; ++j) {
      if ((i + 1) % n == j || (j + 1) % n == i) continue;
      if (!topo.link_between(i, j) && rng.chance(0.3)) {
        topo.add_link(i, j, mbps(rng.uniform_int(2, 30)));
      }
    }
  }
  Network network(sim, topo);

  // Random transfers with random start times, plus streams that open and
  // close, plus capacity churn every ~5 s.
  std::int64_t bytes_sent = 0;
  int completed = 0;
  const int transfers = static_cast<int>(rng.uniform_int(20, 60));
  for (int t = 0; t < transfers; ++t) {
    const NodeId src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    NodeId dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const std::int64_t bytes = rng.uniform_int(1'000, 2'000'000);
    bytes_sent += bytes;
    sim.schedule_at(sim::seconds_f(rng.uniform(0, 60)), [&, src, dst, bytes] {
      network.start_transfer(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  std::vector<StreamId> streams;
  for (int s = 0; s < 5; ++s) {
    const NodeId src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    NodeId dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const Bps demand = mbps(rng.uniform_int(1, 10));
    sim.schedule_at(sim::seconds_f(rng.uniform(0, 30)), [&, src, dst, demand] {
      streams.push_back(network.open_stream(src, dst, demand));
    });
  }
  for (int c = 0; c < 12; ++c) {
    sim.schedule_at(sim::seconds_f(rng.uniform(1, 90)), [&] {
      const LinkId l =
          static_cast<LinkId>(rng.uniform_int(0, topo.link_count() - 1));
      network.set_link_capacity(l, mbps(rng.uniform_int(1, 30)));
    });
  }
  sim.schedule_at(sim::seconds(95), [&] {
    for (StreamId s : streams) network.close_stream(s);
    streams.clear();
  });

  sim.run_until(sim::minutes(60));

  // (1) No transfer is lost, however the capacities churned.
  EXPECT_EQ(completed, transfers);
  // (2) Transfer bytes are fully accounted (streams add on top).
  EXPECT_GE(network.total_bytes_delivered() + 64, bytes_sent);
  // (3) The simulator quiesced: no livelock of reallocation events.
  EXPECT_EQ(network.active_channel_count(), 0u);
  EXPECT_EQ(network.stream_count(), 0u);
}

TEST_P(NetworkChurn, LinkAllocationNeverExceedsCapacity) {
  util::Rng rng(GetParam().seed + 1000);
  sim::Simulation sim;
  Topology topo;
  const int n = 4;
  for (int i = 0; i < n; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(1, 2, mbps(5));
  topo.add_link(2, 3, mbps(8));
  topo.add_link(0, 3, mbps(3));
  Network network(sim, topo);

  for (int s = 0; s < 12; ++s) {
    const NodeId src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    NodeId dst = static_cast<NodeId>((src + rng.uniform_int(1, n - 1)) % n);
    network.open_stream(src, dst, mbps(rng.uniform_int(1, 20)));
  }
  network.start_transfer(0, 2, 50'000'000, [] {});
  network.start_transfer(3, 1, 50'000'000, [] {});
  sim.run_until(sim::seconds(5));

  for (int l = 0; l < topo.link_count(); ++l) {
    EXPECT_LE(network.link_allocated(l), network.link_capacity(l) + 1)
        << "link " << l << " oversubscribed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkChurn,
                         ::testing::Values(Scenario{1}, Scenario{2}, Scenario{3},
                                           Scenario{4}, Scenario{5}, Scenario{6},
                                           Scenario{7}, Scenario{8}, Scenario{9},
                                           Scenario{10}, Scenario{11}, Scenario{12}));

// ---- Focused dynamics checks ----

TEST(NetworkDynamics, RateReactsToCompetitorDeparture) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, mbps(10));
  Network network(sim, topo);
  const StreamId a = network.open_stream(0, 1, kUnlimitedRate);
  const StreamId b = network.open_stream(0, 1, kUnlimitedRate);
  EXPECT_NEAR(static_cast<double>(network.stream_rate(a)), 5e6, 1e4);
  network.close_stream(b);
  EXPECT_NEAR(static_cast<double>(network.stream_rate(a)), 10e6, 1e4);
}

TEST(NetworkDynamics, ReverseDirectionsDoNotContend) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, mbps(10));
  Network network(sim, topo);
  const StreamId fwd = network.open_stream(0, 1, mbps(9));
  const StreamId rev = network.open_stream(1, 0, mbps(9));
  // Directed links: full rate both ways.
  EXPECT_NEAR(static_cast<double>(network.stream_rate(fwd)), 9e6, 1e4);
  EXPECT_NEAR(static_cast<double>(network.stream_rate(rev)), 9e6, 1e4);
}

TEST(NetworkDynamics, ZeroByteTransferStillCompletes) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, mbps(10));
  Network network(sim, topo);
  bool done = false;
  network.start_transfer(0, 1, 0, [&] { done = true; });
  sim.run_all();
  EXPECT_TRUE(done);
}

TEST(NetworkDynamics, ManySmallTransfersOneChannelFewReallocations) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, mbps(10));
  Network network(sim, topo);
  int completed = 0;
  // Queue 100 transfers back-to-back on one channel: the allocator should
  // run ~twice (activation + deactivation), not per transfer.
  for (int i = 0; i < 100; ++i) {
    network.start_transfer(0, 1, 10'000, [&] { ++completed; });
  }
  const auto reallocs = network.reallocation_count();
  sim.run_all();
  EXPECT_EQ(completed, 100);
  EXPECT_LE(network.reallocation_count() - reallocs, 2);
}

TEST(NetworkDynamics, StreamRateZeroOnDeadLink) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, 0);
  Network network(sim, topo);
  const StreamId s = network.open_stream(0, 1, mbps(5));
  EXPECT_EQ(network.stream_rate(s), 0);
}

}  // namespace
}  // namespace bass::net

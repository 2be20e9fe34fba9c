#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/sweep.h"
#include "journal_merge_reference.h"
#include "net/network.h"
#include "scenario/scenario.h"
#include "sim/simulation.h"
#include "topo/city_grid.h"
#include "util/ini.h"
#include "util/strings.h"
#include "zone/partition.h"
#include "zone/sharded.h"

namespace bass::zone {
namespace {

topo::CityGridParams small_params(int bx, int by) {
  topo::CityGridParams p;
  p.blocks_x = bx;
  p.blocks_y = by;
  p.nodes_per_block = 4;
  p.gateway_every = 8;
  return p;
}

// ---- City grid generator ----

TEST(CityGrid, CountsNamesAndConnectivity) {
  const topo::CityGridParams p = small_params(4, 4);
  topo::CityGrid city = topo::CityGridGenerator(p).build();
  EXPECT_EQ(city.topology.node_count(), 64);
  EXPECT_EQ(city.routers.size(), 16u);
  // gateway_every = 8 over 16 blocks: blocks 0 and 8.
  EXPECT_EQ(city.gateways.size(), 2u);
  EXPECT_EQ(city.topology.node_name(0), "r0x0");
  EXPECT_EQ(city.topology.node_name(1), "n0x0_1");

  sim::Simulation sim;
  net::Network network(sim, city.topology);
  for (net::NodeId n = 1; n < city.topology.node_count(); ++n) {
    ASSERT_TRUE(network.routing().reachable(0, n)) << "node " << n;
  }
  EXPECT_EQ(network.routing().unreachable_pairs(), 0u);
}

TEST(CityGrid, BuildIsDeterministic) {
  const topo::CityGridParams p = small_params(3, 5);
  topo::CityGrid a = topo::CityGridGenerator(p).build();
  topo::CityGrid b = topo::CityGridGenerator(p).build();
  ASSERT_EQ(a.topology.node_count(), b.topology.node_count());
  ASSERT_EQ(a.topology.link_count(), b.topology.link_count());
  for (net::LinkId l = 0; l < a.topology.link_count(); ++l) {
    EXPECT_EQ(a.topology.link(l).src, b.topology.link(l).src);
    EXPECT_EQ(a.topology.link(l).dst, b.topology.link(l).dst);
    EXPECT_EQ(a.topology.link(l).capacity, b.topology.link(l).capacity);
  }
}

TEST(CityGrid, RejectsNonPositiveDimensions) {
  topo::CityGridParams p = small_params(0, 4);
  EXPECT_FALSE(topo::make_city_grid(p).ok());
  p = small_params(4, 4);
  p.nodes_per_block = 0;
  EXPECT_FALSE(topo::make_city_grid(p).ok());
}

// ---- Partitioner ----

net::Topology city_topology(int bx, int by) {
  return topo::CityGridGenerator(small_params(bx, by)).build().topology;
}

TEST(Partition, CoversEveryNodeExactlyOnce) {
  const net::Topology topo = city_topology(4, 4);
  const Partition part = ZonePartitioner(4).partition(topo);
  ASSERT_EQ(part.zones, 4);
  ASSERT_EQ(part.zone_of.size(), static_cast<std::size_t>(topo.node_count()));
  std::size_t total = 0;
  for (int z = 0; z < part.zones; ++z) {
    total += part.members[static_cast<std::size_t>(z)].size();
    for (const net::NodeId n : part.members[static_cast<std::size_t>(z)]) {
      EXPECT_EQ(part.zone_of[static_cast<std::size_t>(n)], z);
    }
    // Members are ascending — world construction depends on it.
    EXPECT_TRUE(std::is_sorted(part.members[static_cast<std::size_t>(z)].begin(),
                               part.members[static_cast<std::size_t>(z)].end()));
  }
  EXPECT_EQ(total, static_cast<std::size_t>(topo.node_count()));
}

TEST(Partition, BorderLinksAreExactlyCrossZoneLinks) {
  const net::Topology topo = city_topology(4, 4);
  const Partition part = ZonePartitioner(4).partition(topo);
  std::vector<net::LinkId> expected;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    const net::Link& link = topo.link(l);
    if (part.zone_of[static_cast<std::size_t>(link.src)] !=
        part.zone_of[static_cast<std::size_t>(link.dst)]) {
      expected.push_back(l);
    }
  }
  EXPECT_EQ(part.border_links, expected);
  EXPECT_FALSE(part.border_links.empty());
}

TEST(Partition, BfsZonesAreRoughlyBalanced) {
  const net::Topology topo = city_topology(8, 8);
  const Partition part = ZonePartitioner(4).partition(topo);
  std::size_t smallest = part.members[0].size(), largest = part.members[0].size();
  for (const auto& m : part.members) {
    smallest = std::min(smallest, m.size());
    largest = std::max(largest, m.size());
  }
  EXPECT_GT(smallest, 0u);
  // Lockstep growth keeps zones near-balanced; a zone can get boxed in by
  // faster-growing neighbours, so the bound is loose, not exact.
  EXPECT_LE(largest, smallest * 2);
}

TEST(Partition, IsDeterministic) {
  const net::Topology topo = city_topology(6, 6);
  const Partition a = ZonePartitioner(5).partition(topo);
  const Partition b = ZonePartitioner(5).partition(topo);
  EXPECT_EQ(a.zone_of, b.zone_of);
  EXPECT_EQ(a.border_links, b.border_links);
}

TEST(Partition, ChunksFollowIdRanges) {
  const net::Topology topo = city_topology(4, 4);
  const Partition part =
      ZonePartitioner(4, PartitionMethod::kChunks).partition(topo);
  EXPECT_TRUE(std::is_sorted(part.zone_of.begin(), part.zone_of.end()));
  for (const auto& m : part.members) EXPECT_EQ(m.size(), 16u);
}

TEST(Partition, ClampsZoneCountToNodes) {
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_node("c");
  topo.add_link(0, 1, net::mbps(10));
  topo.add_link(1, 2, net::mbps(10));
  const Partition part = ZonePartitioner(8).partition(topo);
  EXPECT_EQ(part.zones, 3);
}

// ---- Sharded orchestrator ----

ShardedBuild non_serving_build(int bx, int by, int zones, int transit) {
  ShardedBuild b;
  topo::CityGrid city = topo::CityGridGenerator(small_params(bx, by)).build();
  b.topology = std::move(city.topology);
  b.specs.assign(static_cast<std::size_t>(b.topology.node_count()),
                 {4000, 4096, true});
  b.zones.count = zones;
  b.zones.method = PartitionMethod::kChunks;  // chunks align with city blocks
  b.zones.round_interval = sim::seconds(10);
  b.zones.transit_per_border = transit;
  b.zones.transit_bps = net::mbps(100);  // above street rate: forces caps
  b.serving = false;
  b.monitor_enabled = false;
  b.invariants_enabled = false;
  b.duration = sim::seconds(40);
  return b;
}

// When no contention component crosses a border, the per-zone solver must
// land on bitwise-identical rates to a global solve of the same streams:
// zone slices carry the same links at the same capacities, and max-min
// water-filling is local to a contention component.
TEST(Sharded, IntraZoneAllocationsMatchGlobalSolverBitwise) {
  ShardedBuild build = non_serving_build(4, 4, 4, 0);
  const net::Topology global_topo = build.topology;
  auto built = ShardedOrchestrator::create(std::move(build), 1);
  ASSERT_TRUE(built.ok()) << built.error();
  auto orch = built.take();

  sim::Simulation gsim;
  net::Network global(gsim, global_topo);

  // Three streams inside every block, sharing the block's star links with
  // total demand over the intra capacity — real contention, resolved
  // entirely inside one zone.
  std::vector<std::pair<net::StreamId, net::StreamId>> pairs;
  const Partition& part = orch->partition();
  const int npb = 4;
  for (int block = 0; block < 16; ++block) {
    const net::NodeId base = static_cast<net::NodeId>(block * npb);
    const int z = part.zone_of[static_cast<std::size_t>(base)];
    const net::NodeId leaf[3] = {base + 1, base + 2, base + 3};
    const std::pair<int, int> ends[3] = {{0, 1}, {0, 2}, {1, 2}};
    for (const auto& [i, j] : ends) {
      const net::Bps demand = net::mbps(60);
      const net::StreamId zs = orch->zone_network(z).open_stream(
          orch->local_node(z, leaf[i]), orch->local_node(z, leaf[j]), demand);
      const net::StreamId gs = global.open_stream(leaf[i], leaf[j], demand);
      pairs.emplace_back(zs, gs);
      // Both solvers saw the same component: rates match exactly, stream by
      // stream, even mid-buildup.
      const int zz = z;
      EXPECT_EQ(orch->zone_network(zz).stream_rate(zs), global.stream_rate(gs));
    }
  }
  for (int block = 0; block < 16; ++block) {
    const net::NodeId base = static_cast<net::NodeId>(block * npb);
    const int z = part.zone_of[static_cast<std::size_t>(base)];
    for (int k = 0; k < 3; ++k) {
      const auto& [zs, gs] = pairs[static_cast<std::size_t>(block * 3 + k)];
      EXPECT_EQ(orch->zone_network(z).stream_rate(zs), global.stream_rate(gs))
          << "block " << block << " stream " << k;
    }
  }
}

TEST(Sharded, LocalGlobalNodeMappingRoundTrips) {
  auto built = ShardedOrchestrator::create(non_serving_build(4, 4, 4, 1), 1);
  ASSERT_TRUE(built.ok()) << built.error();
  auto orch = built.take();
  const Partition& part = orch->partition();
  for (int z = 0; z < orch->zones(); ++z) {
    for (const net::NodeId g : part.members[static_cast<std::size_t>(z)]) {
      const net::NodeId local = orch->local_node(z, g);
      ASSERT_NE(local, net::kInvalidNode);
      EXPECT_EQ(orch->global_node(z, local), g);
    }
  }
  // A node interior to zone 0 is not interior to zone 1 — at most a halo
  // entry, and halo locals still map back to the right global id.
  EXPECT_EQ(orch->local_node(0, net::kInvalidNode), net::kInvalidNode);
  EXPECT_EQ(orch->global_node(0, net::kInvalidNode), net::kInvalidNode);
}

// Border reconciliation settles in at most one rate-changing pass per
// round once transit is up: the first round caps the over-demanded halves,
// and with nothing else moving, every later round is already at the
// fixpoint.
TEST(Sharded, ReconciliationSettlesWithinOnePassPerRound) {
  auto built = ShardedOrchestrator::create(non_serving_build(4, 4, 2, 1), 1);
  ASSERT_TRUE(built.ok()) << built.error();
  auto orch = built.take();
  const ShardedReport report = orch->run();
  ASSERT_EQ(report.rounds, 4);
  ASSERT_GT(report.transit_streams, 0u);
  EXPECT_LE(report.reconcile_iterations, 2);

  // The per-round breakdown from the coordinator journal: after the first
  // round no pass changes a rate.
  const std::string merged = orch->merged_journal();
  std::vector<int> per_round;
  std::size_t pos = 0;
  while ((pos = merged.find("\"type\":\"zone_round\"", pos)) != std::string::npos) {
    const std::size_t line_end = merged.find('\n', pos);
    const std::string line = merged.substr(pos, line_end - pos);
    if (line.find("\"zone\":-1") != std::string::npos) {
      const std::size_t it = line.find("\"recon_iterations\":");
      ASSERT_NE(it, std::string::npos);
      per_round.push_back(std::atoi(line.c_str() + it + 19));
    }
    pos = line_end;
  }
  ASSERT_EQ(per_round.size(), 4u);
  for (std::size_t r = 1; r < per_round.size(); ++r) {
    EXPECT_EQ(per_round[r], 0) << "round " << r;
  }
  EXPECT_LE(per_round[0], 2);
}

// Reconciliation must notice an allocation change that ran no allocator
// pass. A small stream admitted at its demand on a link that carries
// transit moves that link's residual, so the next round rebuilds the
// link's border component; keyed on the pass count alone, it would not.
TEST(Sharded, UncontendedOpenOnATransitLinkReRunsReconcile) {
  auto built = ShardedOrchestrator::create(non_serving_build(4, 4, 2, 1), 1);
  ASSERT_TRUE(built.ok()) << built.error();
  auto orch = built.take();
  orch->start();
  orch->run_round();
  orch->run_round();
  // With nothing moving, a round rebuilds no border component.
  const std::int64_t settled = orch->phase_walls().border_rebuilds;
  orch->run_round();
  ASSERT_EQ(orch->phase_walls().border_rebuilds, settled);

  // A zone link carrying transit (the only streams in this build) with
  // room left for 1 Mbps more.
  int zone = -1;
  net::LinkId link = -1;
  for (int z = 0; z < orch->zones() && zone < 0; ++z) {
    const net::Network& net = orch->zone_network(z);
    for (net::LinkId l = 0; l < net.topology().link_count(); ++l) {
      if (net.link_allocated(l) > 0 &&
          net.link_capacity(l) - net.link_allocated(l) > net::mbps(2)) {
        zone = z;
        link = l;
        break;
      }
    }
  }
  ASSERT_GE(zone, 0) << "no transit link with slack";
  net::Network& net = orch->zone_network(zone);
  const net::Link& hop = net.topology().link(link);
  ASSERT_EQ(net.routing().hops(hop.src, hop.dst), 1);
  const std::int64_t passes = net.alloc_stats().reallocations;
  const net::Bps before = net.link_allocated(link);
  net.open_stream(hop.src, hop.dst, net::mbps(1));
  // Admitted at demand without a pass, yet the link's load moved.
  ASSERT_EQ(net.alloc_stats().reallocations, passes);
  ASSERT_EQ(net.link_allocated(link), before + net::mbps(1));

  orch->run_round();
  EXPECT_GT(orch->phase_walls().border_rebuilds, settled);
}

// An imposition that applies in place still counts as an allocation
// change, so reconcile's fixpoint loop re-checks the zone. Widening every
// link lifts the border solve to the transit demand; each capped half runs
// at its cap on links that keep slack, so the raise moves in place in both
// zones, and the loop's second pass (which finds the fixpoint) sees both
// zones dirty through those shortcuts alone.
TEST(Sharded, InPlaceImpositionBumpsAllocationChanges) {
  auto built = ShardedOrchestrator::create(non_serving_build(4, 4, 2, 1), 1);
  ASSERT_TRUE(built.ok()) << built.error();
  auto orch = built.take();
  orch->start();
  orch->run_round();
  orch->run_round();

  // A round in which every zone's allocation moved by a shortcut alone (a
  // fitting stream opened and closed) but no cap moves: one reconcile pass
  // rebuilds every border component, finds the imposed caps, and stops.
  const auto bump_every_zone = [&] {
    for (int z = 0; z < orch->zones(); ++z) {
      net::Network& net = orch->zone_network(z);
      const std::int64_t passes = net.alloc_stats().reallocations;
      net.close_stream(net.open_stream(0, 1, net::kbps(1)));
      ASSERT_EQ(net.alloc_stats().reallocations, passes) << "zone " << z;
    }
  };
  bump_every_zone();
  std::int64_t rebuilds = orch->phase_walls().border_rebuilds;
  orch->run_round();
  const std::int64_t one_pass = orch->phase_walls().border_rebuilds - rebuilds;
  ASSERT_GT(one_pass, 0);

  std::vector<std::int64_t> passes, changes;
  for (int z = 0; z < orch->zones(); ++z) {
    net::Network& net = orch->zone_network(z);
    net::Network::BatchUpdate batch(net);
    for (net::LinkId l = 0; l < net.topology().link_count(); ++l) {
      net.set_link_capacity(l, net.link_capacity(l) * 100);
    }
  }
  for (int z = 0; z < orch->zones(); ++z) {
    passes.push_back(orch->zone_network(z).alloc_stats().reallocations);
    changes.push_back(orch->zone_network(z).allocation_changes());
  }
  rebuilds = orch->phase_walls().border_rebuilds;
  orch->run_round();
  for (int z = 0; z < orch->zones(); ++z) {
    const net::Network& net = orch->zone_network(z);
    // The raised caps applied without a pass, yet the zone's allocation
    // changed...
    EXPECT_EQ(net.alloc_stats().reallocations, passes[static_cast<std::size_t>(z)])
        << "zone " << z;
    EXPECT_GT(net.allocation_changes(), changes[static_cast<std::size_t>(z)])
        << "zone " << z;
  }
  // ...so the loop ran a second pass over every component: one that
  // imposed, one that found the fixpoint.
  EXPECT_EQ(orch->phase_walls().border_rebuilds - rebuilds, 2 * one_pass);
}

std::string serving_ini(int zones, int transit_per_border,
                        const std::string& zone_extra = "") {
  return util::str_format(
      "[topology]\n"
      "kind = city_grid\n"
      "blocks_x = 4\n"
      "blocks_y = 4\n"
      "nodes_per_block = 4\n"
      "gateway_every = 8\n"
      "[zones]\n"
      "count = %d\n"
      "method = bfs\n"
      "round_interval_s = 10\n"
      "transit_per_border = %d\n"
      "%s"
      "[monitor]\n"
      "enabled = false\n"
      "[invariants]\n"
      "enabled = false\n"
      "[serve]\n"
      "mode = adaptive\n"
      "seed = 7\n"
      "arrival_per_min = 30\n"
      "mean_lifetime_s = 60\n"
      "resource_scale = 0.1\n"
      "[run]\n"
      "duration_s = 40\n",
      zones, transit_per_border, zone_extra.c_str());
}

std::unique_ptr<ShardedOrchestrator> serving_orchestrator(
    int zones, int transit, std::size_t jobs, const std::string& zone_extra = "") {
  auto ini = util::parse_ini(serving_ini(zones, transit, zone_extra));
  EXPECT_TRUE(ini.ok()) << ini.error();
  auto built = ShardedOrchestrator::from_ini(ini.value(), jobs);
  EXPECT_TRUE(built.ok()) << built.error();
  return built.take();
}

TEST(Sharded, ServingReportAggregatesZones) {
  auto orch = serving_orchestrator(2, 1, 1);
  const ShardedReport report = orch->run();
  EXPECT_GT(report.serve_arrivals, 0);
  EXPECT_EQ(report.serve_admitted,
            report.serve_arrivals);  // uncontended small city admits all
  EXPECT_EQ(report.invariant_violations, 0);
  EXPECT_EQ(report.rounds, 4);
}

// Same seed, different worker counts: the merged journal must not move by
// a byte. This is the determinism contract the sharded subsystem promises.
TEST(Sharded, MergedJournalIdenticalAcrossJobs) {
  auto a = serving_orchestrator(2, 1, 1);
  a->run();
  auto b = serving_orchestrator(2, 1, 4);
  b->run();
  const std::string ja = a->merged_journal();
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, b->merged_journal());
}

// Bitwise comparison of everything a finished run can show: final link
// allocations in every zone world, plus each zone's migration history.
void expect_bitwise_equal_outcomes(ShardedOrchestrator& a,
                                   ShardedOrchestrator& b) {
  ASSERT_EQ(a.zones(), b.zones());
  for (int z = 0; z < a.zones(); ++z) {
    const net::Network& na = a.zone_network(z);
    const net::Network& nb = b.zone_network(z);
    ASSERT_EQ(na.topology().link_count(), nb.topology().link_count());
    for (net::LinkId l = 0; l < na.topology().link_count(); ++l) {
      ASSERT_EQ(na.link_allocated(l), nb.link_allocated(l))
          << "zone " << z << " link " << l;
    }
    const auto& ma = a.zone_orchestrator(z).migration_events();
    const auto& mb = b.zone_orchestrator(z).migration_events();
    ASSERT_EQ(ma.size(), mb.size()) << "zone " << z;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].at, mb[i].at);
      EXPECT_EQ(ma[i].deployment, mb[i].deployment);
      EXPECT_EQ(ma[i].component, mb[i].component);
      EXPECT_EQ(ma[i].from, mb[i].from);
      EXPECT_EQ(ma[i].to, mb[i].to);
    }
  }
}

// Activity gating must be invisible to every observable outcome: the same
// scenario with gating on and off lands on a byte-identical merged journal
// and bitwise-equal allocations/migrations. Sparse churn (all arrivals in
// zone 0) makes zone 1 actually take the cheap tick in the gated run, so
// the equality is exercised, not vacuous.
TEST(Sharded, GatedMatchesUngatedBitwise) {
  auto gated = serving_orchestrator(2, 1, 1, "active_zones = 1\n");
  auto ungated =
      serving_orchestrator(2, 1, 1, "active_zones = 1\ngating = false\n");
  gated->run();
  ungated->run();
  EXPECT_GT(gated->report().zone_rounds_skipped, 0);
  EXPECT_EQ(ungated->report().zone_rounds_skipped, 0);
  EXPECT_EQ(gated->merged_journal(), ungated->merged_journal());
  expect_bitwise_equal_outcomes(*gated, *ungated);
}

// Same contract under chaos: a mid-run node crash (failure detection,
// restart timers, placement retries — all events the gate must see) still
// produces identical journals and outcomes gated vs ungated.
TEST(Sharded, ChaosGatedMatchesUngatedBitwise) {
  auto gated = serving_orchestrator(2, 1, 1, "active_zones = 1\n");
  auto ungated =
      serving_orchestrator(2, 1, 1, "active_zones = 1\ngating = false\n");
  const net::NodeId victim_global = gated->partition().members[0][0];
  for (auto* orch : {gated.get(), ungated.get()}) {
    orch->start();
    orch->run_round();
    orch->run_round();
    orch->zone_orchestrator(0).fail_node(orch->local_node(0, victim_global));
    while (orch->rounds_done() < orch->rounds_total()) orch->run_round();
    orch->finish();
  }
  EXPECT_EQ(gated->merged_journal(), ungated->merged_journal());
  expect_bitwise_equal_outcomes(*gated, *ungated);
}

// The merged journal against the line-level reference: annotate each zone
// line, concatenate zones in order with the coordinator last, stable_sort
// by t_us.
std::string reference_journal(ShardedOrchestrator& orch) {
  std::vector<std::string> zones;
  for (int z = 0; z < orch.zones(); ++z) {
    zones.push_back(orch.zone_recorder(z).journal().to_jsonl());
  }
  return merged_journal_reference(zones, orch.recorder().journal().to_jsonl());
}

TEST(Sharded, MergedJournalMatchesStableSortReference) {
  auto orch = serving_orchestrator(3, 2, 1);
  orch->run();
  const std::string merged = orch->merged_journal();
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, reference_journal(*orch));
}

// Same oracle on a gated four-zone city with churn in two zones, so idle
// zones skip rounds while busy ones interleave with them and with the
// coordinator, at one worker and at four.
TEST(Sharded, MergedJournalMatchesReferenceOnGatedChurnCity) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    auto ini = util::parse_ini(serving_ini(4, 1, "active_zones = 2\n"));
    ASSERT_TRUE(ini.ok()) << ini.error();
    exec::apply_overrides(ini.value(), {{"run", "duration_s", "120"}});
    auto built = ShardedOrchestrator::from_ini(ini.value(), jobs);
    ASSERT_TRUE(built.ok()) << built.error();
    ShardedOrchestrator& orch = *built.value();
    const ShardedReport report = orch.run();
    EXPECT_GT(report.serve_arrivals, 0);
    EXPECT_GT(report.zone_rounds_skipped, 0);
    const std::string merged = orch.merged_journal();
    ASSERT_FALSE(merged.empty());
    EXPECT_EQ(merged, reference_journal(orch));
  }
}

// A zone skips a round exactly when its own queue holds no event at or
// before the round deadline — no side signals, no periodic forced pass. The
// idle zone under active_zones = 1 therefore skips every round, however long
// the run (12 rounds here, more than any skip streak bound would allow).
TEST(Sharded, ZoneSkipsExactlyWhenNoEventIsDue) {
  auto ini = util::parse_ini(serving_ini(2, 1, "active_zones = 1\n"));
  ASSERT_TRUE(ini.ok()) << ini.error();
  exec::apply_overrides(ini.value(), {{"run", "duration_s", "120"}});
  auto built = ShardedOrchestrator::from_ini(ini.value(), 1);
  ASSERT_TRUE(built.ok()) << built.error();
  ShardedOrchestrator& orch = *built.value();
  orch.start();
  ASSERT_GT(orch.rounds_total(), 9);

  std::vector<std::int64_t> not_due(static_cast<std::size_t>(orch.zones()), 0);
  while (orch.rounds_done() < orch.rounds_total()) {
    const sim::Time deadline = orch.now() + orch.config().round_interval;
    for (int z = 0; z < orch.zones(); ++z) {
      if (!orch.zone_orchestrator(z).simulation().has_event_before(deadline)) {
        ++not_due[static_cast<std::size_t>(z)];
      }
    }
    orch.run_round();
  }
  orch.finish();

  EXPECT_EQ(orch.report().zone_rounds_skipped, not_due[0] + not_due[1]);
  EXPECT_EQ(not_due[1], orch.rounds_total());  // zone 1 draws no churn
  for (int z = 0; z < orch.zones(); ++z) {
    EXPECT_EQ(orch.recorder()
                  .metrics()
                  .counter("zone.skipped_rounds", {{"zone", std::to_string(z)}})
                  .value(),
              not_due[static_cast<std::size_t>(z)])
        << "zone " << z;
  }
}

// Chaos interaction across the shard boundary: with transit disabled the
// zones share nothing, so a node crash in zone 0 must not move a single
// byte of zone 1's journal.
TEST(Sharded, NodeCrashInOneZoneDoesNotPerturbTheOther) {
  auto crashed = serving_orchestrator(2, 0, 1);
  auto control = serving_orchestrator(2, 0, 1);

  const net::NodeId victim_global = crashed->partition().members[0][0];
  for (auto* orch : {crashed.get(), control.get()}) {
    orch->start();
    orch->run_round();
    orch->run_round();
  }
  crashed->zone_orchestrator(0).fail_node(
      crashed->local_node(0, victim_global));
  for (auto* orch : {crashed.get(), control.get()}) {
    while (orch->rounds_done() < orch->rounds_total()) orch->run_round();
    orch->finish();
  }

  const std::string zone1_crashed = crashed->zone_recorder(1).journal().to_jsonl();
  const std::string zone1_control = control->zone_recorder(1).journal().to_jsonl();
  ASSERT_FALSE(zone1_crashed.empty());
  EXPECT_EQ(zone1_crashed, zone1_control);
  // Sanity: the crash did land in zone 0.
  EXPECT_NE(crashed->zone_recorder(0).journal().to_jsonl(),
            control->zone_recorder(0).journal().to_jsonl());
}

TEST(Sharded, FromIniValidatesSections) {
  auto no_zones = util::parse_ini(
      "[topology]\nkind = city_grid\n[serve]\nmode = adaptive\n");
  ASSERT_TRUE(no_zones.ok());
  EXPECT_FALSE(ShardedOrchestrator::from_ini(no_zones.value(), 1).ok());

  auto no_serve = util::parse_ini(
      "[topology]\nkind = city_grid\n[zones]\ncount = 2\n");
  ASSERT_TRUE(no_serve.ok());
  auto r = ShardedOrchestrator::from_ini(no_serve.value(), 1);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("[serve]"), std::string::npos);

  auto bad_method = util::parse_ini(
      "[topology]\nkind = city_grid\n"
      "[zones]\ncount = 2\nmethod = voronoi\n"
      "[serve]\nmode = adaptive\n");
  ASSERT_TRUE(bad_method.ok());
  auto m = ShardedOrchestrator::from_ini(bad_method.value(), 1);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.error().find("voronoi"), std::string::npos);

  // A non-positive round interval is rejected up front instead of being
  // clamped to 1 µs (which turned a short serve into ~10^7 rounds).
  for (const char* interval : {"0", "-5"}) {
    auto bad_interval = util::parse_ini(
        std::string("[topology]\nkind = city_grid\n"
                    "[zones]\ncount = 2\nround_interval_s = ") +
        interval + "\n[serve]\nmode = adaptive\n");
    ASSERT_TRUE(bad_interval.ok());
    auto i = ShardedOrchestrator::from_ini(bad_interval.value(), 1);
    ASSERT_FALSE(i.ok()) << "round_interval_s = " << interval;
    EXPECT_NE(i.error().find("[zones] round_interval_s"), std::string::npos)
        << i.error();
  }

  auto bad_active = util::parse_ini(
      "[topology]\nkind = city_grid\n"
      "[zones]\ncount = 2\nactive_zones = -1\n"
      "[serve]\nmode = adaptive\n");
  ASSERT_TRUE(bad_active.ok());
  auto a = ShardedOrchestrator::from_ini(bad_active.value(), 1);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.error().find("active_zones"), std::string::npos);

  // Shared sections go through the scenario parsers, period checks included.
  auto bad_probe = util::parse_ini(
      "[topology]\nkind = city_grid\n"
      "[zones]\ncount = 2\n"
      "[monitor]\nprobe_interval_s = 0\n"
      "[serve]\nmode = adaptive\n");
  ASSERT_TRUE(bad_probe.ok());
  auto p = ShardedOrchestrator::from_ini(bad_probe.value(), 1);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error().find("[monitor] probe_interval_s"), std::string::npos);
}

}  // namespace
}  // namespace bass::zone

#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "net/network.h"
#include "obs/recorder.h"
#include "sched/network_view.h"

namespace bass::net {
namespace {

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<Network> net;

  // Line: 0 -(10 Mbps)- 1 -(10 Mbps)- 2
  explicit Fixture(Bps cap = mbps(10)) {
    Topology t;
    const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
    t.add_link(a, b, cap);
    t.add_link(b, c, cap);
    net = std::make_unique<Network>(sim, std::move(t));
  }
};

TEST(Network, SingleTransferDrainTime) {
  Fixture f;
  sim::Time done_at = -1;
  // 10 Mbit over a 10 Mbps 1-hop path: 1 s drain + 1 ms hop latency.
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done_at), 1.001, 0.001);
}

TEST(Network, MultiHopAddsLatencyOnly) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(0, 2, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  f.sim.run_all();
  // Flow-level model: one drain at the bottleneck rate plus 2 hops latency.
  EXPECT_NEAR(sim::to_seconds(done_at), 1.002, 0.001);
}

TEST(Network, TwoChannelsShareALink) {
  Fixture f;
  sim::Time done0 = -1, done1 = -1;
  // Both cross link 0->1. Each should get ~5 Mbps: 10 Mbit takes ~2 s.
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done0 = f.sim.now(); });
  f.net->start_transfer(0, 2, 10'000'000 / 8, [&] { done1 = f.sim.now(); });
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done0), 2.0, 0.02);
  // After the first finishes, the second speeds up to 10 Mbps — but both
  // had the same size so they finish nearly together.
  EXPECT_NEAR(sim::to_seconds(done1), 2.0, 0.02);
}

TEST(Network, FifoWithinChannel) {
  Fixture f;
  std::vector<int> completed;
  f.net->start_transfer(0, 1, 1'000'000, [&] { completed.push_back(1); });
  f.net->start_transfer(0, 1, 1'000, [&] { completed.push_back(2); });
  f.sim.run_all();
  // Same channel is FIFO: the big head transfer completes first.
  EXPECT_EQ(completed, (std::vector<int>{1, 2}));
}

TEST(Network, CapacityChangeSlowsTransfer) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  // At t=0.5 s, halve the link: remaining 5 Mbit at 5 Mbps -> 1 more second.
  f.sim.schedule_at(sim::seconds_f(0.5), [&] {
    f.net->set_link_capacity_between(0, 1, mbps(5));
  });
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done_at), 1.501, 0.01);
}

TEST(Network, ZeroCapacityStallsThenResumes) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  f.sim.schedule_at(sim::seconds_f(0.5), [&] {
    f.net->set_link_capacity_between(0, 1, 0);
  });
  f.sim.schedule_at(sim::seconds_f(10.5), [&] {
    f.net->set_link_capacity_between(0, 1, mbps(10));
  });
  f.sim.run_all();
  // 0.5 s at 10 Mbps, 10 s stalled, then 0.5 s to finish.
  EXPECT_NEAR(sim::to_seconds(done_at), 11.0, 0.02);
}

TEST(Network, LoopbackTransferIsFast) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(1, 1, 1'000'000, [&] { done_at = f.sim.now(); });
  f.sim.run_all();
  EXPECT_LT(done_at, sim::millis(2));
  EXPECT_GE(done_at, 0);
}

TEST(Network, CancelQueuedTransfer) {
  Fixture f;
  bool head_done = false, second_done = false;
  f.net->start_transfer(0, 1, 1'000'000, [&] { head_done = true; });
  const TransferId second =
      f.net->start_transfer(0, 1, 1'000'000, [&] { second_done = true; });
  EXPECT_TRUE(f.net->cancel_transfer(second));
  EXPECT_FALSE(f.net->cancel_transfer(second));
  f.sim.run_all();
  EXPECT_TRUE(head_done);
  EXPECT_FALSE(second_done);
}

TEST(Network, CancelHeadPromotesNext) {
  Fixture f;
  bool second_done = false;
  const TransferId head = f.net->start_transfer(0, 1, 100'000'000, [] {});
  f.net->start_transfer(0, 1, 1'000'000 / 8, [&] { second_done = true; });
  f.sim.schedule_at(sim::seconds(1), [&] { f.net->cancel_transfer(head); });
  f.sim.run_all();
  EXPECT_TRUE(second_done);
  // 1 Mbit at 10 Mbps from t=1: finishes ~t=1.1, far before the 80 s the
  // cancelled head would have taken.
  EXPECT_LT(f.sim.now(), sim::seconds(3));
}

TEST(Network, StaleTransferIdsAreInertAfterSlotReuse) {
  Fixture f;
  bool first_done = false, second_done = false, third_done = false;
  const TransferId first =
      f.net->start_transfer(0, 1, 1'000, [&] { first_done = true; });
  f.sim.run_all();
  ASSERT_TRUE(first_done);
  // The completed transfer's slot is reused, but the generation tag makes
  // the new id distinct and the old one stale.
  const TransferId second =
      f.net->start_transfer(0, 1, 1'000'000, [&] { second_done = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(f.net->cancel_transfer(first));
  EXPECT_TRUE(f.net->cancel_transfer(second));
  EXPECT_FALSE(f.net->cancel_transfer(second));  // double cancel: no-op

  // Same for a cancelled transfer's id once a third one takes the slot.
  const TransferId third =
      f.net->start_transfer(0, 1, 1'000, [&] { third_done = true; });
  EXPECT_NE(second, third);
  EXPECT_FALSE(f.net->cancel_transfer(second));
  f.sim.run_all();
  EXPECT_FALSE(second_done);
  EXPECT_TRUE(third_done);
  EXPECT_EQ(f.net->active_channel_count(), 0u);

  // Loopback transfers never enter the mesh: their id is not cancellable.
  bool loopback_done = false;
  const TransferId loopback =
      f.net->start_transfer(1, 1, 1'000, [&] { loopback_done = true; });
  EXPECT_FALSE(f.net->cancel_transfer(loopback));
  f.sim.run_all();
  EXPECT_TRUE(loopback_done);
}

TEST(Network, CancelMiddleOfChannelKeepsFifoOrder) {
  Fixture f;
  std::vector<int> completed;
  std::vector<TransferId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(
        f.net->start_transfer(0, 1, 100'000, [&completed, i] { completed.push_back(i); }));
  }
  EXPECT_TRUE(f.net->cancel_transfer(ids[2]));
  EXPECT_TRUE(f.net->cancel_transfer(ids[4]));  // the tail
  // A transfer queued after a cancelled tail still joins the FIFO's end.
  f.net->start_transfer(0, 1, 100'000, [&completed] { completed.push_back(5); });
  f.sim.run_all();
  EXPECT_EQ(completed, (std::vector<int>{0, 1, 3, 5}));
  // Conservation: only the four delivered transfers' bytes moved.
  EXPECT_NEAR(static_cast<double>(f.net->total_bytes_delivered()), 400'000.0, 10.0);
}

TEST(Network, StreamGetsDemandWhenUncontended) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(3));
  f.sim.run_until(sim::seconds(1));
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 3e6, 1e3);
  f.net->close_stream(s);
  EXPECT_EQ(f.net->stream_rate(s), 0);
}

TEST(Network, StreamSharesWithTransfers) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(8));
  sim::Time done_at = -1;
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  // Max-min: stream capped at 5 (fair share), transfer gets 5 Mbps.
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 5e6, 1e4);
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done_at), 2.0, 0.05);
  // After the transfer completes the stream returns to full demand.
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 8e6, 1e4);
}

TEST(Network, StreamDemandChange) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(2));
  f.net->set_stream_demand(s, mbps(7));
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 7e6, 1e3);
}

TEST(Network, StaleStreamIdsAreInertAfterSlotReuse) {
  Fixture f;
  const StreamId first = f.net->open_stream(0, 1, mbps(3));
  f.net->close_stream(first);
  // The slot is reused, but the generation tag makes the new id distinct
  // and the old one stale.
  const StreamId second = f.net->open_stream(0, 1, mbps(5));
  EXPECT_NE(first, second);
  EXPECT_EQ(f.net->stream_rate(first), 0);
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(second)), 5e6, 1e3);

  // Operations through the stale id must not disturb the live stream.
  f.net->set_stream_demand(first, mbps(1));
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(second)), 5e6, 1e3);
  f.net->close_stream(first);  // double close: safe no-op
  EXPECT_EQ(f.net->stream_count(), 1u);
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(second)), 5e6, 1e3);

  f.net->close_stream(second);
  EXPECT_EQ(f.net->stream_count(), 0u);
  EXPECT_EQ(f.net->stream_rate(second), 0);
}

TEST(Network, StreamSlotReuseSurvivesHeavyChurn) {
  Fixture f;
  std::vector<StreamId> live;
  std::vector<StreamId> dead;
  for (int round = 0; round < 50; ++round) {
    live.push_back(f.net->open_stream(0, 1, mbps(1 + round % 5)));
    if (live.size() > 3) {
      f.net->close_stream(live.front());
      dead.push_back(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(f.net->stream_count(), live.size());
  for (StreamId id : dead) {
    EXPECT_EQ(f.net->stream_rate(id), 0) << "stale id " << id << " resolved";
  }
  for (StreamId id : live) {
    EXPECT_GT(f.net->stream_rate(id), 0) << "live id " << id << " lost";
  }
}

TEST(Network, TransferByteAccounting) {
  Fixture f;
  f.net->start_transfer(0, 1, 500'000, [] {});
  f.sim.run_all();
  EXPECT_NEAR(static_cast<double>(f.net->total_bytes_delivered()), 500'000, 10);
}

TEST(Network, StreamByteAccountingMatchesRateTimesTime) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(4));
  f.sim.run_until(sim::seconds(10));
  // 4 Mbps for 10 s = 5 MB.
  EXPECT_NEAR(static_cast<double>(f.net->close_stream(s)), 5e6, 5e4);
}

// Streams between the same node pair share links but not their byte
// counts: each close reports only its own stream's bytes, and a closed id
// reports nothing again, even once its slot is reused.
TEST(Network, StreamsReportTheirOwnBytes) {
  Fixture f;
  const StreamId a = f.net->open_stream(0, 1, mbps(4));
  const StreamId b = f.net->open_stream(0, 1, mbps(2));
  f.sim.run_until(sim::seconds(2));
  // 2 Mbps for 2 s = 0.5 MB.
  EXPECT_NEAR(static_cast<double>(f.net->close_stream(b)), 0.5e6, 5e3);
  const StreamId c = f.net->open_stream(0, 1, mbps(8));  // takes b's slot
  f.sim.run_until(sim::seconds(4));
  // 4 Mbps for 4 s = 2 MB; c shared the link with a from t = 2 s.
  EXPECT_NEAR(static_cast<double>(f.net->close_stream(a)), 2e6, 2e4);
  EXPECT_EQ(f.net->close_stream(a), 0);  // double close
  EXPECT_EQ(f.net->close_stream(b), 0);  // stale id of a reused slot
  // 6 Mbps (the link's rest after a) for 2 s = 1.5 MB.
  EXPECT_NEAR(static_cast<double>(f.net->close_stream(c)), 1.5e6, 1.5e4);
}

TEST(NetworkView, PathCapacityIsTheLiveBottleneck) {
  Fixture f;
  const sched::NetworkView view(*f.net);
  EXPECT_EQ(view.path_capacity(0, 2), mbps(10));
  f.net->set_link_capacity_between(1, 2, mbps(4));
  EXPECT_EQ(view.path_capacity(0, 2), mbps(4));
  // Contention does not count: the view reads raw capacities.
  f.net->open_stream(0, 1, mbps(8));
  EXPECT_EQ(view.path_capacity(0, 2), mbps(4));
  EXPECT_EQ(view.path_capacity(1, 1), kUnlimitedRate);
}

TEST(NetworkView, NodeLinkCapacitySumsOutLinks) {
  sim::Simulation sim;
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  t.add_link(a, b, mbps(10), mbps(4));
  t.add_link(a, c, mbps(7));
  const Network net(sim, std::move(t));
  const sched::NetworkView live(net);
  EXPECT_EQ(live.node_link_capacity(a), mbps(17));
  EXPECT_EQ(live.node_link_capacity(b), mbps(4));
  EXPECT_EQ(live.node_link_capacity(c), mbps(7));
  // A measured array replaces every capacity the view reads.
  const std::vector<Bps> measured = {mbps(1), mbps(2), mbps(3), mbps(4)};
  const sched::NetworkView view(net, measured.data());
  EXPECT_EQ(view.node_link_capacity(a), mbps(1) + mbps(3));
  EXPECT_EQ(view.path_capacity(b, c), mbps(2));
}

TEST(Network, BatchUpdateCoalescesReallocations) {
  Fixture f;
  // Over the link's capacity, so the stream contends and the batched pass
  // has a flow to reprice.
  f.net->open_stream(0, 1, mbps(15));
  const auto before = f.net->reallocation_count();
  {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity_between(0, 1, mbps(7));
    f.net->set_link_capacity_between(1, 2, mbps(7));
  }
  EXPECT_EQ(f.net->reallocation_count(), before + 1);
}

TEST(Network, AllocStatsTrackComponentScope) {
  Fixture f;
  const AllocStats& stats = f.net->alloc_stats();
  const auto base_full = stats.full_reallocations;

  // Every demand exceeds the 10 Mbps links, so each open contends and
  // takes a pass (an uncontended open would skip it).
  // First stream is the whole active set: a full pass touching one flow.
  f.net->open_stream(0, 1, mbps(12));
  EXPECT_EQ(stats.reallocations, 1);
  EXPECT_EQ(stats.last_flows_touched, 1);
  EXPECT_EQ(stats.full_reallocations, base_full + 1);

  // Second stream lives on the other link: disjoint contention component,
  // so the pass reprices only the new flow and is not "full".
  f.net->open_stream(1, 2, mbps(12));
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.last_flows_touched, 1);
  EXPECT_EQ(stats.full_reallocations, base_full + 1);

  // A stream spanning both links welds everything into one component.
  f.net->open_stream(0, 2, mbps(12));
  EXPECT_EQ(stats.reallocations, 3);
  EXPECT_EQ(stats.last_flows_touched, 3);
  EXPECT_EQ(stats.last_links_touched, 2);
  EXPECT_EQ(stats.max_component_flows, 3);
  // Cumulative touch count is the sum over the three passes.
  EXPECT_EQ(stats.flows_touched, 1 + 1 + 3);
  EXPECT_GT(stats.alloc_seconds, 0.0);
}

TEST(Network, OnlyPassesInsideASpanAreJournaled) {
  Fixture f;
  obs::Recorder recorder;
  f.net->set_recorder(&recorder);
  const auto& reallocations = recorder.metrics().counter("net.reallocations");
  const auto& solved = recorder.metrics().counter("events.reallocation_solved");

  // No span: the pass is counted, not journaled, and takes no span id.
  // (12 Mbps contends on the 10 Mbps link, so the open takes a pass.)
  f.net->open_stream(0, 1, mbps(12));
  EXPECT_EQ(reallocations.value(), 1);
  EXPECT_EQ(solved.value(), 0);
  EXPECT_TRUE(recorder.journal().empty());

  // Inside a cause's span: journaled, parented to it.
  const obs::SpanId cause = recorder.new_span();
  {
    obs::SpanScope scope(&recorder, cause);
    f.net->open_stream(1, 2, mbps(4));
  }
  EXPECT_EQ(reallocations.value(), 2);
  EXPECT_EQ(solved.value(), 1);
  ASSERT_EQ(recorder.journal().size(), 1u);
  const auto* event = std::get_if<obs::ReallocationSolved>(&recorder.journal().at(0));
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->parent, cause);
  EXPECT_EQ(event->span, cause + 1);  // the unparented pass took no id
  EXPECT_EQ(event->flows, 1);

  // Out of the scope again: counted only (0->1 is saturated, so a pass).
  f.net->open_stream(0, 2, mbps(4));
  EXPECT_EQ(reallocations.value(), 3);
  EXPECT_EQ(recorder.journal().size(), 1u);
}

// Uncontended churn: a stream that leaves slack on every link is admitted
// at its demand, one whose links all had slack is released in place, and a
// demand change on links that keep slack under the larger load moves in
// place, with no allocator pass. allocation_changes() moves with each. In a
// batch the same holds until a change needs the batch's pass.
TEST(Network, UncontendedStreamsSkipThePass) {
  Fixture f;
  const AllocStats& stats = f.net->alloc_stats();
  const LinkId ab = *f.net->topology().link_between(0, 1);
  const LinkId bc = *f.net->topology().link_between(1, 2);

  const StreamId a = f.net->open_stream(0, 2, mbps(4));
  EXPECT_EQ(stats.reallocations, 0);
  EXPECT_EQ(stats.shortcuts, 1);
  EXPECT_EQ(f.net->stream_rate(a), mbps(4));
  EXPECT_EQ(f.net->link_allocated(ab), mbps(4));
  EXPECT_EQ(f.net->link_allocated(bc), mbps(4));

  // 6 Mbps more would leave 0->1 no slack at all: the open takes a pass.
  const StreamId b = f.net->open_stream(0, 1, mbps(6));
  EXPECT_EQ(stats.reallocations, 1);
  EXPECT_EQ(stats.shortcuts, 1);
  EXPECT_EQ(f.net->stream_rate(b), mbps(6));

  // 0->1 is saturated, so closing `a` (which crosses it) takes a pass too.
  f.net->close_stream(a);
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(f.net->link_allocated(ab), mbps(6));
  EXPECT_EQ(f.net->link_allocated(bc), 0);

  // With `a` gone, 0->1 has 4 Mbps of slack: `b` is released in place.
  f.net->close_stream(b);
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.shortcuts, 2);
  EXPECT_EQ(f.net->link_allocated(ab), 0);

  // A fitting stream applies in place inside a batch too, at once.
  StreamId c = 0;
  {
    Network::BatchUpdate batch(*f.net);
    c = f.net->open_stream(1, 2, mbps(1));
    EXPECT_EQ(stats.shortcuts, 3);
    EXPECT_EQ(f.net->stream_rate(c), mbps(1));
  }
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.shortcuts, 3);

  // Demand changes: 1 -> 8 Mbps leaves 1->2 2 Mbps of slack, and 8 -> 3
  // Mbps frees load on links that had it: both in place. 3 -> 10 Mbps
  // would saturate 1->2, so it takes a pass.
  f.net->set_stream_demand(c, mbps(8));
  EXPECT_EQ(stats.shortcuts, 4);
  EXPECT_EQ(f.net->stream_rate(c), mbps(8));
  EXPECT_EQ(f.net->link_allocated(bc), mbps(8));
  f.net->set_stream_demand(c, mbps(3));
  EXPECT_EQ(stats.shortcuts, 5);
  EXPECT_EQ(f.net->link_allocated(bc), mbps(3));
  f.net->set_stream_demand(c, mbps(10));
  EXPECT_EQ(stats.reallocations, 3);
  EXPECT_EQ(stats.shortcuts, 5);
  EXPECT_EQ(f.net->stream_rate(c), mbps(10));
  // 1->2 is saturated now: even lowering the demand takes a pass.
  f.net->set_stream_demand(c, mbps(3));
  EXPECT_EQ(stats.reallocations, 4);
  EXPECT_EQ(stats.shortcuts, 5);

  // A capacity change earlier in the batch leaves a dirty seed: the
  // allocation is no longer settled, so even a fitting open joins the
  // batch's one pass and runs only once the batch closes.
  {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity(ab, mbps(20));
    const StreamId d = f.net->open_stream(1, 2, mbps(1));
    EXPECT_EQ(f.net->stream_rate(d), 0);
    EXPECT_EQ(stats.shortcuts, 5);
    EXPECT_EQ(stats.reallocations, 4);
  }
  EXPECT_EQ(stats.reallocations, 5);
  EXPECT_EQ(stats.shortcuts, 5);
  EXPECT_EQ(f.net->link_allocated(bc), mbps(4));
  EXPECT_EQ(f.net->allocation_changes(), 10);
}

// A change made while a span is current keeps its pass, so its cause's
// journal still shows the reallocation_solved it leads to.
TEST(Network, ChangesInsideASpanKeepTheirPass) {
  Fixture f;
  obs::Recorder recorder;
  f.net->set_recorder(&recorder);
  const auto& passes = recorder.metrics().counter("net.reallocations");
  const auto& shortcuts = recorder.metrics().counter("net.alloc_shortcuts");
  const obs::SpanId cause = recorder.new_span();
  {
    obs::SpanScope scope(&recorder, cause);
    f.net->close_stream(f.net->open_stream(0, 1, mbps(1)));
  }
  EXPECT_EQ(passes.value(), 2);
  EXPECT_EQ(shortcuts.value(), 0);
  ASSERT_EQ(recorder.journal().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto* event = std::get_if<obs::ReallocationSolved>(&recorder.journal().at(i));
    ASSERT_NE(event, nullptr) << "event " << i;
    EXPECT_EQ(event->parent, cause);
  }

  // The same open and close with no span skip both passes.
  f.net->close_stream(f.net->open_stream(0, 1, mbps(1)));
  EXPECT_EQ(passes.value(), 2);
  EXPECT_EQ(shortcuts.value(), 2);
  EXPECT_EQ(recorder.journal().size(), 2u);
}

// A channel that opens with no other flow on its path takes the lone
// closed-form rate (its bottleneck) without a pass, and goes idle in place
// while still alone; once another flow shares a link, both changes pass.
TEST(Network, LoneTransferSkipsThePass) {
  Fixture f;
  const AllocStats& stats = f.net->alloc_stats();
  const LinkId ab = *f.net->topology().link_between(0, 1);
  const LinkId bc = *f.net->topology().link_between(1, 2);

  sim::Time done_at = -1;
  f.net->start_transfer(0, 2, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  EXPECT_EQ(stats.reallocations, 0);
  EXPECT_EQ(stats.shortcuts, 1);
  EXPECT_EQ(f.net->link_allocated(ab), mbps(10));
  EXPECT_EQ(f.net->link_allocated(bc), mbps(10));
  f.sim.run_all();
  // Drained at the bottleneck rate: 1 s plus two hops of latency.
  EXPECT_EQ(done_at, sim::seconds(1) + sim::millis(2));
  EXPECT_EQ(stats.reallocations, 0);
  EXPECT_EQ(stats.shortcuts, 2);
  EXPECT_EQ(f.net->link_allocated(ab), 0);
  EXPECT_EQ(f.net->link_allocated(bc), 0);

  // A second channel on 0->1 shares a link with the first: its open passes,
  // and so does the first channel's close, which frees 0->1 for it.
  f.net->start_transfer(0, 2, 10'000'000 / 8, [] {});
  EXPECT_EQ(stats.shortcuts, 3);
  f.net->start_transfer(0, 1, 10'000'000 / 8, [] {});
  EXPECT_EQ(stats.reallocations, 1);
  EXPECT_EQ(f.net->link_allocated(ab), mbps(10));
  EXPECT_EQ(f.net->link_allocated(bc), mbps(5));
  // Equal halves of 0->1 drain both heads together at 2 s; the first
  // completion passes, and the survivor is then alone and closes in place.
  f.sim.run_all();
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.shortcuts, 4);
  EXPECT_EQ(f.net->link_allocated(ab), 0);
  EXPECT_EQ(f.net->link_allocated(bc), 0);
  EXPECT_EQ(f.net->allocation_changes(), 6);
}

// A transfer started while a span is current keeps its pass, so the cause's
// journal still shows the reallocation_solved it leads to; its completion,
// outside the span, goes idle in place.
TEST(Network, TransferInsideASpanKeepsItsPass) {
  Fixture f;
  obs::Recorder recorder;
  f.net->set_recorder(&recorder);
  const auto& passes = recorder.metrics().counter("net.reallocations");
  const obs::SpanId cause = recorder.new_span();
  {
    obs::SpanScope scope(&recorder, cause);
    f.net->start_transfer(0, 1, 1'000, [] {});
  }
  EXPECT_EQ(passes.value(), 1);
  ASSERT_EQ(recorder.journal().size(), 1u);
  const auto* event = std::get_if<obs::ReallocationSolved>(&recorder.journal().at(0));
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->parent, cause);
  EXPECT_EQ(event->flows, 1);
  f.sim.run_all();
  EXPECT_EQ(passes.value(), 1);
  EXPECT_EQ(recorder.metrics().counter("net.alloc_shortcuts").value(), 1);

  // The same transfer with no span skips both passes.
  f.net->start_transfer(0, 1, 1'000, [] {});
  f.sim.run_all();
  EXPECT_EQ(passes.value(), 1);
  EXPECT_EQ(recorder.metrics().counter("net.alloc_shortcuts").value(), 3);
  EXPECT_EQ(recorder.journal().size(), 1u);
}

// Proportional shares follow offered load, not slack: a stream that fits
// every link's slack is still scaled down on a link whose offered demand
// exceeds its capacity. kProportional therefore never skips the pass.
TEST(Network, ProportionalNeverSkipsThePass) {
  sim::Simulation sim;
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_link(0, 1, mbps(10));
  t.add_link(1, 2, mbps(100));
  NetworkConfig cfg;
  cfg.fairness = FairnessPolicy::kProportional;
  Network net(sim, std::move(t), cfg);
  const AllocStats& stats = net.alloc_stats();

  // Twice 0->1's capacity: runs at 10 Mbps, using 10 of 1->2's 100.
  const StreamId big = net.open_stream(0, 2, mbps(20));
  EXPECT_EQ(net.stream_rate(big), mbps(10));
  // 85 Mbps fits 1->2's 90 Mbps of slack, but the link is offered 105 Mbps,
  // so the stream gets 85 * 100 / 105, not its demand.
  const StreamId s = net.open_stream(1, 2, mbps(85));
  EXPECT_NEAR(static_cast<double>(net.stream_rate(s)), 85e6 * 100.0 / 105.0, 1.0);
  net.close_stream(s);
  EXPECT_EQ(net.stream_rate(big), mbps(10));
  EXPECT_EQ(stats.reallocations, 3);
  EXPECT_EQ(stats.shortcuts, 0);
}

TEST(Network, SampledPassTimesEstimateTheTotals) {
  Fixture f;
  obs::Recorder recorder;
  f.net->set_recorder(&recorder);
  // Pass 1 and pass 1 + kTimedPassEvery are timed, each standing for
  // kTimedPassEvery passes. Each stream asks for more than the 10 Mbps
  // path, so every open contends and takes a pass.
  for (int i = 0; i < kTimedPassEvery + 1; ++i) f.net->open_stream(0, 2, mbps(20));
  const AllocStats& stats = f.net->alloc_stats();
  ASSERT_EQ(stats.reallocations, kTimedPassEvery + 1);
  const auto& pass_us = recorder.metrics().log_timer_us("net.alloc_pass_us");
  const auto& solve_us = recorder.metrics().log_timer_us("net.maxmin.solve_us");
  EXPECT_EQ(pass_us.count(), 2 * kTimedPassEvery);
  EXPECT_EQ(solve_us.count(), 2 * kTimedPassEvery);
  EXPECT_GT(stats.alloc_seconds, 0.0);
  EXPECT_NEAR(pass_us.sum(), stats.alloc_seconds * 1e6, 1e-6 * pass_us.sum() + 1e-9);
  EXPECT_LE(solve_us.sum(), pass_us.sum());
}

TEST(Network, AllocStatsBatchedTickCountsOnePass) {
  Fixture f;
  f.net->open_stream(0, 2, mbps(4));
  const AllocStats& stats = f.net->alloc_stats();
  const auto passes = stats.reallocations;
  const auto touched = stats.flows_touched;
  {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity_between(0, 1, mbps(6));
    f.net->set_link_capacity_between(1, 2, mbps(6));
  }
  // One batched tick = one pass repricing the single affected flow once.
  EXPECT_EQ(stats.reallocations, passes + 1);
  EXPECT_EQ(stats.flows_touched, touched + 1);
  EXPECT_EQ(stats.last_flows_touched, 1);
}

TEST(Network, BatchedCapacityChangeSettlesAccountingExactly) {
  Fixture f;
  // 4 Mbps stream for 5 s, then a batched two-link capacity drop pins it to
  // 2 Mbps for 5 s. Byte accounting must settle exactly once at the old
  // rate before the new rates apply: (4*5 + 2*5) Mbit = 3.75 MB.
  const StreamId s = f.net->open_stream(0, 2, mbps(4));
  f.sim.schedule_at(sim::seconds(5), [&] {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity_between(0, 1, mbps(2));
    f.net->set_link_capacity_between(1, 2, mbps(2));
  });
  f.sim.run_until(sim::seconds(10));
  EXPECT_NEAR(static_cast<double>(f.net->close_stream(s)), 3.75e6, 2e4);
}

TEST(Network, ConservationAcrossManyTransfers) {
  Fixture f;
  // 20 staggered transfers in alternating directions; total delivered bytes
  // must equal total sent.
  std::int64_t sent = 0;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t bytes = 50'000 + 10'000 * i;
    const NodeId src = (i % 2 == 0) ? 0 : 2;
    const NodeId dst = (i % 2 == 0) ? 2 : 0;
    sent += bytes;
    f.sim.schedule_at(sim::millis(100 * i), [&f, bytes, src, dst, &completed] {
      f.net->start_transfer(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  f.sim.run_all();
  EXPECT_EQ(completed, 20);
  EXPECT_NEAR(static_cast<double>(f.net->total_bytes_delivered()),
              static_cast<double>(sent), 100.0);
}

}  // namespace
}  // namespace bass::net

// Memory follows live state. A long-running control plane must hold memory
// in proportion to what is live, not to a configured capacity or to its
// history: an empty journal reserves nothing, a retired deployment keeps
// only a tombstone, and the journal's on-demand ring keeps exactly the
// overwrite-oldest semantics of a fixed one. The global operator new probe
// counts live heap bytes, so anything left behind anywhere fails the test.
#include "alloc_probe.h"  // must be the only TU in this binary including it

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "app/catalog.h"
#include "core/orchestrator.h"
#include "monitor/net_monitor.h"
#include "obs/recorder.h"
#include "scenario/serving.h"
#include "sched/bass_scheduler.h"
#include "topo/city_grid.h"
#include "trace/citylab.h"
#include "trace/player.h"
#include "workload/churn.h"
#include "workload/edge_streams.h"

namespace bass {
namespace {

TEST(Memory, DefaultRecorderHoldsLittleBeforeAnyEvent) {
  const std::int64_t before = testing::live_bytes();
  auto recorder = std::make_unique<obs::Recorder>();
  const std::int64_t held = testing::live_bytes() - before;
  EXPECT_EQ(recorder->journal().capacity(), std::size_t{1} << 16);
  EXPECT_LE(held, 128 * 1024) << held << " bytes live after construction";
}

// One churn social instance through its whole life: admitted, traffic
// flowing and sampled into its stats, the bandwidth controller evaluating
// it, then departure. Running this over and over must not accumulate more
// than a tombstone per retired deployment.
TEST(Memory, RetiredDeploymentsKeepOnlyATombstone) {
  sim::Simulation sim;
  net::Topology topo;
  constexpr int kNodes = 4;
  for (int i = 0; i < kNodes; ++i) topo.add_node();
  for (int i = 0; i + 1 < kNodes; ++i) topo.add_link(i, i + 1, net::mbps(100));
  net::Network network(sim, std::move(topo));
  cluster::ClusterState cluster;
  for (int i = 0; i < kNodes; ++i) cluster.add_node(i, {16000, 32768, true});
  core::Orchestrator orch(sim, network, cluster);
  const std::vector<net::NodeId> nodes = cluster.nodes();

  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(2);
  int instance = 0;
  const auto cycle = [&] {
    app::AppGraph app = workload::make_churn_app(workload::AppFamily::kSocialNetwork,
                                                 instance, 0.25, 1, nodes);
    const std::string name = app.name();
    ++instance;
    const auto id = orch.deploy(std::move(app), core::SchedulerKind::kBassAuto, name);
    ASSERT_TRUE(id.ok()) << id.error();
    {
      // The serving loop's order: stop the traffic source, undeploy, then
      // drop the engine (it stays a listener until undeploy).
      workload::EdgeStreamEngine engine(orch, id.value());
      engine.start();
      orch.enable_migration(id.value(), params);
      sim.run_until(sim.now() + sim::seconds(5));
      engine.stop();
      ASSERT_TRUE(orch.undeploy(id.value()));
    }
    sim.run_until(sim.now() + sim::seconds(1));
  };

  // Warm-up: event, stream and transfer pools reach their high-water mark.
  for (int i = 0; i < 50; ++i) cycle();
  ASSERT_EQ(orch.live_deployment_count(), 0);

  constexpr int kCycles = 1000;
  const std::int64_t before = testing::live_bytes();
  for (int i = 0; i < kCycles; ++i) cycle();
  const std::int64_t per_retired = (testing::live_bytes() - before) / kCycles;

  EXPECT_EQ(orch.live_deployment_count(), 0);
  EXPECT_EQ(orch.deployment_count(), 50 + kCycles);
  EXPECT_TRUE(orch.migration_events().empty());
  EXPECT_LE(per_retired, 1024) << per_retired << " bytes live per retired deployment";
  // A tombstone answers the read accessors with an empty deployment.
  EXPECT_FALSE(orch.deployment_active(0));
  EXPECT_EQ(orch.app(0).component_count(), 0);
  EXPECT_TRUE(orch.placement(0).empty());
  EXPECT_FALSE(orch.is_up(0, 0));
  EXPECT_EQ(orch.find_instance("social#0"), core::kInvalidDeployment);
}

// Allocations over the measured window of ChurnArrivalsAllocateABoundedCount
// (1,502 admitted arrivals): 18.9 per arrival once camera and social
// instances share prepared templates (23.2), kAuto copies out only the
// winning placement (21.4), conference graphs are built once (19.2) and
// conference arrivals draw their client nodes without copying the node
// list, against 234.8 when every arrival rebuilt its graph and placement
// orders. A change that needs more must say why.
constexpr std::int64_t kChurnWindowAllocations = 28'329;

// Steady-state churn through the serving loop: camera and social arrivals
// reuse one prepared template per family, conference arrivals build their
// own small graph, and every instance streams, is evaluated by the
// controller and departs. Placement orders, the app graph and traffic
// stats must not be rebuilt per arrival, so the window's allocation count
// is exact and gated.
TEST(Memory, ChurnArrivalsAllocateABoundedCount) {
  sim::Simulation sim;
  net::Topology topo;
  constexpr int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) topo.add_node();
  for (int i = 0; i + 1 < kNodes; ++i) topo.add_link(i, i + 1, net::mbps(100));
  net::Network network(sim, std::move(topo));
  cluster::ClusterState cluster;
  for (int i = 0; i < kNodes; ++i) cluster.add_node(i, {16000, 32768, true});
  core::Orchestrator orch(sim, network, cluster);

  scenario::ServeConfig config;
  config.churn.seed = 7;
  config.churn.arrival_per_min = 30.0;
  config.churn.mean_lifetime = sim::minutes(1);
  config.churn.duration = sim::minutes(60);
  config.migration.evaluation_interval = sim::seconds(10);
  scenario::ServingLoop loop(orch, config);
  loop.start();
  // Warm-up: templates built, event, stream and deployment pools at their
  // high-water mark.
  sim.run_until(sim::minutes(10));

  const std::int64_t admitted_before = loop.admission_stats().admitted;
  const auto snap = testing::take_alloc_snapshot();
  sim.run_until(sim::minutes(60));
  const std::int64_t allocations = testing::allocations_since(snap);
  const std::int64_t admitted = loop.admission_stats().admitted - admitted_before;
  loop.stop();

  ASSERT_GT(admitted, 1000);
  EXPECT_EQ(loop.admission_stats().rejected, 0);
  EXPECT_LE(allocations, kChurnWindowAllocations)
      << allocations << " allocations for " << admitted << " admitted arrivals ("
      << static_cast<double>(allocations) / static_cast<double>(admitted)
      << " per arrival)";
}

// Allocations of one warm BassScheduler::schedule call that succeeds: the
// placement it returns. Ranking, node budget and link ledger reuse their
// buffers, whatever the cluster's size.
constexpr std::int64_t kWarmDecisionAllocations = 1;

TEST(Memory, WarmDecisionAllocatesOnlyItsPlacement) {
  topo::CityGridParams params;
  params.blocks_x = 16;
  params.blocks_y = 32;
  params.nodes_per_block = 4;
  const auto grid = topo::make_city_grid(params);
  ASSERT_TRUE(grid.ok()) << grid.error();
  sim::Simulation sim;
  net::Network network(sim, grid.value().topology);
  ASSERT_EQ(network.topology().node_count(), 2048);
  cluster::ClusterState cluster;
  for (net::NodeId n = 0; n < 2048; ++n) cluster.add_node(n, {8000, 16384, true});
  const sched::NetworkView view(network);
  const auto app = sched::PreparedApp::make(app::social_network_app());

  for (const auto heuristic : {sched::Heuristic::kBreadthFirst,
                               sched::Heuristic::kLongestPath, sched::Heuristic::kAuto}) {
    sched::BassScheduler scheduler(heuristic);
    ASSERT_TRUE(scheduler.schedule(*app, cluster, view).ok());  // warm the buffers
    constexpr int kDecisions = 10;
    const auto snap = testing::take_alloc_snapshot();
    for (int i = 0; i < kDecisions; ++i) {
      ASSERT_TRUE(scheduler.schedule(*app, cluster, view).ok());
    }
    EXPECT_EQ(testing::allocations_since(snap), kWarmDecisionAllocations * kDecisions)
        << scheduler.name();
  }
}

// The net-monitor probes every link every 30 s for the whole run, so a
// warm probe must cost no heap: its state lives in its link's slot, its
// timer captures only the link, and it reads its bytes from its own stream.
// On the CityLab mesh with fading traces, one saturating stream makes the
// headroom probes of its link displace it, and each such violation triggers
// a flood; the 5-minute refresh floods every link. So both probe kinds and
// the violation path run. The journal is small enough to wrap during
// warm-up.
TEST(Memory, WarmProbesAllocateNothing) {
  sim::Simulation sim;
  const trace::CityLabMesh mesh = trace::citylab_mesh();
  net::Network network(sim, mesh.topology);
  obs::Recorder recorder(obs::RecorderConfig{.journal_capacity = 256});
  network.set_recorder(&recorder);
  monitor::NetMonitor monitor(network);
  monitor.set_recorder(&recorder);
  trace::TracePlayer player(network);
  trace::bind_citylab_traces(mesh, player, sim::minutes(60), /*fades=*/true, 42);
  monitor.start();
  player.start();
  network.open_stream(mesh.links[0].a, mesh.links[0].b, net::kUnlimitedRate);
  // Warm-up: startup floods done, event and stream pools and the journal
  // ring at their high-water mark.
  sim.run_until(sim::minutes(10));

  obs::Counter& violations = recorder.metrics().counter("monitor.headroom_violations");
  const std::int64_t violations_before = violations.value();
  const int full_before = monitor.full_probe_count();
  const int headroom_before = monitor.headroom_probe_count();
  const std::int64_t live_before = testing::live_bytes();
  const auto snap = testing::take_alloc_snapshot();
  sim.run_until(sim::minutes(50));  // 80 headroom rounds
  const std::int64_t allocations = testing::allocations_since(snap);
  const std::int64_t live_growth = testing::live_bytes() - live_before;
  const int full = monitor.full_probe_count() - full_before;
  const int probes = full + monitor.headroom_probe_count() - headroom_before;
  monitor.stop();

  ASSERT_GT(probes, 1000);
  ASSERT_GT(full, 0);
  ASSERT_GT(violations.value(), violations_before);
  EXPECT_EQ(allocations, 0) << allocations << " allocations for " << probes << " probes";
  EXPECT_EQ(live_growth, 0) << live_growth << " heap bytes kept by " << probes
                            << " probes";
}

// Reference semantics: a std::deque that drops its front past `capacity`.
class DequeJournal {
 public:
  explicit DequeJournal(std::size_t capacity) : capacity_(capacity) {}
  void record(const obs::Event& e) {
    events_.push_back(e);
    if (events_.size() > capacity_) {
      events_.pop_front();
      ++dropped_;
    }
  }
  const std::deque<obs::Event>& events() const { return events_; }
  std::int64_t dropped() const { return dropped_; }
  std::string to_jsonl() const {
    std::string out;
    for (const obs::Event& e : events_) {
      obs::append_jsonl(e, out);
      out += '\n';
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::deque<obs::Event> events_;
  std::int64_t dropped_ = 0;
};

obs::Event numbered_event(int i) {
  obs::ZoneRound e;
  e.at = sim::seconds(i);
  e.zone = i % 5;
  e.round = i;
  e.flows = 3 * i;
  return e;
}

int round_of(const obs::Event& e) { return std::get<obs::ZoneRound>(e).round; }

TEST(Memory, GrowingJournalWrapsLikeADeque) {
  for (const std::size_t capacity : {1, 2, 3, 17, 1029}) {
    SCOPED_TRACE(capacity);
    obs::EventJournal journal(capacity);
    DequeJournal reference(capacity);
    EXPECT_EQ(journal.capacity(), capacity);
    EXPECT_TRUE(journal.empty());
    // Past the first block, through the growth step and two full wraps.
    const int total = static_cast<int>(2 * capacity + obs::EventJournal::kFirstBlock + 7);
    for (int i = 0; i < total; ++i) {
      journal.record(numbered_event(i));
      reference.record(numbered_event(i));
      ASSERT_EQ(journal.size(), reference.events().size()) << "after event " << i;
      ASSERT_EQ(journal.dropped(), reference.dropped()) << "after event " << i;
      std::vector<int> order;
      order.reserve(journal.size());
      journal.for_each([&order](const obs::Event& e) { order.push_back(round_of(e)); });
      std::size_t k = 0;
      for (const obs::Event& e : reference.events()) {
        ASSERT_EQ(order[k], round_of(e)) << "slot " << k << " after event " << i;
        ASSERT_EQ(round_of(journal.at(k)), round_of(e));
        ++k;
      }
      // The serializer is the expensive check: run it around the growth and
      // wrap boundaries and at a stride in between.
      const auto n = static_cast<std::size_t>(i) + 1;
      const bool boundary = n <= 4 || n % 97 == 0 || (n + 2 >= capacity && n <= capacity + 2) ||
                            (n >= 1022 && n <= 1026) || (n >= 2046 && n <= 2050) ||
                            i + 1 == total;
      if (boundary) {
        ASSERT_EQ(journal.to_jsonl(), reference.to_jsonl()) << "after event " << i;
      }
    }
  }
}

}  // namespace
}  // namespace bass

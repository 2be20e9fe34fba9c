// The bassd serving loop stack: churn schedule generation, admission
// policies under overload, undeploy accounting, and end-to-end serving
// scenario determinism (same seed => byte-identical journal).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "app/catalog.h"
#include "core/admission.h"
#include "monitor/net_monitor.h"
#include "scenario/scenario.h"
#include "sched/network_view.h"
#include "util/rng.h"
#include "workload/churn.h"

namespace bass {
namespace {

// ---- Churn schedule ----

workload::ChurnConfig small_churn(std::uint64_t seed) {
  workload::ChurnConfig cfg;
  cfg.seed = seed;
  cfg.arrival_per_min = 4.0;
  cfg.mean_lifetime = sim::minutes(3);
  cfg.duration = sim::minutes(20);
  return cfg;
}

TEST(ChurnSchedule, SameSeedIsByteIdentical) {
  const auto a = workload::build_churn_schedule(small_churn(42));
  const auto b = workload::build_churn_schedule(small_churn(42));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].depart, b[i].depart);
    EXPECT_EQ(a[i].instance, b[i].instance);
    EXPECT_EQ(a[i].family, b[i].family);
  }
}

TEST(ChurnSchedule, DifferentSeedsDiffer) {
  const auto a = workload::build_churn_schedule(small_churn(1));
  const auto b = workload::build_churn_schedule(small_churn(2));
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != b[i].at || a[i].instance != b[i].instance;
  }
  EXPECT_TRUE(differs);
}

TEST(ChurnSchedule, OrderedAndArrivalPrecedesDeparture) {
  const auto events = workload::build_churn_schedule(small_churn(7));
  ASSERT_FALSE(events.empty());
  std::set<int> arrived;
  sim::Time last = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.at, last);
    EXPECT_LT(e.at, small_churn(7).duration);
    last = e.at;
    if (e.depart) {
      EXPECT_TRUE(arrived.count(e.instance)) << "departure before arrival";
    } else {
      EXPECT_TRUE(arrived.insert(e.instance).second) << "duplicate arrival";
    }
  }
}

TEST(ChurnSchedule, DiurnalThinningStaysDeterministic) {
  auto cfg = small_churn(11);
  cfg.diurnal_amplitude = 0.6;
  cfg.diurnal_period = sim::minutes(10);
  const auto a = workload::build_churn_schedule(cfg);
  const auto b = workload::build_churn_schedule(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].at, b[i].at);
  // Amplitude only thins; the zero-amplitude schedule at the same seed is a
  // superset in expectation, and thinning must not inflate the count.
  auto flat = cfg;
  flat.diurnal_amplitude = 0.0;
  EXPECT_LE(a.size(), workload::build_churn_schedule(flat).size() * 2);
}

TEST(ChurnApp, InstanceNamesAndScaling) {
  const std::vector<net::NodeId> mesh = {0, 1, 2};
  const auto quarter = workload::make_churn_app(
      workload::AppFamily::kCameraPipeline, 3, 0.25, 1, mesh);
  const auto full = workload::make_churn_app(
      workload::AppFamily::kCameraPipeline, 4, 1.0, 1, mesh);
  EXPECT_EQ(quarter.name(), "camera#3");
  EXPECT_EQ(full.name(), "camera#4");
  EXPECT_EQ(quarter.component_count(), full.component_count());
  EXPECT_LT(quarter.total_cpu_milli(), full.total_cpu_milli());
  EXPECT_LT(quarter.total_bandwidth(), full.total_bandwidth());
  std::string why;
  EXPECT_TRUE(quarter.validate(&why)) << why;
}

TEST(ChurnApp, ConferencePinsAreDeterministicPerInstance) {
  const std::vector<net::NodeId> mesh = {0, 1, 2, 3};
  const auto a = workload::make_churn_app(workload::AppFamily::kVideoConference,
                                          5, 0.5, 9, mesh);
  const auto b = workload::make_churn_app(workload::AppFamily::kVideoConference,
                                          5, 0.5, 9, mesh);
  ASSERT_EQ(a.component_count(), b.component_count());
  int pinned = 0;
  for (app::ComponentId c = 0; c < a.component_count(); ++c) {
    EXPECT_EQ(a.component(c).pinned_node, b.component(c).pinned_node);
    if (a.component(c).pinned_node) {
      ++pinned;
      EXPECT_LE(*a.component(c).pinned_node, 3);
    }
  }
  EXPECT_GE(pinned, 2);  // at least a two-way conference
}

// A conference instance's client groups as they were first drawn: a
// partial Fisher–Yates over a copy of the whole node list.
std::vector<std::pair<net::NodeId, int>> copying_shuffle_clients(
    int instance, std::uint64_t seed, const std::vector<net::NodeId>& mesh_nodes) {
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(instance + 1)));
  const int groups = mesh_nodes.size() >= 3 && rng.chance(0.5) ? 3 : 2;
  std::vector<net::NodeId> nodes = mesh_nodes;
  for (int i = 0; i < groups && i < static_cast<int>(nodes.size()); ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(i, static_cast<std::int64_t>(nodes.size()) - 1));
    std::swap(nodes[static_cast<std::size_t>(i)], nodes[j]);
  }
  std::vector<std::pair<net::NodeId, int>> clients;
  for (int i = 0; i < groups && i < static_cast<int>(nodes.size()); ++i) {
    clients.emplace_back(nodes[static_cast<std::size_t>(i)],
                         static_cast<int>(rng.uniform_int(1, 3)));
  }
  return clients;
}

// The conference build before instances were built in place: the catalog
// graph, then a scaled copy of it under the instance name.
app::AppGraph two_step_conference(int instance, double scale, std::uint64_t seed,
                                  const std::vector<net::NodeId>& mesh_nodes) {
  const auto clients = copying_shuffle_clients(instance, seed, mesh_nodes);
  const auto per_stream =
      static_cast<net::Bps>(std::max(25.0, 250.0 * scale) * 1e3);
  const app::AppGraph base = app::video_conference_app(clients, per_stream);

  app::AppGraph g(
      workload::churn_instance_name(workload::AppFamily::kVideoConference, instance));
  for (app::ComponentId c = 0; c < base.component_count(); ++c) {
    app::Component comp = base.component(c);
    if (comp.cpu_milli > 0 || comp.memory_mb > 0) {
      comp.cpu_milli = std::max<std::int64_t>(
          50, static_cast<std::int64_t>(static_cast<double>(comp.cpu_milli) * scale));
      comp.memory_mb = std::max<std::int64_t>(
          16, static_cast<std::int64_t>(static_cast<double>(comp.memory_mb) * scale));
    }
    g.add_component(std::move(comp));
  }
  for (app::Edge e : base.edges()) {
    e.bandwidth = std::max<net::Bps>(
        net::kbps(50), static_cast<net::Bps>(static_cast<double>(e.bandwidth) * scale));
    g.add_dependency(e);
  }
  return g;
}

TEST(ChurnApp, ConferenceBuiltInPlaceMatchesTwoStepBuild) {
  const std::vector<net::NodeId> mesh = {3, 4, 8, 11, 12, 20, 31};
  const double scales[] = {0.05, 0.1, 0.5, 1.0, 1.7};
  for (int instance = 0; instance < 50; ++instance) {
    const double scale = scales[instance % 5];
    const app::AppGraph want = two_step_conference(instance, scale, 42, mesh);
    const app::AppGraph got = workload::make_churn_app(
        workload::AppFamily::kVideoConference, instance, scale, 42, mesh);
    SCOPED_TRACE(want.name());
    EXPECT_EQ(got.name(), want.name());
    ASSERT_EQ(got.component_count(), want.component_count());
    for (app::ComponentId c = 0; c < want.component_count(); ++c) {
      const app::Component& a = got.component(c);
      const app::Component& b = want.component(c);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.cpu_milli, b.cpu_milli);
      EXPECT_EQ(a.memory_mb, b.memory_mb);
      EXPECT_EQ(a.service_time, b.service_time);
      EXPECT_EQ(a.concurrency, b.concurrency);
      EXPECT_EQ(a.pinned_node, b.pinned_node);
      EXPECT_EQ(a.state_mb, b.state_mb);
    }
    ASSERT_EQ(got.edges().size(), want.edges().size());
    for (std::size_t i = 0; i < want.edges().size(); ++i) {
      const app::Edge& a = got.edges()[i];
      const app::Edge& b = want.edges()[i];
      EXPECT_EQ(a.from, b.from);
      EXPECT_EQ(a.to, b.to);
      EXPECT_EQ(a.bandwidth, b.bandwidth);
      EXPECT_EQ(a.max_latency, b.max_latency);
      EXPECT_EQ(a.request_bytes, b.request_bytes);
      EXPECT_EQ(a.response_bytes, b.response_bytes);
      EXPECT_EQ(a.probability, b.probability);
    }
  }
}

// Each client group is one pinned component with one edge from the SFU, in
// draw order, so the pins name the picks and the edges' bandwidths their
// participant counts (the draws that follow the picks).
TEST(ChurnApp, ConferencePicksMatchCopyingShuffle) {
  for (const int size : {1, 2, 3, 4, 256}) {
    std::vector<net::NodeId> mesh;
    for (int i = 0; i < size; ++i) mesh.push_back(3 * i + 1);  // ids with gaps
    for (int instance = 0; instance < 1000; ++instance) {
      SCOPED_TRACE(testing::Message() << size << " nodes, instance " << instance);
      const auto want = copying_shuffle_clients(instance, 17, mesh);
      const app::AppGraph got = workload::make_churn_app(
          workload::AppFamily::kVideoConference, instance, 0.5, 17, mesh);
      std::vector<net::NodeId> pins;
      for (app::ComponentId c = 0; c < got.component_count(); ++c) {
        if (got.component(c).pinned_node) pins.push_back(*got.component(c).pinned_node);
      }
      ASSERT_EQ(pins.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(pins[i], want[i].first);
      const app::AppGraph built = two_step_conference(instance, 0.5, 17, mesh);
      ASSERT_EQ(got.edges().size(), built.edges().size());
      for (std::size_t i = 0; i < built.edges().size(); ++i) {
        EXPECT_EQ(got.edges()[i].bandwidth, built.edges()[i].bandwidth);
      }
    }
  }
}

// ---- Undeploy accounting & admission (shared fixture) ----

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;

  // Triangle mesh, 3 modest nodes: overload is easy to provoke.
  explicit Fixture(std::int64_t cpu_per_node = 4000) {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(50));
    topo.add_link(1, 2, net::mbps(50));
    topo.add_link(0, 2, net::mbps(50));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    for (int i = 0; i < 3; ++i) cluster.add_node(i, {cpu_per_node, 8192, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);
  }

  std::int64_t total_cpu_used() const {
    std::int64_t used = 0;
    for (int n = 0; n < 3; ++n) used += cluster.usage(n).cpu_milli;
    return used;
  }
  std::int64_t total_mem_used() const {
    std::int64_t used = 0;
    for (int n = 0; n < 3; ++n) used += cluster.usage(n).memory_mb;
    return used;
  }
};

app::AppGraph one_pod(const std::string& name, std::int64_t cpu) {
  app::AppGraph g(name);
  g.add_component({.name = "pod", .cpu_milli = cpu, .memory_mb = 256});
  return g;
}

// one_pod() as the admission queue takes it.
std::shared_ptr<const sched::PreparedApp> prepared_pod(const std::string& name,
                                                       std::int64_t cpu) {
  return sched::PreparedApp::make(one_pod(name, cpu));
}

TEST(Undeploy, AccountingRoundTripsToZero) {
  Fixture f(16000);  // roomy: four quarter-scale catalog apps must all fit
  const std::vector<net::NodeId> mesh = {0, 1, 2};
  std::vector<core::DeploymentId> ids;
  for (int i = 0; i < 4; ++i) {
    auto app = workload::make_churn_app(
        i % 2 == 0 ? workload::AppFamily::kCameraPipeline
                   : workload::AppFamily::kSocialNetwork,
        i, 0.25, 1, mesh);
    auto id = f.orch->deploy(std::move(app), core::SchedulerKind::kBassBfs,
                             "inst" + std::to_string(i));
    ASSERT_TRUE(id.ok()) << id.error();
    ids.push_back(id.value());
  }
  EXPECT_GT(f.total_cpu_used(), 0);
  EXPECT_EQ(f.orch->live_deployment_count(), 4);

  for (const auto id : ids) EXPECT_TRUE(f.orch->undeploy(id));
  EXPECT_EQ(f.total_cpu_used(), 0);
  EXPECT_EQ(f.total_mem_used(), 0);
  EXPECT_EQ(f.orch->live_deployment_count(), 0);
  // Second undeploy is rejected, not double-released.
  EXPECT_FALSE(f.orch->undeploy(ids[0]));
  EXPECT_EQ(f.total_cpu_used(), 0);
}

TEST(Undeploy, CancelsInFlightMigrationBringUp) {
  Fixture f(12000);
  app::AppGraph g("mover");
  g.add_component({.name = "a", .cpu_milli = 1000, .memory_mb = 128});
  g.add_component({.name = "b", .cpu_milli = 1000, .memory_mb = 128});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(4)});
  const auto id = f.orch->deploy(std::move(g), core::SchedulerKind::kBassBfs).take();
  const net::NodeId before = f.orch->node_of(id, 0);
  ASSERT_TRUE(f.orch->migrate(id, 0, (before + 1) % 3));
  // Undeploy while the restart is in flight: the pending bring-up must not
  // resurrect the component or leak an allocation.
  EXPECT_TRUE(f.orch->undeploy(id));
  f.sim.run_until(sim::minutes(2));
  EXPECT_EQ(f.total_cpu_used(), 0);
  EXPECT_FALSE(f.orch->deployment_active(id));
}

// Undeploy frees the deployment's state while callbacks that captured its
// id are still queued: a checkpoint transfer, a failover recovery and the
// controller tick. Each must see the tombstone and do nothing.
TEST(Undeploy, PendingCallbacksSeeTheTombstone) {
  Fixture f(12000);
  app::AppGraph g("stateful");
  g.add_component({.name = "db", .cpu_milli = 1000, .memory_mb = 128, .state_mb = 64});
  g.add_component({.name = "web", .cpu_milli = 1000, .memory_mb = 128});
  g.add_dependency({.from = 1, .to = 0, .bandwidth = net::mbps(4)});
  const auto id = f.orch->deploy(std::move(g), core::SchedulerKind::kBassBfs).take();
  f.orch->enable_migration(id, controller::MigrationParams{});
  const net::NodeId db_node = f.orch->node_of(id, 0);
  // The 64 MiB checkpoint needs seconds on a 50 Mbps link.
  ASSERT_TRUE(f.orch->migrate(id, 0, (db_node + 1) % 3));
  f.orch->fail_node(f.orch->node_of(id, 1), sim::seconds(1));
  EXPECT_TRUE(f.orch->undeploy(id));
  EXPECT_EQ(f.orch->app(id).component_count(), 0);
  EXPECT_FALSE(f.orch->is_up(id, 0));
  EXPECT_EQ(f.orch->migration_params(id), nullptr);

  f.sim.run_until(sim::minutes(5));
  EXPECT_EQ(f.total_cpu_used(), 0);
  EXPECT_EQ(f.total_mem_used(), 0);
  EXPECT_TRUE(f.orch->migration_events().empty());
  EXPECT_TRUE(f.orch->controller_rounds(id).empty());
  EXPECT_EQ(f.orch->live_deployment_count(), 0);
}

TEST(Undeploy, FreesNameForRedeployment) {
  Fixture f;
  const auto first =
      f.orch->deploy(one_pod("svc", 1000), core::SchedulerKind::kBassBfs, "svc");
  ASSERT_TRUE(first.ok());
  // Duplicate while active: rejected.
  EXPECT_FALSE(
      f.orch->deploy(one_pod("svc", 1000), core::SchedulerKind::kBassBfs, "svc").ok());
  EXPECT_TRUE(f.orch->undeploy(first.value()));
  // After undeploy the instance name is free again, with a fresh id.
  const auto second =
      f.orch->deploy(one_pod("svc", 1000), core::SchedulerKind::kBassBfs, "svc");
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), first.value());
}

TEST(Undeploy, LifecycleWarningsAreJournaled) {
  Fixture f;
  obs::Recorder recorder{obs::RecorderConfig{}};
  f.orch->set_recorder(&recorder);
  const auto id =
      f.orch->deploy(one_pod("svc", 1000), core::SchedulerKind::kBassBfs, "svc");
  ASSERT_TRUE(id.ok());
  // Each abuse journals a typed warning instead of corrupting state.
  EXPECT_FALSE(
      f.orch->deploy(one_pod("svc", 1000), core::SchedulerKind::kBassBfs, "svc").ok());
  f.orch->fail_node(2);
  f.orch->fail_node(2);  // double-fail: idempotent no-op + warning
  EXPECT_EQ(f.orch->failed_nodes().size(), 1u);
  EXPECT_TRUE(f.orch->undeploy(id.value()));
  EXPECT_FALSE(f.orch->undeploy(id.value()));
  const std::string journal = recorder.journal().to_jsonl();
  EXPECT_NE(journal.find("duplicate_deployment"), std::string::npos);
  EXPECT_NE(journal.find("node_already_failed"), std::string::npos);
  EXPECT_NE(journal.find("undeploy_inactive"), std::string::npos);
  EXPECT_NE(journal.find("deployment_closed"), std::string::npos);
}

// ---- Admission policies under overload ----

struct Decision {
  int instance;
  bool admitted;
};

TEST(Admission, FifoBlocksHeadOfLineAndNeverRejects) {
  // 4200 per node: three 4000-mcpu pods leave 200 free on each node, so the
  // 100-mcpu pod WOULD fit — fifo must still hold it behind the blocked head.
  Fixture f(4200);
  core::AdmissionConfig cfg;
  cfg.policy = core::AdmissionPolicy::kFifo;
  cfg.retry_interval = sim::seconds(10);
  core::AdmissionQueue q(f.sim, *f.orch, cfg);
  std::vector<Decision> decisions;
  const auto on_decision = [&](int instance, core::DeploymentId, bool admitted) {
    decisions.push_back({instance, admitted});
  };
  // Three 4000-mcpu pods fill the mesh; the fourth blocks, and the smaller
  // fifth must NOT overtake it (strict arrival order).
  for (int i = 0; i < 4; ++i) {
    q.submit(i, "big" + std::to_string(i), prepared_pod("big" + std::to_string(i), 4000),
             core::SchedulerKind::kBassBfs, on_decision);
  }
  q.submit(4, "small", prepared_pod("small", 100), core::SchedulerKind::kBassBfs,
           on_decision);
  EXPECT_EQ(decisions.size(), 3u);
  EXPECT_EQ(q.depth(), 2);
  f.sim.run_until(sim::minutes(5));
  EXPECT_EQ(decisions.size(), 3u);  // still blocked, still nothing rejected
  EXPECT_EQ(q.stats().rejected, 0);

  // Freeing capacity admits the head, then the small one behind it.
  ASSERT_TRUE(f.orch->undeploy(0));
  q.kick();
  ASSERT_EQ(decisions.size(), 5u);
  EXPECT_EQ(decisions[3].instance, 3);
  EXPECT_TRUE(decisions[3].admitted);
  EXPECT_EQ(decisions[4].instance, 4);
  EXPECT_TRUE(decisions[4].admitted);
  EXPECT_EQ(q.depth(), 0);
}

TEST(Admission, RejectResolvesAtTheDoorWithZeroDepth) {
  Fixture f;
  core::AdmissionConfig cfg;
  cfg.policy = core::AdmissionPolicy::kRejectOnPressure;
  core::AdmissionQueue q(f.sim, *f.orch, cfg);
  std::vector<Decision> decisions;
  for (int i = 0; i < 5; ++i) {
    q.submit(i, "p" + std::to_string(i), prepared_pod("p" + std::to_string(i), 4000),
             core::SchedulerKind::kBassBfs,
             [&](int instance, core::DeploymentId, bool admitted) {
               decisions.push_back({instance, admitted});
             });
    EXPECT_EQ(q.depth(), 0);  // reject never queues
  }
  ASSERT_EQ(decisions.size(), 5u);
  EXPECT_TRUE(decisions[0].admitted);
  EXPECT_TRUE(decisions[1].admitted);
  EXPECT_TRUE(decisions[2].admitted);
  EXPECT_FALSE(decisions[3].admitted);
  EXPECT_FALSE(decisions[4].admitted);
  EXPECT_EQ(q.stats().rejected, 2);
}

TEST(Admission, DeferAllowsOvertakingAndBoundsRetries) {
  Fixture f(4200);  // 200 free per node: small fits, huge never does
  core::AdmissionConfig cfg;
  cfg.policy = core::AdmissionPolicy::kDeferRetry;
  cfg.retry_interval = sim::seconds(10);
  cfg.max_retries = 3;
  core::AdmissionQueue q(f.sim, *f.orch, cfg);
  std::vector<Decision> decisions;
  const auto on_decision = [&](int instance, core::DeploymentId, bool admitted) {
    decisions.push_back({instance, admitted});
  };
  for (int i = 0; i < 3; ++i) {
    q.submit(i, "big" + std::to_string(i), prepared_pod("big" + std::to_string(i), 4000),
             core::SchedulerKind::kBassBfs, on_decision);
  }
  // Mesh is full. A too-big pod defers; a small one behind it overtakes.
  q.submit(3, "huge", prepared_pod("huge", 4000), core::SchedulerKind::kBassBfs,
           on_decision);
  q.submit(4, "small", prepared_pod("small", 100), core::SchedulerKind::kBassBfs,
           on_decision);
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_EQ(decisions[3].instance, 4);  // small overtook the stuck huge pod
  EXPECT_TRUE(decisions[3].admitted);

  // The stuck pod retries max_retries times, then is rejected — the queue
  // drains instead of growing forever.
  f.sim.run_until(sim::minutes(5));
  ASSERT_EQ(decisions.size(), 5u);
  EXPECT_EQ(decisions[4].instance, 3);
  EXPECT_FALSE(decisions[4].admitted);
  EXPECT_EQ(q.depth(), 0);
  EXPECT_GE(q.stats().deferred, 1);
}

TEST(Admission, CancelDropsQueuedRequest) {
  Fixture f;
  core::AdmissionConfig cfg;
  cfg.policy = core::AdmissionPolicy::kFifo;
  core::AdmissionQueue q(f.sim, *f.orch, cfg);
  int decided = 0;
  q.submit(0, "a", prepared_pod("a", 4000), core::SchedulerKind::kBassBfs,
           [&](int, core::DeploymentId, bool) { ++decided; });
  q.submit(1, "b", prepared_pod("b", 9000), core::SchedulerKind::kBassBfs,
           [&](int, core::DeploymentId, bool) { ++decided; });
  EXPECT_EQ(q.depth(), 1);
  EXPECT_TRUE(q.cancel(1));
  EXPECT_FALSE(q.cancel(1));  // already gone
  EXPECT_EQ(q.depth(), 0);
  EXPECT_EQ(q.stats().cancelled, 1);
  EXPECT_EQ(decided, 1);  // cancelled requests never get a decision
}

// ---- End-to-end serving scenario ----

constexpr const char* kServeIni = R"(
[node a]
cpu = 4000
memory_mb = 4096
[node b]
cpu = 4000
memory_mb = 4096
[node c]
cpu = 4000
memory_mb = 4096
[link a b]
capacity_mbps = 20
[link b c]
capacity_mbps = 16
[link a c]
capacity_mbps = 12
[serve]
mode = adaptive
seed = 5
arrival_per_min = 3
mean_lifetime_s = 120
resource_scale = 0.25
policy = fifo
retry_s = 15
[run]
duration_s = 600
)";

std::unique_ptr<scenario::Scenario> build_serve(const std::string& text) {
  const auto ini = util::parse_ini(text);
  EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
  auto s = scenario::Scenario::from_ini(ini.value());
  EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error());
  return s.ok() ? std::move(s.value()) : nullptr;
}

TEST(ServingScenario, ChurnRunsCleanAndBalancesTheBooks) {
  auto s = build_serve(kServeIni);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->serving(), nullptr);
  EXPECT_EQ(s->deployment(), core::kInvalidDeployment);  // no one-shot app
  const auto report = s->run();
  EXPECT_TRUE(report.served);
  EXPECT_GT(report.serve_arrivals, 0);
  EXPECT_GT(report.serve_admitted, 0);
  EXPECT_EQ(report.invariant_violations, 0);
  // Every arrival resolves exactly one way: admitted, rejected, or
  // cancelled-while-queued — minus whatever is still waiting at the end.
  EXPECT_EQ(report.serve_admitted + report.serve_rejected + report.serve_cancelled +
                s->serving()->queue_depth(),
            report.serve_arrivals);
  // The live population is exactly admitted minus undeployed.
  EXPECT_EQ(s->orchestrator().live_deployment_count(), report.serve_live_at_end);
}

TEST(ServingScenario, SameSeedGivesByteIdenticalJournal) {
  auto a = build_serve(kServeIni);
  auto b = build_serve(kServeIni);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->run();
  b->run();
  const std::string ja = a->recorder().journal().to_jsonl();
  const std::string jb = b->recorder().journal().to_jsonl();
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb);
}

TEST(ServingScenario, DifferentSeedDiverges) {
  auto a = build_serve(kServeIni);
  std::string other(kServeIni);
  other.replace(other.find("seed = 5"), 8, "seed = 6");
  auto b = build_serve(other);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->run();
  b->run();
  EXPECT_NE(a->recorder().journal().to_jsonl(), b->recorder().journal().to_jsonl());
}

TEST(ServingScenario, StaticModeNeverMigrates) {
  std::string text(kServeIni);
  text.replace(text.find("mode = adaptive"), 15, "mode = static  ");
  auto s = build_serve(text);
  ASSERT_NE(s, nullptr);
  const auto report = s->run();
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_EQ(report.invariant_violations, 0);
}

// ---- Measured-capacity seam ----

// Hub 0 (16 cores) with spokes 1 and 2 (4 cores each): 0-1 at 50 Mbps, 0-2
// at 20 Mbps. After the startup probes, 0-1 degrades to 0.5 Mbps; the
// monitor's periodic probes are pushed past the test's horizon, so its
// cache and the live mesh disagree about 0-1 throughout. The monitor runs
// either way; `measured` decides whether the orchestrator has it attached.
struct SeamRig {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;
  std::unique_ptr<monitor::NetMonitor> netmon;

  explicit SeamRig(bool measured) {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(50));
    topo.add_link(0, 2, net::mbps(20));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    cluster.add_node(0, {16000, 16384, true});
    cluster.add_node(1, {4000, 4096, true});
    cluster.add_node(2, {4000, 4096, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);
    monitor::MonitorConfig no_reprobe;
    no_reprobe.probe_interval = sim::minutes(10);
    no_reprobe.full_refresh_interval = 0;
    netmon = std::make_unique<monitor::NetMonitor>(*network, no_reprobe);
    if (measured) orch->attach_monitor(netmon.get());
    netmon->start();
    sim.run_until(sim::seconds(2));
    network->set_link_capacity_between(0, 1, net::kbps(500));
  }
};

// A zero-footprint client pinned to the hub and a server it streams to.
app::AppGraph client_server() {
  app::AppGraph g("client-server");
  g.add_component({.name = "client", .cpu_milli = 0, .memory_mb = 0, .pinned_node = 0});
  g.add_component({.name = "server", .cpu_milli = 1000, .memory_mb = 128});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(10)});
  return g;
}

TEST(MeasuredSeam, OrchestratorViewAndPlacementFollowTheCache) {
  SeamRig rig(/*measured=*/true);
  const net::LinkId degraded = *rig.network->topology().link_between(0, 1);
  const sched::NetworkView view = rig.orch->view();
  EXPECT_EQ(view.link_capacity(degraded), rig.netmon->cached_capacities()[degraded]);
  EXPECT_GT(view.path_capacity(0, 1), net::mbps(40));
  EXPECT_EQ(sched::NetworkView(*rig.network).path_capacity(0, 1), net::kbps(500));

  // The cache still rates 0-1 at ~50 Mbps, so the server lands on node 1.
  rig.cluster.set_schedulable(0, false);
  const auto id = rig.orch->deploy(client_server(), core::SchedulerKind::kBassBfs);
  ASSERT_TRUE(id.ok()) << id.error();
  EXPECT_EQ(rig.orch->node_of(id.value(), 1), 1);

  // Without the monitor the same deploy reads the live 0.5 Mbps.
  SeamRig live(/*measured=*/false);
  EXPECT_EQ(live.orch->view().path_capacity(0, 1), net::kbps(500));
  live.cluster.set_schedulable(0, false);
  const auto live_id = live.orch->deploy(client_server(), core::SchedulerKind::kBassBfs);
  ASSERT_TRUE(live_id.ok()) << live_id.error();
  EXPECT_EQ(live.orch->node_of(live_id.value(), 1), 2);
}

// Camera-pipeline instances all land on the roomy hub; the dynamic
// rebalance tick then sheds one component to a spoke. Returns that spoke.
net::NodeId first_rebalance_target(bool measured) {
  SeamRig rig(measured);
  scenario::ServeConfig cfg;
  cfg.mode = scenario::ServeMode::kDynamic;
  cfg.churn.seed = 3;
  cfg.churn.arrival_per_min = 6.0;
  cfg.churn.duration = sim::seconds(20);
  cfg.churn.conference_weight = 0.0;
  cfg.churn.social_weight = 0.0;
  cfg.rebalance_interval = sim::minutes(1);
  cfg.rebalance_cpu_threshold = 0.0;
  scenario::ServingLoop loop(*rig.orch, cfg);
  loop.start();
  rig.sim.run_until(sim::seconds(120));
  loop.stop();
  EXPECT_GT(loop.stats().arrivals, 0);
  EXPECT_EQ(loop.stats().rebalance_moves, 1);
  for (const core::MigrationEvent& m : rig.orch->migration_events()) {
    if (m.reason == core::MoveReason::kManual) return m.to;
  }
  return net::kInvalidNode;
}

TEST(MeasuredSeam, RebalanceTargetFollowsTheCache) {
  EXPECT_EQ(first_rebalance_target(/*measured=*/true), 1);
  EXPECT_EQ(first_rebalance_target(/*measured=*/false), 2);
}

}  // namespace
}  // namespace bass

// Fault-injection subsystem: plan parsing/generation determinism, the
// injector's end-to-end effect on a scenario (crash -> recover round trip,
// probe loss, link-down overlays), and the invariant checker's ability to
// catch deliberately corrupted state.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/app_graph.h"
#include "core/orchestrator.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "monitor/net_monitor.h"
#include "net/network.h"
#include "obs/recorder.h"
#include "sched/network_view.h"
#include "scenario/scenario.h"
#include "sim/simulation.h"
#include "util/ini.h"
#include "util/rng.h"

namespace bass::fault {
namespace {

// ---- Plan parsing ----

struct ParseRig {
  net::Topology topo;
  std::vector<std::string> names{"a", "b", "c"};

  ParseRig() {
    for (const auto& n : names) topo.add_node(n);
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, net::mbps(20));
    topo.add_link(0, 2, net::mbps(20));
  }

  NodeResolver resolver() const {
    return [this](const std::string& name) -> net::NodeId {
      const auto it = std::find(names.begin(), names.end(), name);
      return it == names.end() ? net::kInvalidNode
                               : static_cast<net::NodeId>(it - names.begin());
    };
  }

  util::Expected<FaultPlan> parse(const std::string& text) const {
    auto ini = util::parse_ini(text);
    EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
    return parse_fault_plan(ini.value(), resolver(), topo);
  }
};

int count_kind(const FaultPlan& plan, FaultKind kind) {
  return static_cast<int>(std::count_if(
      plan.actions.begin(), plan.actions.end(),
      [kind](const FaultAction& a) { return a.kind == kind; }));
}

TEST(FaultPlan, ParsesScriptedSectionsAndExpandsCompoundFaults) {
  ParseRig rig;
  auto plan = rig.parse(R"(
[fault node_crash a]
at_s = 10
duration_s = 20
detection_delay_s = 5
[fault link_down a b]
at_s = 5
[fault link_flap b c]
start_s = 0
end_s = 60
period_s = 30
duty = 0.5
[fault partition c]
at_s = 40
duration_s = 10
[fault probe_loss]
at_s = 0
rate = 0.25
seed = 9
)");
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto& p = plan.value();
  // crash+auto-recover (2) + link_down (1) + two flap cycles (4) +
  // partition of {c} cutting b-c and a-c (2 down + 2 up) + probe_loss (1).
  EXPECT_EQ(p.size(), 12u);
  EXPECT_EQ(count_kind(p, FaultKind::kNodeCrash), 1);
  EXPECT_EQ(count_kind(p, FaultKind::kNodeRecover), 1);
  EXPECT_EQ(count_kind(p, FaultKind::kLinkDown), 5);
  EXPECT_EQ(count_kind(p, FaultKind::kLinkUp), 4);
  EXPECT_EQ(count_kind(p, FaultKind::kProbeLoss), 1);
  EXPECT_TRUE(std::is_sorted(
      p.actions.begin(), p.actions.end(),
      [](const FaultAction& x, const FaultAction& y) { return x.at < y.at; }));
  // The scripted crash carries its detection delay and auto-recovery.
  const auto crash = std::find_if(p.actions.begin(), p.actions.end(),
                                  [](const FaultAction& a) {
                                    return a.kind == FaultKind::kNodeCrash;
                                  });
  ASSERT_NE(crash, p.actions.end());
  EXPECT_EQ(crash->at, sim::seconds(10));
  EXPECT_EQ(crash->detection_delay, sim::seconds(5));
}

TEST(FaultPlan, RejectsUnknownNodesActionsAndUselessCuts) {
  ParseRig rig;
  auto unknown = rig.parse("[fault node_crash ghost]\nat_s = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("unknown node"), std::string::npos);

  auto bad_action = rig.parse("[fault meteor_strike a]\nat_s = 1\n");
  ASSERT_FALSE(bad_action.ok());
  EXPECT_NE(bad_action.error().find("unknown fault action"), std::string::npos);

  // A cut-set covering every node crosses nothing.
  auto no_cross = rig.parse("[fault partition a b c]\nat_s = 1\n");
  ASSERT_FALSE(no_cross.ok());
  EXPECT_NE(no_cross.error().find("crosses no links"), std::string::npos);

  auto no_link = rig.parse("[fault link_down a ghost]\nat_s = 1\n");
  EXPECT_FALSE(no_link.ok());
}

TEST(FaultPlan, ChaosGenerationIsDeterministicPerSeed) {
  ChaosParams params;
  params.crash_mtbf_s = 60;
  params.mttr_s = 30;
  params.flap_mtbf_s = 40;
  params.flap_down_s = 10;
  params.probe_loss = 0.2;
  params.horizon = sim::minutes(10);
  const std::vector<net::NodeId> nodes{0, 1, 2};
  const std::vector<std::pair<net::NodeId, net::NodeId>> links{{0, 1}, {1, 2}, {0, 2}};

  auto draw = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    return generate_chaos_plan(params, nodes, links, rng);
  };
  const auto a = draw(42);
  const auto b = draw(42);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.actions[i].at, b.actions[i].at) << "action " << i;
    EXPECT_EQ(a.actions[i].kind, b.actions[i].kind) << "action " << i;
    EXPECT_EQ(a.actions[i].node, b.actions[i].node) << "action " << i;
    EXPECT_EQ(a.actions[i].peer, b.actions[i].peer) << "action " << i;
    EXPECT_EQ(a.actions[i].seed, b.actions[i].seed) << "action " << i;
  }

  // A different seed draws a different timeline.
  const auto c = draw(43);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.actions[i].at != c.actions[i].at ||
              a.actions[i].kind != c.actions[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ChaosAlwaysLeavesOneNodeStanding) {
  ChaosParams params;
  params.crash_mtbf_s = 5;  // brutal: ~120 crash attempts over the horizon
  params.mttr_s = 600;      // repairs far slower than crashes
  params.flap_mtbf_s = 0;
  params.horizon = sim::minutes(10);
  const std::vector<net::NodeId> nodes{0, 1, 2};
  util::Rng rng(7);
  const auto plan = generate_chaos_plan(params, nodes, {}, rng);
  // Replay the down/up timeline: never more than nodes-1 down at once.
  std::vector<bool> down(nodes.size(), false);
  for (const auto& a : plan.actions) {
    if (a.kind == FaultKind::kNodeCrash) down[static_cast<std::size_t>(a.node)] = true;
    if (a.kind == FaultKind::kNodeRecover) down[static_cast<std::size_t>(a.node)] = false;
    EXPECT_LT(static_cast<std::size_t>(std::count(down.begin(), down.end(), true)),
              nodes.size());
  }
}

// ---- Network link-down overlay ----

TEST(FaultNetwork, LinkDownOverlayLayersUnderCapacityWrites) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_link(0, 1, net::mbps(20));
  net::Network network(sim, topo);
  const sched::NetworkView view(network);

  network.set_link_down_between(0, 1, true);
  EXPECT_EQ(view.path_capacity(0, 1), 0);

  // A trace tick lands while the link is down: remembered, not applied.
  network.set_link_capacity_between(0, 1, net::mbps(5));
  EXPECT_EQ(view.path_capacity(0, 1), 0);

  // Lifting the overlay resurfaces the latest written capacity.
  network.set_link_down_between(0, 1, false);
  EXPECT_EQ(view.path_capacity(0, 1), net::mbps(5));

  // Idempotent and symmetric.
  network.set_link_down_between(0, 1, false);
  EXPECT_EQ(view.path_capacity(0, 1), net::mbps(5));
}

// ---- Probe loss ----

TEST(FaultMonitor, ProbeLossDropsResultsDeterministically) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_link(0, 1, net::mbps(20));
  net::Network network(sim, topo);
  monitor::NetMonitor mon(network);
  mon.set_probe_loss(1.0, /*seed=*/3);
  mon.start();
  sim.run_until(sim::minutes(6));
  mon.stop();
  EXPECT_GT(mon.probes_dropped(), 0);
}

// ---- Invariant checker vs deliberately corrupted state ----

struct OrchRig {
  sim::Simulation sim;
  net::Topology topo;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;
  core::DeploymentId id = core::kInvalidDeployment;

  OrchRig() {
    topo.add_node("a");
    topo.add_node("b");
    topo.add_node("c");
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, net::mbps(20));
    topo.add_link(0, 2, net::mbps(20));
    network = std::make_unique<net::Network>(sim, topo);
    for (net::NodeId n = 0; n <= 2; ++n) cluster.add_node(n, {4000, 4096, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);
  }

  void deploy_pair() {
    app::AppGraph g("pair");
    g.add_component({.name = "x", .cpu_milli = 1000, .memory_mb = 256});
    g.add_component({.name = "y", .cpu_milli = 1000, .memory_mb = 256});
    g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(2)});
    id = orch->deploy(std::move(g), core::SchedulerKind::kBassAuto).take();
  }
};

TEST(FaultInvariants, CatchesCorruptedResourceAccounting) {
  OrchRig rig;
  rig.deploy_pair();
  Invariants inv(*rig.orch);
  EXPECT_EQ(inv.check_now(), 0);

  // Leak an allocation behind the orchestrator's back.
  ASSERT_TRUE(rig.cluster.allocate(rig.orch->node_of(rig.id, 0), 128, 0));
  EXPECT_GE(inv.check_now(), 1);
  EXPECT_GE(inv.violations(), 1);
}

TEST(FaultInvariants, CatchesUpComponentOnFailedNode) {
  OrchRig rig;
  rig.deploy_pair();
  Invariants inv(*rig.orch);

  // Fail a node hosting nothing (no components drop), then sneak an up
  // component onto it by uncordoning behind the orchestrator's back.
  net::NodeId dead = net::kInvalidNode;
  for (net::NodeId n = 0; n <= 2; ++n) {
    if (n != rig.orch->node_of(rig.id, 0) && n != rig.orch->node_of(rig.id, 1)) dead = n;
  }
  ASSERT_NE(dead, net::kInvalidNode);
  rig.orch->fail_node(dead, sim::minutes(30));
  EXPECT_EQ(inv.check_now(), 0);

  rig.cluster.set_schedulable(dead, true);
  ASSERT_TRUE(rig.orch->migrate(rig.id, 0, dead));
  rig.sim.run_until(rig.sim.now() + sim::minutes(1));  // past the restart
  ASSERT_TRUE(rig.orch->is_up(rig.id, 0));
  EXPECT_GE(inv.check_now(), 1);
}

TEST(FaultInvariants, CatchesJournalMigrationMismatch) {
  OrchRig rig;
  obs::Recorder recorder;
  rig.orch->set_recorder(&recorder);
  rig.deploy_pair();
  Invariants inv(*rig.orch, &recorder);
  EXPECT_EQ(inv.check_now(), 0);

  // A MigrationCompleted record with no matching MigrationEvent: the
  // journal and the orchestrator's ledger disagree.
  recorder.record(obs::MigrationCompleted{.at = rig.sim.now(),
                                          .deployment = rig.id,
                                          .component = 0,
                                          .from = 0,
                                          .to = 1,
                                          .reason = "manual"});
  EXPECT_GE(inv.check_now(), 1);
}

TEST(FaultInvariants, JournalCheckHoldsAfterTheRingWraps) {
  OrchRig rig;
  obs::Recorder recorder({.journal_capacity = 16});
  rig.orch->set_recorder(&recorder);
  rig.deploy_pair();
  Invariants inv(*rig.orch, &recorder);

  // Three moves of component 0 around the triangle, with filler events in
  // between, wrap the 16-slot ring well past its first MigrationCompleted.
  for (int move = 0; move < 3; ++move) {
    const net::NodeId from = rig.orch->node_of(rig.id, 0);
    const net::NodeId to = (from + 1) % 3;
    ASSERT_TRUE(rig.orch->migrate(rig.id, 0, to));
    rig.sim.run_until(rig.sim.now() + sim::minutes(1));  // past the restart
    ASSERT_TRUE(rig.orch->is_up(rig.id, 0));
    for (int i = 0; i < 20; ++i) {
      recorder.record(obs::HeadroomViolation{.at = rig.sim.now(), .link = 0});
    }
  }
  ASSERT_EQ(rig.orch->migration_events().size(), 3u);
  ASSERT_GT(recorder.journal().dropped(), 0);
  EXPECT_EQ(inv.check_now(), 0);

  // A spurious record still trips the check on a wrapped ring.
  recorder.record(obs::MigrationCompleted{.at = rig.sim.now(),
                                          .deployment = rig.id,
                                          .component = 0,
                                          .from = 0,
                                          .to = 1,
                                          .reason = "manual"});
  EXPECT_EQ(inv.check_now(), 1);
  const obs::EventJournal& journal = recorder.journal();
  const auto* violation =
      std::get_if<obs::InvariantViolation>(&journal.at(journal.size() - 1));
  ASSERT_NE(violation, nullptr);
  EXPECT_STREQ(violation->name, "journal_migrations");
}

TEST(FaultInvariants, RecoverNodeUncordonsAfterDrain) {
  OrchRig rig;
  rig.deploy_pair();
  const net::NodeId victim = rig.orch->node_of(rig.id, 1);
  rig.orch->drain_node(victim);
  rig.sim.run_until(rig.sim.now() + sim::minutes(2));
  EXPECT_FALSE(rig.cluster.can_fit(victim, 0, 0));  // cordoned
  EXPECT_FALSE(rig.orch->node_failed(victim));      // drained, not failed

  rig.orch->recover_node(victim);
  EXPECT_TRUE(rig.cluster.can_fit(victim, 0, 0));

  Invariants inv(*rig.orch);
  EXPECT_EQ(inv.check_now(), 0);
}

}  // namespace
}  // namespace bass::fault

// ---- Scenario-level end-to-end ----

namespace bass::fault {
namespace {

constexpr const char* kFaultMesh = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[node c]
cpu = 4000
[link a b]
capacity_mbps = 20
[link b c]
capacity_mbps = 20
[link a c]
capacity_mbps = 20
[component x]
cpu = 1000
[component y]
cpu = 1000
pinned = b
[edge x y]
bandwidth_mbps = 2
request_bytes = 1000
response_bytes = 2000
[workload]
rps = 20
client = a
[run]
duration_s = 300
)";

std::unique_ptr<scenario::Scenario> build(const std::string& text) {
  const auto ini = util::parse_ini(text);
  EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
  auto s = scenario::Scenario::from_ini(ini.value());
  EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error());
  return s.ok() ? std::move(s.value()) : nullptr;
}

TEST(FaultScenario, ScriptedCrashRecoverRoundTrip) {
  std::string text = kFaultMesh;
  text += "[fault node_crash b]\nat_s = 60\nduration_s = 60\n";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->injector(), nullptr);
  ASSERT_NE(s->invariants(), nullptr);
  const auto report = s->run();

  EXPECT_EQ(report.faults_injected, 2);  // crash + auto-recover
  EXPECT_EQ(report.invariant_violations, 0);
  // The pinned component waited out the outage and came back on b.
  const auto y = s->app().find("y");
  EXPECT_TRUE(s->orchestrator().is_up(s->deployment(), y));
  EXPECT_EQ(s->orchestrator().node_of(s->deployment(), y), s->node_id("b"));
  EXPECT_FALSE(s->orchestrator().node_failed(s->node_id("b")));
  // Its recovery is on the ledger as a failover.
  bool failover_seen = false;
  for (const auto& ev : s->orchestrator().migration_events()) {
    if (ev.reason == core::MoveReason::kFailover) failover_seen = true;
  }
  EXPECT_TRUE(failover_seen);
}

TEST(FaultScenario, LinkFaultSectionsDriveTheOverlay) {
  std::string text = kFaultMesh;
  text += "[fault link_down a b]\nat_s = 30\nduration_s = 60\n";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  const sched::NetworkView view(s->network());
  const auto a = s->node_id("a"), b = s->node_id("b");
  s->orchestrator().simulation().run_until(sim::seconds(45));
  EXPECT_EQ(view.path_capacity(a, b), 0);
  s->orchestrator().simulation().run_until(sim::seconds(120));
  EXPECT_GT(view.path_capacity(a, b), 0);
}

constexpr const char* kChaosMesh = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[node c]
cpu = 4000
[link a b]
capacity_mbps = 20
[link b c]
capacity_mbps = 20
[link a c]
capacity_mbps = 20
[component x]
cpu = 1000
[component y]
cpu = 1000
[edge x y]
bandwidth_mbps = 2
request_bytes = 1000
response_bytes = 2000
[migration]
enabled = true
interval_s = 30
[workload]
rps = 20
client = a
[chaos]
seed = 5
crash_mtbf_s = 90
mttr_s = 30
crash_detection_s = 5
flap_mtbf_s = 60
flap_down_s = 10
probe_loss = 0.2
[run]
duration_s = 240
)";

std::string fault_event_lines(const std::string& jsonl) {
  std::string out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("fault_injected") != std::string::npos) out += line + '\n';
  }
  return out;
}

TEST(FaultScenario, ChaosRunIsCleanAndSameSeedGivesSameFaultJournal) {
  auto run_one = [] {
    auto s = build(kChaosMesh);
    EXPECT_NE(s, nullptr);
    const auto report = s->run();
    EXPECT_GT(report.faults_injected, 0);
    EXPECT_EQ(report.invariant_violations, 0);
    return fault_event_lines(s->recorder().journal().to_jsonl());
  };
  const auto first = run_one();
  const auto second = run_one();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical fault timeline per seed

  // A different seed perturbs the fault timeline.
  std::string other = kChaosMesh;
  other.replace(other.find("seed = 5"), 8, "seed = 6");
  auto s = build(other);
  ASSERT_NE(s, nullptr);
  s->run();
  EXPECT_NE(fault_event_lines(s->recorder().journal().to_jsonl()), first);
}

TEST(FaultScenario, InvariantsSectionCanDisableTheChecker) {
  std::string text = kFaultMesh;
  text += "[invariants]\nenabled = false\n";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->invariants(), nullptr);
  const auto report = s->run();
  EXPECT_EQ(report.invariant_violations, 0);
}

}  // namespace
}  // namespace bass::fault

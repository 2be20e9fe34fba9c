#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/scenario.h"
#include "sched/network_view.h"

namespace bass::scenario {
namespace {

constexpr const char* kMinimal = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[link a b]
capacity_mbps = 20
[component x]
cpu = 1000
[component y]
cpu = 1000
[edge x y]
bandwidth_mbps = 2
request_bytes = 1000
response_bytes = 2000
[workload]
rps = 20
client = a
[run]
duration_s = 30
)";

std::unique_ptr<Scenario> build(const std::string& text) {
  const auto ini = util::parse_ini(text);
  EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
  auto s = Scenario::from_ini(ini.value());
  EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error());
  return s.ok() ? std::move(s.value()) : nullptr;
}

TEST(Scenario, MinimalRunsAndReports) {
  auto s = build(kMinimal);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->duration(), sim::seconds(30));
  EXPECT_NE(s->node_id("a"), net::kInvalidNode);
  EXPECT_EQ(s->node_id("zzz"), net::kInvalidNode);
  const auto report = s->run();
  EXPECT_NEAR(static_cast<double>(report.requests_issued), 600, 10);
  EXPECT_EQ(report.requests_completed, report.requests_issued);
  EXPECT_GT(report.latency_mean_ms, 0);
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_GT(report.probe_bytes, 0);  // monitor on by default
  // The invariant checker rides along by default and stays quiet.
  EXPECT_NE(s->invariants(), nullptr);
  EXPECT_EQ(report.invariant_violations, 0);
  EXPECT_EQ(report.faults_injected, 0);
}

// With the online profiler on, the deployment's edge weights are rewritten
// while the scenario runs. A graph reference taken before run() stays
// readable (it names the graph as deployed); app() afterwards shows the
// profiled requirement.
TEST(Scenario, AppReferenceOutlivesProfilerUpdates) {
  auto s = build(std::string(kMinimal) + R"(
[profiler]
enabled = true
sample_interval_s = 5
)");
  ASSERT_NE(s, nullptr);
  const app::AppGraph& as_deployed = s->app();
  const net::Bps offline = as_deployed.edges()[0].bandwidth;
  s->run();
  EXPECT_EQ(as_deployed.component(1).name, "y");
  EXPECT_EQ(as_deployed.edges()[0].bandwidth, offline);
  EXPECT_NE(s->app().edges()[0].bandwidth, offline);
}

TEST(Scenario, SecondRunIsNoOp) {
  auto s = build(kMinimal);
  ASSERT_NE(s, nullptr);
  const auto first = s->run();
  const auto second = s->run();
  EXPECT_GT(first.requests_issued, 0);
  EXPECT_EQ(second.requests_issued, 0);
}

TEST(Scenario, PinnedComponentHonored) {
  std::string text = kMinimal;
  text.replace(text.find("[component y]\ncpu = 1000"), 24,
               "[component y]\ncpu = 1000\npinned = b");
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->orchestrator().node_of(s->deployment(), s->app().find("y")),
            s->node_id("b"));
}

TEST(Scenario, RejectsUnknownNodeInLink) {
  const auto ini = util::parse_ini("[node a]\n[link a ghost]\n[component x]\n");
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("unknown node"), std::string::npos);
}

TEST(Scenario, RejectsPartitionedMesh) {
  const auto ini = util::parse_ini(
      "[node a]\n[node b]\n[node c]\n[link a b]\n[component x]\n");
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("partitioned"), std::string::npos);
}

TEST(Scenario, RejectsCyclicApp) {
  std::string text = kMinimal;
  text += "[edge y x]\nbandwidth_mbps = 1\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("cycle"), std::string::npos);
}

TEST(Scenario, RejectsUnplaceableApp) {
  std::string text = kMinimal;
  text.replace(text.find("[component x]\ncpu = 1000"), 24,
               "[component x]\ncpu = 64000");
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("placement failed"), std::string::npos);
}

TEST(Scenario, RejectsDuplicateNames) {
  const auto ini = util::parse_ini("[node a]\n[node a]\n");
  ASSERT_TRUE(ini.ok());
  EXPECT_FALSE(Scenario::from_ini(ini.value()).ok());
}

TEST(Scenario, RejectsDuplicateNodeName) {
  std::string text = kMinimal;
  text.insert(text.find("[link a b]"), "[node a]\ncpu = 2000\n");
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("duplicate node 'a'"), std::string::npos) << s.error();
}

TEST(Scenario, RejectsSelfAndDuplicateLinks) {
  for (const char* text : {"[node a]\n[node b]\n[link a a]\n[component x]\n",
                           "[node a]\n[node b]\n[link a b]\n[link b a]\n[component x]\n"}) {
    const auto ini = util::parse_ini(text);
    ASSERT_TRUE(ini.ok());
    const auto s = Scenario::from_ini(ini.value());
    ASSERT_FALSE(s.ok()) << text;
    EXPECT_NE(s.error().find("[link "), std::string::npos) << s.error();
  }
}

// A star: `spokes` leaves linked to one hub.
std::string hub_scenario(int spokes) {
  std::string text = "[node hub]\n";
  for (int i = 0; i < spokes; ++i) text += "[node s" + std::to_string(i) + "]\n";
  for (int i = 0; i < spokes; ++i) text += "[link hub s" + std::to_string(i) + "]\n";
  return text + "[component x]\ncpu = 100\n[run]\nduration_s = 1\n";
}

TEST(Scenario, HubLinkCountIsBoundedByRouting) {
  const auto fits = util::parse_ini(hub_scenario(net::RoutingTable::kMaxInLinks));
  ASSERT_TRUE(fits.ok());
  const auto s = Scenario::from_ini(fits.value());
  ASSERT_TRUE(s.ok()) << s.error();
  EXPECT_EQ(s.value()->network().routing().unreachable_pairs(), 0u);

  const auto over = util::parse_ini(hub_scenario(net::RoutingTable::kMaxInLinks + 1));
  ASSERT_TRUE(over.ok());
  const auto rejected = Scenario::from_ini(over.value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().find("node 'hub'"), std::string::npos) << rejected.error();
}

TEST(Scenario, RejectsCityGridRoutersBeyondRouting) {
  const auto ini = util::parse_ini(
      "[topology]\nkind = city_grid\nblocks_x = 2\nblocks_y = 1\n"
      "nodes_per_block = 260\n");
  ASSERT_TRUE(ini.ok());
  const auto topo = build_topology(ini.value());
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.error().find("nodes_per_block"), std::string::npos) << topo.error();
}

// The shipped scenarios, found through the source tree the build was
// configured from, whatever the working directory.
const std::filesystem::path kShippedDir =
    std::filesystem::path(BASS_SOURCE_DIR) / "examples" / "scenarios";

util::Expected<std::unique_ptr<Scenario>> load_shipped(const std::string& name) {
  return Scenario::from_file((kShippedDir / name).string());
}

TEST(Scenario, ShippedScenarioLoads) {
  // Keep the example scenario files valid as the code evolves.
  auto s = load_shipped("community_mesh.ini");
  ASSERT_TRUE(s.ok()) << s.error();
  EXPECT_EQ(s.value()->app().component_count(), 3);
  EXPECT_EQ(s.value()->app().find("db") != app::kInvalidComponent, true);
}

TEST(Scenario, NodeNamesAndIdsComeFromTheTopology) {
  auto s = load_shipped("rooftop_conference.ini");
  ASSERT_TRUE(s.ok()) << s.error();
  const Scenario& scene = *s.value();
  const net::Topology& topology = s.value()->network().topology();
  ASSERT_GT(topology.node_count(), 0);
  for (net::NodeId id = 0; id < topology.node_count(); ++id) {
    EXPECT_EQ(scene.node_name(id), topology.node_name(id));
    EXPECT_EQ(scene.node_id(topology.node_name(id)), id);
  }
  const int n = topology.node_count();
  EXPECT_EQ(scene.node_name(n), "node" + std::to_string(n));
  EXPECT_EQ(scene.node_name(-1), "node-1");
  EXPECT_EQ(scene.node_id("no-such-node"), net::kInvalidNode);
}

TEST(Scenario, ShippedScenariosKeepTheirWholeJournal) {
  // Every shipped scenario, run as `bassctl run` runs it (default journal
  // capacity), keeps every event: the journal records decisions and the
  // allocator passes they cause, not every solver pass of the run.
  ASSERT_TRUE(std::filesystem::is_directory(kShippedDir)) << kShippedDir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(kShippedDir)) {
    if (entry.path().extension() == ".ini") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 5u);
  for (const auto& file : files) {
    auto s = Scenario::from_file(file.string());
    ASSERT_TRUE(s.ok()) << file << ": " << s.error();
    Scenario& scene = *s.value();
    scene.run();
    const obs::EventJournal& journal = scene.recorder().journal();
    EXPECT_GT(journal.size(), 0u) << file;
    EXPECT_EQ(journal.dropped(), 0) << file << " keeps " << journal.size()
                                    << " of " << journal.size() + journal.dropped()
                                    << " events";
  }
}

TEST(Scenario, ShippedConferenceScenarioLoads) {
  auto s = load_shipped("rooftop_conference.ini");
  ASSERT_TRUE(s.ok()) << s.error();
  // SFU + 3 client groups.
  EXPECT_EQ(s.value()->app().component_count(), 4);
  EXPECT_NE(s.value()->app().find("pion-sfu"), app::kInvalidComponent);
}

TEST(Scenario, MigrationSectionDrivesController) {
  std::string text = R"(
[node a]
cpu = 2000
[node b]
cpu = 2000
[node c]
cpu = 2000
[link a b]
capacity_mbps = 10
[link b c]
capacity_mbps = 10
[link a c]
capacity_mbps = 10
[component x]
cpu = 1500
[component y]
cpu = 1500
[edge x y]
bandwidth_mbps = 6
request_bytes = 4000
response_bytes = 18000
[scheduler]
kind = k3s
[migration]
enabled = true
threshold = 0.4
interval_s = 10
cooldown_s = 10
restart_s = 5
[workload]
rps = 50
client = a
[run]
duration_s = 180
)";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  // k3s spreads the 6 Mbps pair; 50 rps x 18 KB x 8 = 7.2 Mbps of traffic
  // saturates the 10 Mbps link, so the controller must act.
  const auto xa = s->orchestrator().node_of(s->deployment(), 0);
  const auto ya = s->orchestrator().node_of(s->deployment(), 1);
  ASSERT_NE(xa, ya);
  const auto report = s->run();
  EXPECT_GE(report.migrations, 1u);
  EXPECT_EQ(report.invariant_violations, 0);
}

}  // namespace
}  // namespace bass::scenario

namespace bass::scenario {
namespace {

constexpr const char* kConference = R"(
[node hub]
cpu = 8000
[node east]
cpu = 2000
[node west]
cpu = 2000
[link hub east]
capacity_mbps = 20
[link hub west]
capacity_mbps = 20
[link east west]
capacity_mbps = 5
[workload]
type = conference
per_stream_kbps = 500
[clients east]
count = 3
[clients west]
count = 3
[run]
duration_s = 120
)";

TEST(Scenario, ConferenceBuildsSfuAppAndReportsBitrates) {
  const auto ini = util::parse_ini(kConference);
  ASSERT_TRUE(ini.ok());
  auto s = Scenario::from_ini(ini.value());
  ASSERT_TRUE(s.ok()) << s.error();
  auto& scene = *s.value();
  EXPECT_EQ(scene.app().component_count(), 3);  // sfu + 2 client groups
  EXPECT_NE(scene.app().find("pion-sfu"), app::kInvalidComponent);

  const auto report = scene.run();
  ASSERT_EQ(report.median_bitrate_bps.size(), 2u);
  // 6 participants x 500 Kbps: each client expects 5 x 500 = 2.5 Mbps, and
  // the 20 Mbps spokes carry it (3 clients x 2.5 = 7.5 + uplinks).
  for (const auto& [node, bps] : report.median_bitrate_bps) {
    EXPECT_NEAR(bps, 2.5e6, 2e5) << "node " << node;
  }
  EXPECT_EQ(report.requests_issued, 0);
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(Scenario, ConferenceRejectsComponents) {
  std::string text = kConference;
  text += "[component rogue]\ncpu = 100\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("[clients]"), std::string::npos);
}

TEST(Scenario, ConferenceNeedsClients) {
  const auto ini = util::parse_ini(
      "[node a]\ncpu = 4000\n[workload]\ntype = conference\n");
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("clients"), std::string::npos);
}

}  // namespace
}  // namespace bass::scenario

namespace bass::scenario {
namespace {

TEST(Scenario, TraceFileImport) {
  // Record a trace, then replay it from the scenario file.
  trace::BandwidthTrace recorded;
  recorded.append(sim::seconds(0), net::mbps(20));
  recorded.append(sim::seconds(10), net::mbps(2));
  const std::string path = "/tmp/bass_scenario_trace.csv";
  ASSERT_TRUE(recorded.save_csv(path));

  std::string text = kMinimal;
  text += "[trace a b]\nfile = " + path + "\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  auto s = Scenario::from_ini(ini.value());
  ASSERT_TRUE(s.ok()) << s.error();
  auto& scene = *s.value();
  // Let the replay reach t=10s+: the link must sit at 2 Mbps.
  scene.orchestrator().simulation().run_until(sim::seconds(15));
  const sched::NetworkView view(scene.network());
  EXPECT_EQ(view.path_capacity(scene.node_id("a"), scene.node_id("b")), net::mbps(2));
}

TEST(Scenario, TraceFileMissingIsAnError) {
  std::string text = kMinimal;
  text += "[trace a b]\nfile = /no/such/trace.csv\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("cannot load"), std::string::npos);
}

}  // namespace
}  // namespace bass::scenario

// A timer period of zero (or one that rounds to 0 µs) would re-fire at the
// same instant forever; every periodic key must be rejected at parse time.
namespace bass::scenario::period_test {

struct TimerKey {
  const char* section;  // section text preceding the key
  const char* key;      // "[section] key" as the error names it
};

class Scenario
    : public ::testing::TestWithParam<std::tuple<TimerKey, const char*>> {};

TEST_P(Scenario, RejectsNonPositiveTimerPeriods) {
  const auto& [timer, value] = GetParam();
  const std::string name = timer.key;
  const std::string text = std::string(kMinimal) + timer.section +
                           name.substr(name.find(' ') + 1) + " = " + value + "\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok()) << ini.error();
  const auto s = bass::scenario::Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok()) << name << " = " << value << " was accepted";
  EXPECT_NE(s.error().find(name), std::string::npos) << s.error();
}

INSTANTIATE_TEST_SUITE_P(
    Keys, Scenario,
    ::testing::Combine(
        ::testing::Values(TimerKey{"[migration]\nenabled = true\n", "[migration] interval_s"},
                          TimerKey{"[monitor]\n", "[monitor] probe_interval_s"},
                          TimerKey{"[serve]\nmode = dynamic\n", "[serve] rebalance_interval_s"},
                          TimerKey{"[profiler]\nenabled = true\n",
                                   "[profiler] sample_interval_s"}),
        ::testing::Values("0", "-5", "1e-7", "nan", "inf")));

}  // namespace bass::scenario::period_test

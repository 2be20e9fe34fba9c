// Sweep-engine tests: pool lifecycle/exception safety, per-run isolation,
// and the serial-vs-parallel determinism contract (byte-identical journals
// at any --jobs).
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/pool.h"
#include "exec/sweep.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "trace/trace.h"
#include "util/ini.h"

namespace bass {
namespace {

// A small mesh under chaos: enough faults and migrations in 60 simulated
// seconds to make journals non-trivial, small enough to run many times.
constexpr const char* kChaosScenario = R"(
[node a]
cpu = 2000
memory_mb = 2048

[node b]
cpu = 2000
memory_mb = 2048

[node c]
cpu = 2000
memory_mb = 2048

[link a b]
capacity_mbps = 10

[link b c]
capacity_mbps = 10

[link a c]
capacity_mbps = 8

[component fe]
cpu = 400
memory_mb = 128
concurrency = 4

[component be]
cpu = 400
memory_mb = 128

[edge fe be]
bandwidth_mbps = 2
request_bytes = 1200
response_bytes = 4000

[migration]
enabled = true
threshold = 0.5
headroom = 0.2
interval_s = 10
cooldown_s = 5
min_gap_s = 20

[workload]
rps = 25
arrival = exponential
client = a
seed = 7
max_in_flight = 200

[chaos]
seed = 1
crash_mtbf_s = 60
mttr_s = 15
crash_detection_s = 5
flap_mtbf_s = 40
flap_down_s = 8
probe_loss = 0.1

[run]
duration_s = 60
)";

util::IniFile chaos_ini() {
  auto parsed = util::parse_ini(kChaosScenario);
  if (!parsed.ok()) ADD_FAILURE() << parsed.error();
  return parsed.take();
}

std::vector<exec::RunSpec> seed_specs(std::uint64_t first, std::uint64_t count) {
  std::vector<exec::RunSpec> specs;
  for (std::uint64_t i = 0; i < count; ++i) {
    specs.push_back({"seed " + std::to_string(first + i),
                     {{"chaos", "seed", std::to_string(first + i)}}});
  }
  return specs;
}

// ---- Pool ----

TEST(PoolTest, RunsEveryTaskAndIsReusableAfterWait) {
  exec::Pool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> ran{0};
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(ran.load(), 64 * (round + 1));
  }
}

TEST(PoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    exec::Pool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait(): destruction itself must not drop submitted work.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(PoolTest, WaitRethrowsLowestSubmissionIdException) {
  exec::Pool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 11) throw std::runtime_error("task 11");
      if (i == 3) throw std::runtime_error("task 3");
    });
  }
  try {
    pool.wait();
    FAIL() << "wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // Every task still ran, and the pool keeps working afterwards.
  EXPECT_EQ(ran.load(), 16);
  pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(ran.load(), 17);
}

TEST(PoolTest, ParallelForSameSemanticsAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(20);
    try {
      exec::parallel_for(threads, hits.size(), [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 13 || i == 5) throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "parallel_for should rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 5") << "threads=" << threads;
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// ---- Recorder isolation (the obs satellite) ----

TEST(RecorderSlotTest, ThreadLocalSlotWinsOverProcessDefault) {
  obs::Recorder fallback, mine;
  obs::set_default_global_recorder(&fallback);
  EXPECT_EQ(obs::global_recorder(), &fallback);

  std::thread worker([&] {
    // A fresh thread starts on the fallback, then binds its own.
    EXPECT_EQ(obs::global_recorder(), &fallback);
    obs::ScopedGlobalRecorder bind(&mine);
    EXPECT_EQ(obs::global_recorder(), &mine);
  });
  worker.join();

  // The worker's binding never leaked into this thread.
  EXPECT_EQ(obs::global_recorder(), &fallback);
  obs::set_default_global_recorder(nullptr);
  EXPECT_EQ(obs::global_recorder(), nullptr);
}

// ---- Sweep inputs ----

TEST(SweepTest, ApplyOverridesCreatesMissingSection) {
  util::IniFile ini = chaos_ini();
  ini.sections.erase(
      std::remove_if(ini.sections.begin(), ini.sections.end(),
                     [](const util::IniSection& s) { return s.kind() == "migration"; }),
      ini.sections.end());
  ASSERT_EQ(ini.first_of_kind("migration"), nullptr);
  exec::apply_overrides(ini, {{"migration", "threshold", "0.75"},
                              {"chaos", "seed", "9"}});
  const auto* migration = ini.first_of_kind("migration");
  ASSERT_NE(migration, nullptr);
  EXPECT_EQ(migration->get_or("threshold", ""), "0.75");
  EXPECT_EQ(ini.first_of_kind("chaos")->get_or("seed", ""), "9");
}

// A sweep run builds exactly the world `bassctl run` builds from the same
// overridden ini. Two inputs: a recorded CSV trace replayed on one link, and
// a generated city grid whose component and client name a generated node.
TEST(SweepTest, OutcomesMatchScenarioFromIni) {
  trace::BandwidthTrace recorded;
  for (int t = 0; t <= 60; t += 5) {
    recorded.append(sim::seconds(t), net::Bps{(8 + t % 3) * 1000 * 1000});
  }
  const std::string csv = testing::TempDir() + "exec_test_trace.csv";
  ASSERT_TRUE(recorded.save_csv(csv));
  util::IniFile file_trace = chaos_ini();
  file_trace.sections.push_back(
      util::IniSection{{"trace", "a", "b"}, {{"file", csv}}});

  auto city = util::load_ini(std::string(BASS_TEST_DATA_DIR) + "/city_pinned.ini");
  ASSERT_TRUE(city.ok()) << city.error();

  const auto specs = seed_specs(1, 4);
  for (const util::IniFile* base : {&file_trace, &city.value()}) {
    const auto outcomes = exec::run_sweep(*base, specs, 4);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].error.empty()) << outcomes[i].error;
      util::IniFile ini = *base;
      exec::apply_overrides(ini, specs[i].overrides);
      auto s = scenario::Scenario::from_ini(ini);
      ASSERT_TRUE(s.ok()) << s.error();
      {
        obs::ScopedGlobalRecorder bind(&s.value()->recorder());
        s.value()->run();
      }
      EXPECT_FALSE(outcomes[i].journal.empty());
      EXPECT_EQ(outcomes[i].journal, s.value()->recorder().journal().to_jsonl())
          << specs[i].label;
    }
  }
}

// "Components down at end" counts the components of active deployments
// that are not up. A serving run's departed instances are retired, not
// down, so the sweep's count must match a recount over active deployments
// of the same run built with Scenario::from_ini.
TEST(SweepTest, ComponentsDownCountsActiveDeploymentsOnly) {
  auto base = util::load_ini(std::string(BASS_TEST_DATA_DIR) + "/serve_chaos.ini");
  ASSERT_TRUE(base.ok()) << base.error();
  const auto specs = seed_specs(1, 2);
  const auto outcomes = exec::run_sweep(base.value(), specs, 2);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(outcomes[i].error.empty()) << outcomes[i].error;
    util::IniFile ini = base.value();
    exec::apply_overrides(ini, specs[i].overrides);
    auto s = scenario::Scenario::from_ini(ini);
    ASSERT_TRUE(s.ok()) << s.error();
    {
      obs::ScopedGlobalRecorder bind(&s.value()->recorder());
      s.value()->run();
    }
    const core::Orchestrator& orch = s.value()->orchestrator();
    int down = 0;
    int retired = 0;
    for (core::DeploymentId id = 0; id < orch.deployment_count(); ++id) {
      if (!orch.deployment_active(id)) {
        ++retired;
        continue;
      }
      for (app::ComponentId c = 0; c < orch.app(id).component_count(); ++c) {
        if (!orch.is_up(id, c)) ++down;
      }
    }
    EXPECT_GT(retired, 0) << "the run must have departures";
    EXPECT_EQ(outcomes[i].components_down, down) << specs[i].label;
  }
}

// ---- Determinism: the serial-vs-parallel parity contract ----

TEST(SweepTest, JournalsAreByteIdenticalAtAnyJobCount) {
  const util::IniFile base = chaos_ini();
  const auto specs = seed_specs(1, 3);

  const auto serial = exec::run_sweep(base, specs, 1);
  const auto parallel = exec::run_sweep(base, specs, 8);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(serial[i].error.empty()) << serial[i].error;
    ASSERT_TRUE(parallel[i].error.empty()) << parallel[i].error;
    EXPECT_FALSE(serial[i].journal.empty());
    // The whole journal — not just fault events — must match byte for byte.
    EXPECT_EQ(serial[i].journal, parallel[i].journal) << specs[i].label;
    EXPECT_EQ(serial[i].fault_events, parallel[i].fault_events);
    EXPECT_EQ(serial[i].report.requests_issued, parallel[i].report.requests_issued);
    EXPECT_EQ(serial[i].report.requests_completed,
              parallel[i].report.requests_completed);
    EXPECT_EQ(serial[i].report.migrations, parallel[i].report.migrations);
    EXPECT_EQ(serial[i].report.faults_injected, parallel[i].report.faults_injected);
    EXPECT_DOUBLE_EQ(serial[i].report.latency_p99_ms,
                     parallel[i].report.latency_p99_ms);
    EXPECT_EQ(serial[i].recovery_s, parallel[i].recovery_s);
    EXPECT_EQ(serial[i].components_down, parallel[i].components_down);
  }
  // Different seeds genuinely differ (the runs aren't degenerate copies).
  EXPECT_NE(serial[0].journal, serial[1].journal);
}

TEST(SweepTest, ConcurrentRunsOfTheSameSeedCannotContaminateEachOther) {
  const util::IniFile base = chaos_ini();
  // Four copies of the same seed racing on the pool: per-run Rng and
  // recorder isolation means all four must come out identical.
  std::vector<exec::RunSpec> specs(4, exec::RunSpec{"seed 5",
                                                    {{"chaos", "seed", "5"}}});
  const auto outcomes = exec::run_sweep(base, specs, 4);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_EQ(outcome.journal, outcomes[0].journal);
  }
}

TEST(SweepTest, BuildErrorsAreReportedPerRunNotThrown) {
  const util::IniFile base = chaos_ini();
  std::vector<exec::RunSpec> specs = seed_specs(1, 1);
  specs.push_back({"bad", {{"workload", "client", "no-such-node"}}});
  const auto outcomes = exec::run_sweep(base, specs, 2);
  EXPECT_TRUE(outcomes[0].error.empty());
  EXPECT_NE(outcomes[1].error.find("no-such-node"), std::string::npos);
  EXPECT_TRUE(outcomes[1].journal.empty());
}

}  // namespace
}  // namespace bass

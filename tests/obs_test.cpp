#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/catalog.h"
#include "core/orchestrator.h"
#include "exec/sweep.h"
#include "fault/invariants.h"
#include "obs/flight.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "util/ini.h"
#include "util/strings.h"

namespace bass::obs {
namespace {

// ---- Journal ring ----

TEST(Journal, RingOverwritesOldestAndCountsDropped) {
  EventJournal journal(4);
  for (int i = 0; i < 6; ++i) {
    journal.record(ReallocationSolved{sim::seconds(i), i, 1, false});
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.capacity(), 4u);
  EXPECT_EQ(journal.dropped(), 2);
  // Oldest-first: events 2..5 survive.
  std::vector<std::int64_t> flows;
  journal.for_each([&](const Event& e) {
    flows.push_back(std::get<ReallocationSolved>(e).flows);
  });
  EXPECT_EQ(flows, (std::vector<std::int64_t>{2, 3, 4, 5}));
}

TEST(Journal, AtIndexesOldestFirst) {
  EventJournal journal(2);
  journal.record(ReallocationSolved{sim::seconds(0), 0, 1, false});
  journal.record(HeadroomViolation{sim::seconds(1), 3, net::mbps(2)});
  journal.record(LinkCapacityChanged{sim::seconds(2), 3, net::mbps(10), net::mbps(5)});
  ASSERT_EQ(journal.size(), 2u);  // the ring wrapped once
  EXPECT_STREQ(event_type_name(journal.at(0)), "headroom_violation");
  EXPECT_STREQ(event_type_name(journal.at(1)), "link_capacity_changed");
  EXPECT_EQ(event_time(journal.at(1)), sim::seconds(2));
}

// ---- JSONL round trip ----

std::string field(const std::vector<std::pair<std::string, std::string>>& fields,
                  const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return "<missing>";
}

TEST(Journal, JsonlRoundTripsThroughParser) {
  EventJournal journal;
  journal.record(MigrationCompleted{sim::seconds(42), 0, 2, 3, 1, sim::seconds(20)});
  journal.record(ScheduleDecision{sim::seconds(1), 0, "bass-auto", 5, net::mbps(12),
                                  37.5, true});
  const std::string jsonl = journal.to_jsonl();

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = jsonl.find('\n'); nl != std::string::npos;
       start = nl + 1, nl = jsonl.find('\n', start)) {
    lines.push_back(jsonl.substr(start, nl - start));
  }
  ASSERT_EQ(lines.size(), 2u);

  std::vector<std::pair<std::string, std::string>> fields;
  ASSERT_TRUE(parse_journal_line(lines[0], fields));
  EXPECT_EQ(field(fields, "type"), "\"migration_completed\"");
  EXPECT_EQ(field(fields, "t_us"), std::to_string(sim::seconds(42)));
  EXPECT_EQ(field(fields, "downtime_us"), std::to_string(sim::seconds(20)));
  EXPECT_EQ(field(fields, "from"), "3");
  EXPECT_EQ(field(fields, "to"), "1");

  ASSERT_TRUE(parse_journal_line(lines[1], fields));
  EXPECT_EQ(field(fields, "type"), "\"schedule_decision\"");
  EXPECT_EQ(field(fields, "scheduler"), "\"bass-auto\"");
  EXPECT_EQ(field(fields, "success"), "true");

  EXPECT_FALSE(parse_journal_line("not json", fields));
}

TEST(Journal, TraceExportCarriesTracksAndSlices) {
  EventJournal journal;
  journal.record(MigrationStarted{sim::seconds(10), 0, 1, 2, 0});
  journal.record(MigrationCompleted{sim::seconds(30), 0, 1, 2, 0, sim::seconds(20)});
  const std::string trace = journal.to_trace();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"controller\""), std::string::npos);
  // The completed migration renders as a duration slice covering the outage.
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":" + std::to_string(sim::seconds(20))),
            std::string::npos);
}

TEST(Journal, TraceExportEscapesControlCharacters) {
  EventJournal journal;
  journal.record(ScheduleDecision{sim::seconds(1), 0, "a\nb\t\x01", 5, net::mbps(12),
                                  37.5, true});
  const std::string trace = journal.to_trace();
  // Newlines between entries are fine; inside a string literal a raw
  // control byte makes the document invalid JSON.
  bool in_string = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const char c = trace[i];
    if (in_string && c == '\\') {
      ++i;  // skip the escaped character
    } else if (c == '"') {
      in_string = !in_string;
    } else {
      EXPECT_FALSE(in_string && static_cast<unsigned char>(c) < 0x20)
          << "raw control byte " << static_cast<int>(c) << " at offset " << i;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_NE(trace.find("schedule a\\nb\\t\\u0001"), std::string::npos);
}

// ---- Metrics registry ----

TEST(Metrics, HandlesAreStableAndLabelled) {
  MetricsRegistry reg;
  Counter& a = reg.counter("probes", {{"kind", "full"}});
  Counter& b = reg.counter("probes", {{"kind", "headroom"}});
  Counter& a2 = reg.counter("probes", {{"kind", "full"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  a2.inc();
  EXPECT_EQ(a.value(), 4);
  EXPECT_EQ(b.value(), 0);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(Metrics, EmptyHistogramExtremesAreNaN) {
  LogHistogram lh;
  EXPECT_TRUE(lh.empty());
  EXPECT_TRUE(std::isnan(lh.min()));
  EXPECT_TRUE(std::isnan(lh.max()));
  // One observation resolves both to the sample, even a literal 0.0 — the
  // ambiguity the NaN sentinel exists to remove.
  lh.observe(0.0);
  EXPECT_DOUBLE_EQ(lh.min(), 0.0);
  EXPECT_DOUBLE_EQ(lh.max(), 0.0);
}

TEST(Metrics, LogHistogramMergeEmptySideIsIdentityBothOrders) {
  LogHistogram a;
  a.observe(5.0);
  a.observe(50.0);
  LogHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 50.0);

  LogHistogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.min(), 5.0);
  EXPECT_DOUBLE_EQ(b.max(), 50.0);
  EXPECT_DOUBLE_EQ(b.sum(), a.sum());

  LogHistogram c, d;
  c.merge(d);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(std::isnan(c.min()));
  EXPECT_TRUE(std::isnan(c.max()));
}

TEST(Metrics, LogHistogramBucketMath) {
  // Below one octave of sub-buckets values map exactly.
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_upper(LogHistogram::bucket_index(v)), v);
  }
  // Everywhere: v is never above its bucket's representative, and the
  // representative is within the 1/16 relative-error budget.
  for (std::uint64_t v : {16ull, 17ull, 31ull, 32ull, 63ull, 100ull, 1000ull,
                          123456789ull, (1ull << 62) + 12345}) {
    const std::uint64_t upper =
        LogHistogram::bucket_upper(LogHistogram::bucket_index(v));
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / LogHistogram::kSubBuckets);
  }
}

TEST(Metrics, LogHistogramPercentilesAndMerge) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Relative quantile error is bounded by the sub-bucket width (1/16).
  EXPECT_NEAR(h.percentile(0.50), 500.0, 500.0 / 16 + 1);
  EXPECT_NEAR(h.percentile(0.90), 900.0, 900.0 / 16 + 1);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 990.0 / 16 + 1);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);

  // Merge folds counts, sum, and extremes — the sweep-worker fold.
  LogHistogram other;
  other.observe(1e9);
  other.merge(h);
  EXPECT_EQ(other.count(), 1001);
  EXPECT_DOUBLE_EQ(other.min(), 1.0);
  EXPECT_DOUBLE_EQ(other.max(), 1e9);
  EXPECT_DOUBLE_EQ(other.sum(), h.sum() + 1e9);
  EXPECT_NEAR(other.percentile(0.50), 500.0, 500.0 / 16 + 1);
  EXPECT_DOUBLE_EQ(other.percentile(1.0), 1e9);

  // Sparse iteration visits ascending uppers with the right total.
  std::int64_t total = 0;
  std::uint64_t prev = 0;
  other.for_each_nonzero([&](std::uint64_t upper, std::int64_t n) {
    EXPECT_GE(upper, prev);
    prev = upper;
    total += n;
  });
  EXPECT_EQ(total, other.count());
}

TEST(Metrics, WeightedObserveEqualsRepeatedObserve) {
  // observe(v, w) is w observations of v: a sampled timer's estimate.
  LogHistogram weighted;
  LogHistogram repeated;
  const std::vector<std::pair<double, std::int64_t>> samples = {
      {3.0, 64}, {250.0, 64}, {0.4, 1}, {17.5, 8}};
  for (const auto& [value, weight] : samples) {
    weighted.observe(value, weight);
    for (std::int64_t i = 0; i < weight; ++i) repeated.observe(value);
  }
  EXPECT_EQ(weighted.count(), 64 + 64 + 1 + 8);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_DOUBLE_EQ(weighted.sum(), 3.0 * 64 + 250.0 * 64 + 0.4 + 17.5 * 8);
  EXPECT_DOUBLE_EQ(weighted.sum(), repeated.sum());
  EXPECT_DOUBLE_EQ(weighted.min(), 0.4);
  EXPECT_DOUBLE_EQ(weighted.max(), 250.0);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(weighted.percentile(q), repeated.percentile(q)) << "q " << q;
  }
  std::vector<std::pair<std::uint64_t, std::int64_t>> a, b;
  weighted.for_each_nonzero([&](std::uint64_t u, std::int64_t n) { a.emplace_back(u, n); });
  repeated.for_each_nonzero([&](std::uint64_t u, std::int64_t n) { b.emplace_back(u, n); });
  EXPECT_EQ(a, b);
}

TEST(Metrics, PrometheusExportCoversEveryKind) {
  MetricsRegistry reg;
  reg.counter("events.probe_completed", {{"full", "true"}}).add(3);
  reg.gauge("cluster.cpu_free").set(1.5);
  reg.log_histogram("core.downtime_ms").observe(5.0);
  reg.log_timer_us("orchestrator.decision_us").observe(42.0);
  const std::string prom = reg.to_prometheus(sim::seconds(1));
  EXPECT_NE(prom.find("# TYPE bass_events_probe_completed counter"),
            std::string::npos);
  EXPECT_NE(prom.find("bass_events_probe_completed{full=\"true\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("bass_cluster_cpu_free 1.5"), std::string::npos);
  // Every histogram exports as a summary: quantiles, _sum and _count.
  EXPECT_NE(prom.find("# TYPE bass_core_downtime_ms summary"), std::string::npos);
  EXPECT_NE(prom.find("bass_core_downtime_ms{quantile=\"0.5\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find("bass_core_downtime_ms_sum 5"), std::string::npos);
  EXPECT_NE(prom.find("bass_core_downtime_ms_count 1"), std::string::npos);
  EXPECT_EQ(prom.find("_bucket"), std::string::npos);
  EXPECT_NE(prom.find("bass_orchestrator_decision_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("bass_orchestrator_decision_us_count 1"),
            std::string::npos);
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("events.weird", {{"path", "a\"b\\c\nd"}}).add(1);
  const std::string prom = reg.to_prometheus(0);
  // Prometheus text format: backslash, double-quote, and newline in label
  // values must come out as \\, \", and \n — a raw newline splits the
  // sample line and corrupts the whole exposition.
  EXPECT_NE(prom.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_EQ(prom.find("c\nd"), std::string::npos);
}

TEST(Metrics, PrometheusSanitizesLabelNames) {
  MetricsRegistry reg;
  reg.counter("events.tagged", {{"app-id", "x"}, {"9lives", "y"}}).add(2);
  const std::string prom = reg.to_prometheus(0);
  // Label names must match [a-zA-Z_][a-zA-Z0-9_]*: dashes become
  // underscores and a leading digit gets an underscore prefix.
  EXPECT_NE(prom.find("app_id=\"x\""), std::string::npos);
  EXPECT_NE(prom.find("_9lives=\"y\""), std::string::npos);
  EXPECT_EQ(prom.find("app-id"), std::string::npos);
}

TEST(Metrics, JsonEscapesControlCharactersInLabels) {
  MetricsRegistry reg;
  reg.counter("events.ctl", {{"k", "a\tb\x01"}}).add(1);
  const std::string path = "/tmp/bass_metrics_escape_test.json";
  ASSERT_TRUE(reg.write_json(path, 0));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(json.find("a\\tb\\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(Metrics, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry reg;
  Counter& a = reg.counter("zone.rounds", {{"zone", "0"}, {"kind", "full"}});
  Counter& b = reg.counter("zone.rounds", {{"kind", "full"}, {"zone", "0"}});
  // Same label set in a different order is the same instrument — callers
  // fold registries from different sources and must not double-register.
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.instrument_count(), 1u);
}

TEST(Metrics, ForEachCounterAndGaugeVisitEverything) {
  MetricsRegistry reg;
  reg.counter("c.one").add(1);
  reg.counter("c.two", {{"zone", "3"}}).add(2);
  reg.gauge("g.one").set(1.5);
  int counters = 0;
  std::int64_t sum = 0;
  reg.for_each_counter(
      [&](const std::string&, const Labels&, const Counter& c) {
        ++counters;
        sum += c.value();
      });
  int gauges = 0;
  reg.for_each_gauge([&](const std::string& name, const Labels&,
                         const Gauge& g) {
    ++gauges;
    EXPECT_EQ(name, "g.one");
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
  });
  EXPECT_EQ(counters, 2);
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(gauges, 1);
}

TEST(Metrics, JsonSnapshotListsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("net.reallocations").add(7);
  reg.gauge("cluster.cpu_free").set(1.5);
  reg.log_histogram("core.downtime_ms").observe(5.0);
  reg.log_timer_us("sched.place_us").observe(42.0);
  const std::string json = reg.to_json(sim::seconds(9));
  EXPECT_NE(json.find("\"t_us\":" + std::to_string(sim::seconds(9))),
            std::string::npos);
  EXPECT_NE(json.find("\"net.reallocations\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"cluster.cpu_free\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.place_us\""), std::string::npos);
  // Every histogram carries its log2 kind, pre-computed percentiles and
  // sparse [upper, count] buckets; none has a fixed boundary ladder.
  EXPECT_NE(json.find("\"name\":\"core.downtime_ms\",\"labels\":{},"
                      "\"kind\":\"log2\",\"count\":1,\"sum\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[5,1]]"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.find("\"boundaries\""), std::string::npos);
}

// ---- Recorder ----

TEST(Recorder, CountsEventsPerType) {
  Recorder rec;
  rec.record(HeadroomViolation{sim::seconds(1), 0, 0});
  rec.record(HeadroomViolation{sim::seconds(2), 0, 0});
  rec.record(ControllerRound{sim::seconds(3), 0, 1, 1});
  EXPECT_EQ(rec.journal().size(), 3u);
  EXPECT_EQ(rec.metrics().counter("events.headroom_violation").value(), 2);
  EXPECT_EQ(rec.metrics().counter("events.controller_round").value(), 1);
}

TEST(Recorder, DisabledRecorderDropsAtEmitSite) {
  Recorder rec({.journal_capacity = 16, .enabled = false});
  // The per-type event counters exist from construction; nothing else may
  // appear while disabled.
  const auto instruments = rec.metrics().instrument_count();
  rec.record(HeadroomViolation{sim::seconds(1), 0, 0});
  EXPECT_TRUE(rec.journal().empty());
  EXPECT_EQ(rec.metrics().counter("events.headroom_violation").value(), 0);
  {
    ScopedTimer t(&rec, "noop_us");
  }
  EXPECT_EQ(rec.metrics().instrument_count(), instruments);
}

TEST(Recorder, ScopedTimerFeedsTimerHistogram) {
  Recorder rec;
  {
    ScopedTimer t(&rec, "solve_us");
  }
  {
    ScopedTimer null_ok(nullptr, "ignored");  // must not crash
  }
  EXPECT_EQ(rec.metrics().log_timer_us("solve_us").count(), 1);
}

TEST(Recorder, GlobalRecorderDrivesKernelScopes) {
  Recorder rec;
  set_global_recorder(&rec);
  {
    BASS_OBS_SCOPE("kernel.test_us");
  }
  set_global_recorder(nullptr);
  {
    BASS_OBS_SCOPE("kernel.test_us");  // detached: no observation
  }
  EXPECT_EQ(rec.metrics().log_timer_us("kernel.test_us").count(), 1);
}

// ---- End-to-end: journal vs. orchestrator migration history ----

struct Rig {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;
  Recorder recorder;

  Rig() {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(50));
    topo.add_link(1, 2, net::mbps(50));
    topo.add_link(0, 2, net::mbps(50));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    for (int i = 0; i < 3; ++i) cluster.add_node(i, {12000, 16384, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);
    network->set_recorder(&recorder);
    orch->set_recorder(&recorder);
  }
};

app::AppGraph tiny_app() {
  app::AppGraph g("tiny");
  g.add_component({.name = "a", .cpu_milli = 1000, .memory_mb = 128});
  g.add_component({.name = "b", .cpu_milli = 1000, .memory_mb = 128});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(8)});
  return g;
}

std::vector<MigrationCompleted> completed_events(const EventJournal& journal) {
  std::vector<MigrationCompleted> out;
  journal.for_each([&](const Event& e) {
    if (const auto* m = std::get_if<MigrationCompleted>(&e)) out.push_back(*m);
  });
  return out;
}

TEST(EndToEnd, JournalMatchesMigrationHistoryExactly) {
  Rig rig;
  const auto id = rig.orch->deploy(tiny_app(), core::SchedulerKind::kBassBfs).take();

  // Mix migration flavors: manual moves, an in-place restart, and a node
  // failure with cold recovery — every path must journal its completion.
  const net::NodeId from = rig.orch->node_of(id, 1);
  const net::NodeId target = from == 2 ? 0 : 2;
  EXPECT_TRUE(rig.orch->migrate(id, 1, target));
  rig.sim.run_all();
  rig.orch->restart_component(id, 0);
  rig.sim.run_all();
  rig.orch->fail_node(rig.orch->node_of(id, 1));
  rig.sim.run_all();

  const auto& history = rig.orch->migration_events();
  const auto journalled = completed_events(rig.recorder.journal());
  ASSERT_GE(history.size(), 3u);
  ASSERT_EQ(journalled.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(journalled[i].at, history[i].at) << "event " << i;
    EXPECT_EQ(journalled[i].deployment, history[i].deployment) << "event " << i;
    EXPECT_EQ(journalled[i].component, history[i].component) << "event " << i;
    EXPECT_EQ(journalled[i].from, history[i].from) << "event " << i;
    EXPECT_EQ(journalled[i].to, history[i].to) << "event " << i;
    // Downtime spans the whole outage: never negative, never past `at`.
    EXPECT_GE(journalled[i].downtime, 0);
    EXPECT_LE(journalled[i].downtime, journalled[i].at);
  }
  EXPECT_EQ(rig.recorder.metrics().counter("events.migration_completed").value(),
            static_cast<std::int64_t>(history.size()));
  // Every start has a completion (no migration left dangling).
  std::size_t started = 0;
  rig.recorder.journal().for_each([&](const Event& e) {
    if (std::holds_alternative<MigrationStarted>(e)) ++started;
  });
  EXPECT_EQ(started, journalled.size());
}

TEST(EndToEnd, ScheduleDecisionJournalsPlacementLatency) {
  Rig rig;
  rig.orch->deploy(tiny_app(), core::SchedulerKind::kBassBfs).take();
  ScheduleDecision decision;
  bool found = false;
  rig.recorder.journal().for_each([&](const Event& e) {
    if (const auto* d = std::get_if<ScheduleDecision>(&e)) {
      decision = *d;
      found = true;
    }
  });
  ASSERT_TRUE(found);
  EXPECT_TRUE(decision.success);
  EXPECT_EQ(decision.scheduler, std::string("bass-bfs"));
  EXPECT_EQ(decision.components, 2);
  EXPECT_GT(decision.place_us, 0.0);
  EXPECT_EQ(rig.recorder.metrics().log_timer_us("sched.place_us").count(), 1);
}

// ---- Causal spans ----

TEST(Spans, MigrationSpansPairStartAndCompletion) {
  Rig rig;
  const auto id = rig.orch->deploy(tiny_app(), core::SchedulerKind::kBassBfs).take();
  const net::NodeId from = rig.orch->node_of(id, 1);
  EXPECT_TRUE(rig.orch->migrate(id, 1, from == 2 ? 0 : 2));
  rig.sim.run_all();
  rig.orch->fail_node(rig.orch->node_of(id, 0));
  rig.sim.run_all();

  // Every migration gets its own span, shared by exactly its two endpoint
  // events — `journal query --span` can stitch any move from its id alone.
  std::map<SpanId, int> started, completed;
  rig.recorder.journal().for_each([&](const Event& e) {
    if (const auto* s = std::get_if<MigrationStarted>(&e)) {
      EXPECT_NE(s->span, kNoSpan);
      ++started[s->span];
    } else if (const auto* c = std::get_if<MigrationCompleted>(&e)) {
      EXPECT_NE(c->span, kNoSpan);
      ++completed[c->span];
    }
  });
  ASSERT_GE(started.size(), 2u);
  EXPECT_EQ(started.size(), completed.size());
  for (const auto& [span, n] : started) {
    EXPECT_EQ(n, 1) << "span " << span;
    EXPECT_EQ(completed[span], 1) << "span " << span;
  }
}

TEST(Spans, SameSeedJournalsAreByteIdenticalAcrossJobCounts) {
  // Span ids come from a deterministic per-recorder counter, so the JSONL —
  // spans included — must not change with scheduling or parallelism.
  constexpr const char* kIni = R"(
[node alpha]
cpu = 4000
[node beta]
cpu = 4000
[link alpha beta]
capacity_mbps = 20
[component producer]
cpu = 500
pinned = alpha
[component consumer]
cpu = 500
pinned = beta
[edge producer consumer]
bandwidth_mbps = 4
[monitor]
probe_interval_s = 10
[chaos]
seed = 7
crash_mtbf_s = 20
mttr_s = 10
flap_mtbf_s = 15
flap_down_s = 5
[run]
duration_s = 60
)";
  auto ini = util::parse_ini(kIni);
  ASSERT_TRUE(ini.ok()) << ini.error();
  const std::vector<exec::RunSpec> specs{{"a", {}}, {"b", {}}, {"c", {}}};
  const auto serial = exec::run_sweep(ini.value(), specs, 1);
  const auto parallel = exec::run_sweep(ini.value(), specs, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].error.empty()) << serial[i].error;
    EXPECT_FALSE(serial[i].journal.empty());
    EXPECT_EQ(serial[i].journal, parallel[i].journal) << "run " << i;
    EXPECT_NE(serial[i].journal.find("\"span\":"), std::string::npos);
  }
}

TEST(Spans, FaultSpanParentsFailoverMigrations) {
  constexpr const char* kIni = R"(
[node alpha]
cpu = 4000
[node beta]
cpu = 4000
[link alpha beta]
capacity_mbps = 20
[component producer]
cpu = 500
pinned = alpha
[component consumer]
cpu = 500
pinned = beta
[edge producer consumer]
bandwidth_mbps = 4
[fault node_crash beta]
at_s = 10
duration_s = 20
[run]
duration_s = 60
)";
  auto ini = util::parse_ini(kIni);
  ASSERT_TRUE(ini.ok()) << ini.error();
  auto s = scenario::Scenario::from_ini(ini.value());
  ASSERT_TRUE(s.ok()) << s.error();
  auto& scene = *s.value();
  scene.run();

  SpanId fault_span = kNoSpan;
  scene.recorder().journal().for_each([&](const Event& e) {
    if (const auto* f = std::get_if<FaultInjected>(&e)) {
      if (std::string(f->kind) == "node_crash") fault_span = f->span;
    }
  });
  ASSERT_NE(fault_span, kNoSpan);
  // The failover migration of the component hosted on the downed node must
  // carry the fault's span as its parent — the causal chain the report and
  // `journal query --span` walk.
  bool chained = false;
  scene.recorder().journal().for_each([&](const Event& e) {
    if (const auto* m = std::get_if<MigrationStarted>(&e)) {
      if (m->parent == fault_span) chained = true;
    }
  });
  EXPECT_TRUE(chained);
}

// ---- Perfetto trace round trip ----

TEST(Journal, TraceRoundTripPreservesNestingAndCounts) {
  EventJournal journal;
  ControllerRound round{sim::seconds(10), 0, 1, 1};
  round.span = 7;
  ReallocationSolved realloc_ev{sim::seconds(10), 3, 2, false};
  realloc_ev.span = 8;
  realloc_ev.parent = 7;
  MigrationStarted started{sim::seconds(10), 0, 1, 0, 1};
  started.span = 9;
  started.parent = 7;
  MigrationCompleted done{sim::seconds(30), 0, 1, 0, 1, sim::seconds(20)};
  done.span = 9;
  done.parent = 7;
  journal.record(realloc_ev);
  journal.record(started);
  journal.record(done);
  journal.record(round);  // parents may be journalled after their children

  const std::string trace = journal.to_trace();

  // Parse the entries back out: one line per event, identified by "cat".
  std::size_t entries = 0;
  std::string round_line;
  std::size_t start = 0;
  for (std::size_t nl = trace.find('\n'); nl != std::string::npos;
       start = nl + 1, nl = trace.find('\n', start)) {
    const std::string line = trace.substr(start, nl - start);
    if (line.find("\"cat\":") == std::string::npos) continue;
    ++entries;
    if (line.find("\"cat\":\"controller_round\"") != std::string::npos) {
      round_line = line;
    }
    // Every entry's args carry the full journal record with span ids.
    EXPECT_NE(line.find("\"span\":"), std::string::npos) << line;
  }
  EXPECT_EQ(entries, journal.size());

  // The round caused work ending at t=30s, so its instant is promoted to a
  // duration slice spanning the whole subtree — descendants nest inside.
  ASSERT_FALSE(round_line.empty());
  EXPECT_NE(round_line.find("\"ph\":\"X\""), std::string::npos) << round_line;
  EXPECT_NE(round_line.find(util::str_format(
                "\"dur\":%lld", static_cast<long long>(sim::seconds(20)))),
            std::string::npos)
      << round_line;
  EXPECT_NE(round_line.find("\"parent\":0"), std::string::npos) << round_line;
}

// ---- Flight recorder ----

TEST(Flight, DumpKeepsLastEventsWithHeaderAndMetrics) {
  Recorder rec;
  for (int i = 0; i < 10; ++i) {
    rec.record(HeadroomViolation{sim::seconds(i), i, i});
  }
  FlightRecorder flight(rec, {.last_events = 3,
                              .directory = ::testing::TempDir(),
                              .tag = "unit"});
  ASSERT_TRUE(flight.dump("test_reason"));
  EXPECT_TRUE(flight.dumped());

  std::ifstream in(flight.path());
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // header + 3 kept events + metrics trailer.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("\"type\":\"flight_header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"why\":\"test_reason\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"build\":{"), std::string::npos);
  std::vector<std::pair<std::string, std::string>> fields;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(parse_journal_line(lines[i], fields)) << lines[i];
    // The kept events are the LAST three (links 7..9).
    EXPECT_EQ(field(fields, "link"), std::to_string(6 + i));
  }
  EXPECT_NE(lines[4].find("\"type\":\"flight_metrics\""), std::string::npos);
  std::remove(flight.path().c_str());
}

TEST(Flight, InvariantViolationTriggersOneDump) {
  Rig rig;
  rig.orch->deploy(tiny_app(), core::SchedulerKind::kBassBfs).take();
  FlightRecorder flight(rig.recorder, {.last_events = 16,
                                       .directory = ::testing::TempDir(),
                                       .tag = "invariant_unit"});
  std::remove(flight.path().c_str());
  fault::Invariants inv(*rig.orch, &rig.recorder);
  int hook_calls = 0;
  inv.set_violation_hook([&](const char* name, const std::string&) {
    ++hook_calls;
    flight.dump_once(name);
  });
  EXPECT_EQ(inv.check_now(), 0);
  EXPECT_EQ(hook_calls, 0);

  // Corrupt resource accounting behind the orchestrator's back: a phantom
  // allocation the deployment bookkeeping can never explain.
  ASSERT_TRUE(rig.cluster.allocate(0, 500, 64));
  EXPECT_GT(inv.check_now(), 0);
  EXPECT_GT(hook_calls, 0);
  EXPECT_TRUE(flight.dumped());

  // The dump is parseable and carries the violation's journal record.
  std::ifstream in(flight.path());
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"type\":\"flight_header\""), std::string::npos);
  EXPECT_NE(contents.find("\"type\":\"invariant_violation\""), std::string::npos);
  EXPECT_NE(contents.find("\"type\":\"flight_metrics\""), std::string::npos);

  // dump_once is once: further violations must not rewrite the file.
  std::remove(flight.path().c_str());
  EXPECT_GT(inv.check_now(), 0);  // still violated
  EXPECT_FALSE(std::ifstream(flight.path()).good());
}

// ---- Scenario wiring ----

constexpr const char* kScenarioIni = R"(
[node alpha]
cpu = 4000
[node beta]
cpu = 4000
[link alpha beta]
capacity_mbps = 20
[component producer]
cpu = 500
pinned = alpha
[component consumer]
cpu = 500
[edge producer consumer]
bandwidth_mbps = 4
[monitor]
probe_interval_s = 10
[obs]
journal_capacity = 4096
[workload]
type = requests
rps = 5
client = alpha
[run]
duration_s = 60
)";

TEST(Scenario, RecorderCoversConstructionAndRun) {
  auto ini = util::parse_ini(kScenarioIni);
  ASSERT_TRUE(ini.ok()) << ini.error();
  auto s = scenario::Scenario::from_ini(ini.value());
  ASSERT_TRUE(s.ok()) << s.error();
  auto& scene = *s.value();
  EXPECT_EQ(scene.recorder().journal().capacity(), 4096u);
  // The initial probe round and the deploy happen during construction and
  // must already be journalled.
  bool probed = false, scheduled = false;
  scene.recorder().journal().for_each([&](const Event& e) {
    probed = probed || std::holds_alternative<ProbeCompleted>(e);
    scheduled = scheduled || std::holds_alternative<ScheduleDecision>(e);
  });
  EXPECT_TRUE(probed);
  EXPECT_TRUE(scheduled);

  scene.run();
  MetricsRegistry& metrics = scene.recorder().metrics();
  EXPECT_GT(metrics.counter("monitor.probe_bytes").value(), 0);
  EXPECT_GT(metrics.counter("net.reallocations").value(), 0);

  // Export + reparse: every journal line must satisfy the flat-JSON schema.
  const std::string path = ::testing::TempDir() + "obs_test_journal.jsonl";
  ASSERT_TRUE(scene.recorder().journal().write_jsonl(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string line;
  std::vector<std::pair<std::string, std::string>> fields;
  char buf[4096];
  std::size_t lines = 0;
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    line.assign(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    ASSERT_TRUE(parse_journal_line(line, fields)) << line;
    EXPECT_NE(field(fields, "t_us"), "<missing>");
    EXPECT_NE(field(fields, "type"), "<missing>");
    EXPECT_NE(field(fields, "span"), "<missing>");
    EXPECT_NE(field(fields, "parent"), "<missing>");
    ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, scene.recorder().journal().size());

  // Disabling the scenario recorder is honored at the emit sites.
  const auto count_before = scene.recorder().journal().size();
  scene.recorder().set_enabled(false);
  scene.network().set_link_capacity(0, net::mbps(10));
  EXPECT_EQ(scene.recorder().journal().size(), count_before);
}

}  // namespace
}  // namespace bass::obs

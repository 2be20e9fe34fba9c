// perfbench runner: runs ONE repetition of one benchmark workload from a
// generated input file, on one thread, and prints its raw results as one
// JSON object on the last line of stdout. run.py generates the inputs from
// the workload seed, repeats this runner in fresh processes and combines
// the repetitions (perfbench/README.md defines every metric).
//
// Usage:
//   perfbench_runner --kind city|mesh --input FILE [--trace-out FILE]
//                    [--break-identity]
//
// --trace-out makes this the traced run: a span around every runner call
// into a layer (name, start, end, parent, round id, alloc-probe delta), the
// program's own timers read once per round, and the spans written as
// Chrome trace-event JSON at exit. Layers are measured from outside only:
// nothing here reaches into src/ beyond public functions and the timers and
// counters the program already keeps.
//
// --break-identity adds one to a conserved count before the conservation
// check, so the self-test can prove the check fails closed.
//
// Exit codes: 0 ok, 2 usage/input error, 3 correctness check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_probe.h"  // global new/delete counters (one TU per binary)
#include "app/catalog.h"
#include "cluster/cluster.h"
#include "core/orchestrator.h"
#include "fault/invariants.h"
#include "monitor/net_monitor.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sim/simulation.h"
#include "trace/citylab.h"
#include "trace/player.h"
#include "util/ini.h"
#include "util/logging.h"
#include "workload/request_engine.h"
#include "zone/sharded.h"

namespace bass::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Spans ----
//
// Storage is reserved up front and a full buffer drops spans instead of
// growing, so recording inside the round loop never allocates and the
// traced run's allocation counts equal the untraced run's.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int round = -1;  // shared by every span of one round; -1 outside rounds
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity)
      : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(capacity);
  }

  bool enabled() const { return enabled_; }

  int open(const char* name, int parent = -1, int round = -1) {
    if (!enabled_ || spans_.size() == spans_.capacity()) return -1;
    const auto snap = testing::take_alloc_snapshot();
    Span s;
    s.name = name;
    s.parent = parent;
    s.round = round;
    s.allocs = snap.allocations;
    s.bytes = snap.bytes;
    s.start_us = now_us();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    const auto snap = testing::take_alloc_snapshot();
    s.allocs = snap.allocations - s.allocs;
    s.bytes = snap.bytes - s.bytes;
  }

  const std::vector<Span>& spans() const { return spans_; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Program timers ----
//
// The layers' own timers (obs registry, µs log histograms) and the
// counters the exclusive-time split needs. Nesting, outermost first:
//   sched.place_us            ⊃ sched.sequential_pack_us + sched.path_pack_us
//   orchestrator.decision_us  ⊃ controller.select_candidates_us
//   net.alloc_pass_us         ⊃ net.maxmin.solve_us
// The benchmark subtracts each inner timer from its parent. Allocator
// passes that a controller evaluation triggers (a migration's state
// transfer, a downed component's streams) run inside decision_us and are
// also counted by alloc_pass_us; from outside they cannot be told apart,
// so that overlap is counted in both layers (README, "Nesting").
struct Timers {
  obs::LogHistogram* place = nullptr;
  obs::LogHistogram* seq_pack = nullptr;
  obs::LogHistogram* path_pack = nullptr;
  obs::LogHistogram* decision = nullptr;
  obs::LogHistogram* select = nullptr;
  obs::LogHistogram* alloc_pass = nullptr;
  obs::LogHistogram* solve = nullptr;
  obs::LogHistogram* flush = nullptr;
  obs::Counter* probes_full = nullptr;
  obs::Counter* probes_headroom = nullptr;
  obs::Counter* probe_bytes = nullptr;
  obs::Counter* headroom_violations = nullptr;
};

// Resolves (get-or-create) every instrument once. Both the traced and the
// untraced run do this, between set-up and the first round, so lazily
// created timers cost the same allocations in either run.
Timers resolve_timers(obs::MetricsRegistry& m) {
  Timers t;
  t.place = &m.log_timer_us("sched.place_us");
  t.seq_pack = &m.log_timer_us("sched.sequential_pack_us");
  t.path_pack = &m.log_timer_us("sched.path_pack_us");
  t.decision = &m.log_timer_us("orchestrator.decision_us");
  t.select = &m.log_timer_us("controller.select_candidates_us");
  t.alloc_pass = &m.log_timer_us("net.alloc_pass_us");
  t.solve = &m.log_timer_us("net.maxmin.solve_us");
  t.flush = &m.log_timer_us("obs.journal_flush_us");
  t.probes_full = &m.counter("monitor.probes", {{"kind", "full"}});
  t.probes_headroom = &m.counter("monitor.probes", {{"kind", "headroom"}});
  t.probe_bytes = &m.counter("monitor.probe_bytes");
  t.headroom_violations = &m.counter("monitor.headroom_violations");
  return t;
}

// Cumulative timer sums (µs) across one or more registries.
struct TimerSums {
  double place = 0.0;
  double pack = 0.0;
  double decision = 0.0;
  double select = 0.0;
  double alloc_pass = 0.0;
  double solve = 0.0;
  double flush = 0.0;
  std::int64_t decisions = 0;

  void add(const Timers& t) {
    place += t.place->sum();
    pack += t.seq_pack->sum() + t.path_pack->sum();
    decision += t.decision->sum();
    select += t.select->sum();
    alloc_pass += t.alloc_pass->sum();
    solve += t.solve->sum();
    flush += t.flush->sum();
    decisions += t.place->count();
  }
};

TimerSums sum_timers(const std::vector<Timers>& timers) {
  TimerSums s;
  for (const Timers& t : timers) s.add(t);
  return s;
}

// One round's exclusive layer times (µs). Together with `other` they add
// up to the round span exactly: other is the round minus the rest (event
// engine, traffic/request/serving engines, zone-pass and reconcile
// bookkeeping).
struct LayerRound {
  double round = 0.0;
  double tick = 0.0;
  double advance = 0.0;    // inclusive zone-pass wall (informational)
  double reconcile = 0.0;  // inclusive reconcile wall (informational)
  double place = 0.0;
  double pack = 0.0;
  double decision = 0.0;
  double select = 0.0;
  double alloc_pass = 0.0;
  double solve = 0.0;
  double other = 0.0;
};

LayerRound split_round(double round_us, const TimerSums& a, const TimerSums& b,
                       double tick_us, double advance_us, double reconcile_us) {
  LayerRound l;
  l.round = round_us;
  l.tick = tick_us;
  l.advance = advance_us;
  l.reconcile = reconcile_us;
  l.pack = b.pack - a.pack;
  l.place = (b.place - a.place) - l.pack;
  l.select = b.select - a.select;
  l.decision = (b.decision - a.decision) - l.select;
  l.solve = b.solve - a.solve;
  l.alloc_pass = (b.alloc_pass - a.alloc_pass) - l.solve;
  l.other = round_us - (l.tick + l.pack + l.place + l.select + l.decision +
                        l.solve + l.alloc_pass);
  return l;
}

// ---- Output helpers ----

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Nearest-rank percentile over a copy of the samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Flat JSON object writer: keys in insertion order, numbers with full
// precision.
class JsonObject {
 public:
  void num(const char* key, double value) {
    sep();
    out_ += '"';
    out_ += key;
    char buf[64];
    std::snprintf(buf, sizeof buf, "\":%.17g", value);
    out_ += buf;
  }
  void raw(const char* key, const std::string& value) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += value;
  }
  void str(const char* key, const std::string& value) {
    raw(key, "\"" + value + "\"");
  }
  void nums(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    char buf[32];
    for (const double v : values) {
      std::snprintf(buf, sizeof buf, "%s%.17g", list.size() > 1 ? "," : "", v);
      list += buf;
    }
    raw(key, list + "]");
  }
  std::string done() const { return "{" + out_ + "}"; }

 private:
  void sep() {
    if (!out_.empty()) out_ += ',';
  }
  std::string out_;
};

// Chrome trace-event JSON, the format obs::EventJournal::to_trace() writes
// for `bassctl run --trace`: complete ("X") events for spans, counter ("C")
// events for the per-round layer split.
bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const std::vector<LayerRound>& layers,
                        const std::vector<double>& round_start_us) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"traceEvents\":[\n    {\"name\":\"process_name\",\"ph\":\"M\","
               "\"pid\":1,\"args\":{\"name\":\"perfbench\"}}");
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 ",\n    {\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                 "\"id\":%zu,\"parent\":%d,\"round\":%d,\"allocs\":%lld,"
                 "\"alloc_bytes\":%lld}}",
                 s.name, s.start_us, s.end_us - s.start_us, i, s.parent, s.round,
                 static_cast<long long>(s.allocs), static_cast<long long>(s.bytes));
  }
  for (std::size_t r = 0; r < layers.size(); ++r) {
    const LayerRound& l = layers[r];
    std::fprintf(f,
                 ",\n    {\"name\":\"layer_us\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                 "\"args\":{\"zone.tick\":%.3f,\"sched.place\":%.3f,"
                 "\"sched.pack\":%.3f,\"core.decision\":%.3f,"
                 "\"controller.select\":%.3f,\"net.alloc_pass\":%.3f,"
                 "\"net.solve\":%.3f,\"sim.other\":%.3f}}",
                 round_start_us[r], l.tick, l.place, l.pack, l.decision, l.select,
                 l.alloc_pass, l.solve, l.other);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

// Mean per-round layer split as "layers" metrics (ms per round).
void emit_layer_means(JsonObject& layers, const std::vector<LayerRound>& rounds) {
  LayerRound sum;
  for (const LayerRound& l : rounds) {
    sum.round += l.round;
    sum.tick += l.tick;
    sum.advance += l.advance;
    sum.reconcile += l.reconcile;
    sum.place += l.place;
    sum.pack += l.pack;
    sum.decision += l.decision;
    sum.select += l.select;
    sum.alloc_pass += l.alloc_pass;
    sum.solve += l.solve;
    sum.other += l.other;
  }
  const double n = rounds.empty() ? 1.0 : static_cast<double>(rounds.size());
  const double k = 1000.0 * n;  // µs totals -> ms per round
  layers.num("trace.round_ms", sum.round / k);
  layers.num("zone.tick_ms", sum.tick / k);
  layers.num("zone.advance_ms", sum.advance / k);
  layers.num("zone.reconcile_ms", sum.reconcile / k);
  layers.num("sched.place_ms", sum.place / k);
  layers.num("sched.pack_ms", sum.pack / k);
  layers.num("core.decision_ms", sum.decision / k);
  layers.num("controller.select_ms", sum.select / k);
  layers.num("net.alloc_pass_ms", sum.alloc_pass / k);
  layers.num("net.solve_ms", sum.solve / k);
  layers.num("sim.other_ms", sum.other / k);
}

struct AllocTotals {
  std::int64_t reallocations = 0;
  std::int64_t full = 0;
  std::int64_t flows_touched = 0;

  void add(const net::AllocStats& s) {
    reallocations += s.reallocations;
    full += s.full_reallocations;
    flows_touched += s.flows_touched;
  }
};

void emit_alloc_totals(JsonObject& layers, const AllocTotals& a) {
  const double passes = a.reallocations > 0 ? static_cast<double>(a.reallocations) : 1.0;
  layers.num("net.reallocations", static_cast<double>(a.reallocations));
  layers.num("net.flows_touched_per_pass", static_cast<double>(a.flows_touched) / passes);
  layers.num("net.full_pass_share", static_cast<double>(a.full) / passes);
}

void emit_monitor_totals(JsonObject& layers, const std::vector<Timers>& timers) {
  std::int64_t full = 0, headroom = 0, bytes = 0, violations = 0;
  for (const Timers& t : timers) {
    full += t.probes_full->value();
    headroom += t.probes_headroom->value();
    bytes += t.probe_bytes->value();
    violations += t.headroom_violations->value();
  }
  layers.num("monitor.probes_full", static_cast<double>(full));
  layers.num("monitor.probes_headroom", static_cast<double>(headroom));
  layers.num("monitor.probe_bytes", static_cast<double>(bytes));
  layers.num("monitor.headroom_violations", static_cast<double>(violations));
}

// Routing cost, measured apart from the run: a net::Network built on each
// topology the workload routes (every zone world's slice; the whole mesh
// when there is one zone). Runs after the timed run so it neither perturbs
// the journal nor inflates the run's peak RSS.
void emit_routing_build(JsonObject& layers, Tracer& tracer,
                        const std::vector<net::Topology>& topologies) {
  const int span = tracer.open("net.routing_build");
  double ms = 0.0;
  std::int64_t allocs = 0, bytes = 0;
  for (const net::Topology& topo : topologies) {
    sim::Simulation sim;
    const auto snap = testing::take_alloc_snapshot();
    const auto t0 = Clock::now();
    {
      net::Network network(sim, topo);
      const auto t1 = Clock::now();
      ms += ms_between(t0, t1);
      allocs += testing::allocations_since(snap);
      bytes += testing::bytes_since(snap);
    }
  }
  tracer.close(span);
  layers.num("net.routing_build_ms", ms);
  layers.num("net.routing_build_allocs", static_cast<double>(allocs));
  layers.num("net.routing_build_mb", static_cast<double>(bytes) / 1e6);
}

struct Options {
  std::string kind;
  std::string input;
  std::string trace_out;
  bool break_identity = false;
};

// Results common to both workloads.
struct Run {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double teardown_s = 0.0;
  std::vector<double> round_ms;
  std::vector<double> round_start_us;  // traced run only
  std::vector<LayerRound> layers;      // traced run only
  double rounds_wall_s = 0.0;
  double sim_seconds = 0.0;
  double peak_rss_mb = 0.0;
  std::int64_t setup_allocs = 0;
  std::int64_t round_allocs = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool identity_ok = false;
  int violations = 0;
  std::uint64_t digest = 0;
};

// Per-repetition raw results; run.py combines the repetitions of a run
// into the end-to-end metrics (round percentiles, sim_speed, wall_s).
void emit_run(JsonObject& out, const Run& run) {
  const double rounds = static_cast<double>(std::max<std::size_t>(run.round_ms.size(), 1));
  out.num("setup_s", run.setup_s);
  out.num("wall_s", run.wall_s);
  out.num("teardown_s", run.teardown_s);
  out.num("rounds", static_cast<double>(run.round_ms.size()));
  out.nums("round_ms", run.round_ms);
  out.num("sim_seconds", run.sim_seconds);
  out.num("peak_rss_mb", run.peak_rss_mb);
  out.num("allocs_per_round", static_cast<double>(run.round_allocs) / rounds);
  out.num("round_allocs", static_cast<double>(run.round_allocs));
  out.num("setup_allocs", static_cast<double>(run.setup_allocs));
  out.num("attempted", static_cast<double>(run.attempted));
  out.num("failed", static_cast<double>(run.failed));
  out.raw("identity_ok", run.identity_ok ? "true" : "false");
  out.num("violations", run.violations);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(run.digest));
  out.str("journal_digest", digest);
}

// ---- city_dense / city_global ----

// ShardedOrchestrator::from_ini builds the topology inside the call; the
// runner assembles the build itself so topology and zone creation are
// timed apart. [topology]/[serve]/[run] go through the program's own
// parsers; the generated inputs set only the zone count, the monitor and
// invariant switches, and leave every other zone knob at its default.
util::Expected<zone::ShardedBuild> city_build(const util::IniFile& ini,
                                               scenario::TopologySpec spec) {
  zone::ShardedBuild build;
  build.duration = scenario::parse_run_duration(ini);
  build.topology = std::move(spec.topology);
  build.specs = std::move(spec.specs);
  auto serve = scenario::parse_serve_config(ini, build.duration);
  if (!serve.ok()) return util::make_error(serve.error());
  build.serve = serve.take();
  const util::IniSection* z = ini.first_of_kind("zones");
  if (z == nullptr) return util::make_error("input has no [zones] section");
  build.zones.count = static_cast<int>(z->number_or("count", 2));
  const util::IniSection* mon = ini.first_of_kind("monitor");
  build.monitor_enabled = mon == nullptr || mon->flag_or("enabled", true);
  const util::IniSection* inv = ini.first_of_kind("invariants");
  build.invariants_enabled = inv == nullptr || inv->flag_or("enabled", true);
  return build;
}

int run_city(const Options& opt, JsonObject& out, JsonObject& layers, bool& correct) {
  Tracer tracer(!opt.trace_out.empty(), 1 << 12);
  Run run;

  const auto t_begin = Clock::now();
  const auto snap_setup = testing::take_alloc_snapshot();
  const int s_setup = tracer.open("setup");
  auto ini = util::load_ini(opt.input);
  if (!ini.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", ini.error().c_str());
    return 2;
  }
  int sp = tracer.open("topo.city_grid", s_setup);
  auto t0 = Clock::now();
  auto topo = scenario::build_topology(ini.value());
  const double topo_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  if (!topo.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", topo.error().c_str());
    return 2;
  }
  auto build = city_build(ini.value(), topo.take());
  if (!build.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", build.error().c_str());
    return 2;
  }
  sp = tracer.open("zone.create", s_setup);
  auto create_snap = testing::take_alloc_snapshot();
  t0 = Clock::now();
  auto made = zone::ShardedOrchestrator::create(build.take(), /*jobs=*/1);
  const double create_ms = ms_between(t0, Clock::now());
  const std::int64_t create_allocs = testing::allocations_since(create_snap);
  tracer.close(sp);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.error().c_str());
    return 2;
  }
  std::unique_ptr<zone::ShardedOrchestrator> orch = made.take();
  sp = tracer.open("zone.start", s_setup);
  t0 = Clock::now();
  orch->start();
  const double start_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  tracer.close(s_setup);
  run.setup_s = ms_between(t_begin, Clock::now()) / 1000.0;
  run.setup_allocs = testing::allocations_since(snap_setup);

  const int zones = orch->zones();
  std::vector<Timers> timers;
  timers.reserve(static_cast<std::size_t>(zones));
  for (int z = 0; z < zones; ++z) {
    timers.push_back(resolve_timers(orch->zone_recorder(z).metrics()));
  }
  const int rounds_total = orch->rounds_total();
  run.round_ms.reserve(static_cast<std::size_t>(rounds_total));
  if (tracer.enabled()) {
    run.layers.reserve(static_cast<std::size_t>(rounds_total));
    run.round_start_us.reserve(static_cast<std::size_t>(rounds_total));
  }
  const sim::Time sim_start = orch->now();

  const auto snap_rounds = testing::take_alloc_snapshot();
  const auto t_rounds = Clock::now();
  TimerSums before = tracer.enabled() ? sum_timers(timers) : TimerSums{};
  auto walls_before = orch->phase_walls();
  std::int64_t rebuilds_at_start = walls_before.border_rebuilds;
  while (orch->rounds_done() < rounds_total) {
    const int round = orch->rounds_done();
    const double start_us = tracer.now_us();
    sp = tracer.open("round", -1, round);
    t0 = Clock::now();
    orch->run_round();
    const auto t1 = Clock::now();
    tracer.close(sp);
    const double round_ms = ms_between(t0, t1);
    run.round_ms.push_back(round_ms);
    if (tracer.enabled()) {
      const TimerSums after = sum_timers(timers);
      const auto walls = orch->phase_walls();
      run.layers.push_back(split_round(
          round_ms * 1000.0, before, after, walls.tick_us - walls_before.tick_us,
          walls.advance_us - walls_before.advance_us,
          walls.reconcile_us - walls_before.reconcile_us));
      run.round_start_us.push_back(start_us);
      before = after;
      walls_before = walls;
    }
  }
  run.rounds_wall_s = ms_between(t_rounds, Clock::now()) / 1000.0;
  run.round_allocs = testing::allocations_since(snap_rounds);
  run.sim_seconds = sim::to_seconds(orch->now() - sim_start);
  const std::int64_t border_rebuilds =
      orch->phase_walls().border_rebuilds - rebuilds_at_start;

  std::size_t pending_events = 0;
  for (int z = 0; z < zones; ++z) {
    pending_events += orch->zone_orchestrator(z).simulation().pending_events();
  }
  const TimerSums totals = sum_timers(timers);

  sp = tracer.open("zone.finish");
  t0 = Clock::now();
  orch->finish();
  const double finish_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  sp = tracer.open("obs.journal_merge");
  t0 = Clock::now();
  const std::string journal = orch->merged_journal();
  const double merge_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  run.wall_s = ms_between(t_begin, Clock::now()) / 1000.0;
  run.teardown_s = (finish_ms + merge_ms) / 1000.0;
  run.peak_rss_mb = peak_rss_mb();
  run.digest = fnv1a(journal);

  // Conservation: every churn arrival is admitted, rejected, cancelled
  // while queued, or still queued.
  const zone::ShardedReport& rep = orch->report();
  std::int64_t queued = 0;
  for (int z = 0; z < zones; ++z) {
    if (const scenario::ServingLoop* s = orch->zone_serving(z)) queued += s->queue_depth();
  }
  const std::int64_t admitted = rep.serve_admitted + (opt.break_identity ? 1 : 0);
  run.identity_ok =
      admitted + rep.serve_rejected + rep.serve_cancelled + queued == rep.serve_arrivals;
  run.violations = rep.invariant_violations;
  correct = run.identity_ok && run.violations == 0;
  run.attempted = rep.serve_arrivals;
  run.failed = rep.serve_rejected + rep.serve_cancelled + queued;
  emit_run(out, run);

  if (!tracer.enabled()) return 0;

  AllocTotals alloc;
  std::vector<net::Topology> topologies;
  for (int z = 0; z < zones; ++z) {
    alloc.add(orch->zone_network(z).alloc_stats());
    topologies.push_back(orch->zone_network(z).topology());
  }
  obs::LogHistogram place_hist;
  for (const Timers& t : timers) place_hist.merge(*t.place);
  const double rounds = static_cast<double>(std::max<std::size_t>(run.round_ms.size(), 1));
  const std::int64_t zone_rounds = rep.zone_rounds_full + rep.zone_rounds_skipped;

  layers.num("topo.city_grid_ms", topo_ms);
  layers.num("zone.create_ms", create_ms);
  layers.num("zone.create_allocs", static_cast<double>(create_allocs));
  layers.num("zone.start_ms", start_ms);
  layers.num("zone.finish_ms", finish_ms);
  layers.num("zone.border_rebuilds", static_cast<double>(border_rebuilds) / rounds);
  layers.num("zone.skipped_share",
             zone_rounds > 0 ? static_cast<double>(rep.zone_rounds_skipped) /
                                   static_cast<double>(zone_rounds)
                             : 0.0);
  emit_layer_means(layers, run.layers);
  layers.num("sched.decisions", static_cast<double>(totals.decisions));
  layers.num("sched.place_us_p50", place_hist.percentile(0.50));
  layers.num("core.deploy_ms", 0.0);
  layers.num("core.admitted", static_cast<double>(rep.serve_admitted));
  layers.num("core.rejected", static_cast<double>(rep.serve_rejected));
  layers.num("core.deferred", static_cast<double>(rep.serve_deferred));
  layers.num("core.queue_peak", rep.serve_peak_queue_depth);
  emit_alloc_totals(layers, alloc);
  layers.num("controller.migrations", static_cast<double>(rep.migrations));
  emit_monitor_totals(layers, timers);
  layers.num("sim.pending_events", static_cast<double>(pending_events));
  layers.num("workload.requests_completed", 0.0);
  layers.num("workload.host_us_per_request", 0.0);
  layers.num("workload.req_latency_ms_p50", 0.0);
  layers.num("workload.req_latency_ms_p99", 0.0);
  layers.num("obs.journal_merge_ms", merge_ms);
  layers.num("obs.journal_bytes", static_cast<double>(journal.size()));
  layers.num("obs.journal_flush_ms", totals.flush / 1000.0);

  orch.reset();
  emit_routing_build(layers, tracer, topologies);
  if (!write_chrome_trace(opt.trace_out, tracer, run.layers, run.round_start_us)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  return 0;
}

// ---- mesh_requests ----

// 50 RPS is the Fig. 16 mean rate, at which no request is shed. At the
// 130 RPS bench_fig16_exponential runs, 13-43 % of arrivals are shed by
// the connection cap and the shed share (so the work per run) swings with
// the seed.
constexpr double kRps = 50.0;
constexpr double kMigrationThreshold = 0.75;
constexpr sim::Duration kDrain = sim::minutes(2);
// Set-up takes milliseconds here, so each repetition sets up this many
// times and keeps the median.
constexpr int kSetupRepeats = 30;

struct MeshParams {
  sim::Duration duration = sim::minutes(60);
  std::uint64_t trace_seed = 161;
  std::uint64_t request_seed = 16;
};

// The paper's §6.3 rig as bench/bench_fig16_exponential builds it (CityLab
// 5-node mesh, trace-driven variation with fades, net-monitor probing,
// social network placed by longest-path, Algorithm-3 migration), plus a
// recorder and the invariant checker. Members are declared in dependency
// order so destruction runs users before what they use.
struct MeshRig {
  obs::Recorder recorder;
  sim::Simulation sim;
  trace::CityLabMesh mesh;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<monitor::NetMonitor> monitor;
  std::unique_ptr<core::Orchestrator> orch;
  std::unique_ptr<trace::TracePlayer> player;
  std::unique_ptr<fault::Invariants> invariants;
  std::unique_ptr<workload::RequestEngine> engine;
  double deploy_ms = 0.0;
};

util::Expected<bool> set_up_mesh(MeshRig& rig, const MeshParams& p, Tracer& tracer,
                                 int parent) {
  rig.mesh = trace::citylab_mesh();
  rig.network = std::make_unique<net::Network>(rig.sim, rig.mesh.topology);
  rig.network->set_recorder(&rig.recorder);
  rig.cluster.add_node(0, {8000, 8192, false});  // control plane
  rig.cluster.add_node(1, {8000, 6144, true});
  rig.cluster.add_node(2, {8000, 6144, true});
  rig.cluster.add_node(3, {8000, 6144, true});
  rig.cluster.add_node(4, {5000, 6144, true});
  core::OrchestratorConfig orch_cfg;
  orch_cfg.restart_duration = sim::seconds(10);  // stateless pod restart
  rig.orch = std::make_unique<core::Orchestrator>(rig.sim, *rig.network, rig.cluster,
                                                  orch_cfg);
  rig.orch->set_recorder(&rig.recorder);
  rig.monitor = std::make_unique<monitor::NetMonitor>(*rig.network);
  rig.monitor->set_recorder(&rig.recorder);
  rig.orch->attach_monitor(rig.monitor.get());
  rig.player = std::make_unique<trace::TracePlayer>(*rig.network);
  trace::bind_citylab_traces(rig.mesh, *rig.player, p.duration + kDrain,
                             /*fades=*/true, p.trace_seed);
  rig.invariants = std::make_unique<fault::Invariants>(*rig.orch, &rig.recorder);
  rig.invariants->attach();
  rig.monitor->start();
  rig.player->start();

  const int sp = tracer.open("core.deploy", parent);
  const auto t0 = Clock::now();
  const auto id = rig.orch->deploy(app::social_network_app(kRps / 400.0),
                                   core::SchedulerKind::kBassLongestPath);
  rig.deploy_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  if (!id.ok()) return util::make_error("deploy failed: " + id.error());
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(30);
  params.utilization_threshold = kMigrationThreshold;
  params.headroom_frac = 0.20;
  params.cooldown = sim::seconds(30);
  params.min_migration_gap = sim::seconds(90);
  rig.orch->enable_migration(id.value(), params);

  workload::RequestWorkloadConfig cfg;
  cfg.rps = kRps;
  cfg.max_in_flight = 1000;  // wrk-style bounded connection pool
  cfg.arrival = workload::RequestWorkloadConfig::Arrival::kExponential;
  cfg.client_node = 0;
  cfg.seed = p.request_seed;
  rig.engine = std::make_unique<workload::RequestEngine>(*rig.orch, id.value(), cfg);
  rig.engine->start();
  return true;
}

util::Expected<MeshParams> parse_mesh(const util::IniFile& ini) {
  const util::IniSection* m = ini.first_of_kind("mesh");
  if (m == nullptr) return util::make_error("input has no [mesh] section");
  MeshParams p;
  p.duration = sim::seconds_f(m->number_or("duration_s", 3600));
  p.trace_seed = static_cast<std::uint64_t>(m->number_or("trace_seed", 161));
  p.request_seed = static_cast<std::uint64_t>(m->number_or("request_seed", 16));
  return p;
}

int run_mesh(const Options& opt, JsonObject& out, JsonObject& layers, bool& correct) {
  Tracer tracer(!opt.trace_out.empty(), 1 << 12);
  Run run;

  auto ini = util::load_ini(opt.input);
  if (!ini.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", ini.error().c_str());
    return 2;
  }
  auto parsed = parse_mesh(ini.value());
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.error().c_str());
    return 2;
  }
  const MeshParams p = parsed.value();

  // The last rig set up is the one that runs; setup_allocs is its set-up's.
  std::vector<double> setup_ms;
  std::unique_ptr<MeshRig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const auto snap = testing::take_alloc_snapshot();
    const auto t_begin = Clock::now();
    const int s_setup = tracer.open("setup");
    rig = std::make_unique<MeshRig>();
    obs::ScopedGlobalRecorder guard(&rig->recorder);
    auto ok = set_up_mesh(*rig, p, tracer, s_setup);
    tracer.close(s_setup);
    setup_ms.push_back(ms_between(t_begin, Clock::now()));
    run.setup_allocs = testing::allocations_since(snap);
    if (!ok.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", ok.error().c_str());
      return 2;
    }
  }
  run.setup_s = percentile(setup_ms, 0.50) / 1000.0;
  // Wall time counts one set-up: the median one, not the repeats.
  const double wall_setup_ms = run.setup_s * 1000.0;
  obs::ScopedGlobalRecorder guard(&rig->recorder);

  std::vector<Timers> timers{resolve_timers(rig->recorder.metrics())};
  const int rounds_total = static_cast<int>(p.duration / sim::seconds(10));
  run.round_ms.reserve(static_cast<std::size_t>(rounds_total));
  if (tracer.enabled()) {
    run.layers.reserve(static_cast<std::size_t>(rounds_total));
    run.round_start_us.reserve(static_cast<std::size_t>(rounds_total));
  }
  const sim::Time sim_start = rig->sim.now();

  const auto snap_rounds = testing::take_alloc_snapshot();
  const auto t_rounds = Clock::now();
  TimerSums before = tracer.enabled() ? sum_timers(timers) : TimerSums{};
  for (int round = 0; round < rounds_total; ++round) {
    const double start_us = tracer.now_us();
    const int sp = tracer.open("round", -1, round);
    const auto t0 = Clock::now();
    rig->sim.run_until(sim_start + sim::seconds(10) * (round + 1));
    const auto t1 = Clock::now();
    tracer.close(sp);
    const double round_ms = ms_between(t0, t1);
    run.round_ms.push_back(round_ms);
    if (tracer.enabled()) {
      const TimerSums after = sum_timers(timers);
      run.layers.push_back(split_round(round_ms * 1000.0, before, after, 0, 0, 0));
      run.round_start_us.push_back(start_us);
      before = after;
    }
  }
  run.rounds_wall_s = ms_between(t_rounds, Clock::now()) / 1000.0;
  run.round_allocs = testing::allocations_since(snap_rounds);
  run.sim_seconds = sim::to_seconds(rig->sim.now() - sim_start);
  const std::size_t pending_events = rig->sim.pending_events();
  const TimerSums totals = sum_timers(timers);

  int sp = tracer.open("workload.drain");
  auto t0 = Clock::now();
  rig->engine->stop();
  rig->sim.run_until(sim_start + p.duration + kDrain);
  const double drain_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  sp = tracer.open("obs.journal_merge");
  t0 = Clock::now();
  const std::string journal = rig->recorder.journal().to_jsonl();
  const double merge_ms = ms_between(t0, Clock::now());
  tracer.close(sp);
  run.wall_s =
      (wall_setup_ms + run.rounds_wall_s * 1000.0 + drain_ms + merge_ms) / 1000.0;
  run.teardown_s = (drain_ms + merge_ms) / 1000.0;
  run.peak_rss_mb = peak_rss_mb();
  run.digest = fnv1a(journal);

  // Conservation: every issued request completed (one latency sample each)
  // or is still in flight after the drain; shed arrivals were never issued.
  const workload::RequestEngine& engine = *rig->engine;
  const std::int64_t completed = engine.completed() + (opt.break_identity ? 1 : 0);
  const std::int64_t samples = static_cast<std::int64_t>(engine.latencies().count());
  run.identity_ok = completed == samples && engine.in_flight() >= 0 &&
                    completed + engine.in_flight() == engine.issued();
  run.violations = rig->invariants->violations();
  correct = run.identity_ok && run.violations == 0;
  run.attempted = engine.issued() + engine.shed();
  run.failed = engine.shed() + engine.in_flight();
  emit_run(out, run);
  out.num("req_latency_ms_p50", engine.latencies().median_ms());
  out.num("req_latency_ms_p99", engine.latencies().p99_ms());

  if (!tracer.enabled()) return 0;

  AllocTotals alloc;
  alloc.add(rig->network->alloc_stats());
  obs::LogHistogram place_hist;
  place_hist.merge(*timers.front().place);
  const double completed_requests = static_cast<double>(engine.completed());

  layers.num("topo.city_grid_ms", 0.0);
  layers.num("zone.create_ms", 0.0);
  layers.num("zone.create_allocs", 0.0);
  layers.num("zone.start_ms", 0.0);
  layers.num("zone.finish_ms", 0.0);
  layers.num("zone.border_rebuilds", 0.0);
  layers.num("zone.skipped_share", 0.0);
  emit_layer_means(layers, run.layers);
  layers.num("sched.decisions", static_cast<double>(totals.decisions));
  layers.num("sched.place_us_p50", place_hist.percentile(0.50));
  layers.num("core.deploy_ms", rig->deploy_ms);
  layers.num("core.admitted", 1.0);
  layers.num("core.rejected", 0.0);
  layers.num("core.deferred", 0.0);
  layers.num("core.queue_peak", 0.0);
  emit_alloc_totals(layers, alloc);
  layers.num("controller.migrations",
             static_cast<double>(rig->orch->migration_events().size()));
  emit_monitor_totals(layers, timers);
  layers.num("sim.pending_events", static_cast<double>(pending_events));
  layers.num("workload.requests_completed", completed_requests);
  layers.num("workload.host_us_per_request",
             completed_requests > 0 ? run.rounds_wall_s * 1e6 / completed_requests : 0.0);
  layers.num("workload.req_latency_ms_p50", engine.latencies().median_ms());
  layers.num("workload.req_latency_ms_p99", engine.latencies().p99_ms());
  layers.num("obs.journal_merge_ms", merge_ms);
  layers.num("obs.journal_bytes", static_cast<double>(journal.size()));
  layers.num("obs.journal_flush_ms", totals.flush / 1000.0);

  const std::vector<net::Topology> topologies{rig->network->topology()};
  rig.reset();
  emit_routing_build(layers, tracer, topologies);
  if (!write_chrome_trace(opt.trace_out, tracer, run.layers, run.round_start_us)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --kind city|mesh --input FILE "
               "[--trace-out FILE] [--break-identity]\n");
  return 2;
}

}  // namespace
}  // namespace bass::perfbench

int main(int argc, char** argv) {
  using namespace bass::perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kind" && i + 1 < argc) {
      opt.kind = argv[++i];
    } else if (arg == "--input" && i + 1 < argc) {
      opt.input = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      opt.trace_out = argv[++i];
    } else if (arg == "--break-identity") {
      opt.break_identity = true;
    } else {
      return usage();
    }
  }
  if (opt.input.empty() || (opt.kind != "city" && opt.kind != "mesh")) return usage();
  bass::util::set_log_level(bass::util::LogLevel::kError);

  JsonObject out;
  JsonObject layers;
  out.str("kind", opt.kind);
  bool correct = false;
  const int rc = opt.kind == "city" ? run_city(opt, out, layers, correct)
                                    : run_mesh(opt, out, layers, correct);
  if (rc != 0) return rc;
  if (!opt.trace_out.empty()) out.raw("layers", layers.done());
  std::printf("%s\n", out.done().c_str());
  return correct ? 0 : 3;
}

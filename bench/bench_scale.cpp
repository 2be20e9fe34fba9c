// Scaling study for the sharded orchestrator (DESIGN.md §11): orchestrator
// round time and solver throughput vs city size, sharded against unsharded
// on the identical generated topology and serve workload.
//
// Usage:
//   bench_scale [--smoke] [--jobs N] [--check-baseline[=path]]
//
// Full mode sweeps 512..8192 nodes, each row sharded and unsharded (the
// unsharded 8192-node routing table is its per-source trees, 6 B per node
// pair, ~400 MB). --smoke runs the single 2048-node/4-zone row plus its
// unsharded twin — the CI gate. --check-baseline compares against
// bench/baselines/scale_baseline.json (found through the source directory
// compiled in, so from any working directory):
//   * determinism: 512-node merged journals for --jobs 1 and --jobs 2 must
//     be byte-identical — unconditional, cheap, and the contract the whole
//     subsystem rests on;
//   * speedup: sharded round time must beat unsharded by the baseline's
//     minimum at the gated sizes — skipped under sanitizers;
//   * gating: the sparse-churn scenario (all arrivals in 1 of 32 zones) must
//     run its rounds at least min_sparse_speedup faster gated than with
//     always-full rounds, the dense scenario must not regress past
//     min_dense_ratio, and the idle city must hold steady-state rounds at
//     max_idle_allocs_per_round heap allocations (unconditional — alloc
//     counts are machine-independent).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/alloc_probe.h"  // global new/delete counters (one TU rule)
#include "common.h"
#include "obs/journal.h"
#include "scenario/scenario.h"
#include "util/ini.h"
#include "util/strings.h"
#include "zone/sharded.h"

namespace bass::bench {
namespace {

struct Row {
  int nodes = 0;
  int blocks_x = 0;
  int blocks_y = 0;  // nodes = blocks_x * blocks_y * 4
  int zones = 0;
};

constexpr int kRoundSeconds = 10;
constexpr int kDurationSeconds = 60;

std::string make_ini(const Row& row, bool zoned,
                     const std::string& zones_extra = "",
                     int arrival_per_min = -1,
                     int duration_s = kDurationSeconds) {
  if (arrival_per_min < 0) arrival_per_min = std::max(row.nodes / 8, 1);
  std::string text = util::str_format(
      "[topology]\n"
      "kind = city_grid\n"
      "blocks_x = %d\n"
      "blocks_y = %d\n"
      "nodes_per_block = 4\n"
      "gateway_every = 8\n"
      "[monitor]\n"
      "enabled = false\n"
      "[invariants]\n"
      "enabled = false\n"
      "[serve]\n"
      "mode = adaptive\n"
      "seed = 42\n"
      "arrival_per_min = %d\n"
      "mean_lifetime_s = 120\n"
      "resource_scale = 0.1\n"
      "[run]\n"
      "duration_s = %d\n",
      row.blocks_x, row.blocks_y, arrival_per_min, duration_s);
  if (zoned) {
    // Extras go first: the ini parser takes the first occurrence of a key,
    // so scenario overrides (e.g. method) win over the defaults below.
    text += util::str_format(
        "[zones]\n"
        "%s"
        "count = %d\n"
        "method = bfs\n"
        "round_interval_s = %d\n",
        zones_extra.c_str(), row.zones, kRoundSeconds);
  }
  return text;
}

struct SideResult {
  double round_ms = 0.0;
  double solver_flows_per_sec = 0.0;
  std::int64_t flows_touched = 0;
  double alloc_seconds = 0.0;
  // Sharded only: wall split across the run's phases, for reading where the
  // time goes (warmup + transit bring-up / rounds / drain + teardown).
  double start_ms = 0.0;
  double rounds_ms = 0.0;
  double finish_ms = 0.0;
  // Sharded only: per-round split of the round loop itself (quiescent-zone
  // ticks / full zone passes / border reconciliation) and the activity
  // gating tallies from the report.
  int rounds = 0;
  double tick_ms = 0.0;
  double full_ms = 0.0;
  double reconcile_ms = 0.0;
  std::int64_t rounds_skipped = 0;
  std::int64_t border_rebuilds = 0;
  std::int64_t reconcile_rounds_skipped = 0;
  std::size_t border_components = 0;
  // Heap allocations per steady-state round (measured from round 3 on, so
  // first-round arena growth and cache warming don't count).
  double allocs_per_round = 0.0;
  // Round-loop wall only, excluding start (warmup + transit bring-up) and
  // finish (drain + metric fold), which are identical either side of a
  // gating comparison and would otherwise drown it in noise.
  double loop_round_ms() const {
    return rounds > 0 ? rounds_ms / rounds : 0.0;
  }
};

util::Expected<std::unique_ptr<zone::ShardedOrchestrator>> build_sharded(
    const Row& row, std::size_t jobs, const std::string& zones_extra = "",
    int arrival_per_min = -1, int duration_s = kDurationSeconds) {
  auto ini = util::parse_ini(
      make_ini(row, true, zones_extra, arrival_per_min, duration_s));
  if (!ini.ok()) return util::make_error(ini.error());
  return zone::ShardedOrchestrator::from_ini(ini.value(), jobs);
}

SideResult run_sharded(const Row& row, std::size_t jobs,
                       const std::string& zones_extra = "",
                       int arrival_per_min = -1,
                       int duration_s = kDurationSeconds) {
  auto built =
      build_sharded(row, jobs, zones_extra, arrival_per_min, duration_s);
  if (!built.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", built.error().c_str());
    std::exit(1);
  }
  auto orch = built.take();
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  auto t0 = std::chrono::steady_clock::now();
  orch->start();
  SideResult r;
  r.start_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  // Steady-state window: skip the first two rounds. Round 0's reconcile
  // imposes every initial transit rate (a full two-pass rebuild of all
  // border components) and round 1 still settles; averaging them in would
  // hide the per-round cost the gate actually changes. The alloc probe
  // uses the same window.
  auto t_steady = t0;
  zone::ShardedOrchestrator::PhaseWalls walls0;
  testing::AllocSnapshot snap{};
  int warm = 0;
  while (orch->rounds_done() < orch->rounds_total()) {
    orch->run_round();
    if (++warm == 2) {
      snap = testing::take_alloc_snapshot();
      walls0 = orch->phase_walls();
      t_steady = std::chrono::steady_clock::now();
    }
  }
  const int measured_rounds = orch->rounds_done() - 2;
  const double steady_ms = ms_since(t_steady);
  const auto walls1 = orch->phase_walls();
  if (measured_rounds > 0) {
    r.allocs_per_round = static_cast<double>(testing::allocations_since(snap)) /
                         measured_rounds;
  }
  r.rounds_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  orch->finish();
  r.finish_ms = ms_since(t0);
  const zone::ShardedReport& report = orch->report();
  const int rounds = std::max(report.rounds, 1);
  r.round_ms = (r.start_ms + r.rounds_ms + r.finish_ms) / rounds;
  if (measured_rounds > 0) {
    r.rounds = measured_rounds;
    r.rounds_ms = steady_ms;
    r.tick_ms = (walls1.tick_us - walls0.tick_us) / 1000.0 / measured_rounds;
    r.full_ms =
        (walls1.advance_us - walls0.advance_us) / 1000.0 / measured_rounds;
    r.reconcile_ms =
        (walls1.reconcile_us - walls0.reconcile_us) / 1000.0 / measured_rounds;
    r.border_rebuilds = walls1.border_rebuilds - walls0.border_rebuilds;
  } else {
    r.rounds = rounds;
    r.tick_ms = report.tick_wall_us / 1000.0 / rounds;
    r.full_ms = report.advance_wall_us / 1000.0 / rounds;
    r.reconcile_ms = report.reconcile_wall_us / 1000.0 / rounds;
    r.border_rebuilds = report.border_rebuilds;
  }
  r.rounds_skipped = report.zone_rounds_skipped;
  r.reconcile_rounds_skipped = report.reconcile_rounds_skipped;
  r.border_components = report.border_components;
  for (int z = 0; z < orch->zones(); ++z) {
    const auto stats = orch->zone_network(z).alloc_stats();
    r.flows_touched += stats.flows_touched;
    r.alloc_seconds += stats.alloc_seconds;
  }
  if (r.alloc_seconds > 0.0) {
    r.solver_flows_per_sec =
        static_cast<double>(r.flows_touched) / r.alloc_seconds;
  }
  return r;
}

SideResult run_unsharded(const Row& row) {
  auto ini = util::parse_ini(make_ini(row, false));
  if (!ini.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", ini.error().c_str());
    std::exit(1);
  }
  auto s = scenario::Scenario::from_ini(ini.value());
  if (!s.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", s.error().c_str());
    std::exit(1);
  }
  auto& scene = *s.value();
  const auto t0 = std::chrono::steady_clock::now();
  scene.run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  SideResult r;
  r.round_ms = wall_ms / (kDurationSeconds / kRoundSeconds);
  const auto stats = scene.network().alloc_stats();
  r.flows_touched = stats.flows_touched;
  r.alloc_seconds = stats.alloc_seconds;
  if (stats.alloc_seconds > 0.0) {
    r.solver_flows_per_sec =
        static_cast<double>(stats.flows_touched) / stats.alloc_seconds;
  }
  return r;
}

// The determinism gate: same seed, different worker counts, byte-identical
// merged journals. Cheap (512 nodes) and unconditional.
bool determinism_gate() {
  const Row row{512, 16, 8, 2};
  std::string journals[2];
  const std::size_t jobs[2] = {1, 2};
  for (int i = 0; i < 2; ++i) {
    auto built = build_sharded(row, jobs[i]);
    if (!built.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", built.error().c_str());
      return false;
    }
    auto orch = built.take();
    orch->run();
    journals[i] = orch->merged_journal();
  }
  const bool ok = !journals[0].empty() && journals[0] == journals[1];
  std::printf("  %-44s %12zu vs %12zu  %s\n", "determinism: journal bytes 1j/2j",
              journals[0].size(), journals[1].size(), ok ? "ok" : "REGRESSION");
  return ok;
}

double field_as_double(
    const std::vector<std::pair<std::string, std::string>>& fields,
    const std::string& key, double fallback) {
  for (const auto& [k, v] : fields) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  return fallback;
}

bool timing_gates_enabled() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}

struct RowResult {
  Row row;
  SideResult sharded;
  SideResult unsharded;
  double speedup() const {
    return unsharded.round_ms > 0.0 && sharded.round_ms > 0.0
               ? unsharded.round_ms / sharded.round_ms
               : 0.0;
  }
};

// One gating comparison: the same sharded scenario with activity gating on
// (default) and forced always-full rounds.
struct GatingResult {
  const char* scenario = "";
  Row row;
  SideResult gated;
  SideResult ungated;  // round_ms == 0 when the scenario has no ungated twin
  // Rounds-loop time only: start (transit bring-up) and finish (drain) are
  // identical with gating on or off, so including them would only add
  // noise to what the gate actually claims — per-round cost.
  double ratio() const {
    return ungated.loop_round_ms() > 0.0 && gated.loop_round_ms() > 0.0
               ? ungated.loop_round_ms() / gated.loop_round_ms()
               : 0.0;
  }
};

// A measurement registered under the exact baseline key that gates it:
// min_* keys bound it from below, max_* keys from above. min_* gates are
// wall-clock comparisons and are skipped under sanitizers; max_* gates
// (allocation counts) are machine-independent and always enforced.
struct Gate {
  std::string key;
  std::string what;
  double measured = 0.0;
};

int check_baseline(const std::string& path, const std::vector<Gate>& gates) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  std::printf("baseline check (%s)%s:\n", path.c_str(),
              timing_gates_enabled() ? "" : " [sanitized: timing gates skipped]");
  if (!determinism_gate()) ++failures;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::pair<std::string, std::string>> fields;
    if (!obs::parse_journal_line(line, fields)) {
      std::fprintf(stderr, "unparseable baseline line: %s\n", line.c_str());
      return 1;
    }
    for (const Gate& g : gates) {
      const bool is_min = g.key.rfind("min_", 0) == 0;
      if (is_min && !timing_gates_enabled()) continue;
      const double bound = field_as_double(fields, g.key, -1.0);
      if (bound < 0.0) continue;  // key not in this baseline line
      const bool ok = is_min ? g.measured >= bound : g.measured <= bound;
      std::printf("  %-44s %12.1f vs %12.1f  %s\n", g.what.c_str(), g.measured,
                  bound, ok ? "ok" : "REGRESSION");
      if (!ok) ++failures;
    }
  }
  std::printf(failures == 0 ? "RESULT: PASS\n"
                            : "RESULT: FAIL (baseline regression)\n");
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  bool smoke = false;
  bool baseline = false;
  std::size_t jobs = 1;
  std::string baseline_path = BASS_SOURCE_DIR "/bench/baselines/scale_baseline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--check-baseline") == 0) {
      baseline = true;
    } else if (std::strncmp(argv[i], "--check-baseline=", 17) == 0) {
      baseline = true;
      baseline_path = argv[i] + 17;
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--smoke] [--jobs N]"
                   " [--check-baseline[=path]]\n");
      return 2;
    }
  }
  print_header(smoke ? "orchestrator scaling (smoke)" : "orchestrator scaling");

  std::vector<Row> rows;
  if (smoke) {
    rows.push_back({2048, 32, 16, 4});
  } else {
    rows.push_back({512, 16, 8, 2});
    rows.push_back({1024, 16, 16, 4});
    rows.push_back({2048, 32, 16, 4});
    rows.push_back({4096, 32, 32, 8});
    rows.push_back({8192, 64, 32, 16});
  }

  std::printf("%7s %6s %14s %14s %9s %16s\n", "nodes", "zones", "sharded ms/rd",
              "unsharded ms", "speedup", "solver flows/s");
  std::vector<RowResult> results;
  for (const Row& row : rows) {
    RowResult r;
    r.row = row;
    r.sharded = run_sharded(row, jobs);
    r.unsharded = run_unsharded(row);
    std::printf("%7d %6d %14.1f %14.1f %8.1fx ", row.nodes, row.zones,
                r.sharded.round_ms, r.unsharded.round_ms, r.speedup());
    // "-" when every sharded allocation change applied in place: no pass
    // ran, so there is no solver throughput to report.
    if (r.sharded.alloc_seconds > 0.0) {
      std::printf("%16.0f\n", r.sharded.solver_flows_per_sec);
    } else {
      std::printf("%16s\n", "-");
    }
    results.push_back(r);
  }

  // Where a sharded round's time goes: quiescent-zone ticks, full zone
  // passes, border reconciliation — plus steady-state heap allocations.
  std::printf("\nsharded round phase split (per round):\n");
  std::printf("%7s %6s %9s %9s %9s %10s %9s\n", "nodes", "zones", "tick ms",
              "full ms", "recon ms", "allocs/rd", "skipped");
  for (const RowResult& r : results) {
    std::printf("%7d %6d %9.2f %9.2f %9.2f %10.0f %9lld\n", r.row.nodes,
                r.row.zones, r.sharded.tick_ms, r.sharded.full_ms,
                r.sharded.reconcile_ms, r.sharded.allocs_per_round,
                static_cast<long long>(r.sharded.rounds_skipped));
  }

  // ---- Activity gating study (ISSUE 10): round cost must track churn ----
  //
  // sparse: all arrivals confined to zone 0 of 8, fat transit — the other
  //   seven zones tick and almost every border component stays clean, so
  //   gated rounds should beat always-full rounds by min_sparse_speedup.
  // dense:  every zone busy (the main scenario) — every zone's queue holds
  //   an event each round, so none skips; gated must stay within
  //   min_dense_ratio of ungated.
  // idle:   no churn at all — after transit settles, steady-state rounds
  //   must hold at max_idle_allocs_per_round heap allocations.
  std::printf("\nactivity gating (gated vs always-full rounds,"
              " rounds-loop ms/rd):\n");
  std::printf("%9s %7s %6s %13s %15s %7s %9s %11s %9s %10s\n", "scenario",
              "nodes", "zones", "gated ms/rd", "ungated ms/rd", "ratio",
              "recon ms", "un-recon ms", "skipped", "allocs/rd");
  std::vector<GatingResult> gating;
  // Sparse churn wants reconciliation to be the round's dominant cost:
  // few arrivals (so zone 0's own pass stays small) over fat, link-local
  // transit (32 flows per directed border link entering/exiting at the
  // border routers, so each border is its own contention component and
  // only zone 0's borders go dirty), measured over a longer run so the
  // loop time is stable.
  // Chunked (band) partitioning gives zone 0 a single neighbour, so the
  // dirty border set is one band boundary out of zones-1 — the regime the
  // gate is meant to exploit.
  const char* sparse_extra =
      "transit_per_border = 32\ntransit_local = true\nactive_zones = 1\n"
      "method = chunks\n";
  constexpr int kGatingDuration = 120;
  std::vector<Row> sparse_rows = {{2048, 32, 16, 32}};
  if (!smoke) sparse_rows.push_back({4096, 32, 32, 32});
  for (const Row& row : sparse_rows) {
    GatingResult g;
    g.scenario = "sparse";
    g.row = row;
    const int arrivals = std::max(row.nodes / 512, 1);
    g.gated = run_sharded(row, jobs, sparse_extra, arrivals, kGatingDuration);
    g.ungated = run_sharded(row, jobs,
                            std::string(sparse_extra) + "gating = false\n",
                            arrivals, kGatingDuration);
    gating.push_back(g);
  }
  {
    // Dense: the main workload (churn in every zone) — run as a fresh
    // back-to-back pair, ungated first, so neither side carries the main
    // sweep's cold-start advantage.
    GatingResult g;
    g.scenario = "dense";
    g.row = {2048, 32, 16, 4};
    g.ungated = run_sharded(g.row, jobs, "gating = false\n", -1, kGatingDuration);
    g.gated = run_sharded(g.row, jobs, "", -1, kGatingDuration);
    gating.push_back(g);
  }
  {
    GatingResult g;
    g.scenario = "idle";
    g.row = {2048, 32, 16, 8};
    g.gated = run_sharded(g.row, jobs, "", /*arrival_per_min=*/0);
    gating.push_back(g);
  }
  for (const GatingResult& g : gating) {
    if (g.ungated.round_ms > 0.0) {
      std::printf("%9s %7d %6d %13.2f %15.2f %6.1fx %9.2f %11.2f %9lld %10.0f"
                  "  (%lld/%zu comps rebuilt)\n",
                  g.scenario, g.row.nodes, g.row.zones, g.gated.loop_round_ms(),
                  g.ungated.loop_round_ms(), g.ratio(), g.gated.reconcile_ms,
                  g.ungated.reconcile_ms,
                  static_cast<long long>(g.gated.rounds_skipped),
                  g.gated.allocs_per_round,
                  static_cast<long long>(g.gated.border_rebuilds),
                  g.gated.border_components);
    } else {
      std::printf("%9s %7d %6d %13.2f %15s %7s %9.2f %11s %9lld %10.0f\n",
                  g.scenario, g.row.nodes, g.row.zones, g.gated.loop_round_ms(),
                  "-", "-", g.gated.reconcile_ms, "-",
                  static_cast<long long>(g.gated.rounds_skipped),
                  g.gated.allocs_per_round);
    }
  }

  obs::MetricsRegistry reg;
  emit_build_info(reg);
  reg.gauge("smoke").set(smoke ? 1 : 0);
  reg.gauge("jobs").set(static_cast<double>(jobs));
  for (const RowResult& r : results) {
    const obs::Labels labels = {{"nodes", std::to_string(r.row.nodes)},
                                {"zones", std::to_string(r.row.zones)}};
    reg.gauge("sharded.round_ms", labels).set(r.sharded.round_ms);
    reg.gauge("sharded.start_ms", labels).set(r.sharded.start_ms);
    reg.gauge("sharded.rounds_ms", labels).set(r.sharded.rounds_ms);
    reg.gauge("sharded.finish_ms", labels).set(r.sharded.finish_ms);
    reg.gauge("sharded.alloc_seconds", labels).set(r.sharded.alloc_seconds);
    reg.gauge("sharded.solver_flows_per_sec", labels)
        .set(r.sharded.solver_flows_per_sec);
    reg.gauge("sharded.tick_ms", labels).set(r.sharded.tick_ms);
    reg.gauge("sharded.full_ms", labels).set(r.sharded.full_ms);
    reg.gauge("sharded.reconcile_ms", labels).set(r.sharded.reconcile_ms);
    reg.gauge("sharded.allocs_per_round", labels)
        .set(r.sharded.allocs_per_round);
    reg.gauge("unsharded.round_ms", labels).set(r.unsharded.round_ms);
    reg.gauge("unsharded.alloc_seconds", labels).set(r.unsharded.alloc_seconds);
    reg.gauge("unsharded.solver_flows_per_sec", labels)
        .set(r.unsharded.solver_flows_per_sec);
    reg.gauge("speedup", labels).set(r.speedup());
  }
  for (const GatingResult& g : gating) {
    const obs::Labels labels = {{"scenario", g.scenario},
                                {"nodes", std::to_string(g.row.nodes)},
                                {"zones", std::to_string(g.row.zones)}};
    reg.gauge("gating.gated_round_ms", labels).set(g.gated.round_ms);
    reg.gauge("gating.reconcile_ms", labels).set(g.gated.reconcile_ms);
    reg.gauge("gating.rounds_skipped", labels)
        .set(static_cast<double>(g.gated.rounds_skipped));
    reg.gauge("gating.allocs_per_round", labels).set(g.gated.allocs_per_round);
    if (g.ungated.round_ms > 0.0) {
      reg.gauge("gating.ungated_round_ms", labels).set(g.ungated.round_ms);
      reg.gauge("gating.ratio", labels).set(g.ratio());
    }
  }
  write_bench_json("scale", reg);

  if (baseline) {
    std::vector<Gate> gates;
    for (const RowResult& r : results) {
      gates.push_back(
          {util::str_format("min_speedup_%d_%d", r.row.nodes, r.row.zones),
           util::str_format("sharded speedup %d nodes / %d zones", r.row.nodes,
                            r.row.zones),
           r.speedup()});
    }
    for (const GatingResult& g : gating) {
      if (std::strcmp(g.scenario, "sparse") == 0) {
        gates.push_back({util::str_format("min_sparse_speedup_%d_%d",
                                          g.row.nodes, g.row.zones),
                         util::str_format("gating sparse speedup %d nodes",
                                          g.row.nodes),
                         g.ratio()});
      } else if (std::strcmp(g.scenario, "dense") == 0) {
        gates.push_back({util::str_format("min_dense_ratio_%d_%d", g.row.nodes,
                                          g.row.zones),
                         util::str_format("gating dense ratio %d nodes",
                                          g.row.nodes),
                         g.ratio()});
      } else if (std::strcmp(g.scenario, "idle") == 0) {
        gates.push_back({util::str_format("max_idle_allocs_per_round_%d_%d",
                                          g.row.nodes, g.row.zones),
                         util::str_format("idle allocs/round %d nodes",
                                          g.row.nodes),
                         g.gated.allocs_per_round});
      }
    }
    return check_baseline(baseline_path, gates);
  }
  return 0;
}

}  // namespace
}  // namespace bass::bench

int main(int argc, char** argv) { return bass::bench::run(argc, argv); }

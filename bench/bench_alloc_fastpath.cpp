// Allocator fast-path throughput: the incremental engine (entity cache +
// active-set kernel + contention-component reallocation) vs. the seed's
// from-scratch approach (rebuild every entity with copied paths, run the
// brute-force kernel) on synthetic meshes under trace-driven churn.
//
// Every tick batches 1-4 link capacity updates (a CityLab trace tick) and
// occasionally churns a flow (close + reopen elsewhere), the mix the BASS
// control loop generates at scale. Both sides replay the identical
// pre-generated op sequence; at the end the incremental engine's rates are
// checked against a from-scratch reference solve of the final state.
//
// A standalone solver-churn section measures the kernel itself on the
// 128-node/200-flow churn workload: ns per churn round for the solver and
// for the retained reference kernel on the same rounds, and — via the
// global allocation probe this binary links in — the solver's allocations
// per round, which must be exactly zero at steady state.
//
// Emits BENCH_alloc_fastpath.json into the working directory so the
// speedup is on the record; `--smoke` (or BASS_BENCH_SMOKE=1) runs a tiny
// config for CI. `--check-baseline[=path]` additionally compares against
// the checked-in baseline (bench/baselines/alloc_fastpath_baseline.json,
// found through the source directory compiled in, so from any working
// directory) and exits nonzero on regression: the allocation gate is
// unconditional; the timing gates compare ratios measured in this process
// (solver vs reference kernel, incremental engine vs from-scratch) and are
// skipped under sanitizers. Any other argument is a usage error (exit
// status 2).
#include "../tests/alloc_probe.h"  // global new/delete counters (one TU rule)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "maxmin_reference.h"
#include "net/maxmin.h"
#include "net/network.h"
#include "obs/journal.h"
#include "obs/series.h"
#include "util/rng.h"

namespace bass::bench {
namespace {

struct FlowSpec {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  net::Bps demand = 0;  // kUnlimitedRate models a backlogged bulk flow
};

struct Tick {
  std::vector<std::pair<net::LinkId, net::Bps>> cap_updates;
  int churn_flow = -1;  // index into the flow set, or -1
  FlowSpec churn_spec;
};

struct Scenario {
  int nodes = 0;
  int flows = 0;
  int ticks = 0;
  // Both sides are timed this many times, back to back; see
  // ScenarioResult::speedup.
  int repeats = 1;
};

struct SideResult {
  std::int64_t events = 0;  // allocator passes
  double seconds = 0.0;
  double events_per_sec() const { return events / std::max(seconds, 1e-12); }
};

struct ScenarioResult {
  Scenario scenario;
  int links = 0;
  SideResult incremental;
  SideResult baseline;
  double avg_flows_touched = 0.0;
  double alloc_seconds = 0.0;  // estimated (sampled) wall time in the allocator
  double allocs_per_pass = 0.0;  // heap allocations per allocator pass
  double max_rate_diff_bps = 0.0;
  // Network::stream_rate() quantizes to integer bps while the baseline
  // keeps doubles, and the kernels may differ by kAllocEps around freeze
  // thresholds — so up to ~1 bps of apparent difference is measurement
  // noise, not divergence.
  static constexpr double kRateTolBps = 2.0;
  // Median over repeats of the two sides' pass-rate ratio. Each ratio
  // comes from two runs made back to back, so it holds when the host
  // speeds up or slows down between repeats; the side columns report each
  // side's fastest repeat.
  double speedup_median = 0.0;
  double speedup() const { return speedup_median; }
};

// Random connected mesh: ring plus chords, directed capacities 5-100 Mbps.
net::Topology make_mesh(int nodes, util::Rng& rng) {
  net::Topology topo;
  for (int i = 0; i < nodes; ++i) topo.add_node("n" + std::to_string(i));
  for (int i = 0; i < nodes; ++i) {
    topo.add_link(i, (i + 1) % nodes, net::mbps(rng.uniform_int(5, 100)),
                  net::mbps(rng.uniform_int(5, 100)));
  }
  // ~1.5 chords per node keeps paths multi-hop but the mesh sparse, like a
  // community deployment.
  const int chords = nodes + nodes / 2;
  for (int c = 0; c < chords; ++c) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    if (a == b || topo.link_between(a, b)) continue;
    topo.add_link(a, b, net::mbps(rng.uniform_int(5, 100)),
                  net::mbps(rng.uniform_int(5, 100)));
  }
  return topo;
}

// Community-mesh traffic is locality-biased: most flows terminate at a
// nearby node (a neighbourhood gateway or peer), not a uniformly random
// one. Destinations are drawn within a ring distance that grows slowly
// with mesh size, so large meshes keep several contention components —
// all-pairs uniform traffic would weld the whole mesh into one.
FlowSpec random_flow(int nodes, util::Rng& rng) {
  FlowSpec f;
  f.src = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
  // A neighbourhood's reach does not grow with the size of the mesh.
  const int reach = std::min(8, std::max(2, nodes / 16));
  const int offset = static_cast<int>(rng.uniform_int(1, reach));
  const int step = rng.chance(0.5) ? offset : nodes - offset;
  f.dst = static_cast<net::NodeId>((f.src + step) % nodes);
  f.demand = rng.chance(0.2) ? net::kUnlimitedRate
                             : net::mbps(rng.uniform_int(1, 50));
  return f;
}

std::vector<Tick> make_ticks(const Scenario& sc, const net::Topology& topo,
                             util::Rng& rng) {
  std::vector<Tick> ticks(static_cast<std::size_t>(sc.ticks));
  for (Tick& tick : ticks) {
    const int updates = static_cast<int>(rng.uniform_int(1, 4));
    for (int u = 0; u < updates; ++u) {
      tick.cap_updates.emplace_back(
          static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1)),
          net::mbps(rng.uniform_int(1, 100)));
    }
    if (rng.chance(0.15)) {
      tick.churn_flow = static_cast<int>(rng.uniform_int(0, sc.flows - 1));
      tick.churn_spec = random_flow(sc.nodes, rng);
    }
  }
  return ticks;
}

// ---- Incremental side: drive the real Network ----

SideResult run_incremental(const net::Topology& topo,
                           const std::vector<Tick>& ticks,
                           const std::vector<FlowSpec>& flows,
                           std::vector<double>& final_rates,
                           double& avg_flows_touched, double& alloc_seconds,
                           double& allocs_per_pass) {
  sim::Simulation sim;
  net::Network network(sim, topo);
  std::vector<net::StreamId> ids;
  std::vector<FlowSpec> live = flows;
  ids.reserve(flows.size());
  for (const FlowSpec& f : flows) {
    ids.push_back(network.open_stream(f.src, f.dst, f.demand));
  }

  const auto passes_before = network.reallocation_count();
  const auto touched_before = network.alloc_stats().flows_touched;
  const auto alloc_before = network.alloc_stats().alloc_seconds;
  const auto alloc_snap = testing::take_alloc_snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  for (const Tick& tick : ticks) {
    {
      net::Network::BatchUpdate batch(network);
      for (const auto& [link, bps] : tick.cap_updates) {
        network.set_link_capacity(link, bps);
      }
    }
    if (tick.churn_flow >= 0) {
      const auto idx = static_cast<std::size_t>(tick.churn_flow);
      network.close_stream(ids[idx]);
      ids[idx] = network.open_stream(tick.churn_spec.src, tick.churn_spec.dst,
                                     tick.churn_spec.demand);
      live[idx] = tick.churn_spec;
    }
  }
  SideResult res;
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  res.events = network.reallocation_count() - passes_before;
  const auto passes = std::max<std::int64_t>(res.events, 1);
  avg_flows_touched =
      static_cast<double>(network.alloc_stats().flows_touched - touched_before) /
      static_cast<double>(passes);
  alloc_seconds = network.alloc_stats().alloc_seconds - alloc_before;
  // Random flows keep nudging per-link occupancy high-water marks, so this
  // is amortized vector growth trending toward zero, not a strict-zero gate
  // (the kernel-level gate below is the strict one).
  allocs_per_pass = static_cast<double>(testing::allocations_since(alloc_snap)) /
                    static_cast<double>(passes);

  final_rates.clear();
  for (net::StreamId id : ids) {
    final_rates.push_back(static_cast<double>(network.stream_rate(id)));
  }
  return res;
}

// ---- Baseline side: the seed engine's cost model ----
//
// What Network::reallocate() did before the fast path: every pass rebuilds
// the full entity vector (copying each flow's path out of the routing
// table) and runs the brute-force kernel over all flows × all links.

SideResult run_baseline(const net::Topology& topo,
                        const std::vector<Tick>& ticks,
                        const std::vector<FlowSpec>& flows,
                        std::vector<double>& final_rates) {
  sim::Simulation sim;
  net::Network network(sim, topo);  // routing table + capacities only
  const net::RoutingTable& routing = network.routing();

  std::vector<double> caps(static_cast<std::size_t>(topo.link_count()));
  for (int l = 0; l < topo.link_count(); ++l) {
    caps[static_cast<std::size_t>(l)] = static_cast<double>(topo.link(l).capacity);
  }
  std::vector<FlowSpec> live = flows;

  std::vector<double> rates;
  auto scratch_pass = [&] {
    std::vector<net::AllocEntity> entities;
    entities.reserve(live.size());
    for (const FlowSpec& f : live) {
      net::AllocEntity& e = entities.emplace_back();
      e.demand = static_cast<double>(f.demand);
      e.links.resize(static_cast<std::size_t>(routing.hops(f.src, f.dst)));
      routing.copy_path(f.src, f.dst, e.links);
    }
    rates = net::max_min_allocate_reference(caps, entities);
  };

  SideResult res;
  const auto t0 = std::chrono::steady_clock::now();
  scratch_pass();  // flows just opened: the seed engine priced them per open
  ++res.events;
  for (const Tick& tick : ticks) {
    for (const auto& [link, bps] : tick.cap_updates) {
      caps[static_cast<std::size_t>(link)] = static_cast<double>(bps);
    }
    scratch_pass();  // one pass per batched tick
    ++res.events;
    if (tick.churn_flow >= 0) {
      // Close then reopen: the seed engine repriced on each.
      const auto idx = static_cast<std::size_t>(tick.churn_flow);
      live[idx].demand = 0;
      scratch_pass();
      live[idx] = tick.churn_spec;
      scratch_pass();
      res.events += 2;
    }
  }
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  final_rates = rates;
  return res;
}

// ---- Standalone solver churn: the kernel-level gate ----
//
// Drives MaxMinSolver directly (no engine, no simulation) on the
// 128-node/200-flow churn workload: each round replaces one flow with a
// fresh (path, demand) draw and re-solves. After warm-up the arena is at
// its high-water mark, so the allocation probe must read exactly zero per
// round; ns/round is the kernel's steady-state cost. The reference kernel
// replays the identical rounds, so the two costs form a ratio that holds
// on any machine.

struct ChurnResult {
  double ns_per_round = 0.0;            // fastest solver batch
  double reference_ns_per_round = 0.0;  // fastest reference batch
  // Median over batches of reference ns / solver ns on the same rounds.
  double speedup_vs_reference = 0.0;
  double allocs_per_round = 0.0;
  double bytes_per_round = 0.0;
  std::size_t scratch_bytes = 0;
};

// Nanoseconds per round over `count` rounds starting at round `first`.
template <typename Round>
double ns_per_round(int first, int count, Round&& round) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = first; i < first + count; ++i) round(i);
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
             .count() /
         count;
}

ChurnResult solver_churn(int rounds) {
  util::Rng rng(0xBA55);
  const int nodes = 128, nflows = 200;
  const net::Topology topo = make_mesh(nodes, rng);
  sim::Simulation sim;
  net::Network network(sim, topo);  // used only for its routing table
  const net::RoutingTable& routing = network.routing();

  std::vector<double> caps(static_cast<std::size_t>(topo.link_count()));
  for (int l = 0; l < topo.link_count(); ++l) {
    caps[static_cast<std::size_t>(l)] = static_cast<double>(topo.link(l).capacity);
  }
  std::vector<FlowSpec> initial;
  for (int f = 0; f < nflows; ++f) initial.push_back(random_flow(nodes, rng));
  // The churn rounds, drawn up front so both kernels replay the same ones:
  // 200 warm-up rounds, then the measured batches.
  const int warmup = 200, batches = 32;
  const int per_batch = std::max(1, rounds / batches);
  std::vector<std::pair<std::size_t, FlowSpec>> churn(
      static_cast<std::size_t>(warmup + batches * per_batch));
  for (auto& [victim, spec] : churn) {
    victim = static_cast<std::size_t>(rng.uniform_int(0, nflows - 1));
    spec = random_flow(nodes, rng);
  }

  // Each flow's path lives in its own max_hops()-long slot of one pool, as
  // Network's entities keep theirs, so replacing a flow copies, never allocates.
  const auto stride = static_cast<std::size_t>(routing.max_hops());
  std::vector<net::LinkId> path_pool(stride * nflows);
  std::vector<net::AllocEntityRef> entities(nflows);
  auto assign = [&](std::size_t f, const FlowSpec& spec) {
    const std::span<net::LinkId> slot(path_pool.data() + f * stride, stride);
    entities[f] = {static_cast<double>(spec.demand),
                   slot.first(static_cast<std::size_t>(
                       routing.copy_path(spec.src, spec.dst, slot)))};
  };
  net::MaxMinSolver solver;
  const auto solver_round = [&](int i) {
    const auto& [victim, spec] = churn[static_cast<std::size_t>(i)];
    assign(victim, spec);
    solver.solve(caps, entities);
  };
  // The reference kernel keeps the same flow set in owned entities.
  std::vector<net::AllocEntity> owned(initial.size());
  auto assign_owned = [&](std::size_t f, const FlowSpec& spec) {
    owned[f].demand = static_cast<double>(spec.demand);
    owned[f].links.resize(static_cast<std::size_t>(routing.hops(spec.src, spec.dst)));
    routing.copy_path(spec.src, spec.dst, owned[f].links);
  };
  const auto reference_round = [&](int i) {
    const auto& [victim, spec] = churn[static_cast<std::size_t>(i)];
    assign_owned(victim, spec);
    net::max_min_allocate_reference(caps, owned);
  };

  for (std::size_t f = 0; f < initial.size(); ++f) {
    assign(f, initial[f]);
    assign_owned(f, initial[f]);
  }
  for (int i = 0; i < warmup; ++i) {  // the solver's arena to its high-water
    solver_round(i);
    assign_owned(churn[static_cast<std::size_t>(i)].first,
                 churn[static_cast<std::size_t>(i)].second);
  }

  // Each batch runs on both kernels back to back, so the two sides of a
  // batch's ratio see the same machine, and the gated speedup is the median
  // batch ratio: scheduler/frequency noise that would otherwise make the CI
  // timing gate flaky moves both sides or only a few batches. (Over 10 runs
  // the ratio of the fastest batches spread over twice as wide.) Allocation
  // counters span every measured solver round — the zero-alloc gate has no
  // noise to damp.
  ChurnResult r;
  r.ns_per_round = r.reference_ns_per_round = std::numeric_limits<double>::infinity();
  std::int64_t allocs = 0, bytes = 0;
  std::vector<double> batch_speedups;
  for (int b = 0; b < batches; ++b) {
    const int first = warmup + b * per_batch;
    const auto snap = testing::take_alloc_snapshot();
    const double solver_ns = ns_per_round(first, per_batch, solver_round);
    allocs += testing::allocations_since(snap);
    bytes += testing::bytes_since(snap);
    const double reference_ns = ns_per_round(first, per_batch, reference_round);
    r.ns_per_round = std::min(r.ns_per_round, solver_ns);
    r.reference_ns_per_round = std::min(r.reference_ns_per_round, reference_ns);
    batch_speedups.push_back(reference_ns / solver_ns);
  }
  r.speedup_vs_reference = obs::percentile(std::move(batch_speedups), 50.0);
  const double measured = static_cast<double>(batches) * per_batch;
  r.allocs_per_round = static_cast<double>(allocs) / measured;
  r.bytes_per_round = static_cast<double>(bytes) / measured;
  r.scratch_bytes = solver.scratch_bytes();
  return r;
}

ScenarioResult run_scenario(const Scenario& sc) {
  util::Rng rng(0xBA55 + static_cast<std::uint64_t>(sc.nodes) * 31 +
                static_cast<std::uint64_t>(sc.flows));
  const net::Topology topo = make_mesh(sc.nodes, rng);
  std::vector<FlowSpec> flows;
  for (int f = 0; f < sc.flows; ++f) flows.push_back(random_flow(sc.nodes, rng));
  const std::vector<Tick> ticks = make_ticks(sc, topo, rng);

  ScenarioResult result;
  result.scenario = sc;
  result.links = topo.link_count();

  std::vector<double> inc_rates, base_rates;
  std::vector<double> ratios;
  for (int r = 0; r < sc.repeats; ++r) {
    const SideResult inc =
        run_incremental(topo, ticks, flows, inc_rates, result.avg_flows_touched,
                        result.alloc_seconds, result.allocs_per_pass);
    const SideResult base = run_baseline(topo, ticks, flows, base_rates);
    ratios.push_back(inc.events_per_sec() / std::max(base.events_per_sec(), 1e-12));
    if (r == 0 || inc.seconds < result.incremental.seconds) result.incremental = inc;
    if (r == 0 || base.seconds < result.baseline.seconds) result.baseline = base;
  }
  result.speedup_median = obs::percentile(std::move(ratios), 50.0);

  // The incremental engine must land on the same final rates as a
  // from-scratch solve of the identical end state.
  for (std::size_t i = 0; i < inc_rates.size() && i < base_rates.size(); ++i) {
    result.max_rate_diff_bps = std::max(
        result.max_rate_diff_bps, std::abs(inc_rates[i] - base_rates[i]));
  }
  if (result.max_rate_diff_bps > ScenarioResult::kRateTolBps) {
    std::fprintf(stderr, "FAIL: incremental/base rates diverged by %.3f bps\n",
                 result.max_rate_diff_bps);
  }
  return result;
}

void write_json(const std::vector<ScenarioResult>& results,
                const ChurnResult& churn, bool smoke) {
  // One registry row per scenario, distinguished by labels — the shared
  // BENCH_*.json schema (bench::write_bench_json).
  obs::MetricsRegistry reg;
  emit_build_info(reg);
  reg.gauge("smoke").set(smoke ? 1 : 0);
  for (const ScenarioResult& r : results) {
    const obs::Labels labels = {
        {"nodes", std::to_string(r.scenario.nodes)},
        {"links", std::to_string(r.links)},
        {"flows", std::to_string(r.scenario.flows)},
        {"ticks", std::to_string(r.scenario.ticks)},
    };
    reg.counter("incremental.passes", labels).add(r.incremental.events);
    reg.gauge("incremental.seconds", labels).set(r.incremental.seconds);
    reg.gauge("incremental.passes_per_sec", labels).set(r.incremental.events_per_sec());
    reg.gauge("incremental.avg_flows_touched", labels).set(r.avg_flows_touched);
    reg.gauge("incremental.alloc_seconds", labels).set(r.alloc_seconds);
    reg.gauge("incremental.allocs_per_pass", labels).set(r.allocs_per_pass);
    reg.counter("baseline.passes", labels).add(r.baseline.events);
    reg.gauge("baseline.seconds", labels).set(r.baseline.seconds);
    reg.gauge("baseline.passes_per_sec", labels).set(r.baseline.events_per_sec());
    reg.gauge("speedup", labels).set(r.speedup());
    reg.gauge("max_rate_diff_bps", labels).set(r.max_rate_diff_bps);
  }
  const obs::Labels labels = {{"workload", "solver_churn_128x200"}};
  reg.gauge("solver_churn.ns_per_round", labels).set(churn.ns_per_round);
  reg.gauge("solver_churn.reference_ns_per_round", labels)
      .set(churn.reference_ns_per_round);
  reg.gauge("solver_churn.speedup_vs_reference", labels).set(churn.speedup_vs_reference);
  reg.gauge("solver_churn.allocs_per_round", labels).set(churn.allocs_per_round);
  reg.gauge("solver_churn.bytes_per_round", labels).set(churn.bytes_per_round);
  reg.gauge("solver_churn.scratch_bytes", labels)
      .set(static_cast<double>(churn.scratch_bytes));
  write_bench_json("alloc_fastpath", reg);
}

// ---- Baseline comparison (`--check-baseline`) ----
//
// The baseline file is flat JSON, one object per line, readable with the
// journal's own line parser. Gates:
//   * allocs per churn round must be exactly zero — unconditional;
//   * the solver must beat the reference kernel on the same churn rounds
//     (median batch ratio) by min_solver_speedup_vs_reference, and the
//     incremental engine must beat the from-scratch side on the
//     64-node/50-flow scenario by min_engine64_speedup. Both are ratios timed in this process, so they
//     hold on any machine; they are skipped under sanitizers, whose
//     instrumentation rescales the two sides of each ratio differently.

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

int check_baseline(const std::string& path, const ChurnResult& churn,
                   const std::vector<ScenarioResult>& results) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  auto gate = [&](bool ok, const char* what, double got, double bound) {
    std::printf("  %-44s %12.1f vs %12.1f  %s\n", what, got, bound,
                ok ? "ok" : "REGRESSION");
    if (!ok) ++failures;
  };
  std::printf("baseline check (%s)%s:\n", path.c_str(),
              timing_gates_enabled() ? "" : " [sanitized: timing gates skipped]");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::pair<std::string, std::string>> fields;
    if (!obs::parse_journal_line(line, fields)) {
      std::fprintf(stderr, "unparseable baseline line: %s\n", line.c_str());
      return 1;
    }
    const double max_allocs = field_as_double(fields, "max_allocs_per_round", 0.0);
    gate(churn.allocs_per_round <= max_allocs, "solver_churn allocs/round",
         churn.allocs_per_round, max_allocs);
    if (!timing_gates_enabled()) continue;
    const double min_solver =
        field_as_double(fields, "min_solver_speedup_vs_reference", 0.0);
    if (min_solver > 0.0) {
      gate(churn.speedup_vs_reference >= min_solver,
           "solver_churn speedup vs reference kernel", churn.speedup_vs_reference,
           min_solver);
    }
    const double min_engine = field_as_double(fields, "min_engine64_speedup", 0.0);
    for (const ScenarioResult& r : results) {
      if (min_engine > 0.0 && r.scenario.nodes == 64 && r.scenario.flows == 50) {
        gate(r.speedup() >= min_engine, "engine 64/50 speedup vs from-scratch",
             r.speedup(), min_engine);
      }
    }
  }
  return failures > 0 ? 1 : 0;
}

int run(bool smoke, const std::string& baseline_path) {
  print_header("alloc fast path: incremental engine vs from-scratch baseline");
  std::vector<Scenario> scenarios;
  if (smoke) {
    scenarios = {{16, 10, 100, 9}, {64, 50, 100, 9}};
  } else {
    scenarios = {{16, 10, 400}, {64, 50, 400}, {128, 200, 300}, {256, 500, 200}};
  }

  std::printf("%6s %6s %6s %6s | %12s %12s | %8s %10s %10s %12s\n", "nodes",
              "links", "flows", "ticks", "inc pass/s", "base pass/s", "speedup",
              "avg comp", "alloc/pass", "maxdiff bps");
  std::vector<ScenarioResult> results;
  bool rates_ok = true;
  for (const Scenario& sc : scenarios) {
    results.push_back(run_scenario(sc));
    const ScenarioResult& r = results.back();
    std::printf("%6d %6d %6d %6d | %12.1f %12.1f | %7.1fx %10.2f %10.3f %12.4f\n",
                r.scenario.nodes, r.links, r.scenario.flows, r.scenario.ticks,
                r.incremental.events_per_sec(), r.baseline.events_per_sec(),
                r.speedup(), r.avg_flows_touched, r.allocs_per_pass,
                r.max_rate_diff_bps);
    rates_ok = rates_ok && r.max_rate_diff_bps <= ScenarioResult::kRateTolBps;
  }

  // Kernel-level churn: cheap enough to run in every mode (~2000 solves).
  const int churn_rounds = smoke ? 1000 : 2000;
  const ChurnResult churn = solver_churn(churn_rounds);
  std::printf("solver churn 128x200: %8.0f ns/round (%.3f allocs, %.1f B); "
              "reference kernel %8.0f ns/round; median batch speedup %.1fx\n",
              churn.ns_per_round, churn.allocs_per_round, churn.bytes_per_round,
              churn.reference_ns_per_round, churn.speedup_vs_reference);

  write_json(results, churn, smoke);
  int rc = 0;
  if (!baseline_path.empty()) rc = check_baseline(baseline_path, churn, results);
  if (!rates_ok) {
    std::printf("RESULT: FAIL (incremental rates diverged from reference)\n");
    return 1;
  }
  if (rc != 0) {
    std::printf("RESULT: FAIL (baseline regression)\n");
    return rc;
  }
  return 0;
}

}  // namespace
}  // namespace bass::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check-baseline") == 0) {
      baseline_path = BASS_SOURCE_DIR "/bench/baselines/alloc_fastpath_baseline.json";
    } else if (std::strncmp(argv[i], "--check-baseline=", 17) == 0) {
      baseline_path = argv[i] + 17;
    } else {
      // A typo such as --check-baselin must not silently skip the gate.
      std::fprintf(stderr, "unknown argument '%s'\n"
                   "usage: %s [--smoke] [--check-baseline[=path]]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  const char* env = std::getenv("BASS_BENCH_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') smoke = true;
  return bass::bench::run(smoke, baseline_path);
}

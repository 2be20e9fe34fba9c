// Sweep-engine scaling harness: fans the chaos_soak scenario across worker
// threads and reports runs/sec at each job count, plus the speedup over the
// serial baseline. Every parallel pass is also checked for byte-identical
// journals against the serial pass — throughput that breaks determinism
// does not count.
//
//   bench_sweep [scenario.ini] [--smoke]
//
// --smoke shrinks the seed pool and only probes {1, max} jobs so CI can run
// the parity check cheaply; the ">= 4x at 8 threads" gate only applies to
// full runs on machines with at least 8 hardware threads.
//
// The binary links the global allocation probe, so each job point also
// reports heap allocations per run — a coarse watch on allocator churn in
// the sweep engine itself (runs allocate their own worlds, so this is a
// per-run total, not a zero gate like bench_alloc_fastpath's).
#include "../tests/alloc_probe.h"  // global new/delete counters (one TU rule)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "exec/sweep.h"
#include "obs/metrics.h"
#include "util/ini.h"
#include "util/strings.h"

namespace bass {
namespace {

std::vector<exec::RunSpec> seed_specs(std::uint64_t count) {
  std::vector<exec::RunSpec> specs;
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    specs.push_back({util::str_format("seed %llu",
                                      static_cast<unsigned long long>(seed)),
                     {{"chaos", "seed", std::to_string(seed)}}});
  }
  return specs;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      path = argv[i];
    }
  }

  bench::print_header("Sweep-engine scaling (runs/sec vs worker threads)");

  // Resolve the scenario relative to common launch directories (repo root,
  // build/, build/bench/).
  util::Expected<util::IniFile> base = util::make_error("unset");
  const std::vector<std::string> candidates =
      path.empty() ? std::vector<std::string>{
                         "examples/scenarios/chaos_soak.ini",
                         "../examples/scenarios/chaos_soak.ini",
                         "../../examples/scenarios/chaos_soak.ini"}
                   : std::vector<std::string>{path};
  for (const auto& candidate : candidates) {
    base = util::load_ini(candidate);
    if (base.ok()) {
      std::printf("scenario: %s\n", candidate.c_str());
      break;
    }
  }
  if (!base.ok()) {
    std::fprintf(stderr, "bench_sweep: %s\n", base.error().c_str());
    return 1;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t seeds = smoke ? 4 : 32;
  const auto specs = seed_specs(seeds);

  std::vector<std::size_t> job_points{1};
  if (smoke) {
    if (hw > 1) job_points.push_back(hw);
  } else {
    for (std::size_t j = 2; j <= hw; j *= 2) job_points.push_back(j);
    if (job_points.back() != hw) job_points.push_back(hw);
  }

  std::printf("seeds: %llu   hardware threads: %u\n\n",
              static_cast<unsigned long long>(seeds), hw);
  std::printf("%6s  %10s  %9s  %8s  %12s\n", "jobs", "wall ms", "runs/sec",
              "speedup", "allocs/run");

  obs::MetricsRegistry reg;
  bench::emit_build_info(reg);
  std::vector<exec::RunOutcome> baseline;
  double serial_runs_per_sec = 0.0;
  double speedup_at_8 = 0.0;
  bool parity_ok = true;

  for (const std::size_t jobs : job_points) {
    const auto alloc_snap = testing::take_alloc_snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = exec::run_sweep(base.value(), specs, jobs);
    const double allocs_per_run =
        static_cast<double>(testing::allocations_since(alloc_snap)) / seeds;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    const double runs_per_sec =
        wall_ms > 0.0 ? static_cast<double>(seeds) * 1000.0 / wall_ms : 0.0;

    for (const auto& outcome : outcomes) {
      if (!outcome.error.empty()) {
        std::fprintf(stderr, "bench_sweep: run failed: %s\n", outcome.error.c_str());
        return 1;
      }
    }
    if (jobs == 1) {
      baseline = outcomes;
      serial_runs_per_sec = runs_per_sec;
    } else {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].journal != baseline[i].journal) {
          std::fprintf(stderr,
                       "bench_sweep: PARITY VIOLATION at jobs=%zu, %s — journal "
                       "differs from serial run\n",
                       jobs, outcomes[i].label.c_str());
          parity_ok = false;
        }
      }
    }

    const double speedup =
        serial_runs_per_sec > 0.0 ? runs_per_sec / serial_runs_per_sec : 0.0;
    if (jobs == 8) speedup_at_8 = speedup;
    std::printf("%6zu  %10.1f  %9.1f  %7.2fx  %12.0f\n", jobs, wall_ms,
                runs_per_sec, speedup, allocs_per_run);

    const obs::Labels labels{{"jobs", std::to_string(jobs)}};
    reg.gauge("sweep.wall_ms", labels).set(wall_ms);
    reg.gauge("sweep.runs_per_sec", labels).set(runs_per_sec);
    reg.gauge("sweep.speedup", labels).set(speedup);
    reg.gauge("sweep.allocs_per_run", labels).set(allocs_per_run);
  }
  reg.gauge("sweep.seeds").set(static_cast<double>(seeds));
  reg.gauge("sweep.hardware_threads").set(static_cast<double>(hw));
  reg.gauge("sweep.parity_ok").set(parity_ok ? 1.0 : 0.0);

  // Pooled decision latency across the serial pass: every run carried its
  // own recorder, so the per-run log histograms merge into sweep-wide
  // percentiles — the load the sweep engine puts on each run's controller.
  obs::LogHistogram decision_us;
  for (const exec::RunOutcome& outcome : baseline) {
    for (const auto& [name, h] : outcome.latency_histograms) {
      if (name == "orchestrator.decision_us") decision_us.merge(h);
    }
  }
  if (decision_us.count() > 0) {
    std::printf("\ndecision latency across %llu seeds: p50 %.1f us,"
                " p99 %.1f us, max %.1f us (%lld rounds)\n",
                static_cast<unsigned long long>(seeds),
                decision_us.percentile(0.50), decision_us.percentile(0.99),
                decision_us.max(), static_cast<long long>(decision_us.count()));
    reg.gauge("sweep.decision_us_p50").set(decision_us.percentile(0.50));
    reg.gauge("sweep.decision_us_p99").set(decision_us.percentile(0.99));
  }

  if (!bench::write_bench_json("sweep", reg)) return 1;
  if (!parity_ok) return 1;

  if (!smoke && hw >= 8) {
    std::printf("\nspeedup at 8 jobs: %.2fx (gate: >= 4x)\n", speedup_at_8);
    if (speedup_at_8 < 4.0) {
      std::fprintf(stderr, "bench_sweep: speedup gate FAILED (%.2fx < 4x)\n",
                   speedup_at_8);
      return 1;
    }
  } else if (hw < 8) {
    std::printf("\n(speedup gate skipped: only %u hardware threads)\n", hw);
  }
  return 0;
}

}  // namespace
}  // namespace bass

int main(int argc, char** argv) { return bass::run(argc, argv); }

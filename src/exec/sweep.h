// Parallel deterministic scenario-sweep engine (DESIGN.md §9): fans N
// independent scenario runs (chaos seeds, parameter grids) across hardware
// threads.
//
//  * Per-run isolation — every run owns its Scenario (simulation, Rng
//    streams, obs::Recorder); the worker installs the run's recorder as the
//    thread's global profiling recorder for the duration of the run.
//  * One build path — every run hands its own (overridden) ini to
//    Scenario::from_ini, exactly as `bassctl run` does; runs without
//    overrides read the caller's base ini in place.
//  * Deterministic aggregation — outcomes land in a vector indexed by run
//    id, so reports/journals are byte-identical to the serial order no
//    matter how completions interleave (`--jobs 1` vs `--jobs 8` parity is
//    locked by tests/exec_test.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "util/ini.h"

namespace bass::exec {

// One `key = value` override applied to the first section of `kind` before
// a run; the section is appended when the scenario does not have one.
struct IniOverride {
  std::string kind;
  std::string key;
  std::string value;
};

void apply_overrides(util::IniFile& ini, const std::vector<IniOverride>& overrides);

// One run of a sweep: a label for reporting plus the ini deltas that make
// this run different from the base scenario (a chaos seed, a grid cell).
struct RunSpec {
  std::string label;
  std::vector<IniOverride> overrides;
};

// Everything a harness reports about one run, captured while the run's
// world is still alive (the Scenario itself is torn down inside the sweep).
struct RunOutcome {
  std::string label;
  // Non-empty when the scenario failed to build; all other fields are
  // default-initialized in that case.
  std::string error;
  scenario::RunReport report;
  std::string journal;       // full event journal, JSONL
  std::string fault_events;  // fault_injected subset, JSONL
  std::string metrics_json;  // full metrics snapshot (counters/gauges/histos)
  // Log-scale latency histograms by metric name, copied out so a harness
  // can merge them across runs (obs::LogHistogram::merge) and report
  // sweep-wide percentiles. Labels are folded away — same-name histograms
  // from different runs are the same population.
  std::vector<std::pair<std::string, obs::LogHistogram>> latency_histograms;
  std::vector<double> recovery_s;  // failover outage lengths, seconds
  int components_down = 0;         // components still down at run end
};

// Runs every spec against `base` on `jobs` worker threads (0 =
// hardware_concurrency, 1 = inline serial baseline). Runs without overrides
// share `base` read-only; the rest patch a private copy. Outcomes are
// indexed by spec position.
std::vector<RunOutcome> run_sweep(const util::IniFile& base,
                                  const std::vector<RunSpec>& specs,
                                  std::size_t jobs);

}  // namespace bass::exec

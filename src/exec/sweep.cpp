#include "exec/sweep.h"

#include <thread>
#include <variant>

#include "exec/pool.h"
#include "obs/recorder.h"

namespace bass::exec {

void apply_overrides(util::IniFile& ini, const std::vector<IniOverride>& overrides) {
  for (const IniOverride& o : overrides) {
    util::IniSection* section = nullptr;
    for (util::IniSection& candidate : ini.sections) {
      if (candidate.kind() == o.kind) {
        section = &candidate;
        break;
      }
    }
    if (section == nullptr) {
      ini.sections.push_back(util::IniSection{{o.kind}, {}});
      section = &ini.sections.back();
    }
    bool replaced = false;
    for (auto& [key, value] : section->entries) {
      if (key == o.key) {
        value = o.value;
        replaced = true;
        break;
      }
    }
    if (!replaced) section->entries.emplace_back(o.key, o.value);
  }
}

namespace {

RunOutcome run_one(const util::IniFile& base, const RunSpec& spec) {
  RunOutcome out;
  out.label = spec.label;

  // Runs with no deltas read the base ini outright; otherwise patch a
  // private copy.
  const util::IniFile* ini = &base;
  util::IniFile patched;
  if (!spec.overrides.empty()) {
    patched = base;
    apply_overrides(patched, spec.overrides);
    ini = &patched;
  }

  auto s = scenario::Scenario::from_ini(*ini);
  if (!s.ok()) {
    out.error = s.error();
    return out;
  }
  scenario::Scenario& scene = *s.value();

  // Kernel profiling scopes (BASS_OBS_SCOPE) resolve through the calling
  // thread's recorder slot: bind this run's recorder so its timings never
  // land in a concurrently running neighbour.
  {
    obs::ScopedGlobalRecorder bind(&scene.recorder());
    out.report = scene.run();
  }

  core::Orchestrator& orch = scene.orchestrator();
  for (const core::MigrationEvent& ev : orch.migration_events()) {
    if (ev.reason == core::MoveReason::kFailover) {
      out.recovery_s.push_back(sim::to_seconds(ev.at - ev.started_at));
    }
  }
  // Retired deployments are gone, not down: count active ones only.
  for (core::DeploymentId id = 0; id < orch.deployment_count(); ++id) {
    if (!orch.deployment_active(id)) continue;
    for (app::ComponentId c = 0; c < orch.app(id).component_count(); ++c) {
      if (!orch.is_up(id, c)) ++out.components_down;
    }
  }
  scene.recorder().journal().for_each([&out](const obs::Event& e) {
    if (std::holds_alternative<obs::FaultInjected>(e)) {
      obs::append_jsonl(e, out.fault_events);
      out.fault_events += '\n';
    }
  });
  out.journal = scene.recorder().journal().to_jsonl();
  out.metrics_json = scene.recorder().metrics().to_json(scene.now());
  scene.recorder().metrics().for_each_log_histogram(
      [&out](const std::string& name, const obs::Labels&,
             const obs::LogHistogram& h) {
        if (h.count() == 0) return;
        for (auto& [existing, merged] : out.latency_histograms) {
          if (existing == name) {
            merged.merge(h);
            return;
          }
        }
        out.latency_histograms.emplace_back(name, h);
      });
  return out;
}

}  // namespace

std::vector<RunOutcome> run_sweep(const util::IniFile& base,
                                  const std::vector<RunSpec>& specs,
                                  std::size_t jobs) {
  if (jobs == 0) {
    jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  std::vector<RunOutcome> outcomes(specs.size());
  parallel_for(jobs, specs.size(), [&base, &specs, &outcomes](std::size_t i) {
    outcomes[i] = run_one(base, specs[i]);
  });
  return outcomes;
}

}  // namespace bass::exec

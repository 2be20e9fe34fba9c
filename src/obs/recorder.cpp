#include "obs/recorder.h"

#include <atomic>

namespace bass::obs {

namespace {

// Thread-local slot, checked first. Each sweep worker installs the run's
// recorder here (exec::run_sweep does this via ScopedGlobalRecorder), so
// kernels profiled through BASS_OBS_SCOPE attribute timings to the run
// executing on this thread — concurrent runs cannot cross-contaminate.
thread_local Recorder* t_recorder = nullptr;

// Process-wide fallback for single-threaded harnesses that install one
// recorder up front. Atomic so an install can never tear against a reader
// on another thread; the ownership rule (recorder.h) is to install it
// before spawning workers, so relaxed ordering suffices.
std::atomic<Recorder*> g_default_recorder{nullptr};

}  // namespace

Recorder::Recorder(RecorderConfig config)
    : enabled_(config.enabled),
      journal_(config.journal_capacity) {
  // One counter per variant alternative, so record() indexes instead of
  // hashing. Instantiate each alternative to name its counter.
  const Event samples[] = {
      ScheduleDecision{}, ProbeCompleted{},     HeadroomViolation{},
      MigrationStarted{}, MigrationCompleted{}, ControllerRound{},
      ReallocationSolved{}, LinkCapacityChanged{}, FaultInjected{},
      InvariantViolation{}, DeploymentClosed{},    AdmissionOutcome{},
      OrchestratorWarning{},  ZoneRound{},
  };
  static_assert(std::variant_size_v<Event> == sizeof(samples) / sizeof(samples[0]),
                "register a counter sample for every event alternative");
  type_counters_.resize(std::variant_size_v<Event>, nullptr);
  for (const Event& e : samples) {
    type_counters_[e.index()] =
        &metrics_.counter(std::string("events.") + event_type_name(e));
  }
  span_stack_.reserve(8);
}

Recorder* global_recorder() {
  Recorder* r = t_recorder;
  return r != nullptr ? r : g_default_recorder.load(std::memory_order_relaxed);
}

Recorder* set_global_recorder(Recorder* recorder) {
  Recorder* prev = t_recorder;
  t_recorder = recorder;
  return prev;
}

void set_default_global_recorder(Recorder* recorder) {
  g_default_recorder.store(recorder, std::memory_order_relaxed);
}

}  // namespace bass::obs

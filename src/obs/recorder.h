// The single handle every subsystem emits through: one Recorder owns the
// event journal and the metrics registry, and is handed down from the
// scenario runner (or a test/bench harness) via each subsystem's
// set_recorder(). Everything tolerates a null recorder — instrumentation
// is pay-for-what-you-use: with no recorder attached, an emit site costs
// one pointer compare and a profiling scope costs one branch (no clock
// read, no allocation).
//
// Pure kernels (the packers, the migration policy) have no recorder
// parameter by design; their profiling scopes reach the
// process-wide recorder installed with set_global_recorder(). Harnesses
// that want kernel timings install theirs explicitly; library code never
// installs one.
#pragma once

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace bass::obs {

struct RecorderConfig {
  std::size_t journal_capacity = 1 << 16;
  // Master switch: a disabled recorder drops events/timings at the emit
  // site (subsystems check enabled() once per emit).
  bool enabled = true;
};

class Recorder {
 public:
  explicit Recorder(RecorderConfig config = {});
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Journals the event and bumps the per-type "events.<type>" counter.
  void record(Event event) {
    if (!enabled_) return;
    type_counters_[event.index()]->inc();
    journal_.record(std::move(event));
  }

  // ---- Causal spans ----
  //
  // Span ids come from a per-recorder monotonic counter: each run owns one
  // recorder and emits from one thread, so same-seed runs hand out the same
  // ids in the same order and journals stay byte-identical. A scope stack
  // carries the "current cause" across call boundaries (controller round →
  // orchestrator move → network reallocation) without threading ids through
  // every signature.
  SpanId new_span() { return enabled_ ? ++last_span_ : kNoSpan; }
  SpanId current_span() const {
    return span_stack_.empty() ? kNoSpan : span_stack_.back();
  }
  void push_span(SpanId span) { span_stack_.push_back(span); }
  void pop_span() {
    if (!span_stack_.empty()) span_stack_.pop_back();
  }

  EventJournal& journal() { return journal_; }
  const EventJournal& journal() const { return journal_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  bool enabled_ = true;
  EventJournal journal_;
  MetricsRegistry metrics_;
  // Per-type event counters, indexed by variant alternative — cached so
  // record() on hot paths never hashes a metric name.
  std::vector<Counter*> type_counters_;
  // Causal-span state: monotonic id source + active-scope stack.
  SpanId last_span_ = 0;
  std::vector<SpanId> span_stack_;
};

// RAII span scope: pushes `span` as the current cause for the duration.
// Null-recorder and no-span tolerant, so emit sites can use it
// unconditionally.
class SpanScope {
 public:
  SpanScope(Recorder* recorder, SpanId span)
      : recorder_(span != kNoSpan ? recorder : nullptr) {
    if (recorder_ != nullptr) recorder_->push_span(span);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->pop_span();
  }

 private:
  Recorder* recorder_;
};

// Recorder for profiling scopes inside pure kernels. Resolution is one TLS
// load + null check: the calling thread's slot wins, and only a thread with
// no slot installed falls back to the process-wide default.
//
// Ownership rule: the recorder outlives its installation (install nullptr
// before destroying it). set_global_recorder() binds the *calling thread*
// only — a sweep worker installs its run's recorder for the duration of the
// run (use ScopedGlobalRecorder), so concurrent runs never share a slot.
// set_default_global_recorder() sets the process-wide fallback for
// single-threaded harnesses; install it before spawning worker threads.
Recorder* global_recorder();
// Returns the calling thread's previous slot value (for restore-on-exit).
Recorder* set_global_recorder(Recorder* recorder);
void set_default_global_recorder(Recorder* recorder);

// RAII install/restore of the calling thread's global-recorder slot.
class ScopedGlobalRecorder {
 public:
  explicit ScopedGlobalRecorder(Recorder* recorder)
      : prev_(set_global_recorder(recorder)) {}
  ScopedGlobalRecorder(const ScopedGlobalRecorder&) = delete;
  ScopedGlobalRecorder& operator=(const ScopedGlobalRecorder&) = delete;
  ~ScopedGlobalRecorder() { set_global_recorder(prev_); }

 private:
  Recorder* prev_;
};

// RAII wall-clock timer feeding a registry log-bucketed timer histogram
// ("<name>", unit microseconds). The clock is only read when a live,
// enabled recorder is present at construction.
class ScopedTimer {
 public:
  ScopedTimer(Recorder* recorder, const char* name)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
        name_(name) {
    if (recorder_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (recorder_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    recorder_->metrics().log_timer_us(name_).observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

 private:
  Recorder* recorder_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bass::obs

// Profiling scope against the global recorder, for pure kernels that take
// no Recorder. Compiles to nothing with -DBASS_OBS_NO_PROFILING (perf
// builds that refuse even the null-check branch).
#ifdef BASS_OBS_NO_PROFILING
#define BASS_OBS_SCOPE(name)
#else
#define BASS_OBS_SCOPE(name) \
  ::bass::obs::ScopedTimer bass_obs_scope_##__LINE__(::bass::obs::global_recorder(), name)
#endif

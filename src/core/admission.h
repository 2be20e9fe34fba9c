// Admission/placement queue for the long-running control plane (bassd,
// DESIGN.md §10). One-shot experiments call Orchestrator::deploy directly
// and treat failure as fatal; a serving loop cannot — arrivals outpace
// capacity all the time in a community mesh, and what happens next is
// policy:
//
//   * fifo    — strict arrival order with head-of-line blocking: the head
//               request retries every `retry_interval` until it fits;
//               nothing is ever rejected (and nothing overtakes).
//   * reject  — admit-or-reject at arrival; the queue depth stays zero and
//               callers learn their fate immediately (paper-style "the mesh
//               is full" behavior).
//   * defer   — failed requests go to the back of the queue and retry up to
//               `max_retries` times before rejection; later arrivals that
//               fit may overtake a stuck one.
//
// Every resolution journals a typed AdmissionOutcome event and updates the
// admission gauges (queue depth, sim-time admission wait), so p50/p99
// admission latency is readable straight off the metrics registry. All
// timing is sim-clock: same seed ⇒ identical outcomes, byte-identical
// journals.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "core/orchestrator.h"
#include "util/expected.h"

namespace bass::core {

enum class AdmissionPolicy { kFifo, kRejectOnPressure, kDeferRetry };

const char* admission_policy_name(AdmissionPolicy policy);
// Accepts "fifo", "reject", "defer"; error otherwise.
util::Expected<AdmissionPolicy> parse_admission_policy(const std::string& name);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kFifo;
  sim::Duration retry_interval = sim::seconds(30);
  int max_retries = 5;  // defer policy only
};

struct AdmissionStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t deferred = 0;   // defer bounces (one request can defer many times)
  std::int64_t cancelled = 0;  // departed while still queued
  int peak_depth = 0;
};

class AdmissionQueue {
 public:
  // `on_decision(instance, deployment, admitted)` fires exactly once per
  // submitted request that is admitted or rejected (never for defers, and
  // never for cancelled requests).
  using DecisionFn =
      std::function<void(int instance, DeploymentId deployment, bool admitted)>;

  AdmissionQueue(sim::Simulation& sim, Orchestrator& orchestrator,
                 AdmissionConfig config);
  ~AdmissionQueue();
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Observability is optional and attached once, before traffic.
  void set_recorder(obs::Recorder* recorder);

  // Submits a deploy request. `instance` is the caller's identity for the
  // request (the churn driver's instance counter); `name` is passed to
  // Orchestrator::deploy for duplicate detection. The prepared app is held
  // shared until the request resolves, so retries never copy it.
  // Resolution may be immediate (reject policy, or the app fits right now)
  // or arbitrarily later.
  void submit(int instance, std::string name,
              std::shared_ptr<const sched::PreparedApp> app, SchedulerKind kind,
              DecisionFn on_decision);

  // Drops a still-queued request (the instance departed before it was ever
  // admitted). False if the instance is not waiting.
  bool cancel(int instance);

  // Re-attempts admission from the queue — call when capacity was released
  // (an undeploy) so waiting requests don't sit out a full retry interval.
  void kick();

  int depth() const { return static_cast<int>(queue_.size()); }
  const AdmissionStats& stats() const { return stats_; }

 private:
  struct Pending {
    int instance = -1;
    std::string name;
    std::shared_ptr<const sched::PreparedApp> app;
    SchedulerKind kind = SchedulerKind::kBassAuto;
    DecisionFn on_decision;
    sim::Time arrived = 0;
    int retries = 0;
  };

  // Tries to admit `p` right now; true on success (decision fired).
  bool try_admit(Pending& p);
  void resolve_reject(Pending& p);
  // Drains the queue head(s) per policy; arms the retry timer if blocked.
  void pump();
  void arm_retry();
  void journal(const char* action, int instance, DeploymentId deployment,
               sim::Duration wait);
  void update_depth_gauge();

  sim::Simulation* sim_;
  Orchestrator* orch_;
  AdmissionConfig config_;
  obs::Recorder* recorder_ = nullptr;
  obs::Gauge* m_depth_ = nullptr;
  obs::LogHistogram* m_wait_us_ = nullptr;
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_deferred_ = nullptr;
  std::deque<Pending> queue_;
  sim::EventId retry_timer_ = sim::kInvalidEvent;
  AdmissionStats stats_;
};

}  // namespace bass::core

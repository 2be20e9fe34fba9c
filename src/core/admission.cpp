#include "core/admission.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace bass::core {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kFifo: return "fifo";
    case AdmissionPolicy::kRejectOnPressure: return "reject";
    case AdmissionPolicy::kDeferRetry: return "defer";
  }
  return "?";
}

util::Expected<AdmissionPolicy> parse_admission_policy(const std::string& name) {
  if (name == "fifo") return AdmissionPolicy::kFifo;
  if (name == "reject") return AdmissionPolicy::kRejectOnPressure;
  if (name == "defer") return AdmissionPolicy::kDeferRetry;
  return util::make_error("unknown admission policy '" + name +
                          "' (expected fifo | reject | defer)");
}

AdmissionQueue::AdmissionQueue(sim::Simulation& sim, Orchestrator& orchestrator,
                               AdmissionConfig config)
    : sim_(&sim), orch_(&orchestrator), config_(config) {}

AdmissionQueue::~AdmissionQueue() { sim_->cancel(retry_timer_); }

void AdmissionQueue::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_depth_ = nullptr;
    m_wait_us_ = nullptr;
    m_admitted_ = nullptr;
    m_rejected_ = nullptr;
    m_deferred_ = nullptr;
    return;
  }
  m_depth_ = &recorder->metrics().gauge("orchestrator.admission_queue_depth");
  // Admission wait is sim-clock (arrival -> resolution), not wall clock, so
  // the histogram is deterministic and journal-safe to export.
  m_wait_us_ = &recorder->metrics().log_timer_us("orchestrator.admission_wait_us");
  m_admitted_ = &recorder->metrics().counter("orchestrator.admissions_admitted");
  m_rejected_ = &recorder->metrics().counter("orchestrator.admissions_rejected");
  m_deferred_ = &recorder->metrics().counter("orchestrator.admissions_deferred");
}

void AdmissionQueue::journal(const char* action, int instance,
                             DeploymentId deployment, sim::Duration wait) {
  if (recorder_ == nullptr) return;
  obs::AdmissionOutcome outcome;
  outcome.at = sim_->now();
  outcome.instance = instance;
  outcome.deployment = deployment;
  outcome.action = action;
  outcome.queue_depth = depth();
  outcome.wait = wait;
  outcome.span = recorder_->new_span();
  outcome.parent = recorder_->current_span();
  recorder_->record(outcome);
}

void AdmissionQueue::update_depth_gauge() {
  if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(depth()));
  stats_.peak_depth = std::max(stats_.peak_depth, depth());
}

bool AdmissionQueue::try_admit(Pending& p) {
  // deploy() takes its own reference, so a failed attempt leaves `p.app` in
  // place for the next retry.
  auto result = orch_->deploy(p.app, p.kind, p.name);
  if (!result.ok()) return false;
  const sim::Duration wait = sim_->now() - p.arrived;
  ++stats_.admitted;
  if (m_wait_us_ != nullptr) {
    m_wait_us_->observe(static_cast<double>(wait));
    m_admitted_->inc();
  }
  journal("admit", p.instance, result.value(), wait);
  if (p.on_decision) p.on_decision(p.instance, result.value(), true);
  return true;
}

void AdmissionQueue::resolve_reject(Pending& p) {
  const sim::Duration wait = sim_->now() - p.arrived;
  ++stats_.rejected;
  if (m_wait_us_ != nullptr) {
    m_wait_us_->observe(static_cast<double>(wait));
    m_rejected_->inc();
  }
  journal("reject", p.instance, kInvalidDeployment, wait);
  if (p.on_decision) p.on_decision(p.instance, kInvalidDeployment, false);
}

void AdmissionQueue::submit(int instance, std::string name,
                            std::shared_ptr<const sched::PreparedApp> app,
                            SchedulerKind kind, DecisionFn on_decision) {
  ++stats_.submitted;
  Pending p;
  p.instance = instance;
  p.name = std::move(name);
  p.app = std::move(app);
  p.kind = kind;
  p.on_decision = std::move(on_decision);
  p.arrived = sim_->now();

  if (config_.policy == AdmissionPolicy::kRejectOnPressure) {
    // Resolve at the door; the queue never holds anything.
    if (!try_admit(p)) resolve_reject(p);
    update_depth_gauge();
    return;
  }
  queue_.push_back(std::move(p));
  update_depth_gauge();
  pump();
}

bool AdmissionQueue::cancel(int instance) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->instance != instance) continue;
    const sim::Duration wait = sim_->now() - it->arrived;
    ++stats_.cancelled;
    journal("cancel", instance, kInvalidDeployment, wait);
    queue_.erase(it);
    update_depth_gauge();
    return true;
  }
  return false;
}

void AdmissionQueue::kick() { pump(); }

void AdmissionQueue::arm_retry() {
  if (retry_timer_ != sim::kInvalidEvent || queue_.empty()) return;
  retry_timer_ = sim_->schedule_after(config_.retry_interval, [this] {
    retry_timer_ = sim::kInvalidEvent;
    pump();
  });
}

void AdmissionQueue::pump() {
  // Admit as many heads as fit. On a miss: fifo holds the head (strict
  // ordering), defer sends it to the back — and only probes each waiting
  // request once per pump so a pump never loops forever.
  std::size_t probes = queue_.size();
  while (!queue_.empty() && probes-- > 0) {
    Pending& head = queue_.front();
    if (try_admit(head)) {
      queue_.pop_front();
      update_depth_gauge();
      continue;
    }
    if (config_.policy == AdmissionPolicy::kFifo) break;
    // Defer-and-retry: bounded bounces, then reject.
    ++head.retries;
    if (head.retries > config_.max_retries) {
      resolve_reject(head);
      queue_.pop_front();
      update_depth_gauge();
      continue;
    }
    ++stats_.deferred;
    if (m_deferred_ != nullptr) m_deferred_->inc();
    journal("defer", head.instance, kInvalidDeployment, sim_->now() - head.arrived);
    Pending bounced = std::move(head);
    queue_.pop_front();
    queue_.push_back(std::move(bounced));
  }
  arm_retry();
}

}  // namespace bass::core

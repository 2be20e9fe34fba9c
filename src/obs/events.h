// The event taxonomy of the observability layer: every decision the
// orchestration stack takes — and every measurement that fed it — becomes
// one typed record carrying its sim-time timestamp and the entity ids
// involved. The journal stores these verbatim; exporters render them as
// JSON Lines (one flat object per line) or as Chrome/Perfetto trace_event
// entries, so a run can be grepped *and* scrubbed visually.
//
// Naming convention: events are past-tense facts ("MigrationCompleted"),
// never intentions. A new event type needs (1) a struct here, (2) a case in
// event_time/event_type_name/append_jsonl, and (3) a mapping in the trace
// exporter (journal.cpp) — the compiler's std::visit exhaustiveness check
// enforces the last two.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "net/types.h"
#include "sim/time.h"

namespace bass::obs {

// Causal span identity. A span is allocated from the owning Recorder's
// monotonic counter — never from wall clock — so same-seed runs assign the
// same ids and journals stay byte-identical. `span` names the event itself
// (when it can be a cause); `parent` names the span whose work produced it,
// forming chains like controller_round → migration_started →
// migration_completed. Zero means "no span": recording disabled, or the
// event happened outside any attributable scope.
using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

// A scheduler produced (or failed to produce) a placement for a deployment.
struct ScheduleDecision {
  sim::Time at = 0;
  int deployment = -1;
  std::string scheduler;        // e.g. "bass-auto", "k3s-default"
  int components = 0;           // size of the app DAG placed
  net::Bps crossing_bps = 0;    // mesh-crossing bandwidth of the placement
  double place_us = 0.0;        // wall-clock placement latency (in-memory
                                // only; excluded from the JSONL journal so
                                // same-seed runs serialize byte-identically)
  bool success = false;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// A net-monitor probe (full flood or headroom) finished on a directed link.
struct ProbeCompleted {
  sim::Time at = 0;
  net::LinkId link = net::kInvalidLink;
  bool full = false;            // true: max-capacity flood; false: headroom
  net::Bps offered_bps = 0;     // probe demand
  net::Bps measured_bps = 0;    // delivered goodput
  std::int64_t bytes = 0;       // probe bytes that crossed the mesh
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// A headroom probe came up short — the §4.2 trigger for the controller.
struct HeadroomViolation {
  sim::Time at = 0;
  net::LinkId link = net::kInvalidLink;
  net::Bps delivered_bps = 0;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// A component went down for a move (restart outage begins). `reason` is a
// static move_reason_name() literal ("controller", "failover", ...).
struct MigrationStarted {
  sim::Time at = 0;
  int deployment = -1;
  int component = -1;
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;  // requested target (may be revised)
  const char* reason = "";
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// The moved component came back up. `downtime` spans the whole outage
// (state transfer + restart), so the trace exporter can draw the move as a
// duration slice [at - downtime, at].
struct MigrationCompleted {
  sim::Time at = 0;
  int deployment = -1;
  int component = -1;
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;  // where it actually landed
  sim::Duration downtime = 0;          // 0 when the outage start is unknown
  const char* reason = "";             // matches the MigrationStarted reason
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// One bandwidth-controller evaluation round that found work (Table 1 rows).
struct ControllerRound {
  sim::Time at = 0;
  int deployment = -1;
  int violating = 0;            // components exceeding their quota
  int migrations_started = 0;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// The flow allocator repriced a contention component.
struct ReallocationSolved {
  sim::Time at = 0;
  std::int64_t flows = 0;       // entities repriced this pass
  std::int64_t links = 0;       // links in the component
  bool full = false;            // component covered every active entity
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// A link's raw capacity changed (trace tick, tc reshape, experiment).
struct LinkCapacityChanged {
  sim::Time at = 0;
  net::LinkId link = net::kInvalidLink;
  net::Bps old_bps = 0;
  net::Bps new_bps = 0;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// The fault injector applied one action from its plan. `kind` is a static
// fault_kind_name() literal; `peer` is set for link faults, `value` carries
// the probe-loss rate (0 otherwise).
struct FaultInjected {
  sim::Time at = 0;
  const char* kind = "";
  net::NodeId node = net::kInvalidNode;
  net::NodeId peer = net::kInvalidNode;
  double value = 0.0;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// The invariant checker caught a safety-property violation. `name` is a
// static invariant identifier; `detail` is human-readable context.
struct InvariantViolation {
  sim::Time at = 0;
  const char* name = "";
  std::string detail;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// A deployment departed: its components went down, resources were released,
// and pending migrations were cancelled (Orchestrator::undeploy).
struct DeploymentClosed {
  sim::Time at = 0;
  int deployment = -1;
  int components = 0;           // components torn down (previously up)
  sim::Duration lifetime = 0;   // deploy -> undeploy sim-time span
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// The admission queue resolved one pending deploy request. `action` is a
// static literal ("admit", "reject", "defer"); `deployment` is set only on
// admit. POD by design (const char*, no std::string), so the event owns no
// heap memory.
struct AdmissionOutcome {
  sim::Time at = 0;
  int instance = -1;            // workload-driver instance id
  int deployment = -1;          // admitted DeploymentId, -1 otherwise
  const char* action = "";
  int queue_depth = 0;          // queued requests after this outcome
  sim::Duration wait = 0;       // arrival -> outcome admission latency
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// The orchestrator rejected a nonsensical or duplicate request instead of
// silently double-applying state. `what` is a static literal
// ("node_already_failed", "duplicate_deployment", "undeploy_inactive", ...).
struct OrchestratorWarning {
  sim::Time at = 0;
  const char* what = "";
  int deployment = -1;
  net::NodeId node = net::kInvalidNode;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

// One sharded-orchestration zone round settled. The coordinator emits a
// summary record (zone = -1) whose span parents one record per zone, so the
// causal chain reads coordinator round → zone rounds. Timestamps and ids
// are sim-time/counter derived — no wall clock — so same-seed sharded runs
// stay byte-identical; the round's wall time lives in the metrics registry.
struct ZoneRound {
  sim::Time at = 0;
  int zone = -1;                // -1: coordinator summary over all zones
  int round = 0;
  int flows = 0;                // open streams in the zone at round end
  int border_streams = 0;       // transit stream halves touching the zone
  int recon_iterations = 0;     // reconciliation passes that changed a rate
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
};

using Event = std::variant<ScheduleDecision, ProbeCompleted, HeadroomViolation,
                           MigrationStarted, MigrationCompleted, ControllerRound,
                           ReallocationSolved, LinkCapacityChanged, FaultInjected,
                           InvariantViolation, DeploymentClosed, AdmissionOutcome,
                           OrchestratorWarning, ZoneRound>;

// Sim-time timestamp of any event.
sim::Time event_time(const Event& event);

// Stable snake_case tag used in exports and `bassctl events --type` filters.
const char* event_type_name(const Event& event);

// Span identity / causal parent of any event (kNoSpan when unattributed).
SpanId event_span(const Event& event);
SpanId event_parent(const Event& event);

// Appends the event as one flat JSON object line (no trailing newline).
// Every line carries "t_us", "type", "span", and "parent"; remaining keys
// are per-type.
void append_jsonl(const Event& event, std::string& out);

}  // namespace bass::obs

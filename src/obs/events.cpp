#include "obs/events.h"

#include "obs/json.h"
#include "util/strings.h"

namespace bass::obs {

void append_json_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::str_format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

struct TimeVisitor {
  template <typename T>
  sim::Time operator()(const T& e) const { return e.at; }
};

struct SpanVisitor {
  template <typename T>
  SpanId operator()(const T& e) const { return e.span; }
};

struct ParentVisitor {
  template <typename T>
  SpanId operator()(const T& e) const { return e.parent; }
};

struct NameVisitor {
  const char* operator()(const ScheduleDecision&) const { return "schedule_decision"; }
  const char* operator()(const ProbeCompleted&) const { return "probe_completed"; }
  const char* operator()(const HeadroomViolation&) const { return "headroom_violation"; }
  const char* operator()(const MigrationStarted&) const { return "migration_started"; }
  const char* operator()(const MigrationCompleted&) const { return "migration_completed"; }
  const char* operator()(const ControllerRound&) const { return "controller_round"; }
  const char* operator()(const ReallocationSolved&) const { return "reallocation_solved"; }
  const char* operator()(const LinkCapacityChanged&) const { return "link_capacity_changed"; }
  const char* operator()(const FaultInjected&) const { return "fault_injected"; }
  const char* operator()(const InvariantViolation&) const { return "invariant_violation"; }
  const char* operator()(const DeploymentClosed&) const { return "deployment_closed"; }
  const char* operator()(const AdmissionOutcome&) const { return "admission_outcome"; }
  const char* operator()(const OrchestratorWarning&) const { return "orchestrator_warning"; }
  const char* operator()(const ZoneRound&) const { return "zone_round"; }
};

struct JsonVisitor {
  std::string& out;

  void operator()(const ScheduleDecision& e) const {
    // place_us is wall clock and deliberately NOT serialized: the journal
    // must be byte-identical across repeated runs of the same seed. The
    // measurement is still available via the sched.place_us metrics timer.
    out += util::str_format(",\"deployment\":%d,\"scheduler\":", e.deployment);
    append_json_string(e.scheduler, out);
    out += util::str_format(
        ",\"components\":%d,\"crossing_bps\":%lld,\"success\":%s",
        e.components, static_cast<long long>(e.crossing_bps),
        e.success ? "true" : "false");
  }
  void operator()(const ProbeCompleted& e) const {
    out += util::str_format(
        ",\"link\":%d,\"full\":%s,\"offered_bps\":%lld,\"measured_bps\":%lld,"
        "\"bytes\":%lld",
        e.link, e.full ? "true" : "false", static_cast<long long>(e.offered_bps),
        static_cast<long long>(e.measured_bps), static_cast<long long>(e.bytes));
  }
  void operator()(const HeadroomViolation& e) const {
    out += util::str_format(",\"link\":%d,\"delivered_bps\":%lld", e.link,
                            static_cast<long long>(e.delivered_bps));
  }
  void operator()(const MigrationStarted& e) const {
    out += util::str_format(
        ",\"deployment\":%d,\"component\":%d,\"from\":%d,\"to\":%d,"
        "\"reason\":\"%s\"",
        e.deployment, e.component, e.from, e.to, e.reason);
  }
  void operator()(const MigrationCompleted& e) const {
    out += util::str_format(
        ",\"deployment\":%d,\"component\":%d,\"from\":%d,\"to\":%d,"
        "\"downtime_us\":%lld,\"reason\":\"%s\"",
        e.deployment, e.component, e.from, e.to,
        static_cast<long long>(e.downtime), e.reason);
  }
  void operator()(const ControllerRound& e) const {
    out += util::str_format(
        ",\"deployment\":%d,\"violating\":%d,\"migrations_started\":%d",
        e.deployment, e.violating, e.migrations_started);
  }
  void operator()(const ReallocationSolved& e) const {
    out += util::str_format(",\"flows\":%lld,\"links\":%lld,\"full\":%s",
                            static_cast<long long>(e.flows),
                            static_cast<long long>(e.links),
                            e.full ? "true" : "false");
  }
  void operator()(const LinkCapacityChanged& e) const {
    out += util::str_format(",\"link\":%d,\"old_bps\":%lld,\"new_bps\":%lld",
                            e.link, static_cast<long long>(e.old_bps),
                            static_cast<long long>(e.new_bps));
  }
  void operator()(const FaultInjected& e) const {
    out += util::str_format(",\"kind\":\"%s\",\"node\":%d,\"peer\":%d,\"value\":%g",
                            e.kind, e.node, e.peer, e.value);
  }
  void operator()(const InvariantViolation& e) const {
    out += util::str_format(",\"name\":\"%s\",\"detail\":", e.name);
    append_json_string(e.detail, out);
  }
  void operator()(const DeploymentClosed& e) const {
    out += util::str_format(
        ",\"deployment\":%d,\"components\":%d,\"lifetime_us\":%lld",
        e.deployment, e.components, static_cast<long long>(e.lifetime));
  }
  void operator()(const AdmissionOutcome& e) const {
    out += util::str_format(
        ",\"instance\":%d,\"deployment\":%d,\"action\":\"%s\","
        "\"queue_depth\":%d,\"wait_us\":%lld",
        e.instance, e.deployment, e.action, e.queue_depth,
        static_cast<long long>(e.wait));
  }
  void operator()(const OrchestratorWarning& e) const {
    out += util::str_format(",\"what\":\"%s\",\"deployment\":%d,\"node\":%d",
                            e.what, e.deployment, e.node);
  }
  void operator()(const ZoneRound& e) const {
    // No wall-clock field on purpose: round wall time goes to the
    // zone.round_wall_us metric, keeping same-seed journals byte-identical.
    out += util::str_format(
        ",\"zone\":%d,\"round\":%d,\"flows\":%d,\"border_streams\":%d,"
        "\"recon_iterations\":%d",
        e.zone, e.round, e.flows, e.border_streams, e.recon_iterations);
  }
};

}  // namespace

sim::Time event_time(const Event& event) {
  return std::visit(TimeVisitor{}, event);
}

const char* event_type_name(const Event& event) {
  return std::visit(NameVisitor{}, event);
}

SpanId event_span(const Event& event) {
  return std::visit(SpanVisitor{}, event);
}

SpanId event_parent(const Event& event) {
  return std::visit(ParentVisitor{}, event);
}

void append_jsonl(const Event& event, std::string& out) {
  // span/parent are serialized centrally — every line carries them, so the
  // schema check and `bassctl journal query --span` never need per-type
  // knowledge. Deterministic counters keep same-seed journals byte-equal.
  out += util::str_format("{\"t_us\":%lld,\"type\":\"%s\",\"span\":%llu,"
                          "\"parent\":%llu",
                          static_cast<long long>(event_time(event)),
                          event_type_name(event),
                          static_cast<unsigned long long>(event_span(event)),
                          static_cast<unsigned long long>(event_parent(event)));
  std::visit(JsonVisitor{out}, event);
  out += '}';
}

}  // namespace bass::obs

#include "obs/events.h"

#include <charconv>
#include <cstdio>
#include <type_traits>

#include "obs/json.h"

namespace bass::obs {

void append_json_string(const std::string& s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(c) >> 4];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
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

// Formats `,"key":value` pairs straight into the output line: integers
// through std::to_chars, so a journal line costs no temporary strings.
class Fields {
 public:
  explicit Fields(std::string& out) : out_(out) {}

  template <typename Int>
  Fields& num(const char* key, Int value) {
    static_assert(std::is_integral_v<Int>);
    this->key(key);
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
    return *this;
  }
  // printf's %g, as the journal has always written doubles.
  Fields& real(const char* key, double value) {
    this->key(key);
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%g", value);
    out_.append(buf, static_cast<std::size_t>(n));
    return *this;
  }
  Fields& flag(const char* key, bool value) {
    this->key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  // A static identifier, written without escaping.
  Fields& name(const char* key, const char* value) {
    this->key(key);
    out_ += '"';
    out_ += value;
    out_ += '"';
    return *this;
  }
  Fields& text(const char* key, const std::string& value) {
    this->key(key);
    append_json_string(value, out_);
    return *this;
  }

 private:
  void key(const char* key) {
    out_ += ",\"";
    out_ += key;
    out_ += "\":";
  }

  std::string& out_;
};

struct JsonVisitor {
  std::string& out;

  void operator()(const ScheduleDecision& e) const {
    // place_us is wall clock and deliberately NOT serialized: the journal
    // must be byte-identical across repeated runs of the same seed. The
    // measurement is still available via the sched.place_us metrics timer.
    Fields(out)
        .num("deployment", e.deployment)
        .text("scheduler", e.scheduler)
        .num("components", e.components)
        .num("crossing_bps", e.crossing_bps)
        .flag("success", e.success);
  }
  void operator()(const ProbeCompleted& e) const {
    Fields(out)
        .num("link", e.link)
        .flag("full", e.full)
        .num("offered_bps", e.offered_bps)
        .num("measured_bps", e.measured_bps)
        .num("bytes", e.bytes);
  }
  void operator()(const HeadroomViolation& e) const {
    Fields(out).num("link", e.link).num("delivered_bps", e.delivered_bps);
  }
  void operator()(const MigrationStarted& e) const {
    Fields(out)
        .num("deployment", e.deployment)
        .num("component", e.component)
        .num("from", e.from)
        .num("to", e.to)
        .name("reason", e.reason);
  }
  void operator()(const MigrationCompleted& e) const {
    Fields(out)
        .num("deployment", e.deployment)
        .num("component", e.component)
        .num("from", e.from)
        .num("to", e.to)
        .num("downtime_us", e.downtime)
        .name("reason", e.reason);
  }
  void operator()(const ControllerRound& e) const {
    Fields(out)
        .num("deployment", e.deployment)
        .num("violating", e.violating)
        .num("migrations_started", e.migrations_started);
  }
  void operator()(const ReallocationSolved& e) const {
    Fields(out).num("flows", e.flows).num("links", e.links).flag("full", e.full);
  }
  void operator()(const LinkCapacityChanged& e) const {
    Fields(out).num("link", e.link).num("old_bps", e.old_bps).num("new_bps", e.new_bps);
  }
  void operator()(const FaultInjected& e) const {
    Fields(out)
        .name("kind", e.kind)
        .num("node", e.node)
        .num("peer", e.peer)
        .real("value", e.value);
  }
  void operator()(const InvariantViolation& e) const {
    Fields(out).name("name", e.name).text("detail", e.detail);
  }
  void operator()(const DeploymentClosed& e) const {
    Fields(out)
        .num("deployment", e.deployment)
        .num("components", e.components)
        .num("lifetime_us", e.lifetime);
  }
  void operator()(const AdmissionOutcome& e) const {
    Fields(out)
        .num("instance", e.instance)
        .num("deployment", e.deployment)
        .name("action", e.action)
        .num("queue_depth", e.queue_depth)
        .num("wait_us", e.wait);
  }
  void operator()(const OrchestratorWarning& e) const {
    Fields(out).name("what", e.what).num("deployment", e.deployment).num("node", e.node);
  }
  void operator()(const ZoneRound& e) const {
    // No wall-clock field on purpose: round wall time goes to the
    // zone.round_wall_us metric, keeping same-seed journals byte-identical.
    Fields(out)
        .num("zone", e.zone)
        .num("round", e.round)
        .num("flows", e.flows)
        .num("border_streams", e.border_streams)
        .num("recon_iterations", e.recon_iterations);
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
  const std::size_t start = out.size();
  Fields(out)
      .num("t_us", event_time(event))
      .name("type", event_type_name(event))
      .num("span", event_span(event))
      .num("parent", event_parent(event));
  out[start] = '{';  // the first field's comma opens the object
  std::visit(JsonVisitor{out}, event);
  out += '}';
}

}  // namespace bass::obs

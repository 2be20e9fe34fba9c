#include "monitor/net_monitor.h"

#include <algorithm>

#include "util/logging.h"

namespace bass::monitor {

namespace {
// Every probe floods or offers its demand for this long (§6.3.4: 1 s probes).
constexpr sim::Duration kProbeDuration = sim::seconds(1);
// Delivered/offered ratio below which a headroom probe counts as failed.
// A failed headroom probe always schedules a max-capacity probe of the link
// (the Fig. 8 walkthrough behaviour).
constexpr double kViolationRatio = 0.90;
}  // namespace

NetMonitor::NetMonitor(net::Network& network, MonitorConfig config)
    : network_(&network),
      config_(config),
      links_(static_cast<std::size_t>(network.topology().link_count())) {
  // Until the first probe round, fall back to nominal capacities (the
  // operator's initial link inventory).
  capacities_.reserve(links_.size());
  for (const net::Link& l : network.topology().links()) capacities_.push_back(l.capacity);
}

NetMonitor::~NetMonitor() { stop(); }

void NetMonitor::start() {
  if (started_) return;
  started_ = true;
  // Startup round: flood every directed link in parallel (§4.2 "when the
  // system starts up ... flooding each link with packets").
  for (int l = 0; l < network_->topology().link_count(); ++l) {
    full_probe(l);
  }
  periodic_ = network_->simulation().schedule_periodic(
      config_.probe_interval, [this] { run_headroom_round(); });
  if (config_.full_refresh_interval > 0) {
    refresh_ = network_->simulation().schedule_periodic(
        config_.full_refresh_interval, [this] {
          for (int l = 0; l < network_->topology().link_count(); ++l) {
            full_probe(l);
          }
        });
  }
}

void NetMonitor::stop() {
  if (!started_) return;
  started_ = false;
  network_->simulation().cancel(periodic_);
  network_->simulation().cancel(refresh_);
}

void NetMonitor::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_probe_bytes_ = nullptr;
    m_full_probes_ = nullptr;
    m_headroom_probes_ = nullptr;
    m_violations_ = nullptr;
    m_probes_dropped_ = nullptr;
    m_probe_rtt_us_ = nullptr;
    return;
  }
  auto& metrics = recorder->metrics();
  m_probe_bytes_ = &metrics.counter("monitor.probe_bytes");
  m_full_probes_ = &metrics.counter("monitor.probes", {{"kind", "full"}});
  m_headroom_probes_ = &metrics.counter("monitor.probes", {{"kind", "headroom"}});
  m_violations_ = &metrics.counter("monitor.headroom_violations");
  m_probes_dropped_ = &metrics.counter("monitor.probes_dropped");
  m_probe_rtt_us_ = &metrics.log_histogram("monitor.probe_rtt_us");
}

void NetMonitor::set_probe_loss(double rate, std::uint64_t seed) {
  probe_loss_rate_ = std::clamp(rate, 0.0, 1.0);
  if (probe_loss_rate_ > 0 && loss_rng_ == nullptr) {
    loss_rng_ = std::make_unique<util::Rng>(seed);
  }
}

bool NetMonitor::headroom_ok(net::LinkId link) const {
  return links_.at(static_cast<std::size_t>(link)).headroom_ok;
}

void NetMonitor::full_probe(net::LinkId link) {
  ++full_probes_;
  launch_probe(link, net::kUnlimitedRate, /*is_full=*/true);
}

void NetMonitor::run_headroom_round() {
  for (int l = 0; l < network_->topology().link_count(); ++l) {
    const LinkState& state = links_[static_cast<std::size_t>(l)];
    if (state.probing) continue;  // don't stack probes on one link
    if (config_.always_full_probe) {
      full_probe(l);
      continue;
    }
    const net::Bps demand = static_cast<net::Bps>(
        static_cast<double>(capacities_[static_cast<std::size_t>(l)]) *
        config_.headroom_frac);
    if (demand <= 0) continue;
    ++headroom_probes_;
    launch_probe(l, demand, /*is_full=*/false);
  }
}

void NetMonitor::launch_probe(net::LinkId link, net::Bps demand, bool is_full) {
  LinkState& state = links_[static_cast<std::size_t>(link)];
  if (state.probing) return;
  state.probing = true;
  state.full = is_full;
  state.demand = demand;
  // The probe's span is allocated at launch — its completion, any headroom
  // violation it detects, and a lost-probe record all chain back to it.
  state.span = recorder_ != nullptr ? recorder_->new_span() : obs::kNoSpan;
  state.launched = network_->simulation().now();

  const auto& l = network_->topology().link(link);
  // Concurrent application traffic before the probe perturbs the link
  // (from the per-node TX counters — the eBPF metric of §5).
  state.usage_before = network_->link_allocated(link);
  state.stream = network_->open_stream(l.src, l.dst, demand);
  network_->simulation().schedule_after(kProbeDuration,
                                        [this, link] { finish_probe(link); });
}

void NetMonitor::finish_probe(net::LinkId link) {
  LinkState& state = links_[static_cast<std::size_t>(link)];
  // Competing application traffic on the link while the probe ran, read
  // from the node-pair TX counters (the eBPF metric): the capacity estimate
  // is probe goodput + concurrent usage.
  const net::Bps others = std::max<net::Bps>(
      network_->link_allocated(link) - network_->stream_rate(state.stream), 0);
  const std::int64_t delivered = network_->close_stream(state.stream);
  probe_bytes_ += delivered;
  if (recorder_ != nullptr) m_probe_bytes_->add(delivered);
  state.probing = false;
  // Injected probe loss: the traffic was spent but the result never
  // reached the monitor — cache and headroom state stay stale.
  if (probe_loss_rate_ > 0 && loss_rng_ != nullptr &&
      loss_rng_->chance(probe_loss_rate_)) {
    ++probes_dropped_;
    if (recorder_ != nullptr) {
      m_probes_dropped_->inc();
      const auto& dropped_link = network_->topology().link(link);
      obs::FaultInjected lost_event;
      lost_event.at = network_->simulation().now();
      lost_event.kind = "probe_lost";
      lost_event.node = dropped_link.src;
      lost_event.peer = dropped_link.dst;
      lost_event.value = probe_loss_rate_;
      lost_event.parent = state.span;  // the probe whose result vanished
      recorder_->record(lost_event);
    }
    return;
  }
  const net::Bps measured = static_cast<net::Bps>(
      static_cast<double>(delivered) * 8e6 / static_cast<double>(kProbeDuration));
  if (recorder_ != nullptr) {
    (state.full ? m_full_probes_ : m_headroom_probes_)->inc();
    // Launch-to-result latency in sim time: constant while probes are
    // timer-driven, but the histogram is the scrape point a real
    // deployment would chart, and merge-tested across sweep workers.
    m_probe_rtt_us_->observe(
        static_cast<double>(network_->simulation().now() - state.launched));
    obs::ProbeCompleted completed;
    completed.at = network_->simulation().now();
    completed.link = link;
    completed.full = state.full;
    completed.offered_bps = state.demand;
    completed.measured_bps = measured;
    completed.bytes = delivered;
    completed.span = state.span;
    recorder_->record(completed);
  }

  if (state.full) {
    // Note: a full probe refreshes the capacity estimate but does NOT
    // clear a standing headroom violation — only a succeeding headroom
    // probe does, otherwise the violation signal would be erased by the
    // very probe it triggered.
    capacities_[static_cast<std::size_t>(link)] = measured + others;
    util::log_debug() << "full probe link " << link << " -> " << measured + others
                      << " bps";
    return;
  }
  const bool delivered_in_full = static_cast<double>(measured) >=
                                 static_cast<double>(state.demand) * kViolationRatio;
  // Displacement: if the app's concurrent rate shrank by more than
  // measurement noise while the probe ran, the probe's bytes were taken
  // from the application, not from spare capacity.
  const double tolerance =
      std::max(static_cast<double>(state.usage_before) * 0.05, 100e3);
  const bool displaced =
      static_cast<double>(others) < static_cast<double>(state.usage_before) - tolerance;
  state.headroom_ok = delivered_in_full && !displaced;
  if (state.headroom_ok) return;
  util::log_debug() << "headroom violation on link " << link << " delivered "
                    << measured << " of " << state.demand;
  if (recorder_ != nullptr) {
    m_violations_->inc();
    obs::HeadroomViolation violation;
    violation.at = network_->simulation().now();
    violation.link = link;
    violation.delivered_bps = measured;
    violation.span = recorder_->new_span();
    violation.parent = state.span;  // the probe that came up short
    recorder_->record(violation);
  }
  if (on_violation_) on_violation_(link, measured);
  full_probe(link);
}

}  // namespace bass::monitor

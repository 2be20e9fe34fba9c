#include "trace/player.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace bass::trace {

void TracePlayer::add(net::LinkId link, BandwidthTrace trace) {
  assert(!started_ && "add links before start()");
  if (trace.empty()) return;
  bindings_.push_back({link, std::move(trace), 0});
}

void TracePlayer::add_bidirectional(net::NodeId a, net::NodeId b, BandwidthTrace trace) {
  const net::Topology& topo = network_->topology();
  const auto ab = topo.link_between(a, b);
  if (!ab) {
    const auto name = [&topo](net::NodeId n) {
      return n >= 0 && n < topo.node_count() ? topo.node_name(n) : std::to_string(n);
    };
    throw std::invalid_argument("TracePlayer::add_bidirectional: no link between '" +
                                name(a) + "' and '" + name(b) + "'");
  }
  add(*ab, trace);
  add(net::Topology::reverse(*ab), std::move(trace));
}

sim::Time TracePlayer::max_duration() const {
  sim::Time d = 0;
  for (const auto& b : bindings_) d = std::max(d, b.trace.duration());
  return d;
}

void TracePlayer::start(bool loop) {
  assert(!started_);
  started_ = true;
  loop_ = loop;
  if (bindings_.empty()) return;
  apply_due(network_->simulation().now());
}

void TracePlayer::apply_due(sim::Time at) {
  const sim::Time local = at - cycle_offset_;
  {
    net::Network::BatchUpdate batch(*network_);
    for (auto& b : bindings_) {
      const auto& pts = b.trace.points();
      while (b.next_index < pts.size() && pts[b.next_index].at <= local) {
        network_->set_link_capacity(b.link, pts[b.next_index].bps);
        ++b.next_index;
      }
    }
  }

  // Next pending timestamp across all bindings.
  sim::Time next_local = std::numeric_limits<sim::Time>::max();
  for (const auto& b : bindings_) {
    if (b.next_index < b.trace.points().size()) {
      next_local = std::min(next_local, b.trace.points()[b.next_index].at);
    }
  }
  if (next_local == std::numeric_limits<sim::Time>::max()) {
    if (!loop_) return;
    // Restart all traces one step after the longest one ends.
    cycle_offset_ = at + sim::seconds(1);
    for (auto& b : bindings_) b.next_index = 0;
    schedule_tick(cycle_offset_);
    return;
  }
  schedule_tick(cycle_offset_ + next_local);
}

void TracePlayer::schedule_tick(sim::Time at) {
  network_->simulation().schedule_at(at, [this, at] { apply_due(at); });
}

}  // namespace bass::trace

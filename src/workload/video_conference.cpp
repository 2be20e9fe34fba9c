#include "workload/video_conference.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace bass::workload {

VideoConferenceEngine::VideoConferenceEngine(core::Orchestrator& orchestrator,
                                             core::DeploymentId deployment,
                                             VideoConferenceConfig config)
    : orch_(&orchestrator), deployment_(deployment), config_(std::move(config)) {
  const auto& graph = orch_->app(deployment_);
  sfu_ = graph.find("pion-sfu");
  assert(sfu_ != app::kInvalidComponent && "not a video conference app");
  for (const auto& g : config_.groups) {
    total_participants_ += g.count;
    Group& group = groups_.emplace_back();
    group.node = g.node;
    group.count = g.count;
    // In single-publisher mode the publisher subscribes to nothing and must
    // not dilute its group's per-client mean.
    group.receivers = config_.single_publisher && groups_.size() == 1
                          ? std::max(g.count - 1, 0)
                          : g.count;
    group.component = graph.find(util::str_format("clients@node%d", g.node));
    assert(group.component != app::kInvalidComponent &&
           "config groups must match the app");
    const auto& edges = graph.edges();
    group.edge = static_cast<std::size_t>(
        std::find_if(edges.begin(), edges.end(),
                     [&](const app::Edge& e) {
                       return e.from == sfu_ && e.to == group.component;
                     }) -
        edges.begin());
    assert(group.edge < edges.size() && "the app must link the SFU to every group");
  }
}

VideoConferenceEngine::~VideoConferenceEngine() { stop(); }

net::Bps VideoConferenceEngine::expected_per_client() const {
  if (config_.single_publisher) return config_.per_stream;
  return config_.per_stream * std::max(total_participants_ - 1, 0);
}

void VideoConferenceEngine::start() {
  if (running_) return;
  running_ = true;
  if (!subscription_) subscription_ = orch_->add_listener(deployment_, this);
  open_streams(orch_->node_of(deployment_, sfu_));
  sample_timer_ = orch_->simulation().schedule_periodic(config_.sample_interval,
                                                   [this] { sample(); });
}

void VideoConferenceEngine::stop() {
  if (!running_) return;
  running_ = false;
  close_streams();
  orch_->simulation().cancel(sample_timer_);
  for (const sim::EventId reconnect : reconnects_) orch_->simulation().cancel(reconnect);
  reconnects_.clear();
}

void VideoConferenceEngine::open_streams(net::NodeId sfu_node) {
  assert(!connected_);
  connected_ = true;
  net::Network& net = orch_->network();
  auto open = [&](std::vector<GroupStream>& streams, std::size_t group,
                  net::NodeId from, net::NodeId to) {
    streams.push_back({net.open_stream(from, to, config_.per_stream), group});
  };

  // Publishers uplink to the SFU.
  if (config_.single_publisher) {
    open(uplinks_, 0, groups_.front().node, sfu_node);
    groups_.front().uplinks = 1;
  } else {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      Group& g = groups_[gi];
      for (int i = 0; i < g.count; ++i) open(uplinks_, gi, g.node, sfu_node);
      g.uplinks = g.count;
    }
  }

  // The SFU forwards to every subscriber. Each subscriber at node n gets
  // one stream per *other* publisher.
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    Group& g = groups_[gi];
    for (int i = 0; i < g.count; ++i) {
      // In single-publisher mode the publisher (the first client) doesn't
      // subscribe to its own stream.
      const bool is_publisher = gi == 0 && i == 0;
      const int incoming = config_.single_publisher ? (is_publisher ? 0 : 1)
                                                    : total_participants_ - 1;
      for (int s = 0; s < incoming; ++s) open(forwards_, gi, sfu_node, g.node);
      g.forwards += incoming;
    }
  }
}

void VideoConferenceEngine::close_streams() {
  if (!connected_) return;
  connected_ = false;
  net::Network& net = orch_->network();
  {
    net::Network::BatchUpdate batch(net);
    for (const auto& u : uplinks_) net.close_stream(u.id);
    for (const auto& f : forwards_) net.close_stream(f.id);
  }
  uplinks_.clear();
  forwards_.clear();
  for (Group& g : groups_) g.uplinks = g.forwards = 0;
}

void VideoConferenceEngine::sample() {
  const sim::Time now = orch_->simulation().now();
  const net::Network& net = orch_->network();
  const double dt = sim::to_seconds(config_.sample_interval);
  const double expected = static_cast<double>(expected_per_client());
  monitor::TrafficStats& stats = orch_->traffic_stats(deployment_);

  for (Group& g : groups_) g.delivered = g.uplinked = 0.0;
  for (const auto& f : forwards_) {
    groups_[f.group].delivered += static_cast<double>(net.stream_rate(f.id));
  }
  for (const auto& u : uplinks_) {
    groups_[u.group].uplinked += static_cast<double>(net.stream_rate(u.id));
  }

  for (Group& g : groups_) {
    const double per_client = connected_ && g.receivers > 0
                                  ? g.delivered / static_cast<double>(g.receivers)
                                  : 0.0;
    g.bitrate.record(now, per_client);
    const double loss = expected <= 0.0
                            ? 0.0
                            : std::clamp(1.0 - per_client / expected, 0.0, 1.0);
    g.loss.record(now, loss);
    if (!connected_) continue;

    // Passive traffic accounting on the SFU<->group edges so the bandwidth
    // controller sees the SFU's link usage and goodput: offered is the
    // stream demand, delivered the max-min allocation.
    stats.record(g.edge, static_cast<std::int64_t>(g.delivered * dt / 8.0));
    stats.record_offered(g.edge,
                         static_cast<std::int64_t>(static_cast<double>(config_.per_stream) *
                                                   g.forwards * dt / 8.0));
  }
  if (!connected_) return;
  // Uplink bytes are accounted against the same sfu->group DAG edge (the app
  // graph keeps one directed edge per pair to stay acyclic). Each active
  // uplink offers one full stream.
  for (const Group& g : groups_) {
    if (g.uplinks == 0) continue;
    stats.record(g.edge, static_cast<std::int64_t>(g.uplinked * dt / 8.0));
    stats.record_offered(g.edge,
                         static_cast<std::int64_t>(static_cast<double>(config_.per_stream) *
                                                   g.uplinks * dt / 8.0));
  }
}

void VideoConferenceEngine::on_component_down(app::ComponentId component) {
  if (component != sfu_) return;
  close_streams();
}

void VideoConferenceEngine::on_component_up(app::ComponentId component,
                                            net::NodeId node) {
  if (component != sfu_ || !running_) return;
  (void)node;
  // Every reconnect waits the same delay, so they fire in the order they
  // were scheduled and each one leaves the front of the list.
  reconnects_.push_back(
      orch_->simulation().schedule_after(config_.reconnect_delay, [this] {
        reconnects_.erase(reconnects_.begin());
        // Re-resolve the node: another migration may have happened meanwhile.
        if (!connected_ && orch_->is_up(deployment_, sfu_)) {
          open_streams(orch_->node_of(deployment_, sfu_));
        }
      }));
}

const VideoConferenceEngine::Group& VideoConferenceEngine::group_at(
    net::NodeId node) const {
  for (const Group& g : groups_) {
    if (g.node == node) return g;
  }
  throw std::out_of_range("no client group at this node");
}

const obs::TimeSeries& VideoConferenceEngine::bitrate_series(
    net::NodeId group_node) const {
  return group_at(group_node).bitrate;
}

const obs::TimeSeries& VideoConferenceEngine::loss_series(
    net::NodeId group_node) const {
  return group_at(group_node).loss;
}

double VideoConferenceEngine::mean_bitrate(net::NodeId group_node, sim::Time from) const {
  return bitrate_series(group_node).mean_in(from, std::numeric_limits<sim::Time>::max());
}

double VideoConferenceEngine::median_bitrate(net::NodeId group_node,
                                             sim::Time from) const {
  std::vector<double> values;
  for (const auto& s : bitrate_series(group_node).samples()) {
    if (s.at >= from) values.push_back(s.value);
  }
  return obs::percentile(std::move(values), 50.0);
}

double VideoConferenceEngine::mean_loss(net::NodeId group_node, sim::Time from) const {
  return loss_series(group_node).mean_in(from, std::numeric_limits<sim::Time>::max());
}

}  // namespace bass::workload

#include "workload/video_conference.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/stats.h"
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
    const app::ComponentId cg =
        graph.find(util::str_format("clients@node%d", g.node));
    assert(cg != app::kInvalidComponent && "config groups must match the app");
    group_component_[g.node] = cg;
    metrics_[g.node];  // materialize series
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
  orch_->add_listener(deployment_, this);
  open_streams(orch_->node_of(deployment_, sfu_));
  sampler_ = orch_->simulation().schedule_periodic(config_.sample_interval,
                                                   [this] { sample(); });
}

void VideoConferenceEngine::stop() {
  if (!running_) return;
  running_ = false;
  close_streams();
  orch_->simulation().cancel(sampler_);
}

void VideoConferenceEngine::open_streams(net::NodeId sfu_node) {
  assert(!connected_);
  connected_ = true;
  net::Network& net = orch_->network();

  // Publishers uplink to the SFU.
  if (config_.single_publisher) {
    const net::NodeId pub_node = config_.groups.front().node;
    uplinks_.push_back(net.open_stream(pub_node, sfu_node, config_.per_stream));
  } else {
    for (const auto& g : config_.groups) {
      for (int i = 0; i < g.count; ++i) {
        uplinks_.push_back(net.open_stream(g.node, sfu_node, config_.per_stream));
      }
    }
  }

  // The SFU forwards to every subscriber. Each subscriber at node n gets
  // one stream per *other* publisher.
  for (const auto& g : config_.groups) {
    for (int i = 0; i < g.count; ++i) {
      int incoming;
      if (config_.single_publisher) {
        // The publisher itself doesn't subscribe to its own stream.
        const bool is_publisher = (&g == &config_.groups.front()) && i == 0;
        incoming = is_publisher ? 0 : 1;
      } else {
        incoming = total_participants_ - 1;
      }
      for (int s = 0; s < incoming; ++s) {
        forwards_.push_back(
            {net.open_stream(sfu_node, g.node, config_.per_stream), g.node});
      }
    }
  }
}

void VideoConferenceEngine::close_streams() {
  if (!connected_) return;
  connected_ = false;
  net::Network& net = orch_->network();
  {
    net::Network::BatchUpdate batch(net);
    for (net::StreamId s : uplinks_) net.close_stream(s);
    for (const auto& f : forwards_) net.close_stream(f.id);
  }
  uplinks_.clear();
  forwards_.clear();
}

void VideoConferenceEngine::sample() {
  const sim::Time now = orch_->simulation().now();
  net::Network& net = orch_->network();

  // Per-group: total delivered forward rate / clients in the group.
  std::unordered_map<net::NodeId, double> delivered;
  for (const auto& f : forwards_) {
    delivered[f.group_node] += static_cast<double>(net.stream_rate(f.id));
  }
  for (const auto& g : config_.groups) {
    GroupMetrics& m = metrics_.at(g.node);
    // Average over *receiving* clients: in single-publisher mode the
    // publisher subscribes to nothing and must not dilute the mean.
    int receivers = g.count;
    if (config_.single_publisher && &g == &config_.groups.front()) {
      receivers = std::max(g.count - 1, 0);
    }
    const double per_client = connected_ && receivers > 0
                                  ? delivered[g.node] / static_cast<double>(receivers)
                                  : 0.0;
    m.bitrate.record(now, per_client);
    const double expected = static_cast<double>(expected_per_client());
    const double loss = expected <= 0.0
                            ? 0.0
                            : std::clamp(1.0 - per_client / expected, 0.0, 1.0);
    m.loss.record(now, loss);

    // Passive traffic accounting on the SFU<->group edges so the
    // bandwidth controller sees the SFU's link usage and goodput: offered
    // is the stream demand, delivered the max-min allocation.
    if (connected_) {
      const double dt = sim::to_seconds(config_.sample_interval);
      const auto down_bytes =
          static_cast<std::int64_t>(delivered[g.node] * dt / 8.0);
      orch_->traffic_stats(deployment_)
          .record(sfu_, group_component_.at(g.node), down_bytes);
      int forwards_here = 0;
      for (const auto& f : forwards_) {
        if (f.group_node == g.node) ++forwards_here;
      }
      const double offered =
          static_cast<double>(config_.per_stream) * forwards_here * dt / 8.0;
      orch_->traffic_stats(deployment_)
          .record_offered(sfu_, group_component_.at(g.node),
                          static_cast<std::int64_t>(offered));
    }
  }
  // Uplink accounting (group -> sfu).
  if (connected_) {
    const double dt = sim::to_seconds(config_.sample_interval);
    std::unordered_map<net::NodeId, double> up_rate;
    std::size_t idx = 0;
    if (config_.single_publisher) {
      if (!uplinks_.empty()) {
        up_rate[config_.groups.front().node] +=
            static_cast<double>(net.stream_rate(uplinks_[0]));
      }
    } else {
      for (const auto& g : config_.groups) {
        for (int i = 0; i < g.count; ++i, ++idx) {
          up_rate[g.node] += static_cast<double>(net.stream_rate(uplinks_[idx]));
        }
      }
    }
    // Uplink bytes are accounted against the same sfu->group DAG edge (the
    // app graph keeps one directed edge per pair to stay acyclic). Each
    // active uplink offers one full stream.
    std::unordered_map<net::NodeId, int> publishers;
    if (config_.single_publisher) {
      publishers[config_.groups.front().node] = uplinks_.empty() ? 0 : 1;
    } else {
      for (const auto& g : config_.groups) publishers[g.node] = g.count;
    }
    for (const auto& [node, rate] : up_rate) {
      orch_->traffic_stats(deployment_)
          .record(sfu_, group_component_.at(node),
                  static_cast<std::int64_t>(rate * dt / 8.0));
      orch_->traffic_stats(deployment_)
          .record_offered(sfu_, group_component_.at(node),
                          static_cast<std::int64_t>(
                              static_cast<double>(config_.per_stream) *
                              publishers[node] * dt / 8.0));
    }
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
  orch_->simulation().schedule_after(config_.reconnect_delay, [this] {
    // Re-resolve the node: another migration may have happened meanwhile.
    if (running_ && !connected_ && orch_->is_up(deployment_, sfu_)) {
      open_streams(orch_->node_of(deployment_, sfu_));
    }
  });
}

const metrics::TimeSeries& VideoConferenceEngine::bitrate_series(
    net::NodeId group_node) const {
  return metrics_.at(group_node).bitrate;
}

const metrics::TimeSeries& VideoConferenceEngine::loss_series(
    net::NodeId group_node) const {
  return metrics_.at(group_node).loss;
}

double VideoConferenceEngine::mean_bitrate(net::NodeId group_node, sim::Time from) const {
  const auto& series = metrics_.at(group_node).bitrate;
  return series.mean_in(from, std::numeric_limits<sim::Time>::max());
}

double VideoConferenceEngine::median_bitrate(net::NodeId group_node,
                                             sim::Time from) const {
  std::vector<double> values;
  for (const auto& s : metrics_.at(group_node).bitrate.samples()) {
    if (s.at >= from) values.push_back(s.value);
  }
  return util::percentile(std::move(values), 50.0);
}

double VideoConferenceEngine::mean_loss(net::NodeId group_node, sim::Time from) const {
  const auto& series = metrics_.at(group_node).loss;
  return series.mean_in(from, std::numeric_limits<sim::Time>::max());
}

}  // namespace bass::workload

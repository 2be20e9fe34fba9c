// Video-conferencing workload: an SFU (Pion-like selective forwarding
// unit) component forwarding participant streams. Client groups sit at
// fixed mesh nodes (the pinned pseudo-components built by
// app::video_conference_app); the SFU is the schedulable — and migratable —
// part.
//
// Traffic model: every publisher uplinks one stream at `per_stream` to the
// SFU's node; the SFU forwards each publisher's stream to every other
// participant. Delivered bitrate per client is the max-min allocation of
// its incoming forward streams; shortfall against the expected bitrate is
// the packet-loss proxy (Fig. 4's loss axis). When the SFU migrates, all
// WebRTC sessions drop and re-establish `reconnect_delay` after the
// component restarts (the paper's ~20-30 s disruption window).
#pragma once

#include <vector>

#include "core/orchestrator.h"
#include "net/types.h"
#include "obs/series.h"

namespace bass::workload {

struct VideoConferenceConfig {
  // Must mirror the groups passed to app::video_conference_app(), one
  // group per node.
  struct ClientGroup {
    net::NodeId node;
    int count;
  };
  std::vector<ClientGroup> groups;
  net::Bps per_stream = net::kbps(800);
  // Fig. 4 / Fig. 12 mode: only the first participant publishes video and
  // everyone else receives that single stream.
  bool single_publisher = false;
  sim::Duration sample_interval = sim::seconds(1);
  // Extra time after component restart for WebRTC renegotiation.
  sim::Duration reconnect_delay = sim::seconds(10);
};

class VideoConferenceEngine final : public core::DeploymentListener {
 public:
  VideoConferenceEngine(core::Orchestrator& orchestrator,
                        core::DeploymentId deployment, VideoConferenceConfig config);
  ~VideoConferenceEngine() override;
  VideoConferenceEngine(const VideoConferenceEngine&) = delete;
  VideoConferenceEngine& operator=(const VideoConferenceEngine&) = delete;

  void start();
  void stop();

  // Mean *per-client download* bitrate (bps) at each sample instant, for
  // the clients attached at `group_node`. Zero while disconnected.
  const obs::TimeSeries& bitrate_series(net::NodeId group_node) const;
  // Loss proxy: 1 - delivered/expected per sample.
  const obs::TimeSeries& loss_series(net::NodeId group_node) const;

  double mean_bitrate(net::NodeId group_node, sim::Time from = 0) const;
  double median_bitrate(net::NodeId group_node, sim::Time from = 0) const;
  double mean_loss(net::NodeId group_node, sim::Time from = 0) const;

  int total_participants() const { return total_participants_; }
  net::Bps expected_per_client() const;

  // DeploymentListener:
  void on_component_down(app::ComponentId component) override;
  void on_component_up(app::ComponentId component, net::NodeId node) override;

 private:
  // One client group, in config order.
  struct Group {
    net::NodeId node = net::kInvalidNode;
    int count = 0;
    int receivers = 0;  // clients subscribed to at least one stream
    app::ComponentId component = app::kInvalidComponent;
    std::size_t edge = 0;  // the sfu -> component edge: its traffic-stats slot
    obs::TimeSeries bitrate;
    obs::TimeSeries loss;
    // Open streams while connected: publisher uplinks, SFU forwards.
    int uplinks = 0;
    int forwards = 0;
    // sample() scratch: summed rates of those streams.
    double uplinked = 0.0;
    double delivered = 0.0;
  };
  // A stream and the position of the group it serves.
  struct GroupStream {
    net::StreamId id = 0;
    std::size_t group = 0;
  };

  const Group& group_at(net::NodeId node) const;
  void open_streams(net::NodeId sfu_node);
  void close_streams();
  void sample();

  core::Orchestrator* orch_;
  core::DeploymentId deployment_;
  VideoConferenceConfig config_;
  app::ComponentId sfu_ = app::kInvalidComponent;
  std::vector<Group> groups_;
  int total_participants_ = 0;

  // One uplink stream per publisher, per-group forward streams to clients.
  std::vector<GroupStream> uplinks_;
  std::vector<GroupStream> forwards_;
  bool connected_ = false;

  sim::EventId sample_timer_ = sim::kInvalidEvent;
  // Pending reconnects, oldest first; stop() cancels them so none outlives
  // the engine.
  std::vector<sim::EventId> reconnects_;
  bool running_ = false;
  core::Subscription subscription_;
};

}  // namespace bass::workload

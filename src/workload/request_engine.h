// Open-loop RPC workload over a deployed application DAG — the engine
// behind the social-network experiments (DeathStarBench's wrk-style load
// generator) and the camera pipeline (each frame is one request through the
// pipeline DAG).
//
// Per request: the client node sends the request to the root component;
// each component queues for one of its `concurrency` server slots, computes
// for `service_time`, then invokes each outgoing edge (subject to the
// edge's probability) in parallel — request bytes over the mesh, recursive
// processing, response bytes back. The request completes when the root's
// response reaches the client; end-to-end latency therefore includes
// transfer time, queueing on saturated links, and server queueing — the
// three effects the paper's latency plots are made of.
//
// Components that are down (mid-migration) queue incoming invocations and
// drain them on restart, reproducing the paper's migration latency spikes
// (Fig. 14(a)).
//
// Each invocation is a frame in a free-listed slab, and every callback the
// engine hands the network or the event queue captures only (this, frame
// index), which fits std::function's inline buffer: once the slab reaches
// its high-water mark, a request allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "core/orchestrator.h"
#include "obs/series.h"
#include "util/rng.h"

namespace bass::workload {

struct RequestWorkloadConfig {
  // Node where the load generator runs; kInvalidNode = same node as the
  // root component (resolved at start()).
  net::NodeId client_node = net::kInvalidNode;
  double rps = 50.0;
  enum class Arrival { kConstant, kExponential };
  Arrival arrival = Arrival::kConstant;
  std::uint64_t seed = 1;
  std::int64_t request_bytes = 256;    // client -> root
  std::int64_t response_bytes = 2048;  // root -> client
  // Connection-pool cap of the load generator: arrivals beyond this many
  // in-flight requests are shed (counted, not issued). Real benchmark
  // clients (wrk/wrk2 with a fixed connection count) behave this way; it
  // bounds queue growth during overload so latency plateaus instead of
  // growing with the length of the congestion episode. 0 = unbounded.
  std::int64_t max_in_flight = 0;
};

class RequestEngine final : public core::DeploymentListener {
 public:
  RequestEngine(core::Orchestrator& orchestrator, core::DeploymentId deployment,
                RequestWorkloadConfig config);
  ~RequestEngine() override;
  RequestEngine(const RequestEngine&) = delete;
  RequestEngine& operator=(const RequestEngine&) = delete;

  // Begins issuing requests (and registers as a deployment listener).
  void start();
  // Stops new arrivals; in-flight requests run to completion.
  void stop();

  const obs::LatencyRecorder& latencies() const { return latencies_; }
  std::int64_t issued() const { return issued_; }
  std::int64_t completed() const { return completed_; }
  std::int64_t in_flight() const { return issued_ - completed_; }
  // Arrivals dropped because the connection pool was exhausted.
  std::int64_t shed() const { return shed_; }

  // DeploymentListener:
  void on_component_up(app::ComponentId component, net::NodeId node) override;

 private:
  using FrameId = std::uint32_t;
  static constexpr FrameId kNoFrame = ~FrameId{0};

  // One invocation of `component` by `caller_node`.
  struct Frame {
    app::ComponentId component = app::kInvalidComponent;
    net::NodeId caller_node = net::kInvalidNode;
    // Where the component ran; fixed when its service ends, and the source
    // of its children's requests and of its response.
    net::NodeId node = net::kInvalidNode;
    // The app edge the call travels (its index in edges(), the traffic-stats
    // slot its bytes go to); unused for the root of a request.
    std::uint32_t edge = 0;
    std::int64_t request_bytes = 0;
    std::int64_t response_bytes = 0;
    FrameId parent = kNoFrame;  // kNoFrame: the root of a request
    int pending = 0;            // children outstanding, plus one guard
    sim::Time started = 0;      // root frames: when the request arrived
    // Links the free list, a server's wait queue or a parked list; a frame
    // is on at most one of them.
    FrameId next = kNoFrame;
  };
  // FIFO of frames linked through Frame::next.
  struct FrameQueue {
    FrameId head = kNoFrame;
    FrameId tail = kNoFrame;
    bool empty() const { return head == kNoFrame; }
  };

  FrameId new_frame(const Frame& frame);
  void push(FrameQueue& queue, FrameId f);
  FrameId pop(FrameQueue& queue);

  void schedule_next_arrival();
  void arrive();
  // The continuations of one invocation, in order: call sends the request
  // (or parks the frame while its component is down), process waits for a
  // server slot, start_service computes, service_done releases the slot and
  // invokes the children, finish sends the response once the last child
  // has answered, and response_landed completes the request or reports to
  // the parent frame.
  void call(FrameId f);
  void process(FrameId f);
  void start_service(FrameId f);
  void service_done(FrameId f);
  void finish(FrameId f);
  void response_landed(FrameId f);

  core::Orchestrator* orch_;
  core::DeploymentId deployment_;
  RequestWorkloadConfig config_;
  util::Rng rng_;
  app::ComponentId root_ = app::kInvalidComponent;

  // Per-component state, indexed by ComponentId.
  struct Component {
    int busy = 0;         // server slots in use
    FrameQueue waiting;   // invocations waiting for a slot
    FrameQueue parked;    // invocations parked while the component is down
    // The component's out-edges: child_edges_[first_child..end_child).
    std::uint32_t first_child = 0;
    std::uint32_t end_child = 0;
  };
  std::vector<Component> components_;
  // Indices into the app's edges(), grouped by caller component and in
  // declaration order within each group, so a fan-out draws its coin flips
  // in the order a scan of every edge would.
  std::vector<std::uint32_t> child_edges_;

  std::vector<Frame> frames_;
  FrameId free_frames_ = kNoFrame;  // free list through Frame::next

  obs::LatencyRecorder latencies_;
  std::int64_t issued_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t shed_ = 0;
  bool running_ = false;
  sim::EventId arrival_event_ = sim::kInvalidEvent;
  core::Subscription subscription_;
};

}  // namespace bass::workload

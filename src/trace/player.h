// Replays bandwidth traces onto network links — the emulation layer the
// paper builds with tc on CloudLab (§6.3). One player drives any number of
// links; updates that share a timestamp are applied as a single batch so the
// allocator runs once per tick.
#pragma once

#include <vector>

#include "net/network.h"
#include "trace/trace.h"

namespace bass::trace {

class TracePlayer {
 public:
  explicit TracePlayer(net::Network& network) : network_(&network) {}

  // Binds a trace to one directed link.
  void add(net::LinkId link, BandwidthTrace trace);
  // Binds the same trace to both directions of the (a, b) link, matching the
  // paper's "links are bidirectional with similar bandwidth in both
  // directions" (Fig. 15a). Throws std::invalid_argument, naming both nodes,
  // when a and b share no link.
  void add_bidirectional(net::NodeId a, net::NodeId b, BandwidthTrace trace);

  // Schedules all capacity updates. If `loop` is true the traces repeat
  // forever (use Simulation::run_until to bound the run).
  void start(bool loop = false);

  sim::Time max_duration() const;

 private:
  struct Binding {
    net::LinkId link;
    BandwidthTrace trace;
    std::size_t next_index = 0;
  };

  void schedule_tick(sim::Time at);
  void apply_due(sim::Time at);

  net::Network* network_;
  std::vector<Binding> bindings_;
  bool loop_ = false;
  sim::Time cycle_offset_ = 0;
  bool started_ = false;
};

}  // namespace bass::trace

// Passive per-component-pair traffic accounting — the paper's "TX/RX bytes
// between application components" metric (gathered there by an Istio
// sidecar + Prometheus; here the workload engines report delivered bytes as
// transfers complete, and stream engines copy their streams' byte counts in
// when the controller reads the stats and when a stream closes).
//
// One flat slot per edge of the deployed app, indexed by the edge's
// position in AppGraph::edges() and sized at deploy: the engines and the
// controller already hold the edge index, so a record is an array write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.h"
#include "sim/time.h"

namespace bass::monitor {

class TrafficStats {
 public:
  TrafficStats() = default;
  // Every edge's first window opens at `start`, the deploy time: a tenant
  // admitted late is not averaged over the time before it existed.
  explicit TrafficStats(std::size_t edges, sim::Time start = 0)
      : edges_(edges, EdgeStats{.window_start = start}) {}

  std::size_t edge_count() const { return edges_.size(); }

  // Adds `bytes` *delivered* on `edge` (traffic in either direction of an
  // app edge is recorded on that edge). Bytes for an edge past
  // edge_count() — in-flight traffic of a retired deployment — are dropped.
  void record(std::size_t edge, std::int64_t bytes);

  // Adds `bytes` *offered* (handed to the network, whether or not it has
  // arrived yet). delivered/offered is the pair's goodput: ~1 when the
  // network keeps up, << 1 when the link starves the pair (§3.2.2's second
  // migration trigger).
  void record_offered(std::size_t edge, std::int64_t bytes);

  // Total delivered bytes on an edge since construction (0 past the end).
  std::int64_t total_bytes(std::size_t edge) const;

  struct WindowRates {
    net::Bps delivered = 0;
    net::Bps offered = 0;
  };
  // Average rates over the window since the edge's last take; resets it.
  WindowRates take_window(std::size_t edge, sim::Time now);

 private:
  struct EdgeStats {
    std::int64_t window_bytes = 0;
    std::int64_t window_offered = 0;
    std::int64_t total_bytes = 0;
    sim::Time window_start = 0;
  };
  std::vector<EdgeStats> edges_;
};

}  // namespace bass::monitor

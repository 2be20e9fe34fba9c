// The scheduler's window onto the mesh. BASS schedules against *measured*
// link capacities (the net-monitor's probe cache), while tests and oracle
// experiments can schedule against the live simulator truth. The view is a
// small value: the network plus, optionally, one measured capacity per link.
#pragma once

#include "net/network.h"
#include "net/types.h"

namespace bass::sched {

class NetworkView {
 public:
  // `measured`, when given, holds one capacity per link of `network` and
  // stands in for the live topology capacities; it must outlive the view.
  explicit NetworkView(const net::Network& network, const net::Bps* measured = nullptr)
      : network_(&network), measured_(measured) {}

  int link_count() const { return network_->topology().link_count(); }
  net::Bps link_capacity(net::LinkId link) const {
    return measured_ != nullptr ? measured_[link] : network_->link_capacity(link);
  }
  // The mesh's routes (walk/copy a path, hop counts).
  const net::RoutingTable& routing() const { return network_->routing(); }
  // Sum of the node's outgoing link capacities — the "combined capacity
  // across all of the node's links" that BASS ranks nodes by (§3.2.1).
  net::Bps node_link_capacity(net::NodeId node) const;

  // One-way propagation latency of the routed path (0 when colocated) —
  // the packer checks edge latency requirements against it (§3.2 lists
  // latency among the placement constraints).
  sim::Duration path_latency(net::NodeId src, net::NodeId dst) const {
    return network_->path_latency(src, dst);
  }

  // Bottleneck capacity along the routed path: kUnlimitedRate when src ==
  // dst, 0 when unreachable.
  net::Bps path_capacity(net::NodeId src, net::NodeId dst) const;

 private:
  const net::Network* network_;
  const net::Bps* measured_;
};

}  // namespace bass::sched

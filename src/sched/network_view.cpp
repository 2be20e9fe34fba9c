#include "sched/network_view.h"

#include <algorithm>

namespace bass::sched {

net::Bps NetworkView::node_link_capacity(net::NodeId node) const {
  net::Bps total = 0;
  for (net::LinkId l : network_->topology().out_links(node)) total += link_capacity(l);
  return total;
}

net::Bps NetworkView::path_capacity(net::NodeId src, net::NodeId dst) const {
  if (src == dst) return net::kUnlimitedRate;
  if (!routing().reachable(src, dst)) return 0;
  net::Bps bottleneck = net::kUnlimitedRate;
  routing().walk(src, dst, [&](net::LinkId l) {
    bottleneck = std::min(bottleneck, link_capacity(l));
    return true;
  });
  return bottleneck;
}

}  // namespace bass::sched

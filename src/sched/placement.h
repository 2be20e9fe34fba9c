// A placement maps every component of an application to a mesh node: a
// dense vector indexed by ComponentId, kInvalidNode meaning "not placed".
#pragma once

#include <vector>

#include "app/app_graph.h"
#include "net/types.h"

namespace bass::sched {

using Placement = std::vector<net::NodeId>;

// Bounds-checked lookup: kInvalidNode for an id the placement does not cover.
inline net::NodeId node_of(const Placement& p, app::ComponentId c) {
  return c >= 0 && static_cast<std::size_t>(c) < p.size() ? p[static_cast<std::size_t>(c)]
                                                          : net::kInvalidNode;
}

}  // namespace bass::sched

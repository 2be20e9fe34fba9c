// Graphviz export of application DAGs and placements — the inspection tool
// an operator reaches for when a placement looks wrong. Render with:
//   dot -Tsvg app.dot -o app.svg
#pragma once

#include <string>
#include <vector>

#include "app/app_graph.h"

namespace bass::app {

// DOT source for the component DAG. Edge labels carry the bandwidth
// requirement; when `placement` (node per ComponentId) is given, components
// are clustered by node and mesh-crossing edges are highlighted.
std::string to_dot(const AppGraph& app,
                   const std::vector<net::NodeId>* placement = nullptr);

}  // namespace bass::app

#include "app/dot.h"

#include <map>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace bass::app {

namespace {

std::string bandwidth_label(net::Bps bps) {
  if (bps >= net::mbps(1)) {
    return util::str_format("%.1fM", static_cast<double>(bps) / 1e6);
  }
  if (bps >= net::kbps(1)) {
    return util::str_format("%.0fK", static_cast<double>(bps) / 1e3);
  }
  return util::str_format("%lld", static_cast<long long>(bps));
}

}  // namespace

std::string to_dot(const AppGraph& app, const std::vector<net::NodeId>* placement) {
  std::ostringstream out;
  out << "digraph \"" << app.name() << "\" {\n";
  out << "  rankdir=LR;\n  node [shape=box, style=rounded];\n";

  if (placement == nullptr) {
    for (ComponentId c = 0; c < app.component_count(); ++c) {
      out << "  c" << c << " [label=\"" << app.component(c).name << "\"];\n";
    }
  } else {
    // Cluster components by their node.
    std::map<net::NodeId, std::vector<ComponentId>> by_node;
    for (ComponentId c = 0; c < app.component_count(); ++c) {
      by_node[placement->at(static_cast<std::size_t>(c))].push_back(c);
    }
    for (const auto& [node, comps] : by_node) {
      out << "  subgraph cluster_node" << (node < 0 ? 999 : node) << " {\n";
      out << "    label=\"node" << node << "\";\n    style=dashed;\n";
      for (ComponentId c : comps) {
        out << "    c" << c << " [label=\"" << app.component(c).name << "\"];\n";
      }
      out << "  }\n";
    }
  }

  for (const Edge& e : app.edges()) {
    out << "  c" << e.from << " -> c" << e.to << " [label=\""
        << bandwidth_label(e.bandwidth) << "\"";
    if (placement != nullptr && placement->at(static_cast<std::size_t>(e.from)) !=
                                    placement->at(static_cast<std::size_t>(e.to))) {
      out << ", color=red, penwidth=2";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace bass::app

#include "topo/city_grid.h"

#include <string>
#include <utility>

#include "net/routing.h"

namespace bass::topo {
namespace {

std::string block_tag(int bx, int by) {
  return std::to_string(bx) + "x" + std::to_string(by);
}

}  // namespace

CityGrid CityGridGenerator::build() const {
  const CityGridParams& p = params_;
  CityGrid grid;

  // Node ids are contiguous per block in row-major block order: block
  // b = by * blocks_x + bx owns [b * nodes_per_block, (b+1) * nodes_per_block)
  // with the router first. Contiguity is what makes the id-chunk partition
  // method line up with spatial blocks.
  for (int by = 0; by < p.blocks_y; ++by) {
    for (int bx = 0; bx < p.blocks_x; ++bx) {
      const net::NodeId router = grid.topology.add_node("r" + block_tag(bx, by));
      grid.routers.push_back(router);
      for (int k = 1; k < p.nodes_per_block; ++k) {
        const net::NodeId leaf = grid.topology.add_node(
            "n" + block_tag(bx, by) + "_" + std::to_string(k));
        grid.topology.add_link(router, leaf, p.intra_bps);
      }
    }
  }

  const auto is_gateway_block = [&](int b) {
    return p.gateway_every > 0 && b % p.gateway_every == 0;
  };
  for (int b = 0; b < static_cast<int>(grid.routers.size()); ++b) {
    if (is_gateway_block(b)) grid.gateways.push_back(grid.routers[b]);
  }

  // Street mesh: each router links east and south so every neighbour pair
  // appears exactly once. Links touching a gateway block carry backbone
  // capacity — that is where city traffic drains.
  for (int by = 0; by < p.blocks_y; ++by) {
    for (int bx = 0; bx < p.blocks_x; ++bx) {
      const int b = by * p.blocks_x + bx;
      const auto street = [&](int other) {
        return is_gateway_block(b) || is_gateway_block(other) ? p.backbone_bps
                                                              : p.street_bps;
      };
      if (bx + 1 < p.blocks_x) {
        const int east = b + 1;
        grid.topology.add_link(grid.routers[b], grid.routers[east], street(east));
      }
      if (by + 1 < p.blocks_y) {
        const int south = b + p.blocks_x;
        grid.topology.add_link(grid.routers[b], grid.routers[south],
                               street(south));
      }
    }
  }
  return grid;
}

util::Expected<CityGrid> make_city_grid(const CityGridParams& params) {
  if (params.blocks_x <= 0 || params.blocks_y <= 0) {
    return util::make_error("city_grid: blocks_x and blocks_y must be positive");
  }
  if (params.nodes_per_block <= 0) {
    return util::make_error("city_grid: nodes_per_block must be positive");
  }
  if (params.gateway_every < 0) {
    return util::make_error("city_grid: gateway_every must be >= 0");
  }
  if (params.intra_bps <= 0 || params.street_bps <= 0 ||
      params.backbone_bps <= 0) {
    return util::make_error("city_grid: link capacities must be positive");
  }
  CityGrid grid = CityGridGenerator(params).build();
  // A router holds its block's leaves plus up to four streets; links come
  // in pairs, so out-links count in-links.
  for (const net::NodeId router : grid.routers) {
    if (grid.topology.out_links(router).size() >
        static_cast<std::size_t>(net::RoutingTable::kMaxInLinks)) {
      return util::make_error(
          "city_grid: router '" + grid.topology.node_name(router) + "' has " +
          std::to_string(grid.topology.out_links(router).size()) +
          " links; routing supports at most " +
          std::to_string(net::RoutingTable::kMaxInLinks) + " (lower nodes_per_block)");
    }
  }
  return grid;
}

util::Expected<CityGridParams> parse_city_grid(const util::IniSection& section) {
  CityGridParams p;
  p.blocks_x = static_cast<int>(section.number_or("blocks_x", p.blocks_x));
  p.blocks_y = static_cast<int>(section.number_or("blocks_y", p.blocks_y));
  p.nodes_per_block =
      static_cast<int>(section.number_or("nodes_per_block", p.nodes_per_block));
  p.gateway_every =
      static_cast<int>(section.number_or("gateway_every", p.gateway_every));
  const auto mbps_of = [&](const char* key, double fallback) {
    return static_cast<net::Bps>(section.number_or(key, fallback) * 1e6);
  };
  p.intra_bps = mbps_of("intra_mbps", 100.0);
  p.street_bps = mbps_of("street_mbps", 50.0);
  p.backbone_bps = mbps_of("backbone_mbps", 200.0);
  if (p.blocks_x <= 0 || p.blocks_y <= 0 || p.nodes_per_block <= 0) {
    return util::make_error(
        "[topology] city_grid: blocks_x, blocks_y, nodes_per_block must be "
        "positive");
  }
  return p;
}

}  // namespace bass::topo

#include "sched/packer.h"

#include <span>

#include "obs/recorder.h"
#include "util/strings.h"

namespace bass::sched {

void NodeBudget::reset(const cluster::ClusterState& cluster) {
  for (net::NodeId n : charged_) {
    cpu_[static_cast<std::size_t>(n)] = 0;
    mem_[static_cast<std::size_t>(n)] = 0;
  }
  charged_.clear();
  cluster_ = &cluster;
  cpu_.resize(cluster.node_bound(), 0);
  mem_.resize(cluster.node_bound(), 0);
  charged_.reserve(cluster.node_bound());
}

std::optional<util::Error> place_pinned(const app::AppGraph& app,
                                        const cluster::ClusterState& cluster,
                                        NodeBudget& budget, Placement& placement) {
  placement.assign(static_cast<std::size_t>(app.component_count()), net::kInvalidNode);
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& comp = app.component(c);
    if (!comp.pinned_node) continue;
    const net::NodeId node = *comp.pinned_node;
    if (!cluster.has_node(node)) {
      return util::make_error(util::str_format(
          "component '%s' is pinned to unknown node %d", comp.name.c_str(), node));
    }
    if ((comp.cpu_milli > 0 || comp.memory_mb > 0) &&
        (!cluster.spec(node).schedulable || !budget.fits(node, comp))) {
      return util::make_error(util::str_format(
          "component '%s' does not fit on its pinned node %d", comp.name.c_str(), node));
    }
    budget.charge(node, comp);
    placement[static_cast<std::size_t>(c)] = node;
  }
  return std::nullopt;
}

void LinkLedger::reset(const NetworkView& view) {
  for (net::LinkId l : reserved_links_) reserved_[static_cast<std::size_t>(l)] = 0;
  reserved_links_.clear();
  view_ = &view;
  const auto links = static_cast<std::size_t>(view.link_count());
  reserved_.resize(links, 0);
  reserved_links_.reserve(links);
  // fits() leaves scratch_ all zero and touched_ empty.
  scratch_.resize(links, 0);
  touched_.reserve(links);
}

void LinkLedger::reserve(const app::AppGraph& app, const Placement& placement,
                         app::ComponentId c, bool of_c) {
  for (const app::Edge& e : app.edges()) {
    if ((e.from == c || e.to == c) != of_c) continue;
    const net::NodeId a = node_of(placement, e.from);
    const net::NodeId b = node_of(placement, e.to);
    if (a == net::kInvalidNode || b == net::kInvalidNode || a == b || e.bandwidth == 0) {
      continue;
    }
    view_->routing().walk(a, b, [&](net::LinkId link) {
      const auto l = static_cast<std::size_t>(link);
      if (reserved_[l] == 0) reserved_links_.push_back(link);
      reserved_[l] += e.bandwidth;
      return true;
    });
  }
}

bool LinkLedger::fits(const app::AppGraph& app, const Placement& placement,
                      app::ComponentId c, net::NodeId node) {
  bool ok = true;
  for_each_placed_peer(app, placement, c, [&](const app::Edge& e, net::NodeId peer) {
    if (!ok || peer == node) return;
    const net::NodeId from = e.from == c ? node : peer;
    const net::NodeId to = e.from == c ? peer : node;
    ok = view_->routing().reachable(from, to) &&
         (e.max_latency <= 0 || view_->path_latency(from, to) <= e.max_latency);
    if (!ok) return;
    view_->routing().walk(from, to, [&](net::LinkId link) {
      const auto l = static_cast<std::size_t>(link);
      if (scratch_[l] == 0) touched_.push_back(link);
      scratch_[l] += e.bandwidth;
      ok = reserved_[l] + scratch_[l] <= view_->link_capacity(link);
      return ok;
    });
  });
  for (net::LinkId l : touched_) scratch_[static_cast<std::size_t>(l)] = 0;
  touched_.clear();
  return ok;
}

// The one packing loop: each path restarts from the top-ranked node and
// advances forward, so a chain stays on as few nodes as possible; once the
// ranked list is exhausted a component falls back to first-fit.
std::optional<util::Error> Packer::pack(const PackInput& input,
                                        std::span<const std::vector<app::ComponentId>> paths,
                                        Placement& placement) {
  budget_.reset(input.cluster);
  if (auto error = place_pinned(input.app, input.cluster, budget_, placement)) return error;
  ledger_.reset(input.view);
  ledger_.reserve(input.app, placement, app::kInvalidComponent, false);  // pins

  NodeRanker& ranked = input.ranked_nodes;
  auto can_place = [&](app::ComponentId c, net::NodeId node) {
    return budget_.fits(node, input.app.component(c)) &&
           ledger_.fits(input.app, placement, c, node);
  };
  for (const auto& path : paths) {
    std::size_t idx = 0;
    for (app::ComponentId c : path) {
      if (placement[static_cast<std::size_t>(c)] != net::kInvalidNode) continue;  // pinned
      while (idx < ranked.size() && !can_place(c, ranked[idx])) ++idx;
      std::size_t at = idx;
      if (at == ranked.size()) {  // advance-only exhausted the list: first-fit
        at = 0;
        while (at < ranked.size() && !can_place(c, ranked[at])) ++at;
        if (at == ranked.size()) {
          return util::make_error(util::str_format(
              "no node can host component '%s' of app '%s' (cpu/mem/bandwidth exhausted)",
              input.app.component(c).name.c_str(), input.app.name().c_str()));
        }
      }
      const net::NodeId target = ranked[at];
      budget_.charge(target, input.app.component(c));
      placement[static_cast<std::size_t>(c)] = target;
      ledger_.reserve(input.app, placement, c, true);
    }
  }
  return std::nullopt;
}

std::optional<util::Error> Packer::sequential_pack(
    const PackInput& input, const std::vector<app::ComponentId>& order, Placement& out) {
  BASS_OBS_SCOPE("sched.sequential_pack_us");
  return pack(input, std::span(&order, 1), out);
}

std::optional<util::Error> Packer::path_pack(
    const PackInput& input, const std::vector<std::vector<app::ComponentId>>& paths,
    Placement& out) {
  BASS_OBS_SCOPE("sched.path_pack_us");
  return pack(input, paths, out);
}

namespace {

util::Expected<Placement> packed(std::optional<util::Error> error, Placement& placement) {
  if (error) return std::move(*error);
  return std::move(placement);
}

}  // namespace

util::Expected<Placement> Packer::sequential_pack(
    const PackInput& input, const std::vector<app::ComponentId>& order) {
  Placement placement;
  return packed(sequential_pack(input, order, placement), placement);
}

util::Expected<Placement> Packer::path_pack(
    const PackInput& input, const std::vector<std::vector<app::ComponentId>>& paths) {
  Placement placement;
  return packed(path_pack(input, paths, placement), placement);
}

}  // namespace bass::sched

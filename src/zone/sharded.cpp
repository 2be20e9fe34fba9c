#include "zone/sharded.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "util/strings.h"

namespace bass::zone {
namespace {

util::Error err(const std::string& message) { return util::make_error(message); }

// Imposed border rates are integer bps; llround jitter of a single bit per
// second must not count as "the fixpoint moved" or steady state would
// re-settle every round.
constexpr net::Bps kRateEpsBps = 1;

// Reconciliation passes per round before the coordinator stops chasing a
// fixpoint; in practice one pass settles it.
constexpr int kMaxReconcileIterations = 4;

// Distinct per-zone churn seeds derived from the scenario seed: the golden
// ratio stride keeps them far apart for any zone count while staying a pure
// function of (seed, zone) — replays and --jobs variations see identical
// schedules.
std::uint64_t zone_seed(std::uint64_t base, int zone) {
  return base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(zone + 1);
}

}  // namespace

ShardedOrchestrator::~ShardedOrchestrator() = default;

util::Expected<std::unique_ptr<ShardedOrchestrator>> ShardedOrchestrator::create(
    ShardedBuild build, std::size_t jobs) {
  if (build.topology.node_count() == 0) {
    return err("zones: topology has no nodes");
  }
  auto s = std::unique_ptr<ShardedOrchestrator>(new ShardedOrchestrator());
  s->cfg_ = build.zones;
  s->duration_ = build.duration;
  const sim::Duration interval = s->cfg_.round_interval;
  if (interval <= 0) return err("zones: round_interval must be > 0");
  s->rounds_total_ = static_cast<int>(
      std::max<sim::Duration>(1, (build.duration + interval - 1) / interval));

  ZonePartitioner partitioner(s->cfg_.count, s->cfg_.method);
  s->partition_ = partitioner.partition(build.topology);

  const std::size_t links = static_cast<std::size_t>(build.topology.link_count());
  s->link_owners_.assign(links, {});
  s->recon_caps_.assign(links, 0.0);

  for (int z = 0; z < s->partition_.zones; ++z) {
    s->worlds_.push_back(std::make_unique<World>(build.recorder));
    s->worlds_.back()->zone = z;
    s->build_world(*s->worlds_.back(), build);
  }
  s->setup_transit(build);
  s->build_components();
  s->cache_instruments();
  s->zone_dirty_.assign(s->worlds_.size(), 0);
  s->comp_dirty_.assign(s->components_.size(), 0);
  s->batches_ = std::vector<std::optional<net::Network::BatchUpdate>>(s->worlds_.size());
  s->entity_scratch_.reserve(s->transit_.size());
  s->entity_flow_.reserve(s->transit_.size());

  std::size_t workers = jobs;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min<std::size_t>(workers, s->worlds_.size());
  if (workers > 1) s->pool_ = std::make_unique<exec::Pool>(workers);
  return s;
}

util::Expected<std::unique_ptr<ShardedOrchestrator>> ShardedOrchestrator::from_ini(
    const util::IniFile& ini, std::size_t jobs) {
  const auto* zsec = ini.first_of_kind("zones");
  if (zsec == nullptr) return err("scenario has no [zones] section");
  if (ini.first_of_kind("serve") == nullptr) {
    return err("sharded orchestration requires a [serve] section");
  }

  ShardedBuild build;
  build.duration = scenario::parse_run_duration(ini);

  auto topo = scenario::build_topology(ini);
  if (!topo.ok()) return err(topo.error());
  scenario::TopologySpec spec = topo.take();
  build.topology = std::move(spec.topology);
  build.specs = std::move(spec.specs);

  auto serve = scenario::parse_serve_config(ini, build.duration);
  if (!serve.ok()) return err(serve.error());
  build.serve = serve.take();

  build.zones.count = static_cast<int>(zsec->number_or("count", 2));
  if (build.zones.count < 1) return err("[zones]: count must be >= 1");
  const std::string method = zsec->get_or("method", "bfs");
  if (method == "chunks") {
    build.zones.method = PartitionMethod::kChunks;
  } else if (method == "bfs") {
    build.zones.method = PartitionMethod::kBfsBalanced;
  } else {
    return err("[zones]: unknown method '" + method + "' (bfs | chunks)");
  }
  auto round_interval = scenario::parse_period(*zsec, "round_interval_s", 10);
  if (!round_interval.ok()) return err(round_interval.error());
  build.zones.round_interval = round_interval.value();
  build.zones.transit_per_border =
      static_cast<int>(zsec->number_or("transit_per_border", 1));
  build.zones.transit_bps =
      static_cast<net::Bps>(zsec->number_or("transit_mbps", 2.0) * 1e6);
  build.zones.transit_local = zsec->flag_or("transit_local", false);
  build.zones.gating = zsec->flag_or("gating", true);
  build.zones.active_zones =
      static_cast<int>(zsec->number_or("active_zones", 0));
  if (build.zones.active_zones < 0) {
    return err("[zones]: active_zones must be >= 0");
  }

  auto monitor = scenario::parse_monitor_config(ini);
  if (!monitor.ok()) return err(monitor.error());
  build.monitor_enabled = monitor.value().has_value();
  if (build.monitor_enabled) build.monitor = *monitor.value();
  build.invariants_enabled = scenario::parse_invariants_enabled(ini);
  build.orch = scenario::parse_orchestrator_config(ini);
  build.recorder = scenario::parse_recorder_config(ini);
  return create(std::move(build), jobs);
}

void ShardedOrchestrator::build_world(World& w, const ShardedBuild& build) {
  const net::Topology& topo = build.topology;
  const std::vector<net::NodeId>& members =
      partition_.members[static_cast<std::size_t>(w.zone)];

  // Interior nodes first (ascending global id), then the one-hop halo:
  // remote endpoints of border links touching this zone.
  w.global_to_local.assign(static_cast<std::size_t>(topo.node_count()),
                           net::kInvalidNode);
  w.local_to_global = members;
  w.interior_count = static_cast<int>(members.size());
  std::vector<net::NodeId> halo;
  for (const net::LinkId gl : partition_.border_links) {
    const net::Link& link = topo.link(gl);
    if (partition_.zone_of[static_cast<std::size_t>(link.src)] == w.zone) {
      halo.push_back(link.dst);
    } else if (partition_.zone_of[static_cast<std::size_t>(link.dst)] == w.zone) {
      halo.push_back(link.src);
    }
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  w.local_to_global.insert(w.local_to_global.end(), halo.begin(), halo.end());
  for (std::size_t i = 0; i < w.local_to_global.size(); ++i) {
    w.global_to_local[static_cast<std::size_t>(w.local_to_global[i])] =
        static_cast<net::NodeId>(i);
  }

  net::Topology local;
  for (const net::NodeId g : w.local_to_global) local.add_node(topo.node_name(g));

  // Local links: every global link with both endpoints present and at least
  // one interior. Halo-halo links stay out — halo nodes exist only to
  // terminate border paths, not to route foreign traffic through the zone.
  // Iterate the src < dst direction of each pair once; the paired reverse
  // link carries the opposite direction's capacity.
  for (net::LinkId gl = 0; gl < topo.link_count(); ++gl) {
    const net::Link& link = topo.link(gl);
    if (link.src >= link.dst) continue;
    const net::NodeId la = w.global_to_local[static_cast<std::size_t>(link.src)];
    const net::NodeId lb = w.global_to_local[static_cast<std::size_t>(link.dst)];
    if (la == net::kInvalidNode || lb == net::kInvalidNode) continue;
    if (la >= w.interior_count && lb >= w.interior_count) continue;
    const net::LinkId rev = net::Topology::reverse(gl);
    const auto [ab, ba] = local.add_link(la, lb, link.capacity, topo.link(rev).capacity);
    w.link_to_global.insert(w.link_to_global.end(), {gl, rev});  // at ab, ba
    auto claim = [&](net::LinkId global, net::LinkId local_id) {
      for (LinkOwner& owner : link_owners_[static_cast<std::size_t>(global)]) {
        if (owner.zone == -1) {
          owner = {w.zone, local_id};
          return;
        }
      }
    };
    claim(gl, ab);
    claim(rev, ba);
  }

  for (std::size_t i = 0; i < w.local_to_global.size(); ++i) {
    cluster::NodeSpec spec;
    if (static_cast<int>(i) < w.interior_count) {
      spec = build.specs[static_cast<std::size_t>(w.local_to_global[i])];
    } else {
      spec.cpu_milli = 0;
      spec.memory_mb = 0;
      spec.schedulable = false;  // halo nodes never host components
    }
    w.cluster.add_node(static_cast<net::NodeId>(i), spec);
  }

  w.network = std::make_unique<net::Network>(w.sim, std::move(local));
  w.network->set_recorder(&w.recorder);
  w.transit_load.assign(static_cast<std::size_t>(topo.link_count()), 0.0);

  w.orch = std::make_unique<core::Orchestrator>(w.sim, *w.network, w.cluster,
                                                build.orch);
  w.orch->set_recorder(&w.recorder);
  if (build.monitor_enabled) {
    w.monitor = std::make_unique<monitor::NetMonitor>(*w.network, build.monitor);
    w.monitor->set_recorder(&w.recorder);
    w.orch->attach_monitor(w.monitor.get());
  }
  if (build.invariants_enabled) {
    w.invariants = std::make_unique<fault::Invariants>(*w.orch, &w.recorder);
    w.invariants->attach();
  }
  if (build.serving) {
    scenario::ServeConfig cfg = build.serve;
    cfg.churn.seed = zone_seed(build.serve.churn.seed, w.zone);
    if (cfg_.active_zones > 0) {
      // Sparse-churn shaping: the whole configured arrival rate lands on
      // the first active_zones zones; the rest serve an empty schedule.
      const int active = std::min(cfg_.active_zones, partition_.zones);
      cfg.churn.arrival_per_min =
          w.zone < active ? build.serve.churn.arrival_per_min / active : 0.0;
    } else {
      cfg.churn.arrival_per_min =
          build.serve.churn.arrival_per_min / partition_.zones;
    }
    cfg.churn.duration = build.duration;
    w.serving = std::make_unique<scenario::ServingLoop>(*w.orch, cfg);
    w.serving->set_recorder(&w.recorder);
  }
}

void ShardedOrchestrator::setup_transit(const ShardedBuild& build) {
  if (cfg_.transit_per_border <= 0 || partition_.zones < 2) return;
  const net::Topology& topo = build.topology;
  int seq = 0;
  for (const net::LinkId gl : partition_.border_links) {
    const net::Link& link = topo.link(gl);
    const int za = partition_.zone_of[static_cast<std::size_t>(link.src)];
    const int zb = partition_.zone_of[static_cast<std::size_t>(link.dst)];
    World& a = *worlds_[static_cast<std::size_t>(za)];
    World& b = *worlds_[static_cast<std::size_t>(zb)];
    for (int k = 0; k < cfg_.transit_per_border; ++k, ++seq) {
      TransitFlow f;
      f.zone_a = za;
      f.zone_b = zb;
      f.demand = cfg_.transit_bps;
      if (cfg_.transit_local) {
        // Border-router endpoints: both halves collapse onto the border
        // link itself, so each border's flows contend only with each other.
        f.a_src = a.global_to_local[static_cast<std::size_t>(link.src)];
        f.b_dst = b.global_to_local[static_cast<std::size_t>(link.dst)];
      } else {
        // Rotate the intra-zone endpoints across members so transit couples
        // to different parts of each zone, not always the border router.
        f.a_src = static_cast<net::NodeId>((seq * 7) % a.interior_count);
        f.b_dst = static_cast<net::NodeId>((seq * 7 + 3) % b.interior_count);
      }
      f.a_dst = a.global_to_local[static_cast<std::size_t>(link.dst)];
      f.b_src = b.global_to_local[static_cast<std::size_t>(link.src)];

      const auto map_path = [this](World& w, net::NodeId src, net::NodeId dst,
                                   std::vector<net::LinkId>& out) {
        const net::RoutingTable& routing = w.network->routing();
        out.resize(static_cast<std::size_t>(routing.hops(src, dst)));
        if (src == dst) return true;
        if (!routing.reachable(src, dst)) return false;
        routing.copy_path(src, dst, out);
        for (net::LinkId& l : out) l = w.link_to_global[static_cast<std::size_t>(l)];
        return true;
      };
      if (!map_path(a, f.a_src, f.a_dst, f.a_path) ||
          !map_path(b, f.b_src, f.b_dst, f.b_path)) {
        ++skipped_transit_;
        continue;
      }
      f.union_links = f.a_path;
      f.union_links.insert(f.union_links.end(), f.b_path.begin(), f.b_path.end());
      std::sort(f.union_links.begin(), f.union_links.end());
      f.union_links.erase(
          std::unique(f.union_links.begin(), f.union_links.end()),
          f.union_links.end());
      ++a.border_halves;
      ++b.border_halves;
      transit_.push_back(std::move(f));
    }
  }
}

void ShardedOrchestrator::build_components() {
  // Union-find over transit flows: flows sharing any global link coalesce.
  // The grouping is a pure function of the (deterministic) transit layout,
  // so component ids and orders are identical across runs and --jobs.
  const std::size_t n = transit_.size();
  flow_component_.assign(n, -1);
  if (n == 0) return;
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> link_flow(link_owners_.size(), kNone);
  for (std::size_t i = 0; i < n; ++i) {
    for (const net::LinkId gl : transit_[i].union_links) {
      std::size_t& seen = link_flow[static_cast<std::size_t>(gl)];
      if (seen == kNone) {
        seen = i;
      } else {
        parent[find(i)] = find(seen);
      }
    }
  }

  // Components numbered by their lowest flow index; flows listed ascending.
  std::vector<int> comp_of_root(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (comp_of_root[root] == -1) {
      comp_of_root[root] = static_cast<int>(components_.size());
      components_.emplace_back();
    }
    const int c = comp_of_root[root];
    flow_component_[i] = c;
    components_[static_cast<std::size_t>(c)].flows.push_back(i);
  }
  const auto sort_dedup = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (BorderComponent& comp : components_) {
    for (const std::size_t fi : comp.flows) {
      const TransitFlow& f = transit_[fi];
      comp.links.insert(comp.links.end(), f.union_links.begin(),
                        f.union_links.end());
      comp.load_zones.push_back(f.zone_a);
      comp.load_zones.push_back(f.zone_b);
    }
    sort_dedup(comp.links);
    sort_dedup(comp.load_zones);
    for (const net::LinkId gl : comp.links) {
      for (const LinkOwner& owner : link_owners_[static_cast<std::size_t>(gl)]) {
        if (owner.zone != -1) comp.owner_zones.push_back(owner.zone);
      }
    }
    sort_dedup(comp.owner_zones);
  }
#ifndef NDEBUG
  // Reconcile fills each link's residual once per dirty component; that
  // holds because no link lands in two components.
  std::vector<int> link_component(link_owners_.size(), -1);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    for (const net::LinkId gl : components_[c].links) {
      int& owner = link_component[static_cast<std::size_t>(gl)];
      assert(owner == -1 && "border components share a link");
      owner = static_cast<int>(c);
    }
  }
#endif
}

void ShardedOrchestrator::cache_instruments() {
  obs::MetricsRegistry& metrics = coordinator_.metrics();
  m_rounds_ = &metrics.counter("zone.rounds");
  m_recon_iterations_ = &metrics.counter("zone.reconcile_iterations");
  m_dirty_borders_ = &metrics.counter("zone.dirty_borders");
  for (auto& w : worlds_) {
    const obs::Labels labels{{"zone", std::to_string(w->zone)}};
    w->m_round_wall = &metrics.log_timer_us("zone.round_wall_us", labels);
    w->m_border_streams = &metrics.gauge("zone.border_streams", labels);
    w->m_flows = &metrics.gauge("zone.flows", labels);
    w->m_skipped_rounds = &metrics.counter("zone.skipped_rounds", labels);
  }
}

void ShardedOrchestrator::advance(sim::Time deadline) {
  const auto task = [deadline](World& w) {
    obs::ScopedGlobalRecorder guard(&w.recorder);
    const auto t0 = std::chrono::steady_clock::now();
    w.sim.run_until(deadline);
    w.round_wall_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  };
  if (pool_) {
    for (auto& w : worlds_) {
      if (!w->due) continue;
      World* wp = w.get();
      pool_->submit([task, wp] { task(*wp); });
    }
    pool_->wait();
  } else {
    for (auto& w : worlds_) {
      if (w->due) task(*w);
    }
  }
}

void ShardedOrchestrator::start() {
  if (started_) return;
  started_ = true;

  // Warmup mirrors Scenario::from_ini: monitors pre-probe for two sim
  // seconds so schedulers see measured capacities before the first round.
  for (auto& w : worlds_) {
    if (w->monitor) {
      obs::ScopedGlobalRecorder guard(&w->recorder);
      w->monitor->start();
    }
  }
  advance(sim::seconds(2));  // every world starts due
  base_ = sim::seconds(2);

  // Border transit comes up at the end of warmup, serially in border-link
  // order — every run (any --jobs) opens the same streams in the same
  // order. One batch per zone: opening T contending streams individually
  // re-settles the shared contention component each time (O(T^2) flow
  // touches); batched, each zone settles at most once (opens that fit
  // apply in place until the first that contends).
  for (TransitFlow& f : transit_) {
    World& a = *worlds_[static_cast<std::size_t>(f.zone_a)];
    World& b = *worlds_[static_cast<std::size_t>(f.zone_b)];
    open_batch(f.zone_a);
    open_batch(f.zone_b);
    {
      obs::ScopedGlobalRecorder guard(&a.recorder);
      f.a_stream = a.network->open_stream(f.a_src, f.a_dst, f.demand);
    }
    {
      obs::ScopedGlobalRecorder guard(&b.recorder);
      f.b_stream = b.network->open_stream(f.b_src, f.b_dst, f.demand);
    }
    f.imposed = f.demand;
  }
  close_batches();  // settle each zone once

  for (auto& w : worlds_) {
    if (w->serving) {
      obs::ScopedGlobalRecorder guard(&w->recorder);
      w->serving->start();
    }
  }
}

int ShardedOrchestrator::reconcile() {
  if (transit_.empty()) return 0;
  int changed_iterations = 0;
  bool rebuilt_any = false;
  const bool gate = cfg_.gating;

  for (int pass = 0; pass < kMaxReconcileIterations; ++pass) {
    // Which zones' allocations moved since we last looked. Every
    // allocation-moving path — stream open/close, demand change, capacity
    // shift — is an allocator pass or an in-place shortcut, and
    // both bump Network::allocation_changes(); transit rates and
    // link_allocated can only move with it. (The pass count alone misses
    // shortcuts, which move link_allocated and so the border residuals.)
    // Ungated mode treats everything as dirty, reproducing the pre-gating
    // pass exactly.
    bool any_zone_dirty = false;
    for (auto& w : worlds_) {
      const std::int64_t marker = w->network->allocation_changes();
      const bool dirty = !gate || marker != w->recon_marker;
      w->recon_marker = marker;
      zone_dirty_[static_cast<std::size_t>(w->zone)] =
          static_cast<std::uint8_t>(dirty);
      any_zone_dirty |= dirty;
    }
    if (!any_zone_dirty) break;

    // A component is dirty when any owner zone of any of its links
    // reallocated. Clean components are bitwise fixpoints: their links'
    // residuals and their flows' rates are untouched since the solve that
    // imposed them, and the max-min fill is component-local — re-solving
    // would reproduce the imposed rates to the bit.
    int dirty_comps = 0;
    std::size_t dirty_links = 0;
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      const BorderComponent& comp = components_[ci];
      bool dirty = false;
      for (const int z : comp.owner_zones) {
        if (zone_dirty_[static_cast<std::size_t>(z)] != 0) {
          dirty = true;
          break;
        }
      }
      comp_dirty_[ci] = static_cast<std::uint8_t>(dirty);
      if (dirty) {
        ++dirty_comps;
        dirty_links += comp.links.size();
      }
    }
    if (dirty_comps == 0) break;
    border_rebuilds_ += dirty_comps;
    if (m_dirty_borders_ != nullptr) m_dirty_borders_->add(dirty_comps);
    rebuilt_any = true;

    // Transit load per world per global link, rebuilt for dirty components
    // only. Components are link-disjoint, so the stale entries left behind
    // for clean components are never read below.
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      if (comp_dirty_[ci] == 0) continue;
      const BorderComponent& comp = components_[ci];
      for (const int z : comp.load_zones) {
        World& w = *worlds_[static_cast<std::size_t>(z)];
        for (const net::LinkId gl : comp.links) {
          w.transit_load[static_cast<std::size_t>(gl)] = 0.0;
        }
      }
      for (const std::size_t fi : comp.flows) {
        const TransitFlow& f = transit_[fi];
        World& a = *worlds_[static_cast<std::size_t>(f.zone_a)];
        World& b = *worlds_[static_cast<std::size_t>(f.zone_b)];
        const auto add_load = [](World& w, const std::vector<net::LinkId>& path,
                                 double rate) {
          for (const net::LinkId gl : path) {
            w.transit_load[static_cast<std::size_t>(gl)] += rate;
          }
        };
        add_load(a, f.a_path,
                 static_cast<double>(a.network->stream_rate(f.a_stream)));
        add_load(b, f.b_path,
                 static_cast<double>(b.network->stream_rate(f.b_stream)));
      }
    }

    // Residual capacity for border traffic on every dirty-component link:
    // what the owning worlds' non-transit allocations leave over, min
    // across owners (border links are owned by both touching zones).
    // Components are link-disjoint, so each link is filled once per pass.
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      if (comp_dirty_[ci] == 0) continue;
      for (const net::LinkId gl : components_[ci].links) {
        double residual = std::numeric_limits<double>::max();
        for (const LinkOwner& owner : link_owners_[static_cast<std::size_t>(gl)]) {
          if (owner.zone == -1) continue;
          World& w = *worlds_[static_cast<std::size_t>(owner.zone)];
          const double non_transit =
              static_cast<double>(w.network->link_allocated(owner.local)) -
              w.transit_load[static_cast<std::size_t>(gl)];
          const double avail =
              static_cast<double>(w.network->link_capacity(owner.local)) -
              non_transit;
          residual = std::min(residual, avail);
        }
        recon_caps_[static_cast<std::size_t>(gl)] = std::max(residual, 0.0);
      }
    }

    // One solve over the dirty components' flows, in transit order — the
    // solver is component-local, so the subset solve matches the full
    // solve bitwise for every included flow.
    entity_scratch_.clear();
    entity_flow_.clear();
    for (std::size_t i = 0; i < transit_.size(); ++i) {
      if (comp_dirty_[static_cast<std::size_t>(flow_component_[i])] == 0) {
        continue;
      }
      entity_scratch_.push_back(
          {static_cast<double>(transit_[i].demand), transit_[i].union_links});
      entity_flow_.push_back(i);
    }
    const std::vector<double>& rates =
        border_solver_.solve(recon_caps_, entity_scratch_);

    // Impose the solve as demand caps on both halves. A cap that moves on
    // links keeping slack applies in place; the rest settle once per zone
    // per pass via a batch update. Every imposition, in place or not, bumps
    // the target zone's allocation-change marker, so the next pass picks
    // it up as dirty — the fixpoint loop needs no extra bookkeeping.
    bool changed = false;
    for (std::size_t e = 0; e < entity_flow_.size(); ++e) {
      TransitFlow& f = transit_[entity_flow_[e]];
      const net::Bps target = std::clamp<net::Bps>(
          static_cast<net::Bps>(std::llround(rates[e])), 0, f.demand);
      if (std::llabs(target - f.imposed) <= kRateEpsBps) continue;
      for (const auto& [zone, stream] :
           {std::pair{f.zone_a, f.a_stream}, std::pair{f.zone_b, f.b_stream}}) {
        open_batch(zone);
        World& w = *worlds_[static_cast<std::size_t>(zone)];
        obs::ScopedGlobalRecorder guard(&w.recorder);
        w.network->set_stream_demand(stream, target);
      }
      f.imposed = target;
      changed = true;
    }
    close_batches();  // settle all touched zones
    if (!changed) break;
    ++changed_iterations;
  }
  if (!rebuilt_any) ++reconcile_skipped_;
  return changed_iterations;
}

void ShardedOrchestrator::open_batch(int zone) {
  std::optional<net::Network::BatchUpdate>& batch =
      batches_[static_cast<std::size_t>(zone)];
  if (!batch) batch.emplace(*worlds_[static_cast<std::size_t>(zone)]->network);
}

void ShardedOrchestrator::close_batches() {
  for (std::optional<net::Network::BatchUpdate>& batch : batches_) batch.reset();
}

void ShardedOrchestrator::run_round() {
  if (!started_) start();
  const int r = round_;
  const sim::Time deadline =
      base_ + static_cast<sim::Time>(r + 1) * cfg_.round_interval;

  // A zone is due exactly when its own queue holds an event at or before the
  // deadline: every source of zone work (churn, admission retries,
  // controller and probe timers, fault recoveries) lives there. Serial and a
  // pure function of zone state, so the due set is identical at any --jobs.
  for (auto& w : worlds_) {
    w->due = !cfg_.gating || w->sim.has_event_before(deadline);
  }

  const auto now_wall = [] { return std::chrono::steady_clock::now(); };
  const auto us_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Quiescent zones: nothing is scheduled in their window, so the tick is
  // the same run_until the full pass makes, minus the pool dispatch, the
  // recorder guard and the wall-clock reads. Journals stay byte-identical.
  auto t0 = now_wall();
  int due_count = 0;
  for (auto& w : worlds_) {
    if (w->due) {
      ++due_count;
      ++w->rounds_full;
      continue;
    }
    w->sim.run_until(deadline);
    ++w->rounds_skipped;
    w->m_skipped_rounds->inc();
  }
  tick_wall_us_ += us_since(t0);

  t0 = now_wall();
  if (due_count > 0) advance(deadline);
  advance_wall_us_ += us_since(t0);

  t0 = now_wall();
  const int iterations = reconcile();
  reconcile_wall_us_ += us_since(t0);
  reconcile_total_ += iterations;
  ++round_;

  // Coordinator journal + metrics, serially — deterministic regardless of
  // worker count. The summary span parents the per-zone records. These
  // events are identical gated and ungated (the journal byte-identity
  // contract); gating surfaces only through metrics and the report.
  int total_flows = 0;
  int total_halves = 0;
  for (const auto& w : worlds_) {
    total_flows += static_cast<int>(w->network->stream_count());
    total_halves += w->border_halves;
  }
  obs::ZoneRound summary;
  summary.at = deadline;
  summary.zone = -1;
  summary.round = r;
  summary.flows = total_flows;
  summary.border_streams = total_halves;
  summary.recon_iterations = iterations;
  summary.span = coordinator_.new_span();
  coordinator_.record(obs::Event{summary});

  m_rounds_->inc();
  m_recon_iterations_->add(iterations);
  for (const auto& w : worlds_) {
    obs::ZoneRound zr;
    zr.at = deadline;
    zr.zone = w->zone;
    zr.round = r;
    zr.flows = static_cast<int>(w->network->stream_count());
    zr.border_streams = w->border_halves;
    zr.recon_iterations = iterations;
    zr.span = coordinator_.new_span();
    zr.parent = summary.span;
    coordinator_.record(obs::Event{zr});
    if (w->due) w->m_round_wall->observe(w->round_wall_us);
    w->m_border_streams->set(static_cast<double>(w->border_halves));
    w->m_flows->set(static_cast<double>(zr.flows));
  }
}

void ShardedOrchestrator::finish() {
  if (finished_) return;
  if (!started_) start();
  finished_ = true;

  // Drain mirrors Scenario::run(): two extra sim-minutes with the serving
  // loops live so in-flight admissions and migrations resolve.
  const sim::Time end =
      base_ + static_cast<sim::Time>(round_) * cfg_.round_interval;
  for (auto& w : worlds_) w->due = true;
  advance(end + sim::minutes(2));

  report_ = ShardedReport{};
  for (auto& w : worlds_) {
    obs::ScopedGlobalRecorder guard(&w->recorder);
    if (w->serving) w->serving->stop();
    if (w->monitor) w->monitor->stop();
    if (w->invariants) w->invariants->check_now();
  }

  // Fold every zone's instruments into the coordinator registry under an
  // added {zone} label, so one metrics snapshot covers the whole city.
  obs::MetricsRegistry& dst = coordinator_.metrics();
  for (auto& w : worlds_) {
    const std::string zone_label = std::to_string(w->zone);
    const auto relabel = [&zone_label](const obs::Labels& labels) {
      obs::Labels out = labels;
      out.emplace_back("zone", zone_label);
      return out;
    };
    const obs::MetricsRegistry& src = w->recorder.metrics();
    src.for_each_counter([&](const std::string& name, const obs::Labels& labels,
                             const obs::Counter& c) {
      dst.counter(name, relabel(labels)).add(c.value());
    });
    src.for_each_gauge([&](const std::string& name, const obs::Labels& labels,
                           const obs::Gauge& g) {
      dst.gauge(name, relabel(labels)).set(g.value());
    });
    src.for_each_log_histogram([&](const std::string& name,
                                   const obs::Labels& labels,
                                   const obs::LogHistogram& h) {
      dst.log_histogram(name, relabel(labels)).merge(h);
    });
  }

  for (auto& w : worlds_) {
    if (w->serving) {
      const scenario::ServeStats& ss = w->serving->stats();
      const core::AdmissionStats& as = w->serving->admission_stats();
      report_.serve_arrivals += ss.arrivals;
      report_.serve_departures += ss.departures;
      report_.serve_admitted += as.admitted;
      report_.serve_rejected += as.rejected;
      report_.serve_deferred += as.deferred;
      report_.serve_cancelled += as.cancelled;
      report_.serve_peak_queue_depth =
          std::max(report_.serve_peak_queue_depth, as.peak_depth);
      report_.serve_live_at_end += ss.live_at_end;
    }
    report_.migrations += w->orch->migration_events().size();
    if (w->invariants) report_.invariant_violations += w->invariants->violations();
  }
  report_.rounds = round_;
  report_.reconcile_iterations = reconcile_total_;
  report_.border_links = partition_.border_links.size();
  report_.transit_streams = transit_.size();
  report_.transit_unroutable = skipped_transit_;
  report_.border_components = components_.size();
  report_.border_rebuilds = border_rebuilds_;
  report_.reconcile_rounds_skipped = reconcile_skipped_;
  report_.tick_wall_us = tick_wall_us_;
  report_.advance_wall_us = advance_wall_us_;
  report_.reconcile_wall_us = reconcile_wall_us_;

  for (auto& w : worlds_) {
    report_.zone_rounds_full += w->rounds_full;
    report_.zone_rounds_skipped += w->rounds_skipped;
  }
}

ShardedReport ShardedOrchestrator::run() {
  start();
  while (round_ < rounds_total_) run_round();
  finish();
  return report_;
}

core::Orchestrator& ShardedOrchestrator::zone_orchestrator(int z) {
  return *worlds_[static_cast<std::size_t>(z)]->orch;
}

net::Network& ShardedOrchestrator::zone_network(int z) {
  return *worlds_[static_cast<std::size_t>(z)]->network;
}

obs::Recorder& ShardedOrchestrator::zone_recorder(int z) {
  return worlds_[static_cast<std::size_t>(z)]->recorder;
}

scenario::ServingLoop* ShardedOrchestrator::zone_serving(int z) {
  return worlds_[static_cast<std::size_t>(z)]->serving.get();
}

net::NodeId ShardedOrchestrator::local_node(int z, net::NodeId global) const {
  const World& w = *worlds_[static_cast<std::size_t>(z)];
  if (global < 0 ||
      global >= static_cast<net::NodeId>(w.global_to_local.size())) {
    return net::kInvalidNode;
  }
  return w.global_to_local[static_cast<std::size_t>(global)];
}

net::NodeId ShardedOrchestrator::global_node(int z, net::NodeId local) const {
  const World& w = *worlds_[static_cast<std::size_t>(z)];
  if (local < 0 || local >= static_cast<net::NodeId>(w.local_to_global.size())) {
    return net::kInvalidNode;
  }
  return w.local_to_global[static_cast<std::size_t>(local)];
}

std::string ShardedOrchestrator::merged_journal() const {
  // Zone events (annotated with their zone) in zone order, coordinator
  // events last, ordered by event time with source order breaking ties —
  // the order a stable sort of the concatenated lines by t_us gives. Each
  // ring is time-ordered (every recorder stamps an event with its sim clock
  // when it records it; the coordinator stamps the round deadline), so a
  // k-way heap merge keyed on (t, source index) serializes every event
  // straight into the output once: no per-zone JSONL copy, no line index.
  struct Source {
    const obs::EventJournal* journal;
    std::string annotation;  // ",\"zone\":N}" for zones, "" for coordinator
    std::size_t next = 0;
  };
  std::vector<Source> sources;
  sources.reserve(worlds_.size() + 1);
  for (auto& w : worlds_) {
    sources.push_back({&w->recorder.journal(),
                       util::str_format(",\"zone\":%d}", w->zone)});
  }
  sources.push_back({&coordinator_.journal(), ""});

  std::string out;
  // The annotation replaces the event object's closing brace.
  const auto append = [&out](const Source& src, std::size_t i) {
    obs::append_jsonl(src.journal->at(i), out);
    if (!src.annotation.empty()) {
      out.pop_back();
      out += src.annotation;
    }
    out += '\n';
  };
  const auto time_at = [](const Source& src, std::size_t i) {
    return obs::event_time(src.journal->at(i));
  };

  struct Head {
    sim::Time t;
    std::size_t src;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.src > b.src;
  };
  std::vector<Head> heap;
  heap.reserve(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (!sources[s].journal->empty()) heap.push_back({time_at(sources[s], 0), s});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t s = heap.back().src;
    heap.pop_back();
    Source& src = sources[s];
    append(src, src.next++);
    if (src.next < src.journal->size()) {
      assert(time_at(src, src.next - 1) <= time_at(src, src.next) &&
             "a journal ring went back in time");
      heap.push_back({time_at(src, src.next), s});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return out;
}

}  // namespace bass::zone

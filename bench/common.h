// Shared experiment rigs for the bench harnesses: the CloudLab-style LAN
// microbenchmark cluster (§6.2) and the emulated CityLab mesh (§6.3).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "app/catalog.h"
#include "core/orchestrator.h"
#include "monitor/net_monitor.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "trace/citylab.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bass::bench {

// True when the harness should also dump CSV series next to the binary.
inline bool csv_enabled() {
  const char* v = std::getenv("BASS_BENCH_CSV");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline void print_header(const std::string& title) {
  if (std::getenv("BASS_BENCH_DEBUG") != nullptr) {
    util::set_log_level(util::LogLevel::kDebug);
  } else if (std::getenv("BASS_LOG") == nullptr) {
    // Keep harness output to the tables themselves — unless the user asked
    // for a specific level via BASS_LOG (honored by the logger at startup).
    util::set_log_level(util::LogLevel::kError);
  }
  std::printf("\n=== %s ===\n", title.c_str());
}

// Machine/build metadata for baseline comparability: one "build.info" gauge
// whose labels carry the compiler, build type, flags, and sanitizer
// state. A checked-in baseline is only meaningful against a comparable
// build, and this row is how a reader (or CI) tells at a glance whether
// two BENCH_*.json files can be compared.
inline void emit_build_info(obs::MetricsRegistry& registry) {
#ifdef BASS_BUILD_TYPE
  const char* build_type = BASS_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef BASS_CXX_FLAGS
  const char* flags = BASS_CXX_FLAGS;
#else
  const char* flags = "";
#endif
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  registry
      .gauge("build.info",
             {{"compiler", __VERSION__},
              {"build_type", build_type},
              {"flags", flags},
              {"sanitizer", sanitized ? "on" : "off"}})
      .set(1.0);
}

// Writes BENCH_<name>.json through the metrics snapshot path: callers put
// their results into an obs::MetricsRegistry (labels distinguish scenario
// rows) and every bench emits the same self-describing schema — counters,
// gauges, and histograms with name/labels/value — instead of hand-rolled
// fprintf JSON per harness. A registry fed by a live obs::Recorder works
// too; the bench's own summary numbers just go into the same registry.
inline bool write_bench_json(const std::string& name,
                             const obs::MetricsRegistry& registry,
                             sim::Time now = 0) {
  const std::string path = "BENCH_" + name + ".json";
  if (!registry.write_json(path, now)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// ---- Microbenchmark rig: N nodes on a full-mesh LAN (§6.2.1) ----
//
// CloudLab machines on a bridged LAN; tc imposes per-node egress limits.
// c6525-25g: 16 cores (12 allocatable after k3s system reservations),
// d710: 4 cores. LAN links default to 1 Gbps.
struct LanCluster {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;

  LanCluster(int nodes, std::int64_t cpu_milli, std::int64_t memory_mb,
             net::Bps lan = net::gbps(1),
             core::OrchestratorConfig config = {}) {
    net::Topology topo;
    for (int i = 0; i < nodes; ++i) topo.add_node("node" + std::to_string(i + 1));
    for (int i = 0; i < nodes; ++i) {
      for (int j = i + 1; j < nodes; ++j) topo.add_link(i, j, lan);
    }
    network = std::make_unique<net::Network>(sim, std::move(topo));
    for (int i = 0; i < nodes; ++i) cluster.add_node(i, {cpu_milli, memory_mb, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster, config);
  }

  // tc-style egress limit: caps every outgoing link of `node`.
  void limit_node_egress(net::NodeId node, net::Bps cap) {
    net::Network::BatchUpdate batch(*network);
    for (net::LinkId l : network->topology().out_links(node)) {
      network->set_link_capacity(l, cap);
    }
  }

  void restore_node_egress(net::NodeId node, net::Bps cap) { limit_node_egress(node, cap); }
};

// ---- Emulated CityLab mesh rig (§6.3) ----
//
// The 5-node CityLab subset: node 0 runs the control plane (unschedulable),
// nodes 1-4 are heterogeneous workers (12 or 8 cores, 8 GB). Traces drive
// every link; the net-monitor probes them; BASS schedules off the monitor's
// cache.
struct CityLabRig {
  sim::Simulation sim;
  trace::CityLabMesh mesh;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<monitor::NetMonitor> monitor;
  std::unique_ptr<core::Orchestrator> orch;
  std::unique_ptr<trace::TracePlayer> player;

  explicit CityLabRig(sim::Duration trace_duration, bool variation, bool fades,
                      std::uint64_t seed = 42,
                      core::OrchestratorConfig config = {}) {
    mesh = trace::citylab_mesh();
    network = std::make_unique<net::Network>(sim, mesh.topology);
    cluster.add_node(0, {8000, 8192, false});  // control plane
    // Heterogeneous workers: 12, 12, 12, 8 cores with 8 GB (§6.3), of
    // which roughly two thirds is allocatable to application pods — the
    // rest runs k3s system pods, the BASS net-monitor daemon, Prometheus
    // scrapers, and the per-pod Istio sidecars of §5.
    cluster.add_node(1, {8000, 6144, true});
    cluster.add_node(2, {8000, 6144, true});
    cluster.add_node(3, {8000, 6144, true});
    cluster.add_node(4, {5000, 6144, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster, config);
    monitor = std::make_unique<monitor::NetMonitor>(*network);
    orch->attach_monitor(monitor.get());
    player = std::make_unique<trace::TracePlayer>(*network);
    if (variation) {
      trace::bind_citylab_traces(mesh, *player, trace_duration, fades, seed);
    }
    // Without variation, links stay at the trace means — the paper's
    // "bandwidth on the links set to the maximum observed" baseline uses
    // the calm capacities.
  }

  void start() {
    monitor->start();
    player->start();
  }
};

}  // namespace bass::bench

// Builders for the applications the paper evaluates (§6.1), plus the Fig. 6
// illustration DAG. CPU/memory demands, edge bandwidth requirements, and
// per-RPC message sizes are chosen so that the workload's offered traffic is
// consistent with the profiled bandwidth (rate ≈ RPS × (req+resp bytes) × 8)
// and so the placement outcomes in the paper's figures reproduce.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "app/app_graph.h"
#include "net/types.h"

namespace bass::app {

// The 7-component example of Fig. 6. Component names are "1".."7"; expected
// orders are BFS: 1,3,2,4,5,7,6 and longest-path: 1,2,4,5,7,3,6.
AppGraph fig6_example();

// Camera-processing pipeline (Fig. 9): camera-stream -> frame-sampler ->
// object-detector -> {image-listener, label-listener}. The detector is CPU
// bound (8 cores), the sampler takes 4 (§6.3.1).
AppGraph camera_pipeline_app();

// Video conferencing (Pion SFU). The SFU is the only schedulable component.
// Each (node, participant-count) entry adds a *pinned* pseudo-component
// modelling the clients attached at that mesh node, with edges carrying the
// SFU's expected forwarding load so the bandwidth controller can reason
// about the SFU's links exactly as it does for any other component pair.
// Churn builds each instance under its own `name`.
AppGraph video_conference_app(
    const std::vector<std::pair<net::NodeId, int>>& clients_per_node,
    net::Bps per_stream_bps, std::string name = "video-conference");

// DeathStarBench-style social network: 27 microservices (frontend, logic
// services, caches, stores). Edge probabilities encode the request mix
// (reads dominate, caches absorb most store lookups).
//
// `profile_scale` scales the profiled bandwidth requirements (edge
// weights) without touching message sizes: the paper gathers requirements
// by offline profiling of the deployment's own workload (§5), so a mesh
// deployment load-tested at 50 RPS carries 50/400 of the microbenchmark
// profile. Message sizes are calibrated at 400 RPS (scale 1.0).
AppGraph social_network_app(double profile_scale = 1.0);

}  // namespace bass::app

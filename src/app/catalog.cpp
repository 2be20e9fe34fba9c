#include "app/catalog.h"

#include <cassert>

#include "util/strings.h"

namespace bass::app {

namespace {

// Shorthand for catalog construction.
ComponentId add(AppGraph& g, const std::string& name, std::int64_t cpu_milli,
                std::int64_t memory_mb, sim::Duration service_time,
                int concurrency = 1) {
  Component c;
  c.name = name;
  c.cpu_milli = cpu_milli;
  c.memory_mb = memory_mb;
  c.service_time = service_time;
  c.concurrency = concurrency;
  return g.add_component(c);
}

void link(AppGraph& g, ComponentId from, ComponentId to, net::Bps bandwidth,
          std::int64_t request_bytes, std::int64_t response_bytes,
          double probability = 1.0) {
  Edge e;
  e.from = from;
  e.to = to;
  e.bandwidth = bandwidth;
  e.request_bytes = request_bytes;
  e.response_bytes = response_bytes;
  e.probability = probability;
  g.add_dependency(e);
}

}  // namespace

AppGraph fig6_example() {
  AppGraph g("fig6-example");
  // Components "1".."7", one core each (the figure assumes 4-core nodes).
  std::vector<ComponentId> c(8, kInvalidComponent);
  for (int i = 1; i <= 7; ++i) {
    c[static_cast<std::size_t>(i)] = add(g, std::to_string(i), 1000, 128, sim::millis(1));
  }
  // Weights (Mbps) chosen to produce the published orders:
  //   BFS (frontier sorted by edge weight):  1,3,2,4,5,7,6
  //   longest path (by weight):              1,2,4,5,7,3,6
  link(g, c[1], c[3], net::mbps(10), 4096, 4096);
  link(g, c[1], c[2], net::mbps(5), 4096, 4096);
  link(g, c[2], c[4], net::mbps(8), 4096, 4096);
  link(g, c[4], c[5], net::mbps(7), 4096, 4096);
  link(g, c[5], c[7], net::mbps(6), 4096, 4096);
  link(g, c[3], c[6], net::mbps(1), 4096, 4096);
  return g;
}

AppGraph camera_pipeline_app() {
  AppGraph g("camera-pipeline");
  // Per-frame flow profiled at the deployed 10 fps: the camera publishes
  // ~50 KB frames (4 Mbps), the sampler forwards them to the detector
  // (2.7 Mbps), the detector emits ~60 KB annotated frames (4.8 Mbps) and
  // tiny label strings. Demands follow §6.2.2/§6.3.1: the detector is CPU
  // bound at 8 cores, the sampler takes 4.
  const ComponentId camera = add(g, "camera-stream", 2000, 512, sim::millis(2), 4);
  const ComponentId sampler = add(g, "frame-sampler", 4000, 1024, sim::millis(120), 4);
  const ComponentId detector = add(g, "object-detector", 8000, 4096, sim::millis(180), 2);
  const ComponentId image = add(g, "image-listener", 1000, 256, sim::millis(1), 8);
  const ComponentId label = add(g, "label-listener", 1000, 128, sim::millis(1), 8);
  link(g, camera, sampler, net::mbps(4), 50000, 128);
  link(g, sampler, detector, net::kbps(2700), 50000, 128);
  link(g, detector, image, net::kbps(2000), 60000, 128);
  link(g, detector, label, net::kbps(35), 512, 128);
  return g;
}

AppGraph video_conference_app(
    const std::vector<std::pair<net::NodeId, int>>& clients_per_node,
    net::Bps per_stream_bps, std::string name) {
  AppGraph g(std::move(name));
  const ComponentId sfu = add(g, "pion-sfu", 2000, 1024, sim::micros(200), 16);

  int total_participants = 0;
  for (const auto& [node, count] : clients_per_node) total_participants += count;

  for (const auto& [node, count] : clients_per_node) {
    if (count <= 0) continue;
    Component clients;
    clients.name = util::str_format("clients@node%d", node);
    clients.cpu_milli = 0;  // not a real pod: an attachment point in the mesh
    clients.memory_mb = 0;
    clients.pinned_node = node;
    const ComponentId cg = g.add_component(clients);
    // One DAG edge per client group carrying the pair's total requirement:
    // downlink (the SFU forwards every *other* participant's stream to each
    // client here) plus uplink (each client publishes one stream). A single
    // direction keeps the component graph a DAG; the workload engine
    // accounts both directions of traffic against this edge.
    const net::Bps down =
        per_stream_bps * static_cast<net::Bps>(count) *
        static_cast<net::Bps>(std::max(total_participants - 1, 0));
    const net::Bps up = per_stream_bps * static_cast<net::Bps>(count);
    link(g, sfu, cg, down + up, 1200, 0);
  }
  return g;
}

AppGraph social_network_app(double profile_scale) {
  AppGraph g("social-network");
  // 27 components mirroring DeathStarBench's social network: an nginx
  // frontend, eleven logic services, and their cache/store pairs. Demands
  // total ~12.4 cores so the app fits the paper's 4x4-core d710 cluster
  // with room to spare. Edge bandwidths are the profiled requirement at
  // peak load (400 RPS); message sizes satisfy rate = 400 * (req+resp) * 8.
  const auto ms = [](std::int64_t m) { return sim::millis(m); };

  const ComponentId nginx = add(g, "nginx-web-server", 1000, 256, ms(1), 8);
  const ComponentId compose = add(g, "compose-post-service", 800, 256, ms(2), 4);
  const ComponentId text = add(g, "text-service", 400, 128, ms(1), 4);
  const ComponentId uid = add(g, "unique-id-service", 200, 64, ms(1), 4);
  const ComponentId media = add(g, "media-service", 400, 128, ms(1), 4);
  const ComponentId mention = add(g, "user-mention-service", 300, 128, ms(1), 4);
  const ComponentId url = add(g, "url-shorten-service", 300, 128, ms(1), 4);
  const ComponentId user = add(g, "user-service", 400, 128, ms(1), 4);
  const ComponentId social = add(g, "social-graph-service", 500, 256, ms(1), 4);
  const ComponentId home = add(g, "home-timeline-service", 800, 256, ms(1), 4);
  const ComponentId utl = add(g, "user-timeline-service", 600, 256, ms(1), 4);
  const ComponentId post = add(g, "post-storage-service", 800, 256, ms(1), 4);
  const ComponentId wht = add(g, "write-home-timeline", 400, 128, ms(1), 4);
  const ComponentId media_fe = add(g, "media-frontend", 400, 128, ms(1), 4);

  const ComponentId post_mc = add(g, "post-storage-memcached", 400, 512, ms(0), 8);
  const ComponentId post_db = add(g, "post-storage-mongodb", 600, 512, ms(3), 4);
  const ComponentId utl_rd = add(g, "user-timeline-redis", 400, 384, ms(0), 8);
  const ComponentId utl_db = add(g, "user-timeline-mongodb", 500, 512, ms(3), 4);
  const ComponentId home_rd = add(g, "home-timeline-redis", 400, 384, ms(0), 8);
  const ComponentId social_rd = add(g, "social-graph-redis", 400, 384, ms(0), 8);
  const ComponentId social_db = add(g, "social-graph-mongodb", 500, 512, ms(3), 4);
  const ComponentId url_mc = add(g, "url-shorten-memcached", 300, 256, ms(0), 8);
  const ComponentId url_db = add(g, "url-shorten-mongodb", 400, 512, ms(3), 4);
  const ComponentId user_mc = add(g, "user-memcached", 300, 256, ms(0), 8);
  const ComponentId user_db = add(g, "user-mongodb", 400, 512, ms(3), 4);
  const ComponentId media_mc = add(g, "media-memcached", 300, 256, ms(0), 8);
  const ComponentId media_db = add(g, "media-mongodb", 400, 512, ms(3), 4);

  assert(g.component_count() == 27);

  // Message sizes are calibrated so that the *offered* traffic at the
  // profiling load (400 RPS) matches each edge's bandwidth weight:
  //   rate = 400 RPS x P(edge invoked per request) x (req+resp bytes) x 8,
  // where P multiplies the probabilities down the call tree. That keeps the
  // "profiled requirement" and the workload's behaviour mutually honest.

  // --- Read path (home/user timeline), the dominant traffic ---
  link(g, nginx, home, net::mbps(40), 512, 20300, 0.60);
  link(g, home, home_rd, net::mbps(18), 256, 9100, 1.0);
  link(g, home, post, net::mbps(35), 512, 17700, 1.0);
  link(g, home, social, net::mbps(12), 256, 12200, 0.5);
  link(g, social, social_rd, net::mbps(8), 256, 6650, 0.9);
  link(g, social, social_db, net::mbps(3), 256, 23100, 0.1);
  link(g, social, user, net::mbps(4), 256, 10100, 0.3);

  link(g, nginx, utl, net::mbps(25), 512, 25500, 0.30);
  link(g, utl, utl_rd, net::mbps(10), 256, 10100, 1.0);
  link(g, utl, utl_db, net::mbps(4), 256, 16400, 0.25);
  link(g, utl, post, net::mbps(20), 512, 22600, 0.9);

  link(g, post, post_mc, net::mbps(30), 256, 11100, 0.85);
  link(g, post, post_db, net::mbps(12), 256, 12650, 0.3);

  // --- Write path (compose post) ---
  link(g, nginx, compose, net::mbps(15), 45000, 1800, 0.10);
  link(g, compose, text, net::mbps(6), 17000, 1750, 1.0);
  link(g, text, url, net::mbps(2), 5000, 5400, 0.6);
  link(g, text, mention, net::mbps(2), 5000, 5400, 0.6);
  link(g, url, url_mc, net::mbps(1), 300, 6200, 0.8);
  link(g, url, url_db, net::mbps(1), 300, 10100, 0.5);
  link(g, mention, user_mc, net::mbps(1), 300, 6200, 0.8);
  link(g, compose, uid, net::mbps(1), 200, 2925, 1.0);
  link(g, compose, media, net::mbps(4), 30000, 1250, 0.4);
  link(g, media, media_mc, net::mbps(2), 500, 21800, 0.7);
  link(g, media, media_db, net::mbps(2), 500, 38500, 0.4);
  link(g, media_fe, media, net::mbps(3), 17500, 1250, 1.0);
  link(g, nginx, media_fe, net::mbps(3), 17500, 1250, 0.05);
  link(g, compose, user, net::mbps(2), 400, 5850, 1.0);
  link(g, user, user_mc, net::mbps(2), 300, 3250, 0.8);
  link(g, user, user_db, net::mbps(1), 300, 6800, 0.2);
  link(g, compose, post, net::mbps(8), 24000, 1000, 1.0);
  link(g, compose, utl, net::mbps(5), 15000, 625, 1.0);
  link(g, compose, wht, net::mbps(6), 18000, 750, 1.0);
  link(g, wht, home_rd, net::mbps(5), 15000, 625, 1.0);
  link(g, wht, social, net::mbps(3), 600, 8775, 1.0);

  if (profile_scale != 1.0) {
    // Re-profiled at a lighter/heavier workload: bandwidth requirements
    // scale with offered load; compute/memory demands do not.
    AppGraph scaled(g.name());
    for (ComponentId c = 0; c < g.component_count(); ++c) {
      scaled.add_component(g.component(c));
    }
    for (Edge e : g.edges()) {
      e.bandwidth =
          static_cast<net::Bps>(static_cast<double>(e.bandwidth) * profile_scale);
      scaled.add_dependency(e);
    }
    return scaled;
  }
  return g;
}

}  // namespace bass::app

// The BASS net-monitor (§4.2): per-node daemons that measure the wireless
// links. Two probe types, both injected as real traffic into the flow
// simulator so probe overhead and interference are modelled:
//
//  * max-capacity probe — flood the directed link for 1 s (§6.3.4) and
//    take what arrives (plus the passively observed competing traffic) as
//    the link's capacity estimate. Run once for every link at startup and
//    again on demand.
//  * headroom probe — offer only headroom_frac of the cached capacity.
//    Headroom is missing when either (i) the link cannot deliver the probe
//    in full, or (ii) delivering it *displaced* application traffic — the
//    node-pair TX counters show the concurrent traffic dropping while the
//    probe ran, meaning the probe's bytes came out of the application's
//    share rather than out of spare capacity. Either way a violation is
//    reported (and a full probe re-estimates the link).
//
// Between probes the monitor answers capacity queries from its cache — the
// scheduler's view of the mesh is *measured*, not oracular.
//
// A link has at most one probe in flight, and that probe's state (stream,
// offered demand, kind, span, ...) lives in the link's slot; the probe reads
// its goodput from its own stream when it closes it. Once the event and
// stream pools are warm, a probe allocates nothing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.h"
#include "obs/recorder.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace bass::monitor {

struct MonitorConfig {
  sim::Duration probe_interval = sim::seconds(30);  // §6.3.4: every 30 s
  double headroom_frac = 0.10;                      // §6.3.4: 10 % of capacity
  // Slow full-capacity refresh of every link. Headroom probes are sized by
  // the *cached* capacity, so a link that degraded and later recovered
  // would keep a stale-low estimate forever without an occasional flood
  // (the paper's cache likewise holds "until a new capacity probe request
  // is made by the bandwidth controller"). 0 disables.
  sim::Duration full_refresh_interval = sim::minutes(5);
  // Ablation: flood every link every round instead of headroom-probing —
  // the naive always-measure strategy BASS's two-tier probing replaces
  // (§4.2). Expect an order of magnitude more probe traffic.
  bool always_full_probe = false;
};

class NetMonitor {
 public:
  NetMonitor(net::Network& network, MonitorConfig config = {});
  ~NetMonitor();
  NetMonitor(const NetMonitor&) = delete;
  NetMonitor& operator=(const NetMonitor&) = delete;

  // Startup max-capacity probing round + periodic headroom probing.
  void start();
  void stop();

  // ---- Cached measurements (what BASS actually schedules against) ----
  // One cached capacity per link, indexed by LinkId — the measured array a
  // sched::NetworkView schedules against.
  const std::vector<net::Bps>& cached_capacities() const { return capacities_; }
  // Result of the latest headroom probe: true while the spare capacity was
  // delivered in full. Links never probed report true.
  bool headroom_ok(net::LinkId link) const;

  // ---- Events ----
  // Fired when a headroom probe comes up short: (link, delivered bps).
  using ViolationCallback = std::function<void(net::LinkId, net::Bps)>;
  void set_violation_callback(ViolationCallback cb) { on_violation_ = std::move(cb); }

  // Attaches the run's recorder: probes journal ProbeCompleted, shortfalls
  // journal HeadroomViolation, and probe costs are mirrored into the
  // registry (monitor.probe_bytes, monitor.probes{kind=...}). nullptr
  // detaches.
  void set_recorder(obs::Recorder* recorder);

  // ---- On-demand probing ----
  // Floods the link now; the result lands in the cache after the probe's
  // 1 s. A no-op (bar the count) while the link already has a probe live.
  void full_probe(net::LinkId link);

  // ---- Fault injection ----
  // Each finished probe's RESULT is lost with probability `rate`: the probe
  // traffic is still spent (overhead stays real), but the cache and
  // headroom state keep their stale values — a lossy mesh eating the
  // monitor's report packets. 0 disables. Deterministic per seed.
  void set_probe_loss(double rate, std::uint64_t seed = 0xBA55);
  int probes_dropped() const { return probes_dropped_; }

  // ---- Overhead accounting (§6.3.4) ----
  std::int64_t probe_bytes_sent() const { return probe_bytes_; }
  int full_probe_count() const { return full_probes_; }
  int headroom_probe_count() const { return headroom_probes_; }

  const net::Network& network() const { return *network_; }
  const MonitorConfig& config() const { return config_; }

 private:
  struct LinkState {
    bool headroom_ok = true;
    bool probing = false;  // a probe stream is currently live on this link
    // The live probe, valid while `probing`.
    bool full = false;  // max-capacity flood, else headroom probe
    net::StreamId stream = 0;
    net::Bps demand = 0;
    // Application traffic on the link just before the probe started.
    net::Bps usage_before = 0;
    obs::SpanId span = obs::kNoSpan;
    sim::Time launched = 0;
  };

  void run_headroom_round();
  void launch_probe(net::LinkId link, net::Bps demand, bool is_full);
  // Closes the link's probe stream and applies its result.
  void finish_probe(net::LinkId link);

  net::Network* network_;
  MonitorConfig config_;
  std::vector<net::Bps> capacities_;  // the cache, per link
  std::vector<LinkState> links_;
  ViolationCallback on_violation_;
  obs::Recorder* recorder_ = nullptr;
  obs::Counter* m_probe_bytes_ = nullptr;
  obs::Counter* m_full_probes_ = nullptr;
  obs::Counter* m_headroom_probes_ = nullptr;
  obs::Counter* m_violations_ = nullptr;
  obs::Counter* m_probes_dropped_ = nullptr;
  obs::LogHistogram* m_probe_rtt_us_ = nullptr;
  sim::EventId periodic_ = sim::kInvalidEvent;
  sim::EventId refresh_ = sim::kInvalidEvent;
  bool started_ = false;
  std::int64_t probe_bytes_ = 0;
  int full_probes_ = 0;
  int headroom_probes_ = 0;
  double probe_loss_rate_ = 0.0;
  std::unique_ptr<util::Rng> loss_rng_;
  int probes_dropped_ = 0;
};

}  // namespace bass::monitor

// Synthetic CityLab-like bandwidth traces.
//
// The paper replays traces from CityLab, an outdoor 802.11n testbed in
// Antwerp. Those traces are not public, so we substitute a mean-reverting
// stochastic process (discretized Ornstein–Uhlenbeck) matched to the
// published statistics (Fig. 2: one link with mean 19.9 Mbps and σ ≈ 10 % of
// the mean, another with mean 7.62 Mbps and σ ≈ 27 %), plus occasional deep
// fades ("a truck drives by") that the paper's Fig. 8/15 experiments rely on
// to trigger migration. Everything is seeded and deterministic.
#pragma once

#include "net/types.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace bass::trace {

struct GeneratorParams {
  net::Bps mean_bps = net::mbps(20);
  double stddev_frac = 0.10;        // σ as a fraction of the mean
  sim::Duration step = sim::seconds(1);
  sim::Duration duration = sim::minutes(20);

  // Deep fades: with probability `fade_probability` per step a fade starts,
  // dropping capacity to `fade_depth_frac` of the mean for `fade_duration`.
  double fade_probability = 0.0;
  double fade_depth_frac = 0.3;
  sim::Duration fade_duration = sim::seconds(60);

  net::Bps floor_bps = net::kbps(100);  // capacity never drops below this
};

// Generates one trace; `rng` supplies all randomness.
BandwidthTrace generate_trace(const GeneratorParams& params, util::Rng& rng);

}  // namespace bass::trace

#include "trace/generator.h"

#include <algorithm>
#include <cmath>

namespace bass::trace {

BandwidthTrace generate_trace(const GeneratorParams& params, util::Rng& rng) {
  BandwidthTrace out;
  const double mean = static_cast<double>(params.mean_bps);
  const double sigma = mean * params.stddev_frac;
  // Step the OU process so the stationary stddev matches sigma:
  // x' = x + k(mean - x) + N(0, sigma * sqrt(2k - k^2)).
  constexpr double k = 0.10;  // pull toward the mean per step, in (0,1]
  const double step_sigma = sigma * std::sqrt(std::max(2.0 * k - k * k, 0.0));

  double x = mean;
  sim::Time fade_until = -1;
  for (sim::Time t = 0; t <= params.duration; t += params.step) {
    x += k * (mean - x) + rng.normal(0.0, step_sigma);
    double value = x;
    if (t < fade_until) {
      value = std::min(value, mean * params.fade_depth_frac);
    } else if (params.fade_probability > 0.0 && rng.chance(params.fade_probability)) {
      fade_until = t + params.fade_duration;
      value = std::min(value, mean * params.fade_depth_frac);
    }
    value = std::max(value, static_cast<double>(params.floor_bps));
    out.append(t, static_cast<net::Bps>(value));
  }
  return out;
}

}  // namespace bass::trace

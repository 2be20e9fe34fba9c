// Exact run samples — the per-second series and latency distributions
// behind the paper's figures (Figs. 2, 5, 8, 12-14, 16; Tables 1-2).
// Unlike the log2 histograms in obs/metrics.h these keep every sample, so
// a printed mean, median or p99 is exact.
#pragma once

#include <string>
#include <vector>

#include "sim/time.h"

namespace bass::obs {

// Nearest-rank percentile with linear interpolation between adjacent
// ranks, q in [0,100]. Sorts `values`; 0.0 for an empty input.
double percentile(std::vector<double> values, double q);

struct Sample {
  sim::Time at;
  double value;
};

// Timestamped sample series.
class TimeSeries {
 public:
  void record(sim::Time at, double value) { samples_.push_back({at, value}); }

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  std::vector<double> values() const;

  // Arithmetic mean of all values, summed in recording order; 0.0 when empty.
  double mean() const;
  // Mean of values with timestamps in [from, to); 0.0 when none.
  double mean_in(sim::Time from, sim::Time to) const;
  // percentile() over all values.
  double percentile(double q) const { return obs::percentile(values(), q); }

  // Rolling mean over a trailing window, sampled at each input timestamp —
  // reproduces the paper's "10-second rolling mean" presentation (Fig. 2).
  TimeSeries rolling_mean(sim::Duration window) const;

  // Re-buckets into fixed-width bins [0,bin), [bin,2bin)... averaging values;
  // empty bins are skipped. Used for "average latency at every second" plots.
  TimeSeries binned_mean(sim::Duration bin) const;

  // Writes a "t_seconds,<value_name>" header and one "%.3f,%.6f" row per
  // sample to a CSV file. Returns false on I/O error.
  bool write_csv(const std::string& path, const std::string& value_name) const;

 private:
  std::vector<Sample> samples_;
};

// Request latencies in milliseconds against their completion times: mean,
// median and p99 (the paper's summary statistics) over one series, which
// also feeds the per-second latency plots.
class LatencyRecorder {
 public:
  // Records one completed-request latency observed at time `at`.
  void record(sim::Time at, sim::Duration latency) {
    series_.record(at, sim::to_millis(latency));
  }

  std::size_t count() const { return series_.size(); }
  double mean_ms() const { return series_.mean(); }
  double median_ms() const { return series_.percentile(50.0); }
  double p99_ms() const { return series_.percentile(99.0); }
  double percentile_ms(double q) const { return series_.percentile(q); }

  // Latency-vs-completion-time series (ms), in completion order.
  const TimeSeries& series() const { return series_; }

 private:
  TimeSeries series_;
};

}  // namespace bass::obs

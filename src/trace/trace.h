// A bandwidth trace: the capacity of one link as a step function of time.
// Traces come from the synthetic CityLab-like generator or from CSV files
// (so real testbed traces can be dropped in).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/types.h"
#include "sim/time.h"

namespace bass::trace {

struct TracePoint {
  sim::Time at;
  net::Bps bps;
};

class BandwidthTrace {
 public:
  BandwidthTrace() = default;
  explicit BandwidthTrace(std::vector<TracePoint> points);

  // Appends a point; timestamps must be non-decreasing.
  void append(sim::Time at, net::Bps bps);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<TracePoint>& points() const { return points_; }
  sim::Time duration() const { return points_.empty() ? 0 : points_.back().at; }

  // Step-function value at time t (last point at or before t); the first
  // point's value before the trace starts; 0 for an empty trace.
  net::Bps value_at(sim::Time t) const;

  // Summary statistics over point values (Mbps-level reporting): the mean
  // is 0 for an empty trace, the population stddev 0 below two points.
  double mean_bps() const;
  double stddev_bps() const;
  net::Bps min_bps() const;
  net::Bps max_bps() const;

  // CSV round-trip: columns "t_seconds,bps".
  bool save_csv(const std::string& path) const;
  static std::optional<BandwidthTrace> load_csv(const std::string& path);

 private:
  std::vector<TracePoint> points_;
};

}  // namespace bass::trace

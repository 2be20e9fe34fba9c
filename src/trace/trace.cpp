#include "trace/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/csv.h"
#include "util/strings.h"

namespace bass::trace {

BandwidthTrace::BandwidthTrace(std::vector<TracePoint> points)
    : points_(std::move(points)) {
  assert(std::is_sorted(points_.begin(), points_.end(),
                        [](const TracePoint& a, const TracePoint& b) { return a.at < b.at; }));
}

void BandwidthTrace::append(sim::Time at, net::Bps bps) {
  assert(points_.empty() || at >= points_.back().at);
  points_.push_back({at, bps});
}

net::Bps BandwidthTrace::value_at(sim::Time t) const {
  if (points_.empty()) return 0;
  // First point with .at > t, then step back one.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](sim::Time value, const TracePoint& p) { return value < p.at; });
  if (it == points_.begin()) return points_.front().bps;
  return std::prev(it)->bps;
}

double BandwidthTrace::mean_bps() const {
  if (points_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : points_) sum += static_cast<double>(p.bps);
  return sum / static_cast<double>(points_.size());
}

double BandwidthTrace::stddev_bps() const {
  if (points_.size() < 2) return 0.0;
  const double m = mean_bps();
  double accum = 0.0;
  for (const auto& p : points_) {
    const double v = static_cast<double>(p.bps);
    accum += (v - m) * (v - m);
  }
  return std::sqrt(accum / static_cast<double>(points_.size()));
}

net::Bps BandwidthTrace::min_bps() const {
  net::Bps m = points_.empty() ? 0 : points_.front().bps;
  for (const auto& p : points_) m = std::min(m, p.bps);
  return m;
}

net::Bps BandwidthTrace::max_bps() const {
  net::Bps m = 0;
  for (const auto& p : points_) m = std::max(m, p.bps);
  return m;
}

bool BandwidthTrace::save_csv(const std::string& path) const {
  util::CsvWriter w(path, {"t_seconds", "bps"});
  if (!w.ok()) return false;
  for (const auto& p : points_) {
    w.row({util::str_format("%.3f", sim::to_seconds(p.at)),
           util::str_format("%lld", static_cast<long long>(p.bps))});
  }
  return true;
}

std::optional<BandwidthTrace> BandwidthTrace::load_csv(const std::string& path) {
  auto table = util::read_csv(path);
  if (!table || table->header.size() < 2) return std::nullopt;
  BandwidthTrace out;
  for (const auto& row : table->rows) {
    if (row.size() < 2) return std::nullopt;
    const double t = std::strtod(row[0].c_str(), nullptr);
    const long long bps = std::strtoll(row[1].c_str(), nullptr, 10);
    out.append(sim::seconds_f(t), static_cast<net::Bps>(bps));
  }
  return out;
}

}  // namespace bass::trace

#include "monitor/traffic_stats.h"

namespace bass::monitor {

namespace {

net::Bps rate_of(std::int64_t bytes, sim::Duration window) {
  if (window <= 0) return 0;
  return static_cast<net::Bps>(static_cast<double>(bytes) * 8e6 /
                               static_cast<double>(window));
}

}  // namespace

void TrafficStats::record(std::size_t edge, std::int64_t bytes) {
  if (edge >= edges_.size()) return;
  EdgeStats& e = edges_[edge];
  e.window_bytes += bytes;
  e.total_bytes += bytes;
}

void TrafficStats::record_offered(std::size_t edge, std::int64_t bytes) {
  if (edge < edges_.size()) edges_[edge].window_offered += bytes;
}

std::int64_t TrafficStats::total_bytes(std::size_t edge) const {
  return edge < edges_.size() ? edges_[edge].total_bytes : 0;
}

TrafficStats::WindowRates TrafficStats::take_window(std::size_t edge, sim::Time now) {
  if (edge >= edges_.size()) return {};
  EdgeStats& e = edges_[edge];
  WindowRates rates{rate_of(e.window_bytes, now - e.window_start),
                    rate_of(e.window_offered, now - e.window_start)};
  e.window_bytes = 0;
  e.window_offered = 0;
  e.window_start = now;
  return rates;
}

}  // namespace bass::monitor

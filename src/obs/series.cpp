#include "obs/series.h"

#include <algorithm>
#include <deque>

#include "util/csv.h"
#include "util/strings.h"

namespace bass::obs {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 100.0) return values.back();
  const double pos = (q / 100.0) * (static_cast<double>(values.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.value);
  return out;
}

double TimeSeries::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples_) sum += s.value;
  return sum / static_cast<double>(samples_.size());
}

double TimeSeries::mean_in(sim::Time from, sim::Time to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_) {
    if (s.at >= from && s.at < to) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

TimeSeries TimeSeries::rolling_mean(sim::Duration window) const {
  TimeSeries out;
  std::deque<Sample> live;
  double sum = 0.0;
  for (const auto& s : samples_) {
    live.push_back(s);
    sum += s.value;
    while (!live.empty() && live.front().at <= s.at - window) {
      sum -= live.front().value;
      live.pop_front();
    }
    out.record(s.at, sum / static_cast<double>(live.size()));
  }
  return out;
}

TimeSeries TimeSeries::binned_mean(sim::Duration bin) const {
  TimeSeries out;
  if (bin <= 0 || samples_.empty()) return out;
  sim::Time bucket_start = 0;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_) {
    const sim::Time start = (s.at / bin) * bin;
    if (start != bucket_start && n > 0) {
      out.record(bucket_start, sum / static_cast<double>(n));
      sum = 0.0;
      n = 0;
    }
    bucket_start = start;
    sum += s.value;
    ++n;
  }
  if (n > 0) out.record(bucket_start, sum / static_cast<double>(n));
  return out;
}

bool TimeSeries::write_csv(const std::string& path, const std::string& value_name) const {
  util::CsvWriter w(path, {"t_seconds", value_name});
  if (!w.ok()) return false;
  for (const auto& s : samples_) {
    w.row({util::str_format("%.3f", sim::to_seconds(s.at)),
           util::str_format("%.6f", s.value)});
  }
  // Without the final flush check this returned true on a partially
  // written file whenever the disk filled mid-run.
  return w.finish();
}

}  // namespace bass::obs

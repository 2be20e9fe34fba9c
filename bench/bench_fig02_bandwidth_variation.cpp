// Fig. 2 — Bandwidth variation (10-second rolling mean) on two CityLab
// links: one stable (paper: mean 19.9 Mbps, std 10% of mean) and one
// variable (mean 7.62 Mbps, std 27% of mean). Regenerates both traces from
// the calibrated generator and reports the statistics the caption states,
// plus a downsampled rolling-mean series for plotting.
#include "common.h"

#include "obs/series.h"
#include "trace/citylab.h"
#include "trace/generator.h"

using namespace bass;

namespace {

void report(const char* name, const trace::GeneratorParams& params,
            std::uint64_t seed) {
  util::Rng rng(seed);
  const trace::BandwidthTrace t = trace::generate_trace(params, rng);

  obs::TimeSeries raw;
  for (const auto& p : t.points()) raw.record(p.at, static_cast<double>(p.bps) / 1e6);
  const obs::TimeSeries rolling = raw.rolling_mean(sim::seconds(10));

  const double mean = t.mean_bps() / 1e6;
  const double std_pct = 100.0 * t.stddev_bps() / t.mean_bps();
  std::printf("%-14s mean=%6.2f Mbps  std=%4.1f%% of mean  min=%5.2f  max=%5.2f\n",
              name, mean, std_pct, static_cast<double>(t.min_bps()) / 1e6,
              static_cast<double>(t.max_bps()) / 1e6);

  std::printf("  10s rolling mean (every 2 min): ");
  for (const auto& s : rolling.samples()) {
    if (s.at % sim::minutes(2) == 0) std::printf("%5.2f ", s.value);
  }
  std::printf("\n");

  if (bench::csv_enabled()) {
    rolling.write_csv(std::string("fig02_") + name + ".csv", "mbps");
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 2: bandwidth variation on two CityLab links (10 s rolling mean)");
  std::printf("paper: link1 mean 19.9 Mbps std 10%% | link2 mean 7.62 Mbps std 27%%\n\n");
  report("stable-link", trace::fig2_stable_link(), 19);
  report("variable-link", trace::fig2_variable_link(), 7);
  return 0;
}

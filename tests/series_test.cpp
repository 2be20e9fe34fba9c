#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "obs/series.h"
#include "util/csv.h"

namespace bass::obs {
namespace {

TEST(TimeSeries, RecordAndValues) {
  TimeSeries ts;
  ts.record(sim::seconds(1), 10.0);
  ts.record(sim::seconds(2), 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.values(), (std::vector<double>{10.0, 20.0}));
}

TEST(TimeSeries, MeanOfEmptyIsZero) { EXPECT_EQ(TimeSeries().mean(), 0.0); }

TEST(TimeSeries, MeanBasic) {
  TimeSeries ts;
  for (double v : {1.0, 2.0, 3.0}) ts.record(0, v);
  EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.record(sim::seconds(i), static_cast<double>(i));
  EXPECT_DOUBLE_EQ(ts.mean_in(sim::seconds(2), sim::seconds(5)), 3.0);  // 2,3,4
  EXPECT_DOUBLE_EQ(ts.mean_in(sim::seconds(100), sim::seconds(200)), 0.0);
}

TEST(TimeSeries, RollingMean) {
  TimeSeries ts;
  ts.record(sim::seconds(0), 10.0);
  ts.record(sim::seconds(1), 20.0);
  ts.record(sim::seconds(2), 30.0);
  ts.record(sim::seconds(20), 100.0);
  const TimeSeries rm = ts.rolling_mean(sim::seconds(10));
  ASSERT_EQ(rm.size(), 4u);
  EXPECT_DOUBLE_EQ(rm.samples()[0].value, 10.0);
  EXPECT_DOUBLE_EQ(rm.samples()[1].value, 15.0);
  EXPECT_DOUBLE_EQ(rm.samples()[2].value, 20.0);
  // The old samples fell out of the 10 s window.
  EXPECT_DOUBLE_EQ(rm.samples()[3].value, 100.0);
}

TEST(TimeSeries, RollingMeanWindowBoundaryIsExclusive) {
  TimeSeries ts;
  ts.record(0, 10.0);
  ts.record(sim::seconds(10), 20.0);
  const TimeSeries rm = ts.rolling_mean(sim::seconds(10));
  // The t=0 sample is exactly window-aged at t=10 and falls out.
  EXPECT_DOUBLE_EQ(rm.samples()[1].value, 20.0);
}

TEST(TimeSeries, BinnedMean) {
  TimeSeries ts;
  ts.record(sim::millis(100), 1.0);
  ts.record(sim::millis(900), 3.0);
  ts.record(sim::millis(1500), 10.0);
  const TimeSeries b = ts.binned_mean(sim::seconds(1));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.samples()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(b.samples()[1].value, 10.0);
  EXPECT_EQ(b.samples()[1].at, sim::seconds(1));
}

TEST(TimeSeries, BinnedMeanEmptyAndZeroBin) {
  TimeSeries ts;
  EXPECT_TRUE(ts.binned_mean(sim::seconds(1)).empty());
  ts.record(0, 1.0);
  EXPECT_TRUE(ts.binned_mean(0).empty());
}

TEST(TimeSeries, BinnedMeanSkipsEmptyBins) {
  TimeSeries ts;
  ts.record(sim::seconds(0), 1.0);
  ts.record(sim::seconds(5), 9.0);  // bins 1-4 empty
  const TimeSeries b = ts.binned_mean(sim::seconds(1));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.samples()[1].at, sim::seconds(5));
}

// The figure CSVs: a "t_seconds,<name>" header, then seconds to three
// decimals and the value to six.
TEST(TimeSeries, WriteCsvRoundTripsHeaderAndRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bass_series_test.csv").string();
  TimeSeries ts;
  ts.record(sim::millis(1500), 2.5);
  ts.record(sim::seconds(2), 1.0 / 3.0);
  ASSERT_TRUE(ts.write_csv(path, "mbps"));
  const auto table = util::read_csv(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->header, (std::vector<std::string>{"t_seconds", "mbps"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"1.500", "2.500000"}));
  EXPECT_EQ(table->rows[1], (std::vector<std::string>{"2.000", "0.333333"}));
}

TEST(TimeSeries, WriteCsvFailsOnUnwritablePath) {
  TimeSeries ts;
  ts.record(0, 1.0);
  EXPECT_FALSE(ts.write_csv("/nonexistent/definitely/not/here.csv", "mbps"));
}

TEST(Percentile, Edges) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);  // interpolated
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({40, 10, 30, 20}, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile({40, 10, 30, 20}, 0), 10.0);
}

TEST(Percentile, EmptyIsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Percentile, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 100), 5.0);
}

TEST(Percentile, MonotonicInQ) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  double prev = percentile(v, 0);
  for (int q = 10; q <= 100; q += 10) {
    const double cur = percentile(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(LatencyRecorder, Percentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(sim::seconds(i), sim::millis(i));
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_NEAR(rec.mean_ms(), 50.5, 0.01);
  EXPECT_NEAR(rec.median_ms(), 50.5, 0.01);
  EXPECT_NEAR(rec.p99_ms(), 99.01, 0.1);
  EXPECT_NEAR(rec.percentile_ms(100), 100.0, 0.001);
}

// Printed means keep their bits: the mean is the in-order sum of the
// samples divided by their count, whatever the order makes of the rounding.
TEST(LatencyRecorder, MeanIsTheInOrderSum) {
  LatencyRecorder rec;
  for (const sim::Duration us : {100, 1'000'000'000, 200, 300, 7'700, 1}) {
    rec.record(0, sim::micros(us));
  }
  const std::vector<double> recorded = rec.series().values();
  EXPECT_EQ(rec.mean_ms(), std::accumulate(recorded.begin(), recorded.end(), 0.0) /
                               static_cast<double>(recorded.size()));
}

TEST(LatencyRecorder, SeriesTracksCompletionTime) {
  LatencyRecorder rec;
  rec.record(sim::seconds(5), sim::millis(42));
  ASSERT_EQ(rec.series().size(), 1u);
  EXPECT_EQ(rec.series().samples()[0].at, sim::seconds(5));
  EXPECT_DOUBLE_EQ(rec.series().samples()[0].value, 42.0);
}

TEST(LatencyRecorder, EmptyRecorderIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.mean_ms(), 0.0);
  EXPECT_EQ(rec.median_ms(), 0.0);
  EXPECT_EQ(rec.p99_ms(), 0.0);
  EXPECT_EQ(rec.percentile_ms(100), 0.0);
}

}  // namespace
}  // namespace bass::obs

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace bass::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(20.0);
  EXPECT_NEAR(sum / n, 20.0, 0.5);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(str_format("%s", ""), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, FormatBps) {
  EXPECT_EQ(format_bps(7.62e6), "7.62 Mbps");
  EXPECT_EQ(format_bps(2.5e9), "2.50 Gbps");
  EXPECT_EQ(format_bps(240e3), "240.00 Kbps");
  EXPECT_EQ(format_bps(12), "12 bps");
}

TEST(Csv, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bass_csv_test.csv").string();
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.row({"1", "x"});
    w.row({"2", "y"});
  }
  const auto table = read_csv(path);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][1], "y");
  std::remove(path.c_str());
}

TEST(Csv, MissingFile) {
  EXPECT_FALSE(read_csv("/nonexistent/definitely/not/here.csv").has_value());
}

}  // namespace
}  // namespace bass::util

#include "util/expected.h"

namespace bass::util {
namespace {

TEST(Expected, HoldsValueOrError) {
  Expected<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Expected<int> bad(make_error("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "boom");
}

TEST(Expected, TakeMovesValue) {
  Expected<std::string> e(std::string("payload"));
  const std::string taken = e.take();
  EXPECT_EQ(taken, "payload");
}

TEST(Expected, BoolConversion) {
  Expected<int> ok(1);
  Expected<int> bad(make_error("x"));
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_FALSE(static_cast<bool>(bad));
}

TEST(Logging, LevelFilterSkipsFormatting) {
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  log_debug() << "value " << expensive();
  // The stream still evaluates arguments (C++ semantics) but must not
  // emit; verify no crash and restore the default.
  EXPECT_EQ(evaluations, 1);
  set_log_level(LogLevel::kWarn);
}

TEST(Logging, FilteredLineBuildsNoStream) {
  set_log_level(LogLevel::kError);
  auto filtered = log_debug();
  filtered << "value " << 42;
  EXPECT_FALSE(filtered.formatted());
  auto kept = log_error();
  kept << "kept line from util_test";
  EXPECT_TRUE(kept.formatted());
  set_log_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace bass::util

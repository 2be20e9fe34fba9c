// Metrics registry: named counters, gauges, and log2-bucketed histograms
// with label support, snapshotable to JSON at any sim time.
//
// Lookup (`counter("net.reallocations")`) hashes the name+labels; emitters
// on hot paths do the lookup once and keep the returned reference —
// instrument handles are stable for the registry's lifetime (the registry
// stores instruments behind unique_ptr). Updates through a handle are a
// single add/store.
//
// Naming conventions (DESIGN.md §6): dot-separated `<subsystem>.<what>`
// with a unit suffix where one applies (`_us`, `_ms`, `_bytes`, `_bps`).
// Labels distinguish instances of the same metric (e.g. probe kind), not
// subsystems — those belong in the name.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace bass::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::int64_t delta) { value_ += delta; }
  void inc() { ++value_; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// HDR-style log2-bucketed latency histogram (DESIGN.md §6). Sixteen
// sub-buckets per power of two bound the relative quantile error at
// 1/16 ≈ 6%, which is plenty for p50/p99 over wall-clock timers while the
// whole state stays one fixed 976-slot array: recording is a shift, a
// table increment, and four scalar updates — zero allocation, any value
// range, no boundary ladder to pick per metric. Two same-shape histograms
// merge bucket-wise, which is how sweep workers' per-run timers fold into
// one fleet-wide distribution (exec::run_sweep, bassctl chaos).
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(64 - kSubBucketBits + 1) * kSubBuckets;

  // Values below kSubBuckets map to themselves (exact); above, the bucket
  // keeps the top kSubBucketBits+1 significant bits of the value.
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < static_cast<std::uint64_t>(kSubBuckets)) {
      return static_cast<std::size_t>(v);
    }
    const int shift = (63 - std::countl_zero(v)) - kSubBucketBits;
    return static_cast<std::size_t>(shift) * kSubBuckets +
           static_cast<std::size_t>(v >> shift);
  }

  // Largest value mapping to `index` — the representative quantiles report.
  static std::uint64_t bucket_upper(std::size_t index) {
    if (index < static_cast<std::size_t>(kSubBuckets)) return index;
    const std::size_t shift = index / kSubBuckets - 1;
    const std::uint64_t sub = index - shift * kSubBuckets;
    return ((sub + 1) << shift) - 1;
  }

  void observe(double value) { observe(value, 1); }
  // One observation standing for `weight` equal ones: a sampled timer
  // (one event in N measured) observes with weight N, so count() and sum()
  // estimate the totals over every event.
  void observe(double value, std::int64_t weight) {
    const std::uint64_t v =
        value <= 0.0 ? 0 : static_cast<std::uint64_t>(value + 0.5);
    const bool first = count_ == 0;
    counts_[bucket_index(v)] += weight;
    count_ += weight;
    sum_ += value * static_cast<double>(weight);
    if (first) {
      min_ = max_ = value;
    } else {
      if (value < min_) min_ = value;
      if (value > max_) max_ = value;
    }
  }

  std::int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  // Empty histograms have no extremes: min()/max() return NaN so "no data"
  // can never be confused with an observed 0.0. Emitters that need a finite
  // value (JSON, report tables) must check empty() first.
  double min() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
  }
  double max() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
  }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  // Bucket-representative quantile clamped to [min, max]; q in [0, 1].
  double percentile(double q) const;

  // Folds `other` into this histogram (same fixed shape by construction).
  // Merging an empty side is an identity in either direction.
  void merge(const LogHistogram& other);

  // Visits (bucket_upper, count) for every non-empty bucket, ascending.
  void for_each_nonzero(
      const std::function<void(std::uint64_t, std::int64_t)>& fn) const;

 private:
  std::array<std::int64_t, kBucketCount> counts_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. A name+labels pair must keep one instrument kind for
  // the registry's lifetime; a kind clash trips an assert in debug builds
  // and returns a detached scratch instrument in release builds. Finding an
  // unlabelled instrument allocates nothing, so a per-call lookup by a
  // string literal (BASS_OBS_SCOPE) stays off the heap once registered.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  // Log2-bucketed histogram; `log_timer_us` is the naming-convention entry
  // point for wall-clock timers (values in microseconds).
  LogHistogram& log_histogram(std::string_view name, const Labels& labels = {});
  LogHistogram& log_timer_us(std::string_view name, const Labels& labels = {});

  std::size_t instrument_count() const { return order_.size(); }

  // Visits every log histogram in registration order — the merge hook for
  // sweep workers folding per-run timers into a fleet-wide distribution.
  void for_each_log_histogram(
      const std::function<void(const std::string&, const Labels&,
                               const LogHistogram&)>& fn) const;

  // Counter/gauge visitors in registration order — lets the sharded
  // orchestrator re-home per-zone instruments under a {zone} label.
  void for_each_counter(
      const std::function<void(const std::string&, const Labels&,
                               const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, const Labels&,
                               const Gauge&)>& fn) const;

  // JSON snapshot: {"t_us":..., "counters":[...], "gauges":[...],
  // "histograms":[...]}, instruments in registration order. Histogram
  // entries carry "kind":"log2", p50/p90/p99 alongside min/max/sum, and
  // sparse [upper,count] buckets.
  std::string to_json(sim::Time now) const;
  bool write_json(const std::string& path, sim::Time now) const;

  // Prometheus text exposition of the same snapshot: counters and gauges
  // verbatim, log histograms as quantile summaries. Names get a `bass_`
  // prefix with dots mapped to underscores.
  std::string to_prometheus(sim::Time now) const;

 private:
  enum class Kind { kCounter, kGauge, kLogHistogram };

  struct Instrument {
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> log_histogram;
  };

  Instrument& find_or_create(std::string_view name, const Labels& labels,
                             Kind kind);

  // Transparent, so an unlabelled lookup hashes the name in place: its key
  // is the bare name.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  std::unordered_map<std::string, std::size_t, KeyHash, std::equal_to<>>
      index_;  // key -> order_ slot
  std::vector<std::unique_ptr<Instrument>> order_;
};

}  // namespace bass::obs

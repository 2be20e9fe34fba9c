#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/json.h"
#include "util/strings.h"

namespace bass::obs {

namespace {

std::string instrument_key(std::string_view name, const Labels& labels) {
  // Label order is canonicalized so {a=1,b=2} and {b=2,a=1} resolve to the
  // same instrument — dynamic-cardinality call sites (one instrument per
  // zone) must not mint duplicates just by listing labels differently. The
  // instrument's display labels keep first-registration order.
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  for (const auto& [k, v] : sorted) {
    key += '\x1f';  // unit separator: cannot appear in sane label text
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

void append_name_labels(const std::string& name, const Labels& labels,
                        std::string& out) {
  out += "\"name\":";
  append_json_string(name, out);
  out += ",\"labels\":{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(labels[i].first, out);
    out += ':';
    append_json_string(labels[i].second, out);
  }
  out += '}';
}

// %g keeps integers unadorned and large/small values readable.
void append_double(double v, std::string& out) {
  out += util::str_format("%.9g", v);
}

}  // namespace

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  std::int64_t rank = static_cast<std::int64_t>(
      q * static_cast<double>(count_) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      const double upper = static_cast<double>(bucket_upper(i));
      return std::min(std::max(upper, min_), max_);
    }
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::for_each_nonzero(
    const std::function<void(std::uint64_t, std::int64_t)>& fn) const {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) fn(bucket_upper(i), counts_[i]);
  }
}

MetricsRegistry::Instrument& MetricsRegistry::find_or_create(
    std::string_view name, const Labels& labels, Kind kind) {
  // An unlabelled instrument's key is its bare name, so its lookup builds
  // no key string.
  const std::string labelled =
      labels.empty() ? std::string() : instrument_key(name, labels);
  const std::string_view key = labels.empty() ? name : std::string_view(labelled);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Instrument& inst = *order_[it->second];
    assert(inst.kind == kind && "metric registered twice with different kinds");
    if (inst.kind != kind) {
      // Release-build fallback: a detached scratch instrument keeps the
      // caller functional without corrupting the registered one.
      static thread_local std::unique_ptr<Instrument> scratch;
      scratch = std::make_unique<Instrument>();
      scratch->name = name;
      scratch->kind = kind;
      scratch->counter = std::make_unique<Counter>();
      scratch->gauge = std::make_unique<Gauge>();
      scratch->log_histogram = std::make_unique<LogHistogram>();
      return *scratch;
    }
    return inst;
  }
  auto inst = std::make_unique<Instrument>();
  inst->name = name;
  inst->labels = labels;
  inst->kind = kind;
  switch (kind) {
    case Kind::kCounter: inst->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: inst->gauge = std::make_unique<Gauge>(); break;
    case Kind::kLogHistogram:
      inst->log_histogram = std::make_unique<LogHistogram>();
      break;
  }
  index_.emplace(std::string(key), order_.size());
  order_.push_back(std::move(inst));
  return *order_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kGauge).gauge;
}

LogHistogram& MetricsRegistry::log_histogram(std::string_view name,
                                             const Labels& labels) {
  return *find_or_create(name, labels, Kind::kLogHistogram).log_histogram;
}

LogHistogram& MetricsRegistry::log_timer_us(std::string_view name,
                                            const Labels& labels) {
  return log_histogram(name, labels);
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, const Labels&,
                             const Counter&)>& fn) const {
  for (const auto& inst : order_) {
    if (inst->kind == Kind::kCounter) fn(inst->name, inst->labels, *inst->counter);
  }
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const std::string&, const Labels&,
                             const Gauge&)>& fn) const {
  for (const auto& inst : order_) {
    if (inst->kind == Kind::kGauge) fn(inst->name, inst->labels, *inst->gauge);
  }
}

void MetricsRegistry::for_each_log_histogram(
    const std::function<void(const std::string&, const Labels&,
                             const LogHistogram&)>& fn) const {
  for (const auto& inst : order_) {
    if (inst->kind == Kind::kLogHistogram) {
      fn(inst->name, inst->labels, *inst->log_histogram);
    }
  }
}

std::string MetricsRegistry::to_json(sim::Time now) const {
  std::string counters, gauges, histograms;
  for (const auto& inst : order_) {
    switch (inst->kind) {
      case Kind::kCounter: {
        if (!counters.empty()) counters += ",\n";
        counters += "    {";
        append_name_labels(inst->name, inst->labels, counters);
        counters += util::str_format(",\"value\":%lld}",
                                     static_cast<long long>(inst->counter->value()));
        break;
      }
      case Kind::kGauge: {
        if (!gauges.empty()) gauges += ",\n";
        gauges += "    {";
        append_name_labels(inst->name, inst->labels, gauges);
        gauges += ",\"value\":";
        append_double(inst->gauge->value(), gauges);
        gauges += '}';
        break;
      }
      case Kind::kLogHistogram: {
        const LogHistogram& h = *inst->log_histogram;
        if (!histograms.empty()) histograms += ",\n";
        histograms += "    {";
        append_name_labels(inst->name, inst->labels, histograms);
        histograms += util::str_format(",\"kind\":\"log2\",\"count\":%lld,\"sum\":",
                                       static_cast<long long>(h.count()));
        append_double(h.sum(), histograms);
        // min()/max() are NaN on empty histograms; JSON has no NaN literal,
        // so snapshots keep a 0.0 placeholder (count disambiguates).
        histograms += ",\"min\":";
        append_double(h.empty() ? 0.0 : h.min(), histograms);
        histograms += ",\"max\":";
        append_double(h.empty() ? 0.0 : h.max(), histograms);
        histograms += ",\"p50\":";
        append_double(h.percentile(0.50), histograms);
        histograms += ",\"p90\":";
        append_double(h.percentile(0.90), histograms);
        histograms += ",\"p99\":";
        append_double(h.percentile(0.99), histograms);
        // Sparse [upper_bound, count] pairs: 976 fixed slots are almost all
        // empty, and the sparse form is what merge-side consumers rebuild.
        histograms += ",\"buckets\":[";
        bool first = true;
        h.for_each_nonzero([&](std::uint64_t upper, std::int64_t n) {
          if (!first) histograms += ',';
          first = false;
          histograms += util::str_format("[%llu,%lld]",
                                         static_cast<unsigned long long>(upper),
                                         static_cast<long long>(n));
        });
        histograms += "]}";
        break;
      }
    }
  }
  std::string out = util::str_format("{\n  \"t_us\":%lld,\n",
                                     static_cast<long long>(now));
  out += "  \"counters\":[\n" + counters + "\n  ],\n";
  out += "  \"gauges\":[\n" + gauges + "\n  ],\n";
  out += "  \"histograms\":[\n" + histograms + "\n  ]\n}\n";
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map 1:1.
std::string prom_name(const std::string& name) {
  std::string out = "bass_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Prometheus label names allow [a-zA-Z_][a-zA-Z0-9_]*; anything else maps
// to '_' (with a leading '_' when the first char would be a digit).
std::string prom_label_name(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

// Renders {k="v",...}; `extra` ("quantile=\"0.5\"") is
// appended after the instrument's own labels. Values follow the exposition
// format's escaping rules: backslash, double-quote, and newline.
std::string prom_labels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += prom_label_name(labels[i].first);
    out += "=\"";
    for (char c : labels[i].second) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  if (!extra.empty()) {
    if (!labels.empty()) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

std::string prom_number(double v) { return util::str_format("%.9g", v); }

}  // namespace

std::string MetricsRegistry::to_prometheus(sim::Time now) const {
  std::string out = util::str_format(
      "# BASS metrics snapshot at sim t_us=%lld\n", static_cast<long long>(now));
  for (const auto& inst : order_) {
    const std::string name = prom_name(inst->name);
    switch (inst->kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + prom_labels(inst->labels) +
               util::str_format(" %lld\n",
                                static_cast<long long>(inst->counter->value()));
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + prom_labels(inst->labels) + ' ' +
               prom_number(inst->gauge->value()) + '\n';
        break;
      case Kind::kLogHistogram: {
        // Log histograms export as summaries: fixed le ladders don't fit
        // log2 buckets, and the quantiles are what dashboards plot anyway.
        const LogHistogram& h = *inst->log_histogram;
        out += "# TYPE " + name + " summary\n";
        for (const auto& [tag, q] :
             {std::pair<const char*, double>{"0.5", 0.50},
              {"0.9", 0.90},
              {"0.99", 0.99}}) {
          out += name +
                 prom_labels(inst->labels,
                             std::string("quantile=\"") + tag + "\"") +
                 ' ' + prom_number(h.percentile(q)) + '\n';
        }
        out += name + "_sum" + prom_labels(inst->labels) + ' ' +
               prom_number(h.sum()) + '\n';
        out += name + "_count" + prom_labels(inst->labels) +
               util::str_format(" %lld\n", static_cast<long long>(h.count()));
        break;
      }
    }
  }
  return out;
}

bool MetricsRegistry::write_json(const std::string& path, sim::Time now) const {
  const std::string content = to_json(now);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  return (std::fclose(f) == 0) && wrote && flushed;
}

}  // namespace bass::obs

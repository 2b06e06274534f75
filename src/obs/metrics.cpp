#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/trace_io.hpp"

namespace evedge::obs {

namespace {

[[nodiscard]] std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Write-to-temp + rename: a reader never sees a torn snapshot.
bool write_atomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << text;
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

[[nodiscard]] std::string escape_with(const std::string& v,
                                      bool escape_quote) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        if (escape_quote) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string prometheus_escape_label(const std::string& v) {
  return escape_with(v, /*escape_quote=*/true);
}

std::string prometheus_escape_help(const std::string& v) {
  return escape_with(v, /*escape_quote=*/false);
}

// ------------------------------------------------------------ LabelSet

LabelSet::LabelSet(std::initializer_list<Pair> pairs)
    : LabelSet(std::vector<Pair>(pairs)) {}

LabelSet::LabelSet(std::vector<Pair> pairs) : pairs_(std::move(pairs)) {
  std::stable_sort(pairs_.begin(), pairs_.end(),
                   [](const Pair& a, const Pair& b) {
                     return a.first < b.first;
                   });
  // First value wins on a duplicated key.
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end(),
                           [](const Pair& a, const Pair& b) {
                             return a.first == b.first;
                           }),
               pairs_.end());
}

std::string LabelSet::prometheus(const std::vector<Pair>& extra) const {
  if (pairs_.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  const auto append = [&](const Pair& p) {
    if (!first) out += ",";
    first = false;
    out += p.first + "=\"" + prometheus_escape_label(p.second) + "\"";
  };
  for (const Pair& p : pairs_) append(p);
  for (const Pair& p : extra) append(p);
  out += "}";
  return out;
}

std::string LabelSet::key() const {
  // \x1f (unit sep) between key and value, \x1e (record sep) between
  // pairs — neither survives a Prometheus label name, so the encoding
  // cannot collide across distinct sets.
  std::string out;
  for (const Pair& p : pairs_) {
    out += p.first;
    out += '\x1f';
    out += p.second;
    out += '\x1e';
  }
  return out;
}

// ---------------------------------------------------------- Histogram

Histogram::Histogram(Options options) : options_(options) {
  if (options_.min <= 0.0) {
    throw std::invalid_argument("Histogram: min bound must be > 0");
  }
  if (options_.growth <= 1.0) {
    throw std::invalid_argument("Histogram: growth must be > 1");
  }
  if (options_.buckets < 2) {
    throw std::invalid_argument("Histogram: need >= 2 buckets");
  }
  // std::deque of atomics: constructed in place, never moved after.
  buckets_.resize(static_cast<std::size_t>(options_.buckets));
}

int Histogram::bucket_index(double v) const noexcept {
  if (!(v > options_.min)) return 0;  // also catches NaN -> bucket 0
  // bucket i covers (min * growth^(i-1), min * growth^i]
  const int idx = static_cast<int>(
      std::ceil(std::log(v / options_.min) / std::log(options_.growth)));
  if (idx < 0) return 0;
  if (idx >= options_.buckets) return options_.buckets - 1;
  return idx;
}

void Histogram::observe(double v) noexcept {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::bucket_upper(int i) const noexcept {
  if (i >= options_.buckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.min * std::pow(options_.growth, i);
}

double Histogram::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank over the bucket counts.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (int i = 0; i < options_.buckets; ++i) {
    seen += bucket_value(i);
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(options_.buckets - 1);
}

// ----------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::emplace(const std::string& name,
                                                 const std::string& help,
                                                 Entry::Kind kind) {
  Entry entry;
  entry.name = name;
  entry.help = help;
  entry.kind = kind;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

namespace {

[[noreturn]] void throw_kind_clash(const std::string& name) {
  throw std::invalid_argument("metric '" + name +
                              "' already registered with another type");
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find(name)) {
    if (e->kind != Entry::Kind::kCounter) throw_kind_clash(name);
    return *e->counter;
  }
  Entry& e = emplace(name, help, Entry::Kind::kCounter);
  e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find(name)) {
    if (e->kind != Entry::Kind::kGauge) throw_kind_clash(name);
    return *e->gauge;
  }
  Entry& e = emplace(name, help, Entry::Kind::kGauge);
  e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      Histogram::Options options,
                                      const std::string& help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find(name)) {
    if (e->kind != Entry::Kind::kHistogram) throw_kind_clash(name);
    return *e->histogram;
  }
  Entry& e = emplace(name, help, Entry::Kind::kHistogram);
  e.histogram = std::make_unique<Histogram>(options);
  return *e.histogram;
}

LabeledCounter& MetricsRegistry::labeled_counter(const std::string& name,
                                                 const std::string& help,
                                                 std::size_t max_series) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find(name)) {
    if (e->kind != Entry::Kind::kLabeledCounter) throw_kind_clash(name);
    return *e->labeled_counter;
  }
  Entry& e = emplace(name, help, Entry::Kind::kLabeledCounter);
  e.labeled_counter = std::make_unique<LabeledCounter>(max_series);
  return *e.labeled_counter;
}

LabeledGauge& MetricsRegistry::labeled_gauge(const std::string& name,
                                             const std::string& help,
                                             std::size_t max_series) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find(name)) {
    if (e->kind != Entry::Kind::kLabeledGauge) throw_kind_clash(name);
    return *e->labeled_gauge;
  }
  Entry& e = emplace(name, help, Entry::Kind::kLabeledGauge);
  e.labeled_gauge = std::make_unique<LabeledGauge>(max_series);
  return *e.labeled_gauge;
}

LabeledHistogram& MetricsRegistry::labeled_histogram(
    const std::string& name, Histogram::Options options,
    const std::string& help, std::size_t max_series) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find(name)) {
    if (e->kind != Entry::Kind::kLabeledHistogram) throw_kind_clash(name);
    return *e->labeled_histogram;
  }
  Entry& e = emplace(name, help, Entry::Kind::kLabeledHistogram);
  e.labeled_histogram = std::make_unique<LabeledHistogram>(options, max_series);
  return *e.labeled_histogram;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

namespace {

void histogram_samples(std::string& out, const std::string& name,
                       const LabelSet& labels, const Histogram& h) {
  std::uint64_t cumulative = 0;
  for (int i = 0; i < h.bucket_count(); ++i) {
    cumulative += h.bucket_value(i);
    out += name + "_bucket" +
           labels.prometheus({{"le", format_double(h.bucket_upper(i))}}) +
           " " + std::to_string(cumulative) + "\n";
  }
  out += name + "_sum" + labels.prometheus() + " " + format_double(h.sum()) +
         "\n";
  out += name + "_count" + labels.prometheus() + " " +
         std::to_string(h.count()) + "\n";
}

/// The `<name>_dropped_series` companion counter, emitted once a
/// labeled family has overflowed its cardinality cap.
void dropped_series_sample(std::string& out, const std::string& name,
                           std::uint64_t dropped) {
  if (dropped == 0) return;
  out += "# TYPE " + name + "_dropped_series counter\n";
  out += name + "_dropped_series " + std::to_string(dropped) + "\n";
}

void histogram_json(std::string& out, const Histogram& h) {
  out += "{\"count\": " + std::to_string(h.count()) +
         ", \"sum\": " + format_double(h.sum()) + ", \"buckets\": [";
  for (int i = 0; i < h.bucket_count(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(h.bucket_value(i));
  }
  out += "], \"p50\": " + format_double(h.percentile(0.50)) +
         ", \"p99\": " + format_double(h.percentile(0.99)) + "}";
}

void labels_json(std::string& out, const LabelSet& labels) {
  out += "{";
  bool first = true;
  for (const auto& [k, v] : labels.pairs()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  out += "}";
}

/// Renders one labeled family as {"series": [...], "dropped_series": N}
/// with `value(metric)` filling each series' "value".
template <class Family, class ValueFn>
void family_json(std::string& out, const Family& family, ValueFn value) {
  out += "{\"series\": [";
  bool first = true;
  for (const auto* s : family.series()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"labels\": ";
    labels_json(out, s->labels);
    out += ", \"value\": ";
    value(out, *s->metric);
    out += "}";
  }
  out += "], \"dropped_series\": " + std::to_string(family.dropped()) + "}";
}

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const Entry& e : entries_) {
    if (!e.help.empty()) {
      out += "# HELP " + e.name + " " + prometheus_escape_help(e.help) + "\n";
    }
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out += "# TYPE " + e.name + " counter\n";
        out += e.name + " " + std::to_string(e.counter->value()) + "\n";
        break;
      case Entry::Kind::kGauge:
        out += "# TYPE " + e.name + " gauge\n";
        out += e.name + " " + format_double(e.gauge->value()) + "\n";
        break;
      case Entry::Kind::kHistogram:
        out += "# TYPE " + e.name + " histogram\n";
        histogram_samples(out, e.name, LabelSet{}, *e.histogram);
        break;
      case Entry::Kind::kLabeledCounter:
        out += "# TYPE " + e.name + " counter\n";
        for (const auto* s : e.labeled_counter->series()) {
          out += e.name + s->labels.prometheus() + " " +
                 std::to_string(s->metric->value()) + "\n";
        }
        dropped_series_sample(out, e.name, e.labeled_counter->dropped());
        break;
      case Entry::Kind::kLabeledGauge:
        out += "# TYPE " + e.name + " gauge\n";
        for (const auto* s : e.labeled_gauge->series()) {
          out += e.name + s->labels.prometheus() + " " +
                 format_double(s->metric->value()) + "\n";
        }
        dropped_series_sample(out, e.name, e.labeled_gauge->dropped());
        break;
      case Entry::Kind::kLabeledHistogram:
        out += "# TYPE " + e.name + " histogram\n";
        for (const auto* s : e.labeled_histogram->series()) {
          histogram_samples(out, e.name, s->labels, *s->metric);
        }
        dropped_series_sample(out, e.name, e.labeled_histogram->dropped());
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::json_text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + e.name + "\": ";
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out += std::to_string(e.counter->value());
        break;
      case Entry::Kind::kGauge:
        out += format_double(e.gauge->value());
        break;
      case Entry::Kind::kHistogram:
        histogram_json(out, *e.histogram);
        break;
      case Entry::Kind::kLabeledCounter:
        family_json(out, *e.labeled_counter,
                    [](std::string& o, const Counter& c) {
                      o += std::to_string(c.value());
                    });
        break;
      case Entry::Kind::kLabeledGauge:
        family_json(out, *e.labeled_gauge,
                    [](std::string& o, const Gauge& g) {
                      o += format_double(g.value());
                    });
        break;
      case Entry::Kind::kLabeledHistogram:
        family_json(out, *e.labeled_histogram,
                    [](std::string& o, const Histogram& h) {
                      histogram_json(o, h);
                    });
        break;
    }
  }
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------- Snapshotter

Snapshotter::Snapshotter(MetricsRegistry& registry, double interval_ms,
                         std::string prometheus_path, std::string json_path)
    : registry_(registry),
      interval_ms_(interval_ms > 0.0 ? interval_ms : 100.0),
      prometheus_path_(std::move(prometheus_path)),
      json_path_(std::move(json_path)) {}

Snapshotter::~Snapshotter() { stop(); }

void Snapshotter::snapshot_now() {
  if (sample_hook_) sample_hook_();
  if (!prometheus_path_.empty()) {
    (void)write_atomically(prometheus_path_, registry_.prometheus_text());
  }
  if (!json_path_.empty()) {
    (void)write_atomically(json_path_, registry_.json_text());
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void Snapshotter::start() {
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] {
    const auto interval =
        std::chrono::duration<double, std::milli>(interval_ms_);
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (cv_.wait_for(lock, interval, [this] { return stop_; })) break;
      lock.unlock();
      snapshot_now();
      lock.lock();
    }
  });
}

void Snapshotter::stop() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  snapshot_now();  // final state on disk after the run
}

}  // namespace evedge::obs

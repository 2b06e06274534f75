#pragma once

// Live metrics: atomic counters, gauges and fixed-bucket log-scale
// histograms behind a named registry, with Prometheus text-exposition
// and JSON snapshots — the mid-run view of the quantities ServeReport
// only hands back after a run. Updates are lock-free (one atomic RMW
// per observation); registration and snapshotting take the registry
// mutex, so callers cache the returned references and keep the hot path
// name-lookup-free.
//
// Labeled families add the per-stream dimension: a LabeledCounter/
// LabeledGauge/LabeledHistogram is one registry entry fanning out into
// series keyed by LabelSet (sorted, key-unique key/value pairs).
// Series creation is a cold path (family mutex); the
// returned references are stable, so serving code resolves its
// per-stream series up front and the hot path stays one atomic RMW.
// Cardinality is hard-capped per family: past max_series distinct
// label sets, at() routes to the {overflow="true"} series and bumps
// the family's dropped-series counter — sums over all series
// (overflow included) stay complete, and memory never grows unbounded.
//
// Histogram buckets are logarithmic with a fixed count: bucket i spans
// (min * growth^(i-1), min * growth^i], bucket 0 additionally absorbs
// everything below min and the last bucket everything above the top
// bound. percentile() answers with the upper bound of the bucket
// holding the requested rank, so it agrees with an exact reservoir
// percentile to within one bucket width (test_obs pins that contract
// against serve's LatencyReservoir).
//
// Prometheus exposition follows the text format: counters as
// `name_total`, gauges verbatim, histograms as cumulative `name_bucket`
// series with `le` labels plus `_sum`/`_count`; label values and HELP
// text are escaped per the spec (backslash, quote, newline).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace evedge::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  struct Options {
    double min = 100.0;    ///< upper bound of bucket 0
    double growth = 2.0;   ///< per-bucket bound multiplier (> 1)
    int buckets = 24;      ///< fixed bucket count (>= 2)
  };

  explicit Histogram(Options options);

  /// Lock-free: one fetch_add on the bucket, plus count/sum updates.
  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int bucket_count() const noexcept {
    return static_cast<int>(buckets_.size());
  }
  /// Upper bound of bucket i (+inf for the last).
  [[nodiscard]] double bucket_upper(int i) const noexcept;
  [[nodiscard]] std::uint64_t bucket_value(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  /// Index of the bucket a value lands in — exposed so tests (and the
  /// lineage breakdown check) can reason in bucket units.
  [[nodiscard]] int bucket_index(double v) const noexcept;

  /// Upper bound of the bucket containing the q-th rank (nearest-rank
  /// over bucket counts); 0 when empty. Within one bucket width of an
  /// exact percentile by construction.
  [[nodiscard]] double percentile(double q) const noexcept;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  std::deque<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A sorted, key-unique set of label (name, value) pairs — the identity
/// of one series inside a labeled family. Construction sorts by key
/// (first value wins on a duplicated key), so equal sets compare equal
/// regardless of construction order. Label names must be valid
/// Prometheus identifiers; values are arbitrary and escaped at
/// exposition.
class LabelSet {
 public:
  using Pair = std::pair<std::string, std::string>;

  LabelSet() = default;
  LabelSet(std::initializer_list<Pair> pairs);
  explicit LabelSet(std::vector<Pair> pairs);

  [[nodiscard]] const std::vector<Pair>& pairs() const noexcept {
    return pairs_;
  }
  [[nodiscard]] bool empty() const noexcept { return pairs_.empty(); }

  /// Canonical `{k1="v1",k2="v2"}` rendering with text-format escaping
  /// of values; "" for the empty set. `extra` pairs are appended inside
  /// the braces (the histogram `le` label).
  [[nodiscard]] std::string prometheus(
      const std::vector<Pair>& extra = {}) const;

  /// Canonical flat encoding (unprintable separators) — the
  /// family-lookup key.
  [[nodiscard]] std::string key() const;

  [[nodiscard]] bool operator==(const LabelSet& other) const noexcept {
    return pairs_ == other.pairs_;
  }

 private:
  std::vector<Pair> pairs_;
};

/// Prometheus text-format escaping for label values: backslash, double
/// quote, and newline become \\, \" and \n.
[[nodiscard]] std::string prometheus_escape_label(const std::string& v);

/// Prometheus text-format escaping for HELP text: backslash and newline
/// become \\ and \n (quotes are legal in help).
[[nodiscard]] std::string prometheus_escape_help(const std::string& v);

namespace detail {

/// One (name, labels)-keyed family: the shared machinery behind
/// LabeledCounter/LabeledGauge/LabeledHistogram. Series are created on
/// first at() (family mutex — callers cache the reference) and are
/// never removed, so returned references stay valid for the family's
/// lifetime. Past `max_series` distinct label sets, at() returns the
/// {overflow="true"} series (which does not count against the cap) and
/// dropped() counts each routed request, so per-family totals summed
/// over every exposed series — overflow included — equal the updates
/// actually applied.
template <class Metric>
class LabeledFamily {
 public:
  struct Series {
    LabelSet labels;
    std::unique_ptr<Metric> metric;
  };

  LabeledFamily(const LabeledFamily&) = delete;
  LabeledFamily& operator=(const LabeledFamily&) = delete;

  /// The series for `labels`, created on first touch. Thread-safe;
  /// cache the reference off the hot path.
  Metric& at(const LabelSet& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::string k = labels.key();
    if (auto it = index_.find(k); it != index_.end()) {
      return *series_[it->second].metric;
    }
    if (live_ < max_series_) {
      ++live_;
      return emplace_locked(labels, k);
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return overflow_locked();
  }

  /// Live series created within the cap (the overflow series, if
  /// touched, is extra).
  [[nodiscard]] std::size_t series_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return live_;
  }
  /// Label-set requests routed to the overflow series because the cap
  /// was reached.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t max_series() const noexcept {
    return max_series_;
  }

  /// Stable pointers to every series in first-touch order (overflow
  /// included once touched). Series are never removed, so the pointers
  /// outlive the call; concurrently created series may not appear.
  [[nodiscard]] std::vector<const Series*> series() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const Series*> out;
    out.reserve(series_.size());
    for (const Series& s : series_) out.push_back(&s);
    return out;
  }

 protected:
  LabeledFamily(std::size_t max_series,
                std::function<std::unique_ptr<Metric>()> make)
      : max_series_(max_series == 0 ? 1 : max_series),
        make_(std::move(make)) {}
  ~LabeledFamily() = default;

 private:
  Metric& emplace_locked(const LabelSet& labels, const std::string& key) {
    index_.emplace(key, series_.size());
    series_.push_back(Series{labels, make_()});
    return *series_.back().metric;
  }

  Metric& overflow_locked() {
    if (overflow_ == nullptr) {
      const LabelSet labels{{"overflow", "true"}};
      overflow_ = &emplace_locked(labels, labels.key());
    }
    return *overflow_;
  }

  std::size_t max_series_;
  std::function<std::unique_ptr<Metric>()> make_;
  mutable std::mutex mutex_;
  std::deque<Series> series_;
  std::unordered_map<std::string, std::size_t> index_;
  std::size_t live_ = 0;
  Metric* overflow_ = nullptr;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace detail

class LabeledCounter final : public detail::LabeledFamily<Counter> {
 public:
  explicit LabeledCounter(std::size_t max_series)
      : LabeledFamily(max_series,
                      [] { return std::make_unique<Counter>(); }) {}
};

class LabeledGauge final : public detail::LabeledFamily<Gauge> {
 public:
  explicit LabeledGauge(std::size_t max_series)
      : LabeledFamily(max_series, [] { return std::make_unique<Gauge>(); }) {}
};

class LabeledHistogram final : public detail::LabeledFamily<Histogram> {
 public:
  LabeledHistogram(Histogram::Options options, std::size_t max_series)
      : LabeledFamily(max_series,
                      [options] { return std::make_unique<Histogram>(options); }),
        options_(options) {}

  [[nodiscard]] const Histogram::Options& options() const noexcept {
    return options_;
  }

 private:
  Histogram::Options options_;
};

/// Named metric registry. References returned by counter()/gauge()/
/// histogram() and the labeled_* families are stable for the registry's
/// lifetime (entries are never removed); re-registering a name returns
/// the existing metric. Registering a name under a different kind (or
/// labeled vs plain) throws.
class MetricsRegistry {
 public:
  /// Cardinality cap a labeled family gets when none is passed.
  static constexpr std::size_t kDefaultMaxSeries = 256;

  /// The process-wide registry serving instrumentation publishes to.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, Histogram::Options options,
                       const std::string& help = "");

  LabeledCounter& labeled_counter(const std::string& name,
                                  const std::string& help = "",
                                  std::size_t max_series = kDefaultMaxSeries);
  LabeledGauge& labeled_gauge(const std::string& name,
                              const std::string& help = "",
                              std::size_t max_series = kDefaultMaxSeries);
  LabeledHistogram& labeled_histogram(
      const std::string& name, Histogram::Options options,
      const std::string& help = "",
      std::size_t max_series = kDefaultMaxSeries);

  /// Prometheus text exposition (HELP/TYPE + samples; labeled families
  /// fan out into one sample per series, plus a `<name>_dropped_series`
  /// counter once a family has overflowed its cap).
  [[nodiscard]] std::string prometheus_text() const;
  /// The same snapshot as a JSON object keyed by metric name; labeled
  /// families render as {"series": [...], "dropped_series": N}.
  [[nodiscard]] std::string json_text() const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    enum class Kind : std::uint8_t {
      kCounter,
      kGauge,
      kHistogram,
      kLabeledCounter,
      kLabeledGauge,
      kLabeledHistogram
    } kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<LabeledCounter> labeled_counter;
    std::unique_ptr<LabeledGauge> labeled_gauge;
    std::unique_ptr<LabeledHistogram> labeled_histogram;
  };

  [[nodiscard]] Entry* find(const std::string& name);
  Entry& emplace(const std::string& name, const std::string& help,
                 Entry::Kind kind);

  mutable std::mutex mutex_;
  std::deque<Entry> entries_;
};

/// Periodic snapshot thread: every `interval_ms`, runs the (optional)
/// sample hook — the place to refresh gauges from live state — then
/// writes the registry's Prometheus text (and, when a JSON path is
/// given, the JSON snapshot) via write-to-temp + rename, so a scraper
/// never reads a torn file. start()/stop() bracket the thread; the
/// destructor stops it.
class Snapshotter {
 public:
  Snapshotter(MetricsRegistry& registry, double interval_ms,
              std::string prometheus_path, std::string json_path = {});
  ~Snapshotter();
  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  void set_sample_hook(std::function<void()> hook) {
    sample_hook_ = std::move(hook);
  }
  void start();
  void stop();
  [[nodiscard]] std::size_t snapshots_written() const noexcept {
    return snapshots_.load(std::memory_order_relaxed);
  }
  /// Takes one snapshot immediately (also called per tick).
  void snapshot_now();

 private:
  MetricsRegistry& registry_;
  double interval_ms_;
  std::string prometheus_path_;
  std::string json_path_;
  std::function<void()> sample_hook_;
  std::atomic<std::size_t> snapshots_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace evedge::obs

// Observability test suite: the lock-free trace ring's bounded
// never-wrap/drop contract (including concurrent writers — the TSan CI
// job runs this file), Chrome trace export/import round trips, the
// log-scale histogram's percentile error bound against serve's exact
// LatencyReservoir, Prometheus text round trips, the per-layer
// execution profiler against the engine's own execution counters and
// hw's analytic tables, the journal/trace shared-clock contract, and
// end-to-end traced serving (local streams and the wire loopback path).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_executor.hpp"
#include "events/density_profile.hpp"
#include "events/event_synth.hpp"
#include "hw/platform.hpp"
#include "nn/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "serve/journal.hpp"
#include "serve/serving_runtime.hpp"
#include "wire/session.hpp"
#include "wire/transport.hpp"

namespace ec = evedge::core;
namespace ee = evedge::events;
namespace eh = evedge::hw;
namespace en = evedge::nn;
namespace eo = evedge::obs;
namespace es = evedge::sparse;
namespace ev = evedge::serve;
namespace ew = evedge::wire;

using namespace std::chrono_literals;

namespace {

std::string temp_path(const std::string& tag) {
  return "/tmp/evedge_obs_" + tag + "_" + std::to_string(::getpid());
}

ee::EventStream matched_stream(int h, int w, ee::TimeUs duration,
                               std::uint64_t seed) {
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{w, h};
  cfg.seed = seed;
  cfg.blob_count = 3;
  ee::DensityProfile profile("obs-test", 40.0, {}, 10.0, 0.4);
  return ee::PoissonEventSynthesizer(profile, cfg).generate(0, duration);
}

/// Quiesce-time tracer reset shared by the tracer tests: capacity for
/// rings created from here on, empty rings, tracing on.
void reset_tracer(std::size_t capacity) {
  eo::Tracer::set_enabled(false);
  eo::Tracer::instance().set_ring_capacity(capacity);
  eo::Tracer::instance().clear();
  eo::Tracer::set_enabled(true);
}

}  // namespace

// ------------------------------------------------------------ trace ring

TEST(TraceRing, BoundedRingDropsInsteadOfWrapping) {
  reset_tracer(8);
  // Fresh thread -> fresh ring at the capacity just installed (existing
  // rings keep theirs).
  std::thread emitter([] {
    for (int i = 0; i < 20; ++i) {
      eo::Tracer::instant("test", "wrap", "i", i);
    }
  });
  emitter.join();
  eo::Tracer::set_enabled(false);

  const std::vector<eo::TraceEvent> events = eo::Tracer::instance().collect();
  std::vector<std::int64_t> args;
  for (const eo::TraceEvent& e : events) {
    if (std::string(e.name) == "wrap") args.push_back(e.arg0);
  }
  // The ring holds the run PREFIX: the first 8 events, never a rotated
  // window, and the 12 overflow events are counted as drops.
  ASSERT_EQ(args.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(args[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(eo::Tracer::instance().dropped(), 12u);
  eo::Tracer::instance().clear();
}

TEST(TraceRing, ConcurrentWritersLoseNothingUnaccounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  reset_tracer(1u << 10);  // small enough that drops actually occur

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        eo::Tracer::instant("test", "mt", "thread", t, "i", i);
        eo::Tracer::span("test", "mt.span", eo::now_ns(), eo::now_ns(),
                         "thread", t);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  eo::Tracer::set_enabled(false);

  const std::vector<eo::TraceEvent> events = eo::Tracer::instance().collect();
  std::size_t ours = 0;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const eo::TraceEvent& e : events) {
    const std::string name(e.name);
    if (name != "mt" && name != "mt.span") continue;
    ++ours;
    // Per-ring emit order is publication order: timestamps never go
    // backwards within one tid.
    const auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) EXPECT_GE(e.t_ns, it->second);
    last_ts[e.tid] = e.t_ns;
  }
  // Collected + dropped accounts for every emit; nothing vanishes.
  EXPECT_EQ(ours + eo::Tracer::instance().dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread * 2);
  EXPECT_GE(last_ts.size(), static_cast<std::size_t>(kThreads));
  eo::Tracer::instance().clear();
}

// Rings of exited threads are recycled at clear(): four rounds of N
// short-lived emitters hold the ring count at its round-1 value, and
// every round collects exactly its own events (a recycled ring starts
// empty, and a snapshot after the joins still sees each thread).
TEST(TraceRing, ClearRecyclesRingsOfExitedThreads) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 50;
  constexpr int kRounds = 4;
  reset_tracer(1u << 10);
  std::size_t rings_after_first = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> emitters;
    for (int t = 0; t < kThreads; ++t) {
      emitters.emplace_back([round, t] {
        for (int i = 0; i < kPerThread; ++i) {
          eo::Tracer::instant("test", "recycle", "round", round, "thread", t);
        }
      });
    }
    for (std::thread& e : emitters) e.join();

    std::map<std::int64_t, int> per_thread;
    for (const eo::TraceEvent& e : eo::Tracer::instance().collect()) {
      if (std::string(e.name) != "recycle") continue;
      EXPECT_EQ(e.arg0, round);
      ++per_thread[e.arg1];
    }
    ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kThreads));
    for (const auto& [thread, count] : per_thread) {
      EXPECT_EQ(count, kPerThread) << "round " << round << " thread "
                                   << thread;
    }
    EXPECT_EQ(eo::Tracer::instance().dropped(), 0u);

    const std::size_t rings = eo::Tracer::instance().ring_count();
    if (round == 0) {
      rings_after_first = rings;
    } else {
      EXPECT_LE(rings, rings_after_first) << "round " << round;
    }
    eo::Tracer::instance().clear();
  }
  eo::Tracer::set_enabled(false);
}

TEST(TraceRing, DisabledEmitsNothing) {
  eo::Tracer::set_enabled(false);
  eo::Tracer::instance().clear();
  eo::Tracer::instant("test", "off");
  eo::Tracer::span("test", "off", 0, 10);
  eo::Tracer::counter("test", "off", 42);
  {
    const eo::ScopedSpan span("test", "off.scoped");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(eo::Tracer::instance().collect().empty());
  EXPECT_EQ(eo::Tracer::instance().dropped(), 0u);
}

TEST(TraceIo, ChromeExportRoundTrips) {
  reset_tracer(1u << 10);
  std::thread emitter([] {
    eo::Tracer::span("cat_a", "span_one", 1000, 3500, "stream", 3, "seq", 9);
    eo::Tracer::instant("cat_b", "instant \"quoted\"", "k", -1);
    eo::Tracer::counter("cat_c", "depth", 17);
  });
  emitter.join();
  eo::Tracer::set_enabled(false);

  const std::string path = temp_path("trace_roundtrip") + ".json";
  const std::vector<eo::TraceEvent> events = eo::Tracer::instance().collect();
  ASSERT_EQ(events.size(), 3u);
  std::string error;
  ASSERT_TRUE(eo::write_chrome_trace_file(path, events, &error)) << error;

  const std::vector<eo::ParsedEvent> parsed = eo::read_chrome_trace(path);
  ASSERT_EQ(parsed.size(), 3u);
  std::map<std::string, const eo::ParsedEvent*> by_name;
  for (const eo::ParsedEvent& e : parsed) by_name[e.name] = &e;

  ASSERT_TRUE(by_name.count("span_one"));
  const eo::ParsedEvent& span = *by_name["span_one"];
  EXPECT_EQ(span.ph, 'X');
  EXPECT_DOUBLE_EQ(span.ts_us, 1.0);       // 1000 ns
  EXPECT_DOUBLE_EQ(span.dur_us, 2.5);      // 2500 ns
  EXPECT_EQ(span.cat, "cat_a");
  EXPECT_NE(span.args_json.find("\"stream\""), std::string::npos);
  EXPECT_NE(span.args_json.find("9"), std::string::npos);

  ASSERT_TRUE(by_name.count("instant \"quoted\""));  // escape round trip
  EXPECT_EQ(by_name["instant \"quoted\""]->ph, 'i');
  ASSERT_TRUE(by_name.count("depth"));
  EXPECT_EQ(by_name["depth"]->ph, 'C');

  eo::Tracer::instance().clear();
  std::remove(path.c_str());
}

// ------------------------------------------------------------- histogram

TEST(Metrics, HistogramBucketsAndPercentileBound) {
  eo::Histogram::Options options;
  options.min = 10.0;
  options.growth = 2.0;
  options.buckets = 10;
  eo::Histogram h(options);

  h.observe(5.0);     // <= min -> bucket 0
  h.observe(10.0);    // == min -> bucket 0
  h.observe(11.0);    // (10, 20] -> bucket 1
  h.observe(20.0);    // (10, 20] -> bucket 1
  h.observe(21.0);    // (20, 40] -> bucket 2
  h.observe(1e9);     // beyond the top bound -> last bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(9), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 20.0);
  EXPECT_TRUE(std::isinf(h.bucket_upper(9)));

  // percentile() answers the holding bucket's upper bound: p50 of the
  // six samples (rank 3) lands in bucket 1.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 20.0);
  EXPECT_TRUE(std::isinf(h.percentile(1.0)));
  EXPECT_DOUBLE_EQ(eo::Histogram(options).percentile(0.5), 0.0);
}

TEST(Metrics, HistogramAgreesWithReservoirWithinOneBucket) {
  // The contract the header documents: the histogram percentile equals
  // the exact (nearest-rank reservoir) percentile to within one bucket
  // width — i.e. exact < answer <= exact * growth for in-range samples.
  eo::Histogram::Options options;
  options.min = 50.0;
  options.growth = 1.5;
  options.buckets = 40;
  eo::Histogram h(options);
  ev::LatencyReservoir reservoir;

  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 5000; ++i) {
    // xorshift64* in [100, ~50100) us — inside the histogram's range.
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const double v =
        100.0 + static_cast<double>((state * 0x2545f4914f6cdd1dull) %
                                    50'000'000ull) /
                    1e3;
    h.observe(v);
    reservoir.add(v);
  }
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = reservoir.percentile_us(q);
    const double binned = h.percentile(q);
    EXPECT_GE(binned, exact) << "q=" << q;
    EXPECT_LE(binned, exact * options.growth) << "q=" << q;
  }
}

TEST(Metrics, PrometheusTextRoundTrips) {
  eo::MetricsRegistry registry;  // private registry: values are exact
  eo::Counter& frames = registry.counter("frames_total", "frames served");
  eo::Gauge& depth = registry.gauge("queue_depth");
  eo::Histogram::Options options;
  options.min = 10.0;
  options.growth = 2.0;
  options.buckets = 4;
  eo::Histogram& lat = registry.histogram("latency_us", options);
  frames.add(41);
  frames.add();
  depth.set(7.5);
  lat.observe(5.0);
  lat.observe(15.0);
  lat.observe(1e6);

  // Re-registration returns the same metric; a kind clash throws.
  EXPECT_EQ(&registry.counter("frames_total"), &frames);
  EXPECT_THROW((void)registry.gauge("frames_total"), std::invalid_argument);
  EXPECT_EQ(registry.size(), 3u);

  // Tiny exposition-format reader: "name value" samples, `le` labels
  // kept as part of the name.
  std::map<std::string, double> samples;
  const std::string text = registry.prometheus_text();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }

  EXPECT_DOUBLE_EQ(samples.at("frames_total"), 42.0);
  EXPECT_DOUBLE_EQ(samples.at("queue_depth"), 7.5);
  EXPECT_DOUBLE_EQ(samples.at("latency_us_count"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("latency_us_sum"), 5.0 + 15.0 + 1e6);
  // Cumulative buckets: le=10 holds 1, le=20 holds 2, +Inf holds all 3.
  EXPECT_DOUBLE_EQ(samples.at("latency_us_bucket{le=\"10\"}"), 1.0);
  EXPECT_DOUBLE_EQ(samples.at("latency_us_bucket{le=\"20\"}"), 2.0);
  EXPECT_DOUBLE_EQ(samples.at("latency_us_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_NE(text.find("# HELP frames_total frames served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_us histogram"), std::string::npos);

  // JSON snapshot carries the same totals.
  const std::string json = registry.json_text();
  EXPECT_NE(json.find("\"frames_total\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
}

// ------------------------------------------------------- labeled metrics

TEST(LabeledMetrics, LabelSetCanonicalizesAndInternsStably) {
  // Construction order does not matter: sets sort by key, and equal
  // sets share one canonical key.
  const eo::LabelSet a{{"stream", "3"}, {"route", "csr"}};
  const eo::LabelSet b{{"route", "csr"}, {"stream", "3"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.prometheus(), "{route=\"csr\",stream=\"3\"}");

  const eo::LabelSet c{{"route", "dense"}, {"stream", "3"}};
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.key(), c.key());

  // Duplicated key: the first value wins, deterministically.
  const eo::LabelSet dup{{"k", "first"}, {"k", "second"}};
  ASSERT_EQ(dup.pairs().size(), 1u);
  EXPECT_EQ(dup.pairs().front().second, "first");

  EXPECT_TRUE(eo::LabelSet{}.empty());
  EXPECT_EQ(eo::LabelSet{}.prometheus(), "");
  // The histogram `le` label is appended inside the braces.
  EXPECT_EQ(a.prometheus({{"le", "10"}}),
            "{route=\"csr\",stream=\"3\",le=\"10\"}");
}

TEST(LabeledMetrics, PrometheusAndJsonRoundTripLabeledSeries) {
  eo::MetricsRegistry registry;
  eo::LabeledCounter& frames =
      registry.labeled_counter("frames_total", "frames by stream");
  frames.at({{"stream", "0"}, {"outcome", "completed"}}).add(7);
  frames.at({{"stream", "1"}, {"outcome", "completed"}}).add(2);
  frames.at({{"stream", "1"}, {"outcome", "shed"}}).add();
  eo::LabeledGauge& burn = registry.labeled_gauge("burn_rate");
  burn.at({{"stream", "0"}}).set(1.25);
  eo::Histogram::Options options;
  options.min = 10.0;
  options.growth = 2.0;
  options.buckets = 4;
  eo::LabeledHistogram& lat =
      registry.labeled_histogram("lat_us", options, "latency by stream");
  lat.at({{"stream", "0"}}).observe(5.0);
  lat.at({{"stream", "0"}}).observe(15.0);

  // Re-registration returns the same family; kind clashes throw (both
  // labeled-vs-labeled and labeled-vs-plain).
  EXPECT_EQ(&registry.labeled_counter("frames_total"), &frames);
  EXPECT_THROW((void)registry.labeled_gauge("frames_total"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.counter("frames_total"),
               std::invalid_argument);

  std::map<std::string, double> samples;
  const std::string text = registry.prometheus_text();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }

  EXPECT_DOUBLE_EQ(
      samples.at("frames_total{outcome=\"completed\",stream=\"0\"}"), 7.0);
  EXPECT_DOUBLE_EQ(
      samples.at("frames_total{outcome=\"completed\",stream=\"1\"}"), 2.0);
  EXPECT_DOUBLE_EQ(samples.at("frames_total{outcome=\"shed\",stream=\"1\"}"),
                   1.0);
  EXPECT_DOUBLE_EQ(samples.at("burn_rate{stream=\"0\"}"), 1.25);
  // Labeled histogram: full conformance — cumulative buckets with `le`
  // appended to the series labels, plus per-series _sum/_count.
  EXPECT_DOUBLE_EQ(samples.at("lat_us_bucket{stream=\"0\",le=\"10\"}"), 1.0);
  EXPECT_DOUBLE_EQ(samples.at("lat_us_bucket{stream=\"0\",le=\"+Inf\"}"),
                   2.0);
  EXPECT_DOUBLE_EQ(samples.at("lat_us_sum{stream=\"0\"}"), 20.0);
  EXPECT_DOUBLE_EQ(samples.at("lat_us_count{stream=\"0\"}"), 2.0);
  // No overflow yet: the dropped-series lane stays out of the scrape.
  EXPECT_EQ(text.find("frames_total_dropped_series"), std::string::npos);
  EXPECT_NE(text.find("# HELP frames_total frames by stream"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);

  const std::string json = registry.json_text();
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_series\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"stream\": \"1\""), std::string::npos);
}

TEST(LabeledMetrics, ExpositionEscapesLabelValuesAndHelp) {
  EXPECT_EQ(eo::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(eo::prometheus_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(eo::prometheus_escape_help("say \"hi\"\nback\\slash"),
            "say \"hi\"\\nback\\\\slash");

  eo::MetricsRegistry registry;
  registry.counter("plain_total", "line one\nline two");
  registry.labeled_counter("hostile_total")
      .at({{"path", "C:\\tmp\n\"x\""}})
      .add();
  const std::string text = registry.prometheus_text();
  // HELP newline escaped -> the exposition stays one line per sample.
  EXPECT_NE(text.find("# HELP plain_total line one\\nline two"),
            std::string::npos);
  EXPECT_NE(
      text.find("hostile_total{path=\"C:\\\\tmp\\n\\\"x\\\"\"} 1"),
      std::string::npos);
}

TEST(LabeledMetrics, CardinalityCapNeverDropsAccounting) {
  constexpr std::size_t kCap = 4;
  constexpr int kDistinct = 10;
  eo::MetricsRegistry registry;
  eo::LabeledCounter& family =
      registry.labeled_counter("capped_total", "", kCap);

  std::uint64_t expected = 0;
  for (int i = 0; i < kDistinct; ++i) {
    const auto n = static_cast<std::uint64_t>(i + 1);
    family.at({{"stream", std::to_string(i)}}).add(n);
    expected += n;
  }
  // Exactly kCap live series; every over-cap request routed (and
  // counted) to the overflow series, so nothing vanished.
  EXPECT_EQ(family.series_count(), kCap);
  EXPECT_EQ(family.dropped(),
            static_cast<std::uint64_t>(kDistinct - kCap));
  std::uint64_t total = 0;
  bool saw_overflow = false;
  for (const auto* s : family.series()) {
    total += s->metric->value();
    if (!s->labels.pairs().empty() &&
        s->labels.pairs().front().first == "overflow") {
      saw_overflow = true;
    }
  }
  EXPECT_EQ(total, expected);
  EXPECT_TRUE(saw_overflow);

  // Existing series stay addressable at the cap; only new label sets
  // route to overflow.
  family.at({{"stream", "0"}}).add();
  EXPECT_EQ(family.dropped(),
            static_cast<std::uint64_t>(kDistinct - kCap));

  // The scrape surfaces the loss: a dropped-series counter appears
  // once overflow happened, alongside the overflow series itself.
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("capped_total_dropped_series 6"), std::string::npos);
  EXPECT_NE(text.find("capped_total{overflow=\"true\"}"),
            std::string::npos);
}

TEST(LabeledMetrics, ConcurrentFirstTouchIsExact) {
  // Many threads race to first-touch the same 16 label sets (the TSan
  // CI job runs this): every add must land, exactly 16 series exist,
  // and equal label sets resolve to the same series object.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr int kSets = 16;
  eo::MetricsRegistry registry;
  eo::LabeledCounter& family = registry.labeled_counter("race_total");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&family, t] {
      for (int i = 0; i < kIters; ++i) {
        const int set = (t + i) % kSets;
        family.at({{"stream", std::to_string(set)}}).add();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(family.series_count(), static_cast<std::size_t>(kSets));
  EXPECT_EQ(family.dropped(), 0u);
  std::uint64_t total = 0;
  for (const auto* s : family.series()) total += s->metric->value();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIters);
  for (int set = 0; set < kSets; ++set) {
    const eo::LabelSet labels{{"stream", std::to_string(set)}};
    EXPECT_EQ(&family.at(labels), &family.at(labels));
    EXPECT_EQ(family.at(labels).value(),
              static_cast<std::uint64_t>(kThreads) * kIters / kSets);
  }
}

TEST(Metrics, SnapshotterWritesAtomicSnapshots) {
  eo::MetricsRegistry registry;
  eo::Counter& ticks = registry.counter("ticks_total");
  eo::Gauge& live = registry.gauge("live_value");
  const std::string prom = temp_path("snap") + ".prom";
  const std::string json = temp_path("snap") + ".json";

  eo::Snapshotter snapshotter(registry, 5.0, prom, json);
  int sampled = 0;
  snapshotter.set_sample_hook([&] {
    ++sampled;
    live.set(static_cast<double>(sampled));
  });
  ticks.add(3);
  snapshotter.start();
  std::this_thread::sleep_for(30ms);
  snapshotter.stop();  // joins, then writes the final snapshot

  EXPECT_GE(snapshotter.snapshots_written(), 1u);
  EXPECT_GE(sampled, 1);
  std::string text;
  {
    std::FILE* f = std::fopen(prom.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    text.assign(buf, n);
    std::fclose(f);
  }
  EXPECT_NE(text.find("ticks_total 3"), std::string::npos);
  // The final (post-stop) snapshot saw the last sample-hook refresh.
  EXPECT_NE(text.find("live_value"), std::string::npos);
  std::remove(prom.c_str());
  std::remove(json.c_str());
}

// ------------------------------------------------------- layer profiler

TEST(LayerProfiler, CountsEveryExecutedNode) {
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  eo::LayerProfiler profiler(spec);
  EXPECT_EQ(net.set_exec_observer(&profiler), nullptr);

  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  const ee::EventStream stream =
      matched_stream(shape.h, shape.w, 150'000, 11);
  const std::vector<es::SparseFrame> frames =
      ev::ServingRuntime::ingest(stream, ev::IngressConfig{});
  ASSERT_FALSE(frames.empty());

  const bool needs_image = spec.graph.input_ids().size() > 1;
  const es::DenseTensor image =
      needs_image ? ec::make_reference_image(spec) : es::DenseTensor{};
  std::vector<es::DenseTensor> steps;
  std::vector<es::SparseFrame> one(1);
  one.front() = frames.front();
  ec::frames_to_event_steps(one, shape, spec.timesteps, steps);
  (void)net.run_batched(steps, needs_image ? &image : nullptr);

  // The observer fires exactly once per executed node — cache-skipped
  // nodes fire neither the engine counter nor the hook.
  EXPECT_EQ(profiler.observed(), net.last_exec_stats().node_executions);
  ASSERT_GT(profiler.observed(), 0u);

  const std::vector<eo::NodeRouteProfile> rows = profiler.snapshot();
  ASSERT_FALSE(rows.empty());
  std::uint64_t runs = 0;
  for (const eo::NodeRouteProfile& row : rows) {
    EXPECT_GE(row.max_ns, 0u);
    EXPECT_FALSE(row.name.empty());
    runs += row.runs;
  }
  EXPECT_EQ(runs, profiler.observed());

  profiler.reset();
  EXPECT_EQ(profiler.observed(), 0u);
  net.set_exec_observer(nullptr);
}

TEST(LayerProfiler, CrossCheckAgainstAnalyticTables) {
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  eo::LayerProfiler profiler(spec);
  net.set_exec_observer(&profiler);

  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  const bool needs_image = spec.graph.input_ids().size() > 1;
  const es::DenseTensor image =
      needs_image ? ec::make_reference_image(spec) : es::DenseTensor{};
  const ee::EventStream stream =
      matched_stream(shape.h, shape.w, 150'000, 13);
  const std::vector<es::SparseFrame> frames =
      ev::ServingRuntime::ingest(stream, ev::IngressConfig{});
  ASSERT_FALSE(frames.empty());
  std::vector<es::DenseTensor> steps;
  std::vector<es::SparseFrame> one(1);
  std::uint64_t inferences = 0;
  for (const es::SparseFrame& frame : frames) {
    one.front() = frame;
    ec::frames_to_event_steps(one, shape, spec.timesteps, steps);
    (void)net.run_batched(steps, needs_image ? &image : nullptr);
    ++inferences;
  }
  net.set_exec_observer(nullptr);

  const eh::Platform platform = eh::xavier_agx();
  const eo::ProfileCrossCheckReport report = eo::cross_check_profiles(
      spec, profiler.snapshot(), platform, inferences);
  EXPECT_EQ(report.network, spec.name);
  EXPECT_EQ(report.inferences, inferences);
  ASSERT_FALSE(report.rows.empty());
  bool any_measured = false;
  bool any_analytic = false;
  for (const eo::ProfileCrossCheckRow& row : report.rows) {
    if (row.measured_us > 0.0) any_measured = true;
    if (row.analytic_us > 0.0) {
      any_analytic = true;
      if (row.measured_us > 0.0) EXPECT_GT(row.ratio, 0.0);
    }
  }
  EXPECT_TRUE(any_measured);
  EXPECT_TRUE(any_analytic);
  EXPECT_NE(report.text().find(spec.name), std::string::npos);
}

// ------------------------------------------------------- shared timeline

TEST(Journal, SharesTheTraceEpoch) {
  const std::string path = temp_path("journal");
  const double before_ms = static_cast<double>(eo::now_ns()) / 1e6;
  {
    ev::FaultJournal journal(path);
    journal.append("run", "phase=start");
  }
  const double after_ms = static_cast<double>(eo::now_ns()) / 1e6;

  const auto entries = ev::FaultJournal::read(path);
  ASSERT_EQ(entries.size(), 1u);
  // Journal t_ms is measured from obs::trace_epoch() — the same zero
  // the tracer stamps against — so it brackets between two now_ns()
  // reads with no clock translation.
  EXPECT_GE(entries.front().t_ms, before_ms);
  EXPECT_LE(entries.front().t_ms, after_ms);
  std::remove(path.c_str());
}

TEST(Journal, OverlayRebasesOntoTraceTimeline) {
  // The `evedge_trace export --journal` overlay: t_ms becomes ts_us by
  // unit conversion alone (the epoch is already shared), entries become
  // instant events, and the free-form detail is JSON-escaped.
  std::vector<ev::FaultJournal::Entry> entries;
  entries.push_back({12.5, "quarantine", "stream=0 seq=3"});
  entries.push_back({99.125, "degrade", "level=2 \"why\"=watermark"});

  const std::vector<eo::ParsedEvent> overlay = ev::journal_overlay(entries);
  ASSERT_EQ(overlay.size(), 2u);
  EXPECT_EQ(overlay[0].ph, 'i');
  EXPECT_DOUBLE_EQ(overlay[0].ts_us, 12'500.0);
  EXPECT_EQ(overlay[0].cat, "journal");
  EXPECT_EQ(overlay[0].name, "quarantine");
  EXPECT_EQ(overlay[0].args_json, "{\"detail\": \"stream=0 seq=3\"}");
  EXPECT_DOUBLE_EQ(overlay[1].ts_us, 99'125.0);
  // Quotes in the detail survive as valid JSON.
  EXPECT_NE(overlay[1].args_json.find("\\\"why\\\""), std::string::npos);
}

TEST(Journal, OverlayToleratesTornTail) {
  // A crash mid-append leaves a torn final line; the reader must keep
  // every complete entry and the overlay must carry exactly those.
  const std::string path = temp_path("journal_torn");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("10.000\trun\tphase=start\n", f);
    std::fputs("20.500\tinject\tstream=1 seq=4 action=stall\n", f);
    std::fputs("31.2\tquaran", f);  // torn: no tab2, no newline
    std::fclose(f);
  }
  const auto entries = ev::FaultJournal::read(path);
  ASSERT_EQ(entries.size(), 2u);
  const std::vector<eo::ParsedEvent> overlay = ev::journal_overlay(entries);
  ASSERT_EQ(overlay.size(), 2u);
  EXPECT_DOUBLE_EQ(overlay[0].ts_us, 10'000.0);
  EXPECT_DOUBLE_EQ(overlay[1].ts_us, 20'500.0);
  EXPECT_EQ(overlay[1].name, "inject");
  std::remove(path.c_str());
}

// -------------------------------------------------- end-to-end serving

TEST(ServeObservability, TracedRunExportsTimelineAndMetrics) {
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;

  const std::string trace_path = temp_path("serve_trace") + ".json";
  ev::ServeConfig config;
  config.n_workers = 2;
  config.queue_capacity = 32;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.obs.trace = true;
  config.obs.trace_nodes = true;
  config.obs.metrics = true;
  config.obs.layer_profiles = true;
  config.obs.trace_path = trace_path;
  ev::ServingRuntime runtime(spec, 7, config);

  std::vector<ee::EventStream> streams;
  for (int s = 0; s < 2; ++s) {
    streams.push_back(matched_stream(
        shape.h, shape.w, 150'000, 21 + static_cast<std::uint64_t>(s)));
  }
  const std::uint64_t completed_before =
      eo::MetricsRegistry::global()
          .counter("evedge_frames_completed_total")
          .value();
  const ev::ServeReport report = runtime.run(streams);

  EXPECT_TRUE(report.accounting_ok());
  ASSERT_GT(report.frames_completed, 0u);
  // Tracing is off again after the run (ScopedTracing closed it).
  EXPECT_FALSE(eo::Tracer::enabled());

  // The exported timeline covers every pipeline stage.
  const std::vector<eo::ParsedEvent> events =
      eo::read_chrome_trace(trace_path);
  ASSERT_FALSE(events.empty());
  std::set<std::string> cats;
  std::size_t inference_spans = 0;
  std::size_t node_spans = 0;
  for (const eo::ParsedEvent& e : events) {
    cats.insert(e.cat);
    if (e.cat == "worker" && e.name == "inference") ++inference_spans;
    if (e.cat == "node") ++node_spans;
  }
  EXPECT_TRUE(cats.count("ingress"));
  EXPECT_TRUE(cats.count("queue"));
  EXPECT_TRUE(cats.count("worker"));
  EXPECT_TRUE(cats.count("serve"));  // frames.completed counter track
  EXPECT_GT(inference_spans, 0u);
  // trace_nodes: per-node sub-spans, many per inference.
  EXPECT_GT(node_spans, inference_spans);

  // Live metrics advanced by exactly this run's completions (the global
  // registry accumulates across runs, so compare the delta).
  const std::uint64_t completed_after =
      eo::MetricsRegistry::global()
          .counter("evedge_frames_completed_total")
          .value();
  EXPECT_EQ(completed_after - completed_before, report.frames_completed);

  // Layer profiles: every worker that ran frames contributed rows whose
  // run totals line up with per-node execution.
  ASSERT_FALSE(report.layer_profiles.empty());
  std::uint64_t profiled_runs = 0;
  for (const ev::WorkerLayerProfile& wp : report.layer_profiles) {
    for (const eo::NodeRouteProfile& row : wp.nodes) profiled_runs += row.runs;
  }
  EXPECT_GT(profiled_runs, 0u);

  // Per-stream labeled series advanced alongside the report, and the
  // per-worker layer means were exported as evedge_layer_ns series with
  // node/route/worker labels.
  eo::MetricsRegistry& global = eo::MetricsRegistry::global();
  eo::LabeledCounter& stream_frames =
      global.labeled_counter("evedge_stream_frames_total");
  std::uint64_t labeled_completed = 0;
  for (std::size_t s = 0; s < report.streams.size(); ++s) {
    labeled_completed += stream_frames
                             .at({{"stream", std::to_string(s)},
                                  {"outcome", "completed"}})
                             .value();
  }
  EXPECT_GE(labeled_completed, report.frames_completed);
  EXPECT_GT(global.labeled_gauge("evedge_layer_ns").series_count(), 0u);
  const std::string prom = global.prometheus_text();
  const std::size_t layer_pos = prom.find("evedge_layer_ns{");
  ASSERT_NE(layer_pos, std::string::npos);
  const std::string layer_line =
      prom.substr(layer_pos, prom.find('\n', layer_pos) - layer_pos);
  EXPECT_NE(layer_line.find("node="), std::string::npos);
  EXPECT_NE(layer_line.find("route="), std::string::npos);
  EXPECT_NE(layer_line.find("worker="), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(ServeObservability, FrameLineageReconstructsJourney) {
  // One frame's journey must be reconstructable from its (stream, seq)
  // lineage args alone, and the hop durations must tile the measured
  // enqueue -> inference-complete latency: queue.wait, collate.wait and
  // frame.inference are contiguous by construction (one clock read ends
  // each hop and starts the next, the batch handoff included), so the
  // sum lands within one latency-histogram bucket of the wall.
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;

  const std::string trace_path = temp_path("lineage_trace") + ".json";
  ev::ServeConfig config;
  config.n_workers = 2;
  config.queue_capacity = 32;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.obs.trace = true;
  config.obs.trace_path = trace_path;
  config.obs.trace_ring_capacity = 1u << 16;
  ev::ServingRuntime runtime(spec, 7, config);

  std::vector<ee::EventStream> streams;
  streams.push_back(matched_stream(shape.h, shape.w, 150'000, 51));
  streams.push_back(matched_stream(shape.h, shape.w, 150'000, 52));
  const ev::ServeReport report = runtime.run(streams);
  ASSERT_TRUE(report.accounting_ok());
  ASSERT_GT(report.frames_completed, 0u);

  const std::vector<eo::ParsedEvent> events =
      eo::read_chrome_trace(trace_path);
  ASSERT_FALSE(events.empty());

  std::size_t checked = 0;
  for (std::int64_t stream = 0; stream < 2; ++stream) {
    const std::vector<eo::LineageHop> hops =
        eo::frame_lineage(events, stream, 0);
    ASSERT_FALSE(hops.empty()) << "stream " << stream;
    const auto find = [&](const char* cat,
                          const char* name) -> const eo::LineageHop* {
      for (const eo::LineageHop& h : hops) {
        if (h.cat == cat && h.name == name) return &h;
      }
      return nullptr;
    };
    const eo::LineageHop* dispatch = find("ingress", "frame.dispatch");
    const eo::LineageHop* queue_wait = find("queue", "queue.wait");
    const eo::LineageHop* collate = find("queue", "collate.wait");
    const eo::LineageHop* inference = find("worker", "frame.inference");
    const eo::LineageHop* capture = find("serve", "frame.capture");
    ASSERT_NE(dispatch, nullptr);
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(collate, nullptr);
    ASSERT_NE(inference, nullptr);
    ASSERT_NE(capture, nullptr);
    EXPECT_EQ(dispatch->ph, 'i');

    // Hops are ordered and contiguous on one timeline: dispatch <=
    // enqueue, pop continues where the queue wait ended, inference ends
    // past the collate window, capture follows inference.
    EXPECT_LE(dispatch->ts_us, queue_wait->ts_us + 1e-3);
    EXPECT_GE(collate->ts_us + 1e-3, queue_wait->ts_us + queue_wait->dur_us);
    EXPECT_GE(inference->ts_us + inference->dur_us,
              collate->ts_us + collate->dur_us);
    EXPECT_GE(capture->ts_us + 1e-3, inference->ts_us);
    // No gap between hops: each starts where the previous one ended.
    EXPECT_NEAR(collate->ts_us, queue_wait->ts_us + queue_wait->dur_us,
                1e-3);
    EXPECT_NEAR(inference->ts_us, collate->ts_us + collate->dur_us, 1e-3);

    // The tiling contract, in latency-histogram bucket units (the same
    // default options evedge_stream_latency_us uses).
    const double hop_sum_us =
        queue_wait->dur_us + collate->dur_us + inference->dur_us;
    const double wall_us =
        inference->ts_us + inference->dur_us - queue_wait->ts_us;
    EXPECT_LE(hop_sum_us, wall_us + 1e-3);
    const eo::Histogram h{eo::Histogram::Options{}};
    EXPECT_LE(std::abs(h.bucket_index(wall_us) - h.bucket_index(hop_sum_us)),
              1);
    ++checked;
  }
  EXPECT_EQ(checked, 2u);
  std::remove(trace_path.c_str());
}

TEST(ServeObservability, BurnRateAccountsSloExtremes) {
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  streams.push_back(matched_stream(shape.h, shape.w, 150'000, 61));

  ev::ServeConfig config;
  config.n_workers = 1;
  config.queue_capacity = 64;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.obs.metrics = true;

  // A deadline nothing can miss: every completion is in-SLO, the error
  // budget is untouched, the burn gauge reads zero.
  config.slo.deadline_ms = 60'000.0;
  {
    ev::ServingRuntime runtime(spec, 7, config);
    const ev::ServeReport report = runtime.run(streams);
    ASSERT_TRUE(report.accounting_ok());
    ASSERT_GT(report.frames_completed, 0u);
    const ev::StreamServeStats& s = report.streams.front();
    EXPECT_EQ(s.slo_good, report.frames_completed);
    EXPECT_EQ(s.slo_bad, 0u);
    EXPECT_DOUBLE_EQ(s.burn_rate(), 0.0);
    EXPECT_NE(report.describe().find("burn rate 0.00"), std::string::npos);
  }

  // A deadline nothing can meet: every frame is shed, every graded
  // outcome is bad, and burn = bad_fraction / (1 - kSloBurnGoodTarget)
  // saturates at 1/0.01 = 100x the error budget.
  config.slo.deadline_ms = 0.0001;
  {
    ev::ServingRuntime runtime(spec, 7, config);
    const ev::ServeReport report = runtime.run(streams);
    ASSERT_TRUE(report.accounting_ok());
    const ev::StreamServeStats& s = report.streams.front();
    ASSERT_GT(s.slo_bad, 0u);
    EXPECT_GT(s.burn_rate(), 1.0);  // burning through the budget
    if (s.slo_good == 0) {
      EXPECT_DOUBLE_EQ(s.burn_rate(),
                       1.0 / (1.0 - ev::kSloBurnGoodTarget));
    }
    // The labeled gauge carries the same final value the report hands
    // back.
    const double gauge = eo::MetricsRegistry::global()
                             .labeled_gauge("evedge_slo_burn_rate")
                             .at({{"stream", "0"}})
                             .value();
    EXPECT_DOUBLE_EQ(gauge, s.burn_rate());
  }
}

TEST(ServeObservability, WireServingTracesAndCountsSessionHealth) {
  const en::ZooConfig scale{32, 32, 8, 4, 2.0f};
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, scale);

  const std::string trace_path = temp_path("wire_trace") + ".json";
  ev::ServeConfig config;
  config.n_workers = 1;
  config.queue_capacity = 64;
  config.obs.trace = true;
  config.obs.trace_path = trace_path;
  ev::ServingRuntime runtime(spec, 7, config);

  const ee::EventStream stream = matched_stream(32, 32, 150'000, 31);
  ew::TcpListener listener;
  ew::TcpListener* l = &listener;
  const ev::TransportAcceptor acceptor =
      [l](std::chrono::milliseconds timeout) { return l->accept(timeout); };
  const std::uint16_t port = listener.port();
  std::thread tx([&] {
    ew::WireSenderConfig cfg;
    cfg.events_per_packet = 128;
    ew::WireSender sender(stream, cfg, [port] {
      return ew::TcpTransport::connect(port, 2000ms);
    });
    (void)sender.run();
  });

  const ev::ServeReport report =
      runtime.run_wire(std::span<const ev::TransportAcceptor>(&acceptor, 1));
  tx.join();

  EXPECT_TRUE(report.accounting_ok());
  EXPECT_GT(report.frames_completed, 0u);
  // Clean loopback session: the health lanes exist and read zero (they
  // are observability, not part of the accounting partition).
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_EQ(report.streams.front().wire_rewinds, 0u);
  EXPECT_EQ(report.streams.front().wire_resyncs, 0u);
  EXPECT_EQ(report.streams.front().wire_reconnects, 0u);

  const std::vector<eo::ParsedEvent> events =
      eo::read_chrome_trace(trace_path);
  ASSERT_FALSE(events.empty());
  bool saw_ingress = false;
  for (const eo::ParsedEvent& e : events) {
    if (e.cat == "ingress") saw_ingress = true;
  }
  EXPECT_TRUE(saw_ingress);
  std::remove(trace_path.c_str());
}

TEST(ServeObservability, ObsOffLeavesReportShapeUnchanged) {
  // Everything defaults off: no trace events, no layer profiles, and
  // the accounting invariant untouched — the "free when off" contract.
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  ev::ServeConfig config;
  config.n_workers = 1;
  EXPECT_FALSE(config.obs.any());
  ev::ServingRuntime runtime(spec, 7, config);

  std::vector<ee::EventStream> streams;
  streams.push_back(matched_stream(shape.h, shape.w, 100'000, 41));
  eo::Tracer::instance().clear();
  const ev::ServeReport report = runtime.run(streams);
  EXPECT_TRUE(report.accounting_ok());
  EXPECT_TRUE(report.layer_profiles.empty());
  EXPECT_TRUE(eo::Tracer::instance().collect().empty());
}

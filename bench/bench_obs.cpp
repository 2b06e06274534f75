// Observability overhead gate: proves the always-on instrumentation is
// effectively free when tracing is off, and bounded when on. There is
// no uninstrumented binary to compare against (the instrumentation IS
// always compiled in), so the 2% tracing-off budget is gated
// analytically from two same-run measurements:
//
//   disabled-site cost   ns per emitter call with tracing off (one
//                        relaxed atomic load) — microbenched directly
//   events per frame     trace events one served frame emits, counted
//                        from a tracing-on run of the same workload
//
//   overhead  =  events_per_frame x ns_per_site / frame_time   < 2%
//
// plus the direct measurement: serve fps with full observability on
// (tracing + per-node spans + metrics) over fps with everything off.
//
// CI gates the machine-invariant same-run ratios (BENCH_obs.json,
// "obs" schema in check_bench_regression.py):
//
//   disabled_site   steady_clock read cost / disabled-site cost — the
//                   site must stay an order cheaper than a clock read
//   labeled_site    steady_clock read cost / disabled labeled-metric
//                   site cost (one cached-pointer null check) — labeled
//                   instrumentation must stay cheaper than a clock read
//   serve_off       serve fps (obs off) / per-stream serial planned fps
//                   — instrumented serving must keep its concurrency win
//   serve_on        serve fps (full obs on) / serve fps (obs off) —
//                   the price of turning everything on
//
// Usage: bench_obs [output.json] [--json]
//
// --json: machine-readable mode — the JSON document is ALSO written to
// stdout (exactly one document, parse with any JSON reader) and the
// human tables move to stderr. The output file is still written.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

#include "events/density_profile.hpp"
#include "events/event_synth.hpp"
#include "nn/zoo.hpp"
#include "obs/trace.hpp"
#include "serve/serving_runtime.hpp"

namespace ee = evedge::events;
namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace ev = evedge::serve;
namespace obs = evedge::obs;

namespace {

constexpr int kWorkers = 2;
constexpr int kStreams = 4;
constexpr ee::TimeUs kDuration = 1'000'000;
constexpr double kOffBudgetPct = 2.0;  ///< tracing-off overhead ceiling

/// Labeled-metric sites a served frame crosses when metrics are OFF:
/// the ingress dispatch counter (a cached-pointer null check) and the
/// runtime's outcome record, which checks once whether the run has any
/// registry series and then skips every metric of the outcome. 8 is
/// deliberately ~4x the real count, so the gate holds margin for future
/// sites.
constexpr double kLabeledSitesPerFrame = 8.0;

/// Human tables land here: stdout normally, stderr under --json (stdout
/// then carries exactly one JSON document).
std::FILE* g_table = stdout;

[[nodiscard]] ee::EventStream make_stream(int h, int w, std::uint64_t seed) {
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{w, h};
  cfg.seed = seed;
  cfg.blob_count = 4;
  cfg.background_weight = 0.3;
  const ee::DensityProfile profile("obs-band", 3.2, {}, 1.2, 0.5);
  return ee::PoissonEventSynthesizer(profile, cfg).generate(0, kDuration);
}

/// ns per call of a disabled emitter (the hot-path cost every
/// instrumentation site pays when tracing is off). Arguments vary per
/// iteration so the loop cannot fold.
[[nodiscard]] double disabled_site_ns(std::size_t iters) {
  obs::Tracer::set_enabled(false);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    obs::Tracer::instant("bench", "disabled", "i",
                         static_cast<std::int64_t>(i));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

/// Keeps the clock-read loop from being optimized away.
volatile std::uint64_t g_clock_sink = 0;

/// The disabled labeled-metric site: the runtime resolves each series
/// up front and hands the hot path a pointer that is null when metrics
/// are off, so a site costs one load + branch. The pointer is volatile
/// so every iteration performs the real load.
evedge::obs::Counter* volatile g_labeled_series = nullptr;
volatile std::uint64_t g_site_sink = 0;

/// ns per disabled labeled-metric site (null cached-series pointer
/// check — see IngressBase::attach_runtime). The loop is a few
/// instructions long, so its cost doubles when the linker happens to
/// place it across a 32-byte fetch boundary; the 64-byte function
/// alignment pins its placement so the ratio tracks the site, not the
/// binary's layout.
[[nodiscard, gnu::aligned(64)]] double labeled_site_ns(std::size_t iters) {
  std::uint64_t live = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    evedge::obs::Counter* series = g_labeled_series;
    if (series != nullptr) {
      series->add();
    } else {
      live += i;  // keep the not-taken branch from folding away
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  g_site_sink = live;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

/// ns per steady_clock::now() — the natural yardstick: a disabled site
/// must cost well under one clock read (an enabled span pays two).
[[nodiscard]] double clock_read_ns(std::size_t iters) {
  std::uint64_t acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    acc += static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
  const auto t1 = std::chrono::steady_clock::now();
  g_clock_sink = acc;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

struct ObsRecord {
  std::string probe;
  std::string network;
  int streams = 0;
  double ratio = 0.0;
  std::string detail;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_obs.json";
  bool json_stdout = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json_stdout = true;
    } else {
      out_path = argv[i];
    }
  }
  if (json_stdout) g_table = stderr;
  std::vector<ObsRecord> records;
  bool ok = true;

  // --- Probe 1: the disabled hot paths. ------------------------------
  constexpr std::size_t kIters = 1u << 22;
  (void)disabled_site_ns(kIters / 16);  // warmup
  const double site_ns = disabled_site_ns(kIters);
  const double clock_ns = clock_read_ns(kIters / 4);
  const double site_vs_clock = site_ns > 0.0 ? clock_ns / site_ns : 1e9;
  std::fprintf(g_table,
               "disabled site: %.2f ns/call, steady_clock read: %.2f ns "
               "(site is %.1fx cheaper)\n",
               site_ns, clock_ns, site_vs_clock);
  records.push_back(ObsRecord{
      "disabled_site", "", 0, site_vs_clock,
      "clock_ns / disabled_site_ns, both same-run microbenches"});

  (void)labeled_site_ns(kIters / 16);  // warmup
  const double lsite_ns = labeled_site_ns(kIters);
  const double lsite_vs_clock = lsite_ns > 0.0 ? clock_ns / lsite_ns : 1e9;
  std::fprintf(g_table,
               "labeled site: %.2f ns/call (null series-pointer check, "
               "%.1fx cheaper than a clock read)\n",
               lsite_ns, lsite_vs_clock);
  records.push_back(ObsRecord{
      "labeled_site", "", 0, lsite_vs_clock,
      "clock_ns / labeled_site_ns, both same-run microbenches"});

  // --- Probe 2/3: serving with observability off vs fully on. --------
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig{96, 128, 16, 5, 2.0f});
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;

  ev::ServeConfig config;
  config.n_workers = kWorkers;
  config.kernel_threads = 1;
  config.queue_capacity = 64;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.worker.collator.max_batch = 8;
  config.worker.collator.max_wait_us = 3000;

  std::vector<ee::EventStream> streams;
  std::vector<std::vector<es::SparseFrame>> frames;
  std::size_t total_frames = 0;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(make_stream(shape.h, shape.w,
                                  100 + static_cast<std::uint64_t>(s)));
    frames.push_back(
        ev::ServingRuntime::ingest(streams.back(), config.ingress));
    total_frames += frames.back().size();
  }

  ev::ServingRuntime runtime_off(spec, 7, config);
  ev::ServeConfig config_on = config;
  config_on.obs.trace = true;
  config_on.obs.trace_nodes = true;
  config_on.obs.metrics = true;
  config_on.obs.layer_profiles = true;
  config_on.obs.trace_ring_capacity = 1u << 17;  // count, don't drop
  ev::ServingRuntime runtime_on(spec, 7, config_on);

  // Serial reference (planner on, same worker budget inside kernels):
  // the denominator that makes serve_off machine-invariant.
  const auto serial = runtime_off.run_serial(frames, true);
  (void)runtime_off.run(streams);  // warmup both paths
  const ev::ServeReport off = runtime_off.run(streams);
  const ev::ServeReport on = runtime_on.run(streams);
  const std::vector<obs::TraceEvent> events =
      obs::Tracer::instance().collect();
  const std::uint64_t dropped = obs::Tracer::instance().dropped();

  const double fps_serial = serial.frames_per_second();
  const double fps_off = off.frames_per_second();
  const double fps_on = on.frames_per_second();
  const double serve_off_ratio =
      fps_serial > 0.0 ? fps_off / fps_serial : 0.0;
  const double serve_on_ratio = fps_off > 0.0 ? fps_on / fps_off : 0.0;
  std::fprintf(g_table,
               "serve: serial %.1f fps, obs-off %.1f fps, obs-on %.1f fps "
               "(on/off %.3f)\n",
               fps_serial, fps_off, fps_on, serve_on_ratio);
  records.push_back(ObsRecord{"serve_off", spec.name, kStreams,
                              serve_off_ratio,
                              "serve fps (obs off) / serial planned fps"});
  records.push_back(ObsRecord{"serve_on", spec.name, kStreams,
                              serve_on_ratio,
                              "serve fps (full obs) / serve fps (obs off)"});

  // --- The analytic tracing-off gate. --------------------------------
  const double events_per_frame =
      on.frames_completed > 0
          ? static_cast<double>(events.size() + dropped) /
                static_cast<double>(on.frames_completed)
          : 0.0;
  const double frame_time_ns =
      fps_off > 0.0 ? 1e9 / fps_off : 1e18;
  const double off_overhead_pct =
      100.0 * events_per_frame * site_ns / frame_time_ns;
  std::fprintf(
      g_table,
      "events/frame %.1f (%zu events, %llu dropped), frame time "
      "%.2f ms -> tracing-off overhead %.4f%% (budget %.1f%%)\n",
      events_per_frame, events.size(),
      static_cast<unsigned long long>(dropped), frame_time_ns / 1e6,
      off_overhead_pct, kOffBudgetPct);
  if (off_overhead_pct >= kOffBudgetPct) {
    std::fprintf(stderr,
                 "OBS GATE FAILED: disabled instrumentation costs "
                 "%.3f%% of a frame (budget %.1f%%)\n",
                 off_overhead_pct, kOffBudgetPct);
    ok = false;
  }
  const double labeled_off_pct =
      100.0 * kLabeledSitesPerFrame * lsite_ns / frame_time_ns;
  std::fprintf(g_table,
               "labeled sites/frame %.0f x %.2f ns -> metrics-off "
               "overhead %.4f%% (budget %.1f%%)\n",
               kLabeledSitesPerFrame, lsite_ns, labeled_off_pct,
               kOffBudgetPct);
  if (labeled_off_pct >= kOffBudgetPct) {
    std::fprintf(stderr,
                 "OBS GATE FAILED: disabled labeled metrics cost "
                 "%.3f%% of a frame (budget %.1f%%)\n",
                 labeled_off_pct, kOffBudgetPct);
    ok = false;
  }
  if (on.frames_completed != total_frames ||
      off.frames_completed != total_frames) {
    std::fprintf(stderr,
                 "OBS GATE FAILED: frame loss under kBlock (off %zu, on "
                 "%zu, expected %zu)\n",
                 off.frames_completed, on.frames_completed, total_frames);
    ok = false;
  }
  if (events.empty()) {
    std::fprintf(stderr, "OBS GATE FAILED: tracing-on run emitted no "
                         "events\n");
    ok = false;
  }
  if (on.layer_profiles.empty()) {
    std::fprintf(stderr, "OBS GATE FAILED: layer profiles missing from "
                         "the obs-on report\n");
    ok = false;
  }

  const auto write_json_to = [&](std::FILE* f) {
    std::fprintf(f,
                 "{\n  \"threads\": %d,\n  \"scale\": \"96x128 base16, "
                 "%d streams, worker budget %d\",\n"
                 "  \"disabled_site_ns\": %.3f,\n"
                 "  \"labeled_site_ns\": %.3f,\n"
                 "  \"events_per_frame\": %.2f,\n"
                 "  \"tracing_off_overhead_pct\": %.5f,\n"
                 "  \"labeled_off_overhead_pct\": %.5f,\n"
                 "  \"results\": [\n",
                 kWorkers, kStreams, kWorkers, site_ns, lsite_ns,
                 events_per_frame, off_overhead_pct, labeled_off_pct);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const ObsRecord& r = records[i];
      std::fprintf(
          f,
          "    {\"obs\": \"%s\", \"network\": \"%s\", "
          "\"streams\": %d, \"ratio\": %.4f, \"detail\": \"%s\"}%s\n",
          r.probe.c_str(), r.network.c_str(), r.streams, r.ratio,
          r.detail.c_str(), i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
  };
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  write_json_to(f);
  std::fclose(f);
  std::fprintf(g_table, "wrote %s\n", out_path.c_str());
  if (json_stdout) write_json_to(stdout);
  return ok ? 0 : 1;
}

// evbench: the serving benchmark. One invocation serves one workload
// (benchmark/README.md lists them) and prints, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The full result document (every metric, the operations
// ledger, the gates and the trace path) goes to --out.
//
//   evbench --workload W [--seed S] [--seconds T] [--trace 0|1]
//           [--out F] [--trace-file P] [--smoke]
//
// Order of work: synthesize the camera streams from --seed on this
// thread; set up (open-loop runtime construction plus a warm-up run over
// a 0.1 s prefix) three times; serve the workload's timed reps, paced
// phase first, with capture and tracing off; serve one parity run (with
// tracing and layer profiles under --trace 1) and check every 8th
// (stream, seq) output bitwise against the all-dense serial reference.
// Exits 1 when a gate fails (parity, ledger, lost frames, paced queue
// saturation, too few latency samples).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace {

using namespace evbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 0.1;
constexpr double kOntimeMs = 50.0;
constexpr std::size_t kMinLatencySamples = 1000;
constexpr std::size_t kParityStride = 8;

// The metric names of BENCHMARK.json, in its order; the smoke run
// checks the printed result line against that file.
constexpr const char* kEndToEnd[] = {
    "throughput_fps", "throughput_mev_s", "latency_p50_ms", "setup_s",
    "run_mem_mb"};
constexpr const char* kPerLayer[] = {
    "core.e2sf.ns_per_event",  "core.dsfa.us_per_frame",
    "core.adapt.us_per_frame", "core.dsfa.merge_factor",
    "nn.batch1_ms",            "nn.batch8_ms",
    "nn.node.00.ms",           "nn.node.slowest_ms",
    "nn.sparse_node_frac",     "nn.boundaries_per_frame",
    "nn.outside_nodes_ms",     "nn.calibrate_ms",
    "nn.clone_ms",             "nn.clone_mb",
    "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99",
    "serve.collate_wait_ms.p50", "serve.inference_ms.p50",
    "serve.capture_ms.p50",    "serve.untraced_ms.p50",
    "serve.mean_batch",        "serve.worker_busy_frac",
    "serve.queue_peak_depth",  "serve.queue_mean_depth",
    "serve.recalibrations",    "serve.overrun_ms",
    "obs.trace_overhead_frac"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_file;
};

/// Frames admitted and lost over every run of the invocation.
struct Ledger {
  std::size_t enqueued = 0;
  std::size_t lost = 0;
  bool accounting_ok = true;

  void add(const esv::ServeReport& r) {
    for (const esv::StreamServeStats& s : r.streams) enqueued += s.enqueued;
    lost += r.frames_dropped + r.frames_shed + r.frames_failed;
    accounting_ok = accounting_ok && r.accounting_ok();
  }
};

/// One stream window every camera serves in a rep.
struct Window {
  std::vector<ev::EventStream> streams;
  double events = 0.0;   ///< input events over every camera
  double span_ms = 0.0;  ///< longest camera's event span
};

struct Rep {
  esv::ServeReport report;
  const Window* window = nullptr;
  double wall_s = 0.0;  ///< bench-timed wall of run()
  double mem_mb = 0.0;  ///< heap peak during run() over the heap before it
};

struct Phase {
  const char* name;
  double pace;      ///< 0 = open loop
  int min_reps;     ///< reps always served
  double budget_s;  ///< then whole passes until this much wall is spent
  std::vector<Rep> reps;
};

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] Rep timed_rep(esv::ServingRuntime& runtime,
                            const Window& window) {
  const double live_mb = heap_live_mb();
  reset_heap_peak();
  const Clock::time_point t0 = Clock::now();
  Rep rep{runtime.run(window.streams), &window, 0.0, 0.0};
  rep.wall_s = seconds_since(t0);
  rep.mem_mb = heap_peak_mb() - live_mb;
  return rep;
}

[[nodiscard]] double busy_ms_per_frame(const esv::ServeReport& r) {
  double busy = 0.0;
  std::size_t samples = 0;
  for (const esv::WorkerServeStats& w : r.workers) {
    busy += w.busy_ms;
    samples += w.samples;
  }
  return samples > 0 ? busy / static_cast<double>(samples) : 0.0;
}

template <typename Fn>
[[nodiscard]] std::vector<double> over_reps(const Phase& p, Fn fn) {
  std::vector<double> v;
  for (const Rep& r : p.reps) v.push_back(fn(r));
  return v;
}

[[nodiscard]] std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} over `names`, or over every
/// metric when `names` is empty.
[[nodiscard]] std::string metrics_json(const Metrics& m,
                                       std::span<const char* const> names,
                                       const char* separator) {
  std::string s = "{";
  const auto emit = [&](const std::string& name, const Metric& metric) {
    if (s.size() > 1) s += separator;
    s += '"';
    s += name;
    s += "\": {\"value\": ";
    s += number(metric.value);
    s += ", \"unit\": \"";
    s += metric.unit;
    s += "\"}";
  };
  if (names.empty()) {
    for (const auto& [name, metric] : m) emit(name, metric);
  } else {
    for (const char* name : names) emit(name, m.at(name));
  }
  s += '}';
  return s;
}

[[nodiscard]] std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c < 0x20 ? ' ' : c;
  }
  return out;
}

[[nodiscard]] bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out" && has_value) {
      o.out = argv[++i];
    } else if (a == "--trace-file" && has_value) {
      o.trace_file = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0 && o.seconds <= 600.0;
}

int run(const Workload& w, const Options& opt) {
  const double scale = opt.seconds / kDefaultSeconds;
  const enn::NetworkSpec spec = network_spec(w);
  std::vector<std::string> gate_failures;
  Ledger ledger;

  // Inputs: synthesized up front from --seed, on this thread.
  const std::vector<ev::EventStream> streams =
      synthesize(w, w.stream_s * scale, opt.seed);
  const std::vector<ev::EventStream> warm =
      slices(streams, 0.0, kWarmupSeconds);
  const std::vector<ev::EventStream> parity_streams =
      slices(streams, 0.0, std::max(kWarmupSeconds, w.parity_s * scale));
  std::vector<Window> windows(static_cast<std::size_t>(w.windows));
  const double window_s = w.stream_s * scale / w.windows;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    Window& win = windows[i];
    win.streams = slices(streams, static_cast<double>(i) * window_s,
                         static_cast<double>(i + 1) * window_s);
    for (const ev::EventStream& s : win.streams) {
      win.events += static_cast<double>(s.size());
      win.span_ms =
          std::max(win.span_ms, static_cast<double>(s.duration()) / 1e3);
    }
  }

  std::vector<Phase> phases;
  if (w.latency_reps > 0) {
    phases.push_back({"latency", 1.0, w.latency_reps, 0.0, {}});
  }
  if (w.throughput_s > 0.0) {
    // The open-loop phase is timed by wall, not by work, so a slow host
    // serves fewer passes instead of running long. A smoke run keeps
    // every paced rep (the latency-sample gate needs them) but serves
    // one open-loop pass.
    phases.push_back({"throughput", 0.0, w.windows,
                      opt.smoke ? 0.0 : w.throughput_s * scale, {}});
  }
  // Latency comes from the paced phase and throughput from the open-loop
  // one; a workload with one phase reads both from it.
  const Phase& latency_phase = phases.front();
  const Phase& throughput_phase = phases.back();

  // Setup: open-loop construction plus a warm-up run, kSetups times (once
  // in a smoke run), so no pacing sleep counts as set-up work.
  std::vector<double> setup_s;
  std::unique_ptr<esv::ServingRuntime> open_loop;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    open_loop.reset();
    const Clock::time_point t0 = Clock::now();
    open_loop = std::make_unique<esv::ServingRuntime>(spec, kWeightSeed,
                                                      serve_config(0.0));
    ledger.add(open_loop->run(warm));
    setup_s.push_back(seconds_since(t0));
  }

  for (Phase& phase : phases) {
    std::unique_ptr<esv::ServingRuntime> paced;
    if (phase.pace > 0.0) {
      paced = std::make_unique<esv::ServingRuntime>(spec, kWeightSeed,
                                                    serve_config(phase.pace));
      ledger.add(paced->run(warm));
    }
    esv::ServingRuntime& runtime = paced ? *paced : *open_loop;
    const Clock::time_point phase_t0 = Clock::now();
    for (std::size_t r = 0;
         r < static_cast<std::size_t>(phase.min_reps) ||
         r % windows.size() != 0 || seconds_since(phase_t0) < phase.budget_s;
         ++r) {
      phase.reps.push_back(timed_rep(runtime, windows[r % windows.size()]));
      const esv::ServeReport& rep = phase.reps.back().report;
      ledger.add(rep);
      std::fprintf(stderr, "  %s rep %zu: %zu frames in %.3f s, p50 %.2f ms\n",
                   phase.name, r, rep.frames_completed,
                   phase.reps.back().wall_s, rep.percentile_us(0.5) / 1e3);
      if (phase.pace > 0.0 && rep.queue_peak_depth >= kQueueCapacity) {
        gate_failures.push_back(
            std::string(phase.name) +
            " phase: queue reached capacity, so paced latency is invalid");
      }
    }
  }
  open_loop.reset();

  // Parity (+ traced) run over a prefix, at the latency phase's pace
  // when traced so the hops explain that phase.
  esv::ServeConfig pc = serve_config(opt.trace ? latency_phase.pace : 0.0);
  pc.capture_outputs = true;
  pc.obs.trace = opt.trace;
  pc.obs.layer_profiles = opt.trace;
  esv::ServingRuntime parity_runtime(spec, kWeightSeed, pc);
  const esv::ServeReport parity_report = parity_runtime.run(parity_streams);
  ledger.add(parity_report);
  std::vector<evedge::obs::TraceEvent> runtime_events;
  if (opt.trace) runtime_events = evedge::obs::Tracer::instance().collect();

  std::vector<std::vector<es::SparseFrame>> frames;
  std::vector<std::vector<es::SparseFrame>> checked(parity_streams.size());
  std::vector<std::vector<std::int64_t>> checked_seq(parity_streams.size());
  std::size_t pair_index = 0;
  for (std::size_t s = 0; s < parity_streams.size(); ++s) {
    frames.push_back(esv::ServingRuntime::ingest(parity_streams[s], pc.ingress));
    for (std::size_t i = 0; i < frames[s].size(); ++i, ++pair_index) {
      if (pair_index % kParityStride != 0) continue;
      checked[s].push_back(frames[s][i]);
      checked_seq[s].push_back(static_cast<std::int64_t>(i));
    }
  }
  std::size_t parity_checked = 0;
  std::size_t parity_mismatches = 0;
  {
    const int previous = evedge::core::set_parallel_threads(1);
    const esv::ServingRuntime::SerialResult reference =
        parity_runtime.run_serial(checked, false);
    evedge::core::set_parallel_threads(previous);
    for (std::size_t s = 0; s < checked.size(); ++s) {
      for (std::size_t k = 0; k < checked[s].size(); ++k) {
        ++parity_checked;
        const es::DenseTensor* served =
            parity_runtime.output(static_cast<int>(s), checked_seq[s][k]);
        const es::DenseTensor& want = reference.outputs[s][k];
        if (served == nullptr || !(served->shape() == want.shape()) ||
            std::memcmp(served->raw(), want.raw(),
                        want.size() * sizeof(float)) != 0) {
          ++parity_mismatches;
        }
      }
    }
  }

  // ---- End-to-end metrics.
  Metrics m;
  // Throughput is a median over passes, a pass being consecutive reps
  // that serve every window once: windows differ in load, so a median
  // over single reps would jump between them.
  std::vector<double> fps;
  std::vector<double> mev;
  const std::vector<Rep>& reps = throughput_phase.reps;
  for (std::size_t i = 0; i + windows.size() <= reps.size();
       i += windows.size()) {
    double completed = 0.0;
    double events = 0.0;
    double wall_s = 0.0;
    for (std::size_t k = i; k < i + windows.size(); ++k) {
      completed += static_cast<double>(reps[k].report.frames_completed);
      events += reps[k].window->events;
      wall_s += reps[k].wall_s;
    }
    fps.push_back(completed / wall_s);
    mev.push_back(events / wall_s / 1e6);
  }
  esv::LatencyReservoir pooled;
  std::size_t latency_enqueued = 0;
  for (const Rep& r : latency_phase.reps) {
    for (const esv::StreamServeStats& s : r.report.streams) {
      pooled.merge(s.latency);
      latency_enqueued += s.enqueued;
    }
  }
  m["throughput_fps"] = {median(fps), "frames/s"};
  m["throughput_mev_s"] = {median(mev), "Mevents/s"};
  m["latency_p50_ms"] = {pooled.percentile_us(0.50) / 1e3, "ms"};
  m["latency_p99_ms"] = {pooled.percentile_us(0.99) / 1e3, "ms"};
  m["setup_s"] = {median(setup_s), "s"};
  m["run_mem_mb"] = {
      median(over_reps(throughput_phase,
                       [](const Rep& r) { return r.mem_mb; })),
      "MB"};
  // Reported alongside, outside BENCHMARK.json's list.
  m["throughput_fps.min"] = {quantile(fps, 0.0), "frames/s"};
  m["throughput_fps.max"] = {quantile(fps, 1.0), "frames/s"};
  m["setup_s.min"] = {quantile(setup_s, 0.0), "s"};
  m["setup_s.max"] = {quantile(setup_s, 1.0), "s"};
  m["ontime_ratio"] = {
      latency_enqueued > 0
          ? pooled.fraction_below_us(kOntimeMs * 1e3) *
                static_cast<double>(pooled.count()) /
                static_cast<double>(latency_enqueued)
          : 0.0,
      "fraction"};
  m["latency_samples"] = {static_cast<double>(pooled.count()), "count"};
  m["parity_mismatches"] = {static_cast<double>(parity_mismatches), "count"};
  m["parity_checked"] = {static_cast<double>(parity_checked), "count"};

  // ---- Per-layer metrics (traced invocations only).
  SpanLog log;
  if (opt.trace) {
    for (auto& [name, metric] : serving_span_metrics(runtime_events,
                                                     parity_report)) {
      m[name] = metric;
    }
    for (auto& [name, metric] :
         replay_layers(spec, parity_streams.front(), frames.front(), pc, log)) {
      m[name] = metric;
    }
    m["serve.mean_batch"] = {
        median(over_reps(latency_phase,
                         [](const Rep& r) { return r.report.mean_batch(); })),
        "count"};
    m["serve.worker_busy_frac"] = {
        median(over_reps(latency_phase,
                         [](const Rep& r) {
                           double busy = 0.0;
                           for (const auto& wk : r.report.workers) {
                             busy += wk.busy_ms;
                           }
                           return busy /
                                  (static_cast<double>(r.report.workers.size()) *
                                   r.wall_s * 1e3);
                         })),
        "fraction"};
    m["serve.queue_peak_depth"] = {
        median(over_reps(latency_phase,
                         [](const Rep& r) {
                           return static_cast<double>(
                               r.report.queue_peak_depth);
                         })),
        "count"};
    m["serve.queue_mean_depth"] = {
        median(over_reps(latency_phase,
                         [](const Rep& r) {
                           return r.report.queue_mean_depth;
                         })),
        "count"};
    m["serve.recalibrations"] = {
        median(over_reps(latency_phase,
                         [](const Rep& r) {
                           double n = 0.0;
                           for (const auto& wk : r.report.workers) {
                             n += static_cast<double>(wk.recalibrations);
                           }
                           return n;
                         })),
        "count"};
    // Lateness against the sensor clock: for a paced phase the
    // generator's lateness, for an open-loop one the lag behind 1x.
    const double pace = latency_phase.pace > 0.0 ? latency_phase.pace : 1.0;
    m["serve.overrun_ms"] = {
        median(over_reps(latency_phase,
                         [&](const Rep& r) {
                           return r.wall_s * 1e3 - r.window->span_ms / pace;
                         })),
        "ms"};
    m["obs.trace_overhead_frac"] = {
        busy_ms_per_frame(parity_report) /
                median(over_reps(latency_phase,
                                 [](const Rep& r) {
                                   return busy_ms_per_frame(r.report);
                                 })) -
            1.0,
        "fraction"};
  }

  // ---- Gates.
  if (parity_mismatches > 0 || parity_checked == 0) {
    gate_failures.push_back(std::to_string(parity_mismatches) + " of " +
                            std::to_string(parity_checked) +
                            " checked outputs differ from run_serial");
  }
  if (!ledger.accounting_ok) gate_failures.push_back("ledger does not balance");
  if (ledger.lost > 0) {
    gate_failures.push_back(std::to_string(ledger.lost) + " frames lost");
  }
  const std::size_t min_samples = opt.smoke ? kMinLatencySamples / 10
                                            : kMinLatencySamples;
  if (latency_phase.pace > 0.0 && pooled.count() < min_samples) {
    gate_failures.push_back("only " + std::to_string(pooled.count()) +
                            " latency samples");
  }
  for (const auto& [name, metric] : m) {
    if (!std::isfinite(metric.value)) {
      gate_failures.push_back("metric " + name + " is not finite");
    }
  }
  const bool correct = gate_failures.empty();

  std::string trace_path;
  if (opt.trace) {
    trace_path = opt.trace_file.empty()
                     ? std::string(w.name) + ".trace.json"
                     : opt.trace_file;
    if (!write_trace(trace_path, runtime_events, log)) {
      std::fprintf(stderr, "evbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  if (!opt.out.empty()) {
    std::ofstream out(opt.out, std::ios::trunc);
    out << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": "
        << opt.seed << ",\n  \"seconds\": " << number(opt.seconds)
        << ",\n  \"trace\": " << (opt.trace ? 1 : 0)
        << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
        << ",\n  \"network\": \"" << spec.name << "\",\n  \"cameras\": "
        << w.cameras << ",\n  \"geometry\": \"" << w.height << "x" << w.width
        << "\",\n  \"phases\": [";
    for (std::size_t p = 0; p < phases.size(); ++p) {
      out << (p > 0 ? ", " : "") << "{\"name\": \"" << phases[p].name
          << "\", \"pace\": " << number(phases[p].pace) << ", \"reps\": "
          << phases[p].reps.size() << "}";
    }
    out << "],\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"gate_failures\": [";
    for (std::size_t i = 0; i < gate_failures.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\"" << escape(gate_failures[i]) << "\"";
    }
    out << "],\n  \"frames_enqueued\": " << ledger.enqueued
        << ",\n  \"frames_lost\": " << ledger.lost << ",\n  \"trace_path\": \""
        << escape(trace_path) << "\",\n  \"metrics\": "
        << metrics_json(m, {}, ",\n    ") << "\n}\n";
    if (!out) {
      std::fprintf(stderr, "evbench: cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }

  for (const std::string& f : gate_failures) {
    std::fprintf(stderr, "evbench: gate failed: %s\n", f.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", ledger.enqueued,
      ledger.lost + parity_mismatches,
      metrics_json(m, opt.trace ? std::span<const char* const>(kPerLayer)
                                : std::span<const char* const>(kEndToEnd),
                   ", ")
          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: evbench --workload W [--seed S] [--seconds T] "
                 "[--trace 0|1] [--out F] [--trace-file P] [--smoke]\n");
    return 2;
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "evbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  try {
    return run(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evbench: %s\n", e.what());
    return 1;
  }
}

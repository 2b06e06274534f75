#include "serve/serving_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/batch_executor.hpp"
#include "core/parallel.hpp"
#include "nn/exec_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

namespace evedge::serve {

using sparse::DenseTensor;

namespace {

[[nodiscard]] std::uint64_t capture_key(int stream_id,
                                        std::int64_t seq) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(stream_id))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(seq));
}

/// Brackets one run's tracing: installs the ring capacity, clears stale
/// events, enables on construction; disables and (optionally) exports
/// the Chrome trace on destruction — exception-safe, so a failing run
/// still leaves the tracer off and the partial trace on disk.
class ScopedTracing {
 public:
  explicit ScopedTracing(const ObsConfig& obs_config)
      : active_(obs_config.trace || obs_config.trace_nodes),
        trace_path_(obs_config.trace_path) {
    if (!active_) return;
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_ring_capacity(obs_config.trace_ring_capacity);
    tracer.clear();
    obs::Tracer::set_enabled(true);
  }
  ~ScopedTracing() {
    if (!active_) return;
    obs::Tracer::set_enabled(false);
    if (!trace_path_.empty()) {
      const std::vector<obs::TraceEvent> events =
          obs::Tracer::instance().collect();
      (void)obs::write_chrome_trace_file(trace_path_, events);
    }
  }
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

 private:
  bool active_;
  std::string trace_path_;
};

/// Restores the previous process-wide kernel-thread override on exit.
class ScopedKernelThreads {
 public:
  explicit ScopedKernelThreads(int count)
      : active_(count > 0),
        previous_(active_ ? core::set_parallel_threads(count) : 0) {}
  ~ScopedKernelThreads() {
    if (active_) core::set_parallel_threads(previous_);
  }
  ScopedKernelThreads(const ScopedKernelThreads&) = delete;
  ScopedKernelThreads& operator=(const ScopedKernelThreads&) = delete;

 private:
  bool active_;
  int previous_;
};

/// One set of outcome series in the registry: the unlabeled run totals,
/// or one stream's labeled ones.
struct OutcomeSeries {
  obs::Counter* completed = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* failed = nullptr;
  obs::Histogram* latency = nullptr;

  void count(FrameFault fault, double latency_us) const {
    if (fault == FrameFault::kNone) {
      completed->add();
      latency->observe(latency_us);
    } else if (is_shed_fault(fault)) {
      shed->add();
    } else {
      failed->add();
    }
  }
};

/// One stream's registry series, resolved once per run.
struct StreamSeries {
  OutcomeSeries outcomes;
  obs::Counter* enqueued = nullptr;
  obs::Counter* dropped = nullptr;
  obs::Gauge* burn = nullptr;
};

/// The run's outcome record: one StreamServeStats per stream, plus the
/// run-wide completion latencies while the latency trigger is armed.
/// record() is its one writer, and in the same call it mirrors the
/// outcome into the registry from the same values, so the report, the
/// scrape, the burn gauge, the trace counter and the latency trigger
/// all read one source. Not synchronized itself: every call runs under
/// the runtime's sink mutex, except the assembly-time reads after all
/// threads joined.
class OutcomeRecord {
 public:
  OutcomeRecord(std::size_t streams, const SloConfig& slo, bool metrics)
      : deadline_us_(slo.deadline_ms * 1e3),
        keep_completions_(slo.degrade && slo.latency_high_ms > 0.0),
        streams_(streams) {
    if (!metrics) return;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    total_.completed = &registry.counter("evedge_frames_completed_total",
                                         "Frames through inference");
    total_.shed = &registry.counter("evedge_frames_shed_total",
                                    "SLO-stale frames shed before inference");
    total_.failed =
        &registry.counter("evedge_frames_failed_total", "Frames quarantined");
    total_.latency = &registry.histogram(
        "evedge_completion_latency_us", obs::Histogram::Options{},
        "Enqueue-to-completion latency (us)");
    obs::LabeledCounter& enqueued = registry.labeled_counter(
        "evedge_stream_frames_enqueued_total",
        "Merged frames dispatched by ingress, per stream");
    obs::LabeledCounter& frames = registry.labeled_counter(
        "evedge_stream_frames_total",
        "Frame outcomes by stream and outcome class");
    obs::LabeledHistogram& latency = registry.labeled_histogram(
        "evedge_stream_latency_us", obs::Histogram::Options{},
        "Enqueue-to-completion latency (us), per stream");
    obs::LabeledGauge& burn = registry.labeled_gauge(
        "evedge_slo_burn_rate",
        "SLO burn rate per stream over the run (1.0 = error budget "
        "consumed exactly)");
    for (std::size_t i = 0; i < streams; ++i) {
      const std::string id = std::to_string(i);
      const auto outcome = [&](const char* name) {
        return &frames.at({{"stream", id}, {"outcome", name}});
      };
      series_.push_back(StreamSeries{
          {outcome("completed"), outcome("shed"), outcome("failed"),
           &latency.at({{"stream", id}})},
          &enqueued.at({{"stream", id}}),
          outcome("dropped"),
          &burn.at({{"stream", id}})});
    }
  }

  /// Records one frame outcome of `stream_id`: a completion (`fault`
  /// kNone) with its latency, a shed frame, or a failed one (at a
  /// worker or at ingress). Grades it against the deadline when one is
  /// set. The caller holds the sink mutex.
  void record(int stream_id, FrameFault fault, double latency_us) {
    const auto si = static_cast<std::size_t>(stream_id);
    StreamServeStats& s = streams_[si];
    const bool completed = fault == FrameFault::kNone;
    if (completed) {
      ++s.completed;
      s.latency.add(latency_us);
      if (keep_completions_) completions_.add(latency_us);
      obs::Tracer::counter("serve", "frames.completed", ++completed_);
    } else if (is_shed_fault(fault)) {
      ++s.shed;
    } else {
      ++s.failed;
    }
    if (deadline_us_ > 0.0) {
      if (completed && latency_us <= deadline_us_) {
        ++s.slo_good;
      } else {
        ++s.slo_bad;
      }
    }
    if (series_.empty()) return;  // metrics off
    const StreamSeries& m = series_[si];
    total_.count(fault, latency_us);
    m.outcomes.count(fault, latency_us);
    if (deadline_us_ > 0.0) m.burn->set(s.burn_rate());
  }

  [[nodiscard]] const StreamServeStats& stream(std::size_t i) const {
    return streams_[i];
  }
  /// Stream i's dispatch counter (nullptr when metrics are off).
  [[nodiscard]] obs::Counter* enqueued_series(std::size_t i) const {
    return series_.empty() ? nullptr : series_[i].enqueued;
  }
  /// The latency trigger's window: the run's last kSloLatencyWindow
  /// completions, across streams. The caller holds the sink mutex.
  [[nodiscard]] LatencyReservoir latency_window() const {
    return completions_.recent(kSloLatencyWindow);
  }
  /// Report assembly: exports stream i's drop residual, and sets its
  /// burn gauge for the last time, so the final scrape equals the
  /// report.
  void publish_final(std::size_t i, std::size_t dropped) const {
    if (series_.empty()) return;
    series_[i].dropped->add(dropped);
    if (deadline_us_ > 0.0) series_[i].burn->set(streams_[i].burn_rate());
  }

 private:
  double deadline_us_;     ///< 0 = no SLO grading
  bool keep_completions_;  ///< latency trigger armed
  std::vector<StreamServeStats> streams_;
  LatencyReservoir completions_;  ///< run-wide, in completion order
  std::int64_t completed_ = 0;    ///< run-wide completions
  OutcomeSeries total_;
  std::vector<StreamSeries> series_;  ///< empty = metrics off
};

}  // namespace

ServingRuntime::ServingRuntime(nn::NetworkSpec spec, std::uint64_t seed,
                               ServeConfig config)
    : spec_(spec), prototype_(std::move(spec), seed),
      config_(std::move(config)) {
  if (config_.n_workers < 1) {
    throw std::invalid_argument("ServingRuntime: need >= 1 worker");
  }
  // The obs switches that live inside the workers propagate into the
  // worker config here, so every pool built from config_.worker (and
  // every restart clone) carries them.
  if (config_.obs.layer_profiles) config_.worker.profile_layers = true;
  if (config_.obs.trace_nodes) config_.worker.trace_nodes = true;
}

ServeReport ServingRuntime::run(
    std::span<const events::EventStream> streams) {
  if (streams.empty()) {
    throw std::invalid_argument("ServingRuntime: no streams");
  }
  // Surface per-stream problems here, not as a thread-side abort.
  for (const events::EventStream& stream : streams) {
    if (stream.empty()) {
      throw std::invalid_argument("ServingRuntime: empty event stream");
    }
  }
  std::optional<FaultJournal> journal;
  if (!config_.journal_path.empty()) {
    journal.emplace(config_.journal_path);
  }

  FrameQueue queue(config_.queue_capacity, config_.overflow);
  const bool inject = !config_.faults.empty();
  FaultInjector injector(config_.faults);
  std::vector<StreamIngress> ingresses;
  ingresses.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    ingresses.emplace_back(static_cast<int>(i), streams[i],
                           config_.ingress, queue);
    if (inject) ingresses.back().attach_faults(&injector);
  }
  std::vector<IngressBase*> bases;
  bases.reserve(ingresses.size());
  for (StreamIngress& ingress : ingresses) bases.push_back(&ingress);
  return serve_ingresses(bases, queue, inject ? &injector : nullptr,
                         journal.has_value() ? &*journal : nullptr);
}

ServeReport ServingRuntime::run_wire(
    std::span<const TransportAcceptor> acceptors,
    const WireIngressConfig& wire_config) {
  if (acceptors.empty()) {
    throw std::invalid_argument("ServingRuntime: no wire acceptors");
  }
  std::optional<FaultJournal> journal;
  if (!config_.journal_path.empty()) {
    journal.emplace(config_.journal_path);
  }

  FrameQueue queue(config_.queue_capacity, config_.overflow);
  std::vector<WireStreamIngress> ingresses;
  ingresses.reserve(acceptors.size());
  for (std::size_t i = 0; i < acceptors.size(); ++i) {
    ingresses.emplace_back(static_cast<int>(i), config_.ingress,
                           wire_config, queue, acceptors[i]);
  }
  std::vector<IngressBase*> bases;
  bases.reserve(ingresses.size());
  for (WireStreamIngress& ingress : ingresses) bases.push_back(&ingress);
  // Network faults are injected at the transport layer (NetFaultProxy),
  // not through the stream/worker FaultInjector — no injector here.
  return serve_ingresses(bases, queue, nullptr,
                         journal.has_value() ? &*journal : nullptr);
}

ServeReport ServingRuntime::serve_ingresses(
    std::span<IngressBase* const> ingresses, FrameQueue& queue,
    FaultInjector* injector, FaultJournal* journal) {
  report_ = ServeReport{};
  captured_.clear();

  const ObsConfig& obs_config = config_.obs;
  const ScopedTracing tracing_guard(obs_config);
  const bool tracing = obs_config.trace || obs_config.trace_nodes;

  // Run-level gauges, sampled by the snapshotter and the ladder hook
  // (nullptr = metrics off).
  obs::Gauge* g_queue_depth = nullptr;
  obs::Gauge* g_degrade_level = nullptr;
  obs::Gauge* g_queue_dropped = nullptr;
  if (obs_config.metrics) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    g_queue_depth = &registry.gauge("evedge_queue_depth",
                                    "Live frame queue depth");
    g_degrade_level = &registry.gauge("evedge_degrade_level",
                                      "Current degradation ladder level");
    g_queue_dropped = &registry.gauge(
        "evedge_queue_dropped", "Frames displaced by drop-oldest so far");
  }

  // Every frame outcome goes through outcomes.record() under this
  // mutex, which also guards the capture map and the quarantine list.
  std::mutex sink_mutex;
  OutcomeRecord outcomes(ingresses.size(), config_.slo, obs_config.metrics);
  const bool capture = config_.capture_outputs;
  const ResultSink sink = [&](const ReadyFrame& frame,
                              const DenseTensor& batch_output, int lane,
                              double latency_us) {
    // Lineage: the "frame.capture" hop covers the result hand-off —
    // output copy and the locked record below.
    const std::uint64_t cap0 =
        obs::Tracer::enabled() ? obs::now_ns() : 0;
    // The output copy happens outside the lock (each (stream, seq) key
    // is produced exactly once, so only the record and the map
    // mutation need the mutex).
    DenseTensor output;
    if (capture) sparse::copy_sample(batch_output, lane, output);
    {
      const std::lock_guard<std::mutex> lock(sink_mutex);
      outcomes.record(frame.stream_id, FrameFault::kNone, latency_us);
      if (capture) {
        captured_[capture_key(frame.stream_id, frame.seq)] =
            std::move(output);
      }
    }
    if (cap0 != 0) {
      obs::Tracer::span("serve", "frame.capture", cap0, obs::now_ns(),
                        "stream", frame.stream_id, "seq", frame.seq);
    }
  };
  // A frame leaving without a result, from an ingress (admission
  // reject) or a worker (shed, retries spent): recorded and listed in
  // one locked step.
  const FailureSink quarantine = [&](const QuarantinedFrame& q) {
    const std::lock_guard<std::mutex> lock(sink_mutex);
    outcomes.record(q.stream_id, q.fault, 0.0);
    report_.quarantined.push_back(q);
  };
  const FailureSink worker_failure = [&](const QuarantinedFrame& q) {
    if (journal != nullptr) {
      journal->append("quarantine",
                      "stream=" + std::to_string(q.stream_id) +
                          " seq=" + std::to_string(q.seq) +
                          " fault=" + to_string(q.fault) +
                          " action=" +
                          (is_shed_fault(q.fault) ? "shed" : "worker-reject"));
    }
    if (!is_shed_fault(q.fault)) {
      obs::Tracer::instant("serve", "frame.quarantine", "stream",
                           q.stream_id, "seq", q.seq);
    }
    quarantine(q);
  };
  for (std::size_t i = 0; i < ingresses.size(); ++i) {
    ingresses[i]->attach_runtime(quarantine, outcomes.enqueued_series(i),
                                 journal);
  }

  ServeWorkerPool pool(prototype_, config_.n_workers, config_.worker);
  const ScopedKernelThreads kernel_guard(config_.kernel_threads);

  ServeHooks hooks;
  hooks.result = sink;
  hooks.failure = worker_failure;
  hooks.faults = injector;
  hooks.slo = config_.slo;
  DegradationState degrade_state;
  std::optional<DegradationController> controller;
  if (config_.slo.degrade) {
    controller.emplace(config_.slo, queue, degrade_state);
    hooks.degrade = &degrade_state;
    if (journal != nullptr || tracing || obs_config.metrics) {
      controller->set_transition_hook(
          [journal, g_degrade_level](const DegradationTransition& t) {
            if (journal != nullptr) {
              journal->append(
                  "degrade",
                  "from=" + std::to_string(t.from) +
                      " to=" + std::to_string(t.to) +
                      " depth=" + std::to_string(t.queue_depth) +
                      " p99_ms=" + std::to_string(t.p99_ms) +
                      " action=level-change");
            }
            obs::Tracer::instant("serve", "degrade", "from", t.from, "to",
                                 t.to);
            if (g_degrade_level != nullptr) {
              g_degrade_level->set(static_cast<double>(t.to));
            }
          });
    }
  }

  // Periodic metrics exposition: the snapshotter samples the live
  // gauges and rewrites the Prometheus / JSON files on its own thread
  // for the duration of the run.
  std::optional<obs::Snapshotter> snapshotter;
  if (obs_config.metrics && obs_config.snapshot_interval_ms > 0.0 &&
      (!obs_config.snapshot_prom_path.empty() ||
       !obs_config.snapshot_json_path.empty())) {
    snapshotter.emplace(obs::MetricsRegistry::global(),
                        obs_config.snapshot_interval_ms,
                        obs_config.snapshot_prom_path,
                        obs_config.snapshot_json_path);
    snapshotter->set_sample_hook([&queue, &degrade_state, g_queue_depth,
                                  g_degrade_level, g_queue_dropped,
                                  armed = controller.has_value()] {
      if (g_queue_depth != nullptr) {
        g_queue_depth->set(static_cast<double>(queue.depth()));
      }
      if (g_queue_dropped != nullptr) {
        g_queue_dropped->set(static_cast<double>(queue.dropped()));
      }
      if (armed && g_degrade_level != nullptr) {
        g_degrade_level->set(static_cast<double>(degrade_state.level()));
      }
    });
    snapshotter->start();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const auto since_start_ms = [&wall_start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - wall_start)
        .count();
  };

  // Overload monitor: samples queue fill (and, with the latency
  // trigger armed, a copy of the record's latest completions) on its
  // own thread and walks the degradation ladder (hysteresis in the
  // controller).
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  std::thread monitor;
  if (controller.has_value()) {
    monitor = std::thread([&] {
      const auto interval = std::chrono::duration<double, std::milli>(
          std::max(0.1, config_.slo.eval_interval_ms));
      std::unique_lock<std::mutex> lock(monitor_mutex);
      while (!monitor_stop) {
        if (monitor_cv.wait_for(lock, interval,
                                [&] { return monitor_stop; })) {
          break;
        }
        lock.unlock();
        LatencyReservoir window;
        if (config_.slo.latency_high_ms > 0.0) {
          const std::lock_guard<std::mutex> sink_lock(sink_mutex);
          window = outcomes.latency_window();
        }
        controller->sample(since_start_ms(), window);
        lock.lock();
      }
    });
  }

  // Ingress threads: a thrown exception fails ONLY that stream — the
  // ingress is marked failed, its already-enqueued frames still serve,
  // and every other stream runs to completion.
  std::vector<std::thread> ingress_threads;
  ingress_threads.reserve(ingresses.size());
  for (IngressBase* ingress : ingresses) {
    ingress_threads.emplace_back([ingress] {
      try {
        ingress->run();
      } catch (const std::exception& e) {
        ingress->mark_failed(e.what());
      } catch (...) {
        ingress->mark_failed("unknown ingress failure");
      }
    });
  }
  // Close the queue once every producer finished; the workers drain the
  // remainder and exit. (A dead worker pool closes the queue itself,
  // which releases any producer blocked on push.)
  std::thread closer([&] {
    for (std::thread& t : ingress_threads) t.join();
    queue.close();
  });
  // Supervision absorbs batch failures inside the workers; anything
  // escaping the pool is unrecoverable and is rethrown after all joins.
  std::exception_ptr pool_error;
  try {
    pool.run(queue, hooks);
  } catch (...) {
    pool_error = std::current_exception();
  }
  closer.join();
  if (monitor.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(monitor_mutex);
      monitor_stop = true;
    }
    monitor_cv.notify_all();
    monitor.join();
  }
  if (pool_error) std::rethrow_exception(pool_error);
  const auto wall_end = std::chrono::steady_clock::now();
  if (controller.has_value()) {
    controller->finish(std::chrono::duration<double, std::milli>(
                           wall_end - wall_start)
                           .count());
  }

  // --- Assemble the report.
  report_.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  report_.queue_peak_depth = queue.peak_depth();
  report_.queue_mean_depth = queue.mean_depth();
  report_.streams.reserve(ingresses.size());
  std::size_t residual_drops = 0;
  for (std::size_t i = 0; i < ingresses.size(); ++i) {
    StreamServeStats s = ingresses[i]->stats();
    const StreamServeStats& done = outcomes.stream(i);
    s.completed = done.completed;
    s.shed = done.shed;
    s.failed = done.failed;
    s.latency = done.latency;
    s.slo_good = done.slo_good;
    s.slo_bad = done.slo_bad;
    // Per-stream drops reconcile as the residual once the queue drained:
    // every enqueued frame was served, shed, quarantined, or displaced
    // by drop-oldest. A negative residual is an accounting bug (frames
    // appearing from nowhere) and is flagged, never wrapped.
    const std::size_t accounted = s.completed + s.shed + s.failed;
    if (s.enqueued >= accounted) {
      s.dropped = s.enqueued - accounted;
    } else {
      s.dropped = 0;
      report_.accounting_valid = false;
    }
    outcomes.publish_final(i, s.dropped);
    residual_drops += s.dropped;
    report_.frames_completed += s.completed;
    report_.frames_dropped += s.dropped;
    report_.frames_shed += s.shed;
    report_.frames_failed += s.failed;
    report_.rejected_packets += s.rejected_packets;
    report_.duplicate_packets += s.duplicate_packets;
    report_.wire_resumes += s.wire_resumes;
    report_.wire_heartbeats += s.wire_heartbeats;
    report_.wire_rewinds += s.wire_rewinds;
    report_.wire_resyncs += s.wire_resyncs;
    report_.wire_reconnects += s.wire_reconnects;
    report_.streams.push_back(std::move(s));
  }
  // Cross-check the residual against the queue's own displacement
  // counter: they must agree exactly, or the invariant is vacuous.
  if (residual_drops != queue.dropped()) {
    report_.accounting_valid = false;
  }
  report_.workers.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    report_.workers.push_back(pool.worker(i).stats());
  }
  if (config_.worker.profile_layers || config_.worker.trace_nodes) {
    // Re-export the per-layer means as labeled gauges so per-node
    // timing reaches Prometheus, not just ServeReport. The family gets
    // a wider cap than the default: nodes x routes x workers.
    obs::LabeledGauge* layer_gauge = nullptr;
    if (obs_config.metrics) {
      layer_gauge = &obs::MetricsRegistry::global().labeled_gauge(
          "evedge_layer_ns",
          "Mean per-node execution wall time (ns) by route and worker",
          1024);
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const obs::LayerProfiler* prof = pool.worker(i).profiler();
      if (prof == nullptr) continue;
      std::vector<obs::NodeRouteProfile> nodes = prof->snapshot();
      if (layer_gauge != nullptr) {
        for (const obs::NodeRouteProfile& row : nodes) {
          const double mean_ns =
              row.runs == 0 ? 0.0
                            : static_cast<double>(row.total_ns) /
                                  static_cast<double>(row.runs);
          layer_gauge
              ->at({{"node", row.name},
                    {"route", nn::to_string(row.route)},
                    {"worker", std::to_string(i)}})
              .set(mean_ns);
        }
      }
      report_.layer_profiles.push_back(
          WorkerLayerProfile{static_cast<int>(i), std::move(nodes)});
    }
  }
  if (controller.has_value()) {
    report_.degradation = controller->transitions();
    report_.ms_at_degrade_level = controller->ms_at_level();
    report_.max_degrade_level = controller->max_level_reached();
  }
  if (injector != nullptr) report_.faults = injector->counts();
  // Stopped only now, so the final snapshot on disk carries what report
  // assembly added to the registry (drops, final burn gauges, layer
  // gauges).
  if (snapshotter.has_value()) snapshotter->stop();
  return report_;
}

const DenseTensor* ServingRuntime::output(int stream_id,
                                          std::int64_t seq) const {
  const auto it = captured_.find(capture_key(stream_id, seq));
  return it != captured_.end() ? &it->second : nullptr;
}

ServingRuntime::SerialResult ServingRuntime::run_serial(
    std::span<const std::vector<sparse::SparseFrame>> frames_per_stream,
    bool use_planner) const {
  const nn::NetworkSpec& spec = prototype_.spec();
  nn::FunctionalNetwork net = prototype_.clone();
  const sparse::TensorShape event_shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  const bool needs_image = spec.graph.input_ids().size() > 1;
  const DenseTensor image =
      needs_image ? core::make_reference_image(spec) : DenseTensor{};

  SerialResult result;
  result.outputs.resize(frames_per_stream.size());
  nn::ExecutionPlan plan;
  bool plan_ready = false;
  std::vector<DenseTensor> steps;
  std::vector<sparse::SparseFrame> one(1);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < frames_per_stream.size(); ++s) {
    result.outputs[s].reserve(frames_per_stream[s].size());
    for (const sparse::SparseFrame& frame : frames_per_stream[s]) {
      one.front() = frame;
      core::frames_to_event_steps(one, event_shape, spec.timesteps, steps);
      if (use_planner && !plan_ready) {
        plan = nn::ExecutionPlanner::calibrate(
            net, steps, needs_image ? &image : nullptr);
        net.set_execution_plan(&plan);
        plan_ready = true;
      }
      result.outputs[s].push_back(
          net.run_batched(steps, needs_image ? &image : nullptr));
      ++result.frames;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return result;
}

}  // namespace evedge::serve

#pragma once

// ServeWorkerPool: the inference back half of the serving runtime. Each
// worker owns a full FunctionalNetwork clone (identical weights, private
// Workspace — the one-Workspace-per-worker contract that makes workers
// mutually invisible), its own BatchCollator and, when planning is on,
// its own density-adaptive ExecutionPlan. A collated batch goes to the
// engine as COO: each ReadyFrame is adapted straight to the event input
// (core::frame_to_event_sample) and the batch runs through
// FunctionalNetwork::run_events — no dense event steps on this path.
//
// Planning is lazy and happens once per worker life: the worker's first
// collated batch doubles as the planner probe (a dense rendering of
// frame 0, made only when calibration runs), mirroring BatchExecutor,
// and that plan serves every later batch whatever its density. Routes
// are bitwise-neutral, so a plan that no longer fits the scene costs
// time, never output; re-calibrating on density drift measured slower
// end to end than keeping the warmup plan (its dense probes cost more
// than the refreshed routes saved). restart() forgets the plan, so the
// next batch calibrates again.
//
// Supervision: a batch that throws does not kill the worker thread.
// The worker restarts itself on a fresh prototype clone, returns the
// batch's unemitted frames to the queue front with an incremented
// attempt count, and sleeps an exponential backoff before collating
// again. Frames whose attempt count exceeds the retry budget are
// quarantined through the failure hook instead of retried, so a
// deterministic poison frame cannot live-lock the pool.
// The degradation ladder (degrade.hpp) is read per batch: rung 2 widens
// collated batches, rung 3 serves on a lazily calibrated uniform-int8
// QuantPlan; stepping back down restores FP32 bitwise.
//
// Per-stream state isolation: the engine runs each batch lane through
// the batch-1 path from reset LIF state, so coalescing frames from
// different streams into one run_events call is bitwise identical to
// per-stream serial execution — ServingRuntime::run_serial, the dense
// reference over frames_to_event_steps + run_batched (run_events'
// per-lane contract; verified zoo-wide in test_serve).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/engine.hpp"
#include "nn/exec_plan.hpp"
#include "obs/profile.hpp"
#include "quant/calibrate.hpp"
#include "serve/batch_collator.hpp"
#include "serve/degrade.hpp"
#include "serve/fault.hpp"
#include "serve/frame_queue.hpp"
#include "serve/serve_stats.hpp"

namespace evedge::serve {

struct WorkerConfig {
  /// Density-adaptive routing (bitwise-neutral, exec_plan.hpp). Off =
  /// all-dense execution.
  bool use_planner = true;
  nn::PlannerOptions planner{};
  CollatorConfig collator{};
  /// Supervision retry budget: a frame whose batch failed is retried at
  /// most this many times before quarantine (attempts > max_retries).
  int max_retries = 2;
  /// Exponential backoff after a batch failure: base * 2^(consecutive
  /// failures - 1), capped at 50 ms. Keeps a crash-looping worker from
  /// burning its core while siblings drain the queue.
  double retry_backoff_ms = 1.0;
  /// Per-layer wall-time profiling via the engine's ExecObserver hook
  /// (obs::LayerProfiler); snapshots land in ServeReport::layer_profiles.
  bool profile_layers = false;
  /// Additionally mirror every node execution as a per-node trace
  /// sub-span (implies the profiler is installed; spans only emit while
  /// the tracer is enabled).
  bool trace_nodes = false;
};

/// Called once per completed frame, potentially from several worker
/// threads at once — implementations must be thread-safe. The frame's
/// result is batch lane `lane` of `batch_output` (the run_events
/// tensor, valid only for the duration of the call — slice it out via
/// sparse::copy_sample if it must outlive the sink); `latency_us` spans
/// queue admission to inference completion.
using ResultSink = std::function<void(
    const ReadyFrame& frame, const sparse::DenseTensor& batch_output,
    int lane, double latency_us)>;

/// Everything the supervised serve loop plugs into. `result` is
/// required; the rest are optional (nullptr / empty = feature off).
struct ServeHooks {
  ResultSink result;
  FailureSink failure;
  FaultInjector* faults = nullptr;       ///< worker-site fault injection
  DegradationState* degrade = nullptr;   ///< live ladder level (read-only)
  SloConfig slo{};                       ///< deadline + ladder knobs
};

/// One serving worker. Public so tests (and single-threaded embeddings)
/// can drive process_batch directly; the pool wraps it in a thread.
class ServeWorker {
 public:
  /// Clones the prototype network. The prototype must outlive the
  /// worker's serving (restarts clone it again after a batch failure).
  ServeWorker(int worker_id, const nn::FunctionalNetwork& prototype,
              WorkerConfig config);

  /// Runs one collated batch through run_events and emits every frame's
  /// result to `sink`. Calibrates the plan on the first batch after
  /// construction or restart(); later batches reuse it. Throws
  /// propagate to the caller (the supervised serve loop catches them).
  void process_batch(const std::vector<ReadyFrame>& batch,
                     const ResultSink& sink);

  /// Supervised loop: SLO shedding, fault injection, per-batch failure
  /// recovery with restart/retry/backoff, degradation-ladder response.
  /// Never throws for a batch failure; only unrecoverable errors (e.g.
  /// failing to clone a fresh network) escape.
  void serve(FrameQueue& queue, const ServeHooks& hooks);

  /// Replaces the network with a fresh prototype clone and forgets the
  /// execution plan and the installed quant plan (both are rebuilt
  /// lazily, so the next batch calibrates again). The supervision path
  /// after a batch failure.
  void restart();

  [[nodiscard]] const WorkerServeStats& stats() const noexcept {
    return stats_;
  }
  /// The worker's live plan (nullptr before warmup or with planning off).
  [[nodiscard]] const nn::ExecutionPlan* plan() const noexcept {
    return plan_ready_ ? &plan_ : nullptr;
  }
  /// Whether the int8 degradation rung is currently installed.
  [[nodiscard]] bool int8_active() const noexcept {
    return quant_installed_;
  }
  /// The worker's layer profiler (nullptr unless profile_layers /
  /// trace_nodes). Snapshot only after the worker thread joined.
  [[nodiscard]] const obs::LayerProfiler* profiler() const noexcept {
    return profiler_.get();
  }

 private:
  /// Dense batch-1 steps of `frame`: the calibration probe input.
  [[nodiscard]] std::vector<sparse::DenseTensor> probe_steps(
      const sparse::SparseFrame& frame) const;
  void calibrate_from(const sparse::SparseFrame& frame);
  /// Installs or removes the int8 rung; a first install calibrates the
  /// quant plan on `frame`.
  void apply_precision_rung(bool want_int8, const sparse::SparseFrame& frame);
  /// Shed frames older than the deadline out of `batch` via the failure
  /// hook; returns the number shed.
  std::size_t shed_stale(std::vector<ReadyFrame>& batch,
                         const ServeHooks& hooks);
  /// Failure path: requeue or quarantine every unemitted frame of the
  /// failed batch, restart, back off.
  void recover_from_failure(FrameQueue& queue,
                            std::vector<ReadyFrame>& batch,
                            const ServeHooks& hooks);

  WorkerConfig config_;
  const nn::FunctionalNetwork* prototype_;
  nn::FunctionalNetwork net_;
  sparse::TensorShape event_shape_;  ///< per-timestep event input (n = 1)
  bool needs_image_ = false;
  sparse::DenseTensor image_;
  std::vector<sparse::SparseSample> samples_;  ///< adapted event inputs
  bool plan_ready_ = false;
  nn::ExecutionPlan plan_;
  // Int8 rung state: the plan is calibrated lazily from the first batch
  // served at rung 3 and cached; install/uninstall tracks the ladder.
  bool quant_ready_ = false;
  bool quant_installed_ = false;
  bool want_int8_ = false;  ///< ladder rung requested for the next batch
  quant::QuantPlan quant_plan_;
  std::int64_t batch_seq_ = 0;     ///< local batch attempt index
  std::size_t emit_progress_ = 0;  ///< lanes emitted of the current batch
  /// The collator's batch-ready stamp for the next process_batch (0 when
  /// untraced or when process_batch is called directly).
  std::uint64_t batch_ready_ns_ = 0;
  int consecutive_failures_ = 0;
  WorkerServeStats stats_;
  /// Owned per-layer profiler, re-installed on every restart() clone.
  std::unique_ptr<obs::LayerProfiler> profiler_;
};

class ServeWorkerPool {
 public:
  /// Builds `n_workers` clones of `prototype`. The prototype must stay
  /// alive through run() — supervised workers re-clone it on restart.
  ServeWorkerPool(const nn::FunctionalNetwork& prototype, int n_workers,
                  const WorkerConfig& config);

  /// Serves `queue` on one thread per worker (ServeWorker::serve) until
  /// it closes and drains; blocks until every worker exits. The hooks'
  /// sinks must be thread-safe. Batch failures are absorbed by the
  /// workers; only unrecoverable errors close the queue and rethrow
  /// after all joins.
  void run(FrameQueue& queue, const ServeHooks& hooks);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] const ServeWorker& worker(std::size_t i) const {
    return *workers_.at(i);
  }

 private:
  std::vector<std::unique_ptr<ServeWorker>> workers_;
};

}  // namespace evedge::serve

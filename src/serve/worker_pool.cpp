#include "serve/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/batch_executor.hpp"
#include "obs/trace.hpp"

namespace evedge::serve {

using sparse::DenseTensor;
using sparse::SparseFrame;
using sparse::TensorShape;

namespace {

/// Cap on the exponential retry backoff (WorkerConfig::retry_backoff_ms).
constexpr double kRetryBackoffMaxMs = 50.0;

}  // namespace

ServeWorker::ServeWorker(int worker_id,
                         const nn::FunctionalNetwork& prototype,
                         WorkerConfig config)
    : config_(std::move(config)),
      prototype_(&prototype),
      net_(prototype.clone()) {
  if (config_.max_retries < 0) {
    throw std::invalid_argument("ServeWorker: max_retries must be >= 0");
  }
  const nn::NetworkSpec& spec = net_.spec();
  const auto input_ids = spec.graph.input_ids();
  event_shape_ = spec.graph.node(input_ids.front()).spec.out_shape;
  needs_image_ = input_ids.size() > 1;
  if (needs_image_) image_ = core::make_reference_image(spec);
  stats_.worker_id = worker_id;
  if (config_.profile_layers || config_.trace_nodes) {
    profiler_ =
        std::make_unique<obs::LayerProfiler>(spec, config_.trace_nodes);
    net_.set_exec_observer(profiler_.get());
  }
}

std::vector<DenseTensor> ServeWorker::probe_steps(
    const SparseFrame& frame) const {
  // The planner and the int8 calibration run dense batch-1 inputs; DSFA
  // merges within a density band, so one frame's densities represent
  // the batch (the BatchExecutor warmup convention).
  std::vector<DenseTensor> steps;
  core::frames_to_event_steps({frame}, event_shape_, net_.spec().timesteps,
                              steps);
  return steps;
}

void ServeWorker::calibrate_from(const SparseFrame& frame) {
  const std::vector<DenseTensor> probe = probe_steps(frame);
  plan_ = nn::ExecutionPlanner::calibrate(net_, probe,
                                          needs_image_ ? &image_ : nullptr);
  net_.set_execution_plan(&plan_);
  plan_ready_ = true;
  ++stats_.calibrations;
  stats_.plan_sparse_nodes = plan_.sparse_node_count();
}

void ServeWorker::apply_precision_rung(bool want_int8,
                                       const SparseFrame& frame) {
  if (want_int8 && !quant_installed_) {
    if (!quant_ready_) {
      // Lazy rung-3 calibration: the current batch's frame 0 is the
      // calibration set — the same "the live traffic is the probe"
      // convention the planner warmup uses.
      quant::ValidationSample sample;
      sample.event_steps = probe_steps(frame);
      if (needs_image_) sample.image = image_;
      const nn::ExecutionPlan* prev = net_.set_execution_plan(nullptr);
      const quant::CalibrationTable table = quant::calibrate_activations(
          net_, std::span<const quant::ValidationSample>(&sample, 1));
      quant_plan_ = quant::build_quant_plan(
          net_, quant::uniform_assignment(net_.spec(),
                                          quant::Precision::kInt8),
          table);
      net_.set_execution_plan(prev);
      quant_ready_ = true;
    }
    net_.set_quant_plan(&quant_plan_);
    quant_installed_ = true;
  } else if (!want_int8 && quant_installed_) {
    // Stepping off rung 3 restores FP32 exactly — the cached plan stays
    // for the next escalation.
    net_.set_quant_plan(nullptr);
    quant_installed_ = false;
  }
}

void ServeWorker::process_batch(const std::vector<ReadyFrame>& batch,
                                const ResultSink& sink) {
  if (batch.empty()) {
    throw std::invalid_argument("ServeWorker: empty batch");
  }
  // Lineage anchor: per-frame inference spans start at the collator's
  // batch-ready stamp, so they cover the handoff into this call as well
  // as the batch prep below (input adaptation, planner warmup,
  // precision rung) — all of it is time the frame waits on, and the
  // frame's hops tile its latency with no gap. Direct callers have no
  // collator stamp; their spans start at entry.
  std::uint64_t start_ns = std::exchange(batch_ready_ns_, 0);
  if (start_ns == 0 && obs::Tracer::enabled()) start_ns = obs::now_ns();
  emit_progress_ = 0;
  samples_.resize(batch.size());
  for (std::size_t n = 0; n < batch.size(); ++n) {
    samples_[n] = core::frame_to_event_sample(batch[n].frame, event_shape_);
  }
  const SparseFrame& frame0 = batch.front().frame;

  if (config_.use_planner && !plan_ready_) calibrate_from(frame0);
  apply_precision_rung(want_int8_, frame0);

  const auto t0 = std::chrono::steady_clock::now();
  const DenseTensor out =
      net_.run_events(samples_, needs_image_ ? &image_ : nullptr);
  const auto t1 = std::chrono::steady_clock::now();
  obs::Tracer::span("worker", "inference", obs::to_trace_ns(t0),
                    obs::to_trace_ns(t1), "worker", stats_.worker_id,
                    "batch", static_cast<std::int64_t>(batch.size()));
  stats_.busy_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  ++stats_.batches;
  stats_.samples += batch.size();
  if (quant_installed_) ++stats_.int8_batches;

  // One "frame.inference" lineage span per lane (batch ready -> t1,
  // with (stream, seq) args) alongside the batch-level span above: the
  // per-frame view sums with queue.wait/collate.wait to the frame's
  // measured enqueue -> completion latency.
  if (start_ns != 0) {
    for (const ReadyFrame& ready : batch) {
      obs::Tracer::span("worker", "frame.inference", start_ns,
                        obs::to_trace_ns(t1), "stream", ready.stream_id,
                        "seq", ready.seq);
    }
  }

  for (std::size_t n = 0; n < batch.size(); ++n) {
    const double latency_us =
        std::chrono::duration<double, std::micro>(
            t1 - batch[n].enqueue_tp).count();
    sink(batch[n], out, static_cast<int>(n), latency_us);
    ++emit_progress_;
  }
}

std::size_t ServeWorker::shed_stale(std::vector<ReadyFrame>& batch,
                                    const ServeHooks& hooks) {
  const auto now = std::chrono::steady_clock::now();
  std::size_t keep = 0;
  std::size_t shed = 0;
  for (std::size_t n = 0; n < batch.size(); ++n) {
    const double age_ms = std::chrono::duration<double, std::milli>(
                              now - batch[n].enqueue_tp)
                              .count();
    if (age_ms > hooks.slo.deadline_ms) {
      ++shed;
      obs::Tracer::instant("serve", "frame.shed", "stream",
                           batch[n].stream_id, "seq", batch[n].seq);
      if (hooks.failure) {
        hooks.failure(QuarantinedFrame{batch[n].stream_id, batch[n].seq,
                                       FrameFault::kDeadlineExceeded,
                                       batch[n].attempts});
      }
    } else {
      if (keep != n) batch[keep] = std::move(batch[n]);
      ++keep;
    }
  }
  batch.resize(keep);
  return shed;
}

void ServeWorker::restart() {
  net_ = prototype_->clone();
  // clone() carries no observer — re-attach the profiler so per-layer
  // accounting continues across the restart.
  if (profiler_ != nullptr) net_.set_exec_observer(profiler_.get());
  plan_ready_ = false;
  quant_ready_ = false;
  quant_installed_ = false;
  ++stats_.restarts;
  obs::Tracer::instant("serve", "worker.restart", "worker",
                       stats_.worker_id);
}

void ServeWorker::recover_from_failure(FrameQueue& queue,
                                       std::vector<ReadyFrame>& batch,
                                       const ServeHooks& hooks) {
  // Frames before emit_progress_ already reached the result sink; only
  // the unemitted tail is in flight. Requeue in reverse index order so
  // push_front reconstructs the original order at the queue head.
  for (std::size_t n = batch.size(); n > emit_progress_; --n) {
    ReadyFrame& frame = batch[n - 1];
    ++frame.attempts;
    if (frame.attempts > config_.max_retries) {
      if (hooks.failure) {
        hooks.failure(QuarantinedFrame{frame.stream_id, frame.seq,
                                       FrameFault::kRetriesExhausted,
                                       frame.attempts});
      }
    } else {
      ++stats_.frames_retried;
      obs::Tracer::instant("serve", "frame.retry", "stream",
                           frame.stream_id, "seq", frame.seq);
      queue.requeue(std::move(frame));
    }
  }
  restart();
  ++consecutive_failures_;
  if (config_.retry_backoff_ms > 0.0) {
    const double doublings =
        std::min(static_cast<double>(consecutive_failures_ - 1), 20.0);
    const double backoff_ms =
        std::min(config_.retry_backoff_ms * std::pow(2.0, doublings),
                 kRetryBackoffMaxMs);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }
}

void ServeWorker::serve(FrameQueue& queue, const ServeHooks& hooks) {
  BatchCollator collator(config_.collator);
  std::vector<ReadyFrame> batch;
  for (;;) {
    const int level =
        hooks.degrade != nullptr ? hooks.degrade->level() : kDegradeNormal;
    // Rung 2: widen the collation window to amortize more kernel work
    // per launch while the queue is backed up.
    const int widen =
        level >= kDegradeWideBatch
            ? config_.collator.max_batch *
                  std::max(1, hooks.slo.batch_widen_factor)
            : 0;
    if (!collator.collect(queue, batch, widen)) break;

    if (hooks.slo.deadline_ms > 0.0) {
      stats_.frames_shed += shed_stale(batch, hooks);
      if (batch.empty()) continue;  // entire batch was stale
    }

    const std::int64_t this_batch = batch_seq_++;
    ++stats_.batch_attempts;
    want_int8_ = level >= kDegradeInt8 && hooks.slo.allow_int8;
    emit_progress_ = 0;
    try {
      if (hooks.faults != nullptr) {
        for (const FaultSpec& spec :
             hooks.faults->at_worker(stats_.worker_id, this_batch)) {
          if (spec.type == FaultType::kLatencySpike) {
            hooks.faults->record(FaultType::kLatencySpike);
            obs::Tracer::instant("fault", "fault.latency_spike", "worker",
                                 stats_.worker_id);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(spec.delay_ms));
          } else if (spec.type == FaultType::kWorkerException) {
            hooks.faults->record(FaultType::kWorkerException);
            obs::Tracer::instant("fault", "fault.worker_exception",
                                 "worker", stats_.worker_id);
            throw FaultInjectionError(
                "injected worker exception (worker " +
                std::to_string(stats_.worker_id) + ", batch " +
                std::to_string(this_batch) + ")");
          }
        }
      }
      batch_ready_ns_ = collator.ready_ns();
      process_batch(batch, hooks.result);
      consecutive_failures_ = 0;
    } catch (...) {
      // Anything a batch throws — injected or real — is survivable:
      // the frames go back (or to quarantine), the network is rebuilt
      // from the prototype, and the loop continues.
      ++stats_.failures;
      recover_from_failure(queue, batch, hooks);
    }
  }
}

ServeWorkerPool::ServeWorkerPool(const nn::FunctionalNetwork& prototype,
                                 int n_workers,
                                 const WorkerConfig& config) {
  const int count = std::max(1, n_workers);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<ServeWorker>(i, prototype, config));
  }
}

void ServeWorkerPool::run(FrameQueue& queue, const ServeHooks& hooks) {
  // A throw on a worker thread must not std::terminate the process:
  // the first exception wins, the queue is closed so every sibling
  // drains out, and the error is rethrown on the joining thread
  // (mirroring core::parallel_for's contract). Workers absorb batch
  // failures, so only unrecoverable errors reach this layer.
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (const std::unique_ptr<ServeWorker>& worker : workers_) {
    threads.emplace_back([&queue, &hooks, &error, &error_mutex,
                          w = worker.get()] {
      try {
        w->serve(queue, hooks);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        queue.close();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace evedge::serve

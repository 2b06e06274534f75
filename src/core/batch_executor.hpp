#pragma once

// BatchExecutor: routes DSFA-dispatched merge batches through the REAL
// functional engine (FunctionalNetwork::run_events) instead of only the
// analytic cost model. The pipeline simulation stays the timing
// authority; attaching an executor (PipelineConfig::executor) makes every
// dispatched batch additionally execute on live kernels, so the fig8/fig9
// harnesses exercise the engine end to end and report measured wall time
// per batch alongside the modeled latency.
//
// Input adaptation: merged frames arrive at sensor geometry while the
// functional network usually runs at a reduced accuracy scale. Each
// frame's COO entries are integer-downsampled (coordinate division, value
// accumulation) and center-aligned to the network's event-input extent;
// the merged frame then fills every event bin slot of the input
// representation (bin-level reconstruction is e2e_accuracy's job — here
// the goal is driving the engine with live merged data).

#include <cstdint>
#include <vector>

#include "core/dsfa.hpp"
#include "nn/engine.hpp"

namespace evedge::core {

/// Adapts one merged frame to the network's event input in COO form:
/// entries integer-downsampled and center-aligned to `event_shape` (the
/// per-timestep event input, n == 1; colliding entries accumulate in
/// source order and zero sums drop out), with the merged frame filling
/// every event-bin channel slot (positive polarity in even slots,
/// negative in odd ones; channels past the last full slot stay empty).
/// The result has event_shape.c channels of event_shape.h x
/// event_shape.w — the sample FunctionalNetwork::run_events presents at
/// every timestep. It densifies bitwise to lane n of
/// frames_to_event_steps.
[[nodiscard]] sparse::SparseSample frame_to_event_sample(
    const sparse::SparseFrame& frame, const sparse::TensorShape& event_shape);

/// Dense rendering of a DSFA merge batch for run_batched: each frame
/// becomes one batch lane (frame_to_event_sample densified) and every
/// timestep gets the same tensor (identical event evidence per step —
/// bin-level reconstruction is e2e_accuracy's job). `steps` is resized
/// to `timesteps` tensors of [N, C, H, W] and reused across calls. The
/// dense reference path (ServingRuntime::run_serial, planner
/// calibration probes); serving workers and BatchExecutor pass the
/// samples to run_events instead.
void frames_to_event_steps(const std::vector<sparse::SparseFrame>& frames,
                           const sparse::TensorShape& event_shape,
                           int timesteps,
                           std::vector<sparse::DenseTensor>& steps);

/// Deterministic grayscale image for two-input networks (Fusion-FlowNet,
/// HALSIE): fixed-seed absolute-value noise at the image input's shape,
/// the same image BatchExecutor has always fed the fig8/fig9 harnesses.
/// Returns an empty tensor for single-input networks.
[[nodiscard]] sparse::DenseTensor make_reference_image(
    const nn::NetworkSpec& spec);

struct BatchExecutorStats {
  std::size_t batches = 0;
  std::size_t samples = 0;
  double wall_ms = 0.0;

  [[nodiscard]] double mean_batch() const noexcept {
    return batches > 0 ? static_cast<double>(samples) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  [[nodiscard]] double mean_ms_per_batch() const noexcept {
    return batches > 0 ? wall_ms / static_cast<double>(batches) : 0.0;
  }
};

class BatchExecutor {
 public:
  /// The network must outlive the executor. Two-input networks get a
  /// fixed deterministic grayscale image (seeded like e2e_accuracy's).
  explicit BatchExecutor(nn::FunctionalNetwork& net);
  ~BatchExecutor();
  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Density-adaptive routing: the first dispatched batch doubles as the
  /// planner's warmup probe — its measured activation densities pick the
  /// per-layer dense/CSR routes (nn::ExecutionPlanner::calibrate) and
  /// the resulting plan, owned here, is installed on the network for
  /// every subsequent batch. Bitwise-neutral (see exec_plan.hpp); call
  /// before the first execute().
  void enable_execution_planner();
  /// The installed plan (nullptr before the first planned batch).
  [[nodiscard]] const nn::ExecutionPlan* execution_plan() const noexcept {
    return plan_ready_ ? &plan_ : nullptr;
  }

  /// Executes one dispatched batch (one sample per merged frame) through
  /// run_events. Returns the [N, ...] output (valid until the next
  /// call).
  const sparse::DenseTensor& execute(
      const std::vector<sparse::SparseFrame>& frames);

  [[nodiscard]] const BatchExecutorStats& stats() const noexcept {
    return stats_;
  }

 private:
  nn::FunctionalNetwork& net_;
  sparse::TensorShape event_shape_;  ///< per-timestep event input (n = 1)
  bool needs_image_ = false;
  sparse::DenseTensor image_;
  sparse::DenseTensor last_output_;
  std::vector<sparse::SparseSample> samples_;  ///< adapted event inputs
  BatchExecutorStats stats_;
  // Lazily calibrated execution plan (installed on net_ while alive).
  bool planner_enabled_ = false;
  bool plan_ready_ = false;
  nn::ExecutionPlan plan_;
};

}  // namespace evedge::core

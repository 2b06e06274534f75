#pragma once

// Discrete-event simulation of the single-task inference pipeline
// (camera -> E2SF -> [DSFA] -> mapped execution), the harness behind the
// paper's Fig. 8 single-task evaluation and the DSFA/E2SF ablations.
//
// The four evaluated variants compose from the flags below:
//   all-GPU dense baseline : use_e2sf=false, use_dsfa=false, GPU mapping
//   +E2SF                  : use_e2sf=true,  use_dsfa=false, GPU mapping
//   +E2SF+DSFA             : use_e2sf=true,  use_dsfa=true,  GPU mapping
//   Ev-Edge (full)         : both true with an NMP-searched mapping
// A fifth configuration (charge_encode_overhead) models the rejected
// alternative of running sparse libraries on dense event frames.

#include <cstdint>
#include <vector>

#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "core/inference_cost.hpp"
#include "events/event_stream.hpp"

namespace evedge::core {

class BatchExecutor;

struct PipelineConfig {
  E2sfConfig e2sf{};
  DsfaConfig dsfa{};
  bool use_e2sf = true;   ///< sparse frames + sparse kernel routes
  bool use_dsfa = true;   ///< dynamic aggregation before inference
  bool idle_dispatch = true;  ///< DSFA early dispatch on idle hardware
  /// Dense baseline emulating sparse libraries on dense frames (pays the
  /// encode overhead E2SF eliminates). Only meaningful when use_e2sf is
  /// false in spirit; exposed for the ablation bench.
  bool charge_encode_overhead = false;
  double frame_rate_hz = 30.0;  ///< grayscale (APS) frame clock
  /// When non-null, every dispatched batch is additionally executed on
  /// the real functional engine (FunctionalNetwork::run_events via
  /// BatchExecutor); measured wall time lands in the functional_* stats.
  /// The analytic cost model remains the simulation's timing authority.
  BatchExecutor* executor = nullptr;
};

struct PipelineStats {
  std::size_t frames_generated = 0;   ///< sparse frames entering the runtime
  std::size_t inferences = 0;         ///< device executions (batches)
  std::size_t buckets_completed = 0;  ///< merged buckets through inference
  std::size_t frames_dropped = 0;     ///< overflowed queue entries (stalest)
  double mean_latency_us = 0.0;  ///< completion - newest-data arrival
  double p95_latency_us = 0.0;
  double max_latency_us = 0.0;
  double mean_staleness_us = 0.0;  ///< completion - oldest-data arrival
  double mean_input_density = 0.0;
  double mean_batch = 0.0;
  /// Device busy time divided by completed *source* frames — the
  /// throughput-normalized per-frame service latency (the Fig. 8 metric;
  /// end-to-end latency above additionally includes queueing).
  double mean_service_per_frame_us = 0.0;
  double device_busy_us = 0.0;
  std::size_t source_frames_completed = 0;
  double busy_energy_mj = 0.0;
  double total_energy_mj = 0.0;  ///< including idle power over the run
  double sim_span_us = 0.0;
  DsfaStats dsfa;
  /// Real batched execution (only when PipelineConfig::executor is set).
  std::size_t functional_batches = 0;
  std::size_t functional_samples = 0;
  double functional_wall_ms = 0.0;

  [[nodiscard]] double energy_per_inference_mj() const noexcept {
    return inferences > 0
               ? total_energy_mj / static_cast<double>(inferences)
               : 0.0;
  }
};

/// Simulates the pipeline over `stream`. `mapping` assigns every mappable
/// node (uniform GPU/FP32 for the baselines, NMP output for full Ev-Edge).
[[nodiscard]] PipelineStats simulate_pipeline(
    const events::EventStream& stream, const nn::NetworkSpec& spec,
    const sched::TaskMapping& mapping, const hw::Platform& platform,
    const ActivationDensityProfile& densities, const PipelineConfig& config);

/// Same simulation over pre-built frames (arrival time = frame.t_end).
/// This is how the static accumulation baselines of §4.2 (event-count /
/// fixed-time framing, accumulate_by_count / accumulate_by_time) are fed
/// through the identical runtime for comparison. Frames must be ordered
/// by t_end. The E2SF settings in `config` are ignored.
[[nodiscard]] PipelineStats simulate_frame_pipeline(
    const std::vector<sparse::SparseFrame>& frames,
    const nn::NetworkSpec& spec, const sched::TaskMapping& mapping,
    const hw::Platform& platform, const ActivationDensityProfile& densities,
    const PipelineConfig& config);

}  // namespace evedge::core

#pragma once

// Leaky Integrate-and-Fire neuron dynamics for the SNN layers of the zoo.
//
// Standard LIF update per timestep (soft reset):
//   U[t] = leak * U[t-1] + I[t]
//   S[t] = (U[t] >= v_th) ? 1 : 0
//   U[t] = U[t] - S[t] * v_th
//
// Adaptive-SpikeNet [1] learns per-channel neuronal dynamics; we model
// that as per-channel leak and threshold vectors (fixed-seed initialized
// in the zoo, standing in for learned values).

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/tensor.hpp"

namespace evedge::nn {

using sparse::DenseTensor;
using sparse::TensorShape;

/// Spike coordinates emitted by LifState::step_sparse, indexed
/// [sample][channel] in row-major order; every entry's value is exactly
/// 1.0f, so adopting them as CooChannels densifies to exactly the spike
/// tensor step() would have returned.
using SpikeCoo = std::vector<std::vector<std::vector<sparse::CooEntry>>>;

/// Shared (layer-wide) LIF parameters.
struct LifParams {
  float leak = 0.85f;        ///< membrane decay per timestep, in (0, 1]
  float v_threshold = 1.0f;  ///< firing threshold, > 0
  bool soft_reset = true;    ///< subtract threshold (true) or reset to 0
};

void validate_lif(const LifParams& params);

/// Stateful LIF population over a fixed activation shape.
class LifState {
 public:
  LifState() = default;
  /// Per-channel leak/threshold vectors must be empty (use shared params)
  /// or have exactly `shape.c` entries (adaptive variant).
  LifState(TensorShape shape, LifParams params,
           std::vector<float> channel_leak = {},
           std::vector<float> channel_threshold = {});

  /// Advances one timestep with synaptic input `current`; returns the
  /// binary spike tensor (values 0 or 1).
  [[nodiscard]] DenseTensor step(const DenseTensor& current);

  /// Sparse-output twin of step(): advances one timestep in place and
  /// emits spike coordinates into `spikes_out` (reset to [n][c] empty
  /// lists) instead of materializing the dense spike tensor — the
  /// chain-head sparsify scan the engine otherwise pays per spiking
  /// node. Membrane updates, spike decisions and firing counters are
  /// bitwise/exactly identical to step()'s.
  void step_sparse(const DenseTensor& current, SpikeCoo& spikes_out);

  /// Zeroes the membrane potential (new input sequence).
  void reset() noexcept;

  [[nodiscard]] const DenseTensor& membrane() const noexcept {
    return membrane_;
  }
  [[nodiscard]] const TensorShape& shape() const noexcept { return shape_; }

  /// Spikes emitted / sites over all steps since the last reset().
  [[nodiscard]] double mean_firing_rate() const noexcept;

 private:
  TensorShape shape_{};
  LifParams params_{};
  std::vector<float> channel_leak_;
  std::vector<float> channel_threshold_;
  DenseTensor membrane_;
  std::uint64_t steps_ = 0;
  std::uint64_t spikes_ = 0;
};

}  // namespace evedge::nn

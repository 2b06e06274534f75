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
//
// Layout: the membrane, and the current step_sites() takes, are
// site-major — [N, H, W, C], the C channels of one site contiguous —
// so the per-channel leak and threshold run along the contiguous axis
// and one image row of W x C elements steps as one flat loop.

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/tensor.hpp"

namespace evedge::nn {

using sparse::DenseTensor;
using sparse::TensorShape;

/// Spike coordinates emitted by LifState::step_sparse / step_sites,
/// indexed [sample][channel] in row-major order; every entry's value is
/// exactly 1.0f, so adopting them as CooChannels densifies to exactly the
/// spike tensor step() would have returned.
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

  /// Advances one timestep with the site-major synaptic input `current`
  /// (shaped site_shape()) and writes the binary spikes (values 0 or 1)
  /// into `spikes`, reshaped to the NCHW shape() with its allocation
  /// reused — the engine's per-node output buffer.
  void step_sites(const DenseTensor& current, DenseTensor& spikes);

  /// Sparse-output twin of the above: emits spike coordinates into
  /// `spikes_out` (reset to [n][c] empty lists, per-channel row-major)
  /// instead of a dense spike tensor — the chain-head sparsify scan a
  /// sparse consumer would otherwise pay. Membrane updates, spike
  /// decisions and firing counters are exactly the dense twin's.
  void step_sites(const DenseTensor& current, SpikeCoo& spikes_out);

  /// NCHW entry points: `current` is shaped shape(); each transposes it
  /// into site-major order and runs the step above.
  [[nodiscard]] DenseTensor step(const DenseTensor& current);
  void step_sparse(const DenseTensor& current, SpikeCoo& spikes_out);

  /// Zeroes the membrane potential (new input sequence).
  void reset() noexcept;

  /// The membrane potential, site-major: a tensor of shape
  /// site_shape() = {N, H, W, C}, so membrane().at(n, y, x, c) is
  /// channel c of site (y, x).
  [[nodiscard]] const DenseTensor& membrane() const noexcept {
    return membrane_;
  }
  /// The population's NCHW activation shape (spikes are shaped so).
  [[nodiscard]] const TensorShape& shape() const noexcept { return shape_; }
  /// The site-major shape of the membrane and of step_sites' current.
  [[nodiscard]] TensorShape site_shape() const noexcept {
    return sparse::site_major(shape_);
  }

  /// Spikes emitted / sites over all steps since the last reset().
  [[nodiscard]] double mean_firing_rate() const noexcept;

 private:
  /// Steps image row (n, y) of the membrane against the matching row of
  /// `current`, writing each element's spike (1 or 0) to `spike_row`;
  /// returns the row's spike count.
  template <typename Spike>
  std::uint32_t advance_row(int n, int y, const float* current,
                            Spike* spike_row) noexcept;
  /// Calls emit(x, c) for every spike flagged in fire_row_, in
  /// row-major site order.
  template <typename Emit>
  void for_each_spike(Emit&& emit) const;

  TensorShape shape_{};
  LifParams params_{};
  // Leak and threshold (shared, or per channel) tiled over one image row (W x C, site-major), so
  // the row loop reads them contiguously whatever C is.
  std::vector<float> leak_row_;
  std::vector<float> threshold_row_;
  // One row of spike flags (scratch), padded to whole 8-byte words.
  std::vector<std::uint8_t> fire_row_;
  int channel_shift_ = -1;  // log2(C) when C is a power of two
  DenseTensor membrane_;
  std::uint64_t steps_ = 0;
  std::uint64_t spikes_ = 0;
};

}  // namespace evedge::nn

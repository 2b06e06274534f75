#pragma once

// Real INT8 execution kernels: the compute backend the fake-quantization
// module (quantizer.hpp) only models. Weights are quantized symmetrically
// per output channel; activations are quantized per tensor with a
// calibrated static scale (calibrate.hpp); arithmetic accumulates in
// int32 and requantizes to float:
//
//   out[oc][p] = bias[oc] + (sum_r qw[oc][r] * qx[r][p]) * s_x * s_w[oc]
//
// Precision contract:
//  - quantization rounding is Int8Scale::quantize (round half away from
//    zero, saturate to +-127, NaN -> 0) — identical to the fake-quant
//    grid, so an int8 kernel followed by dequantization matches the
//    float simulation of the same quantization decisions up to float
//    accumulation order (integer accumulation is exact).
//  - quantized values live in the int8 grid but are STORED widened to
//    int16 in the compute layouts ([oc][patch] rows for the dense dot
//    kernel, [tap][oc] rows for the sparse reduction) so the inner loops
//    vectorize to widening multiply-adds on baseline SIMD; the canonical
//    1-byte-per-weight tensor is kept alongside for memory accounting.
//  - int32 accumulation is exact while patch_size * 127^2 < 2^31
//    (patch < 133152 taps); quantize_conv_weights rejects larger layers.
//
// Dense path: transposed int16 im2col ([pixels][patch], quantized once
// per input element, not per column element) + an output-channel-blocked
// dot kernel. Sparse path: the gather front half of sparse_ops
// (build_gather_taps) with an int8 tap reduction against the packed
// [tap][oc] rows. Scratch comes from sparse::Workspace (qin/qcol/qtaps/
// iacc slots); without a workspace every call allocates locally.

#include <cstdint>
#include <span>
#include <vector>

#include "quant/precision.hpp"
#include "quant/quantizer.hpp"
#include "sparse/coo.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"
#include "sparse/workspace.hpp"

namespace evedge::quant {

using sparse::Conv2dSpec;
using sparse::ConvWork;
using sparse::CooChannel;
using sparse::DenseTensor;
using sparse::Workspace;

/// Weight-scale granularity. Per-channel is the engine default (finer
/// grids, TensorRT-style); per-tensor reproduces fake_quantize's single
/// grid exactly (every channel shares one scale).
enum class WeightGranularity : std::uint8_t { kPerChannel, kPerTensor };

/// One layer's quantized weights, prepared once and shared by every
/// inference (and every sample of a batched call).
struct Int8ConvWeights {
  Conv2dSpec spec{};                 ///< conv geometry (FC: k=1, pad=0)
  std::size_t patch = 0;             ///< Cin * k * k taps per channel
  /// Row stride of `wide`: patch rounded up to a multiple of 8 and
  /// zero-padded, so the dot kernel's fixed-trip inner loops have no
  /// scalar tail (padding lanes contribute exact zeros).
  std::size_t padded_patch = 0;
  std::vector<std::int8_t> q;        ///< canonical int8, [oc][patch]
  std::vector<std::int16_t> wide;    ///< widened, [oc][padded_patch]
  std::vector<std::int16_t> packed;  ///< widened, [tap offset][oc]
  std::vector<float> scale;          ///< per-output-channel dequant scale
  /// Float weights rounded to the same per-channel grids: the arithmetic
  /// of the fake-quant float reference for this layer (and the shape
  /// carrier for sparse-kernel validation).
  DenseTensor fake;
};

/// Quantizes [Cout, Cin, k, k] conv weights (or [out, in, 1, 1] FC
/// weights with a matching spec) symmetrically. Throws when the tensor
/// does not match `spec` or when the patch is too large for exact int32
/// accumulation.
[[nodiscard]] Int8ConvWeights quantize_conv_weights(
    const DenseTensor& weights, const Conv2dSpec& spec,
    WeightGranularity granularity = WeightGranularity::kPerChannel);

/// Fake-quantizes `input` with `scale` into `out` (the float-reference
/// twin of the kernels' activation quantization; out may alias input).
void quantize_activations_reference(const DenseTensor& input, Int8Scale scale,
                                    DenseTensor& out);

/// Dense INT8 convolution over [N, Cin, H, W] input: quantize ->
/// transposed int16 im2col -> oc-blocked dot GEMM -> float requantize.
/// Numerically: bias[oc] + exact-int32 conv of the quantized operands,
/// dequantized with s_x * s_w[oc].
void int8_conv2d_into(const DenseTensor& input, const Int8ConvWeights& weights,
                      std::span<const float> bias, Int8Scale input_scale,
                      DenseTensor& out, Workspace* workspace = nullptr);

[[nodiscard]] DenseTensor int8_conv2d(const DenseTensor& input,
                                      const Int8ConvWeights& weights,
                                      std::span<const float> bias,
                                      Int8Scale input_scale,
                                      Workspace* workspace = nullptr);

/// INT8 transposed convolution (decoder stages): quantized scatter into
/// int32 planes, then float requantization.
void int8_transposed_conv2d_into(const DenseTensor& input,
                                 const Int8ConvWeights& weights,
                                 std::span<const float> bias,
                                 Int8Scale input_scale, DenseTensor& out,
                                 Workspace* workspace = nullptr);

[[nodiscard]] DenseTensor int8_transposed_conv2d(
    const DenseTensor& input, const Int8ConvWeights& weights,
    std::span<const float> bias, Int8Scale input_scale,
    Workspace* workspace = nullptr);

/// INT8 fully connected layer (weights prepared with spec
/// {in_features, out_features, 1, 1, 0}).
[[nodiscard]] DenseTensor int8_fully_connected(const DenseTensor& input,
                                               const Int8ConvWeights& weights,
                                               std::span<const float> bias,
                                               Int8Scale input_scale,
                                               Workspace* workspace = nullptr);

/// INT8 CSR-output sparse convolution (chains densify-free like
/// sparse_conv2d_csr; bias lands at active sites only): the gather front
/// half of sparse_ops with quantized tap values reduced, one site at a
/// time, against the packed [tap][oc] int8 rows. At active sites the
/// dequantized result is bitwise identical to int8_conv2d's (both compute
/// the same exact integer sum and the same float requantization), for
/// any thread count.
[[nodiscard]] std::vector<CooChannel> int8_sparse_conv2d_csr(
    std::span<const CooChannel> input, const Int8ConvWeights& weights,
    std::span<const float> bias, Int8Scale input_scale,
    ConvWork* work = nullptr, Workspace* workspace = nullptr);

// --- Engine precision plan ------------------------------------------------
// FunctionalNetwork consumes a prepared QuantPlan (see calibrate.hpp for
// the builder): per-node input scales + quantized weights, snapshotted
// from the network's weights at build time. `simulate` selects the
// float-reference twin (identical quantization decisions, float
// arithmetic) used to validate the real kernels.

/// One node's prepared int8 execution state.
struct NodeQuantPlan {
  int node_id = -1;
  Int8Scale input_scale{};
  Int8ConvWeights weights;
};

/// A per-layer precision assignment prepared for execution. Nodes absent
/// from `nodes` run FP32.
struct QuantPlan {
  std::vector<NodeQuantPlan> nodes;
  /// Run the float fake-quant twin instead of the int8 kernels.
  bool simulate = false;
};

}  // namespace evedge::quant

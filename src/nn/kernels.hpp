#pragma once

// Dense functional kernels (single-threaded CPU reference, NCHW). These
// are the numerical ground truth of the repository: the sparse kernels,
// the quantized paths and the end-to-end accuracy experiments are all
// validated against them.

#include <span>

#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"
#include "sparse/workspace.hpp"

namespace evedge::nn {

using sparse::Conv2dSpec;
using sparse::DenseTensor;
using sparse::TensorShape;

/// Dense 2-D convolution. input [N, Cin, H, W], weights
/// [Cout, Cin, k, k], bias per out channel (empty = none).
/// Dispatches between a flat-index direct path (threaded over output
/// channels) and an im2col + blocked GEMM path (large shapes). The GEMM
/// path unrolls a few whole output rows at a time into a column tile of
/// at most 2^16 floats (one row when a row is larger) and splits the
/// tiles across core::parallel_for workers, forking once per call. Both
/// paths sum each output over (ic, ky, kx) ascending from the bias, so
/// they are bitwise equal to each other and to any thread count, and
/// match the seed reference loop nest (sparse::reference::conv2d).
/// `workspace`, when non-null, supplies the column tiles (its column
/// buffer, one tile per worker, reused across calls); without one they
/// are a per-call allocation.
[[nodiscard]] DenseTensor conv2d(const DenseTensor& input,
                                 const DenseTensor& weights,
                                 std::span<const float> bias,
                                 const Conv2dSpec& spec,
                                 Workspace* workspace = nullptr);

/// Allocation-free steady-state variant: writes the result into `out`,
/// reusing its buffer when capacity allows (out must not alias input).
void conv2d_into(const DenseTensor& input, const DenseTensor& weights,
                 std::span<const float> bias, const Conv2dSpec& spec,
                 DenseTensor& out, Workspace* workspace = nullptr);

/// Forces the flat-index direct path (exposed for parity tests/bench).
[[nodiscard]] DenseTensor conv2d_direct(const DenseTensor& input,
                                        const DenseTensor& weights,
                                        std::span<const float> bias,
                                        const Conv2dSpec& spec);

/// Forces the im2col + blocked-GEMM path (exposed for parity tests/bench).
[[nodiscard]] DenseTensor conv2d_gemm(const DenseTensor& input,
                                      const DenseTensor& weights,
                                      std::span<const float> bias,
                                      const Conv2dSpec& spec,
                                      Workspace* workspace = nullptr);

/// True when conv2d would take the GEMM path for this input/spec.
[[nodiscard]] bool conv2d_uses_gemm(const TensorShape& input,
                                    const Conv2dSpec& spec) noexcept;

/// Transposed convolution (a.k.a. deconvolution) used by decoder stages:
/// input value (ic, iy, ix) adds in * w[oc][ic][ky][kx] to output
/// (iy*s + ky - p, ix*s + kx - p). Output extent:
/// (in - 1) * stride - 2 * padding + kernel.
///
/// Runs as stride x stride phase sub-convolutions. Outputs with
/// (oy + p) mod s = ry and (ox + p) mod s = rx see only the taps
/// ky = ry (mod s) and kx = rx (mod s), so each phase is an ordinary
/// GEMM over a column tile of shifted input rows, reduced by the same
/// blocked loop as conv2d's GEMM path, tiled and threaded the same way.
/// Each phase takes its taps in descending ky/kx order, so every output
/// sums over (ic, iy, ix) ascending from the bias: the seed scatter's
/// order (sparse::reference::transposed_conv2d). The result is bitwise
/// equal to the scatter for finite weights, at any thread count, with
/// one exception: the scatter skips zero inputs while the GEMM adds
/// their +-0 products, so a -0.0f bias can come out +0.0f at an output
/// whose every contribution is zero.
[[nodiscard]] DenseTensor transposed_conv2d(const DenseTensor& input,
                                            const DenseTensor& weights,
                                            std::span<const float> bias,
                                            const Conv2dSpec& spec);

/// Allocation-free steady-state variant: writes into `out`, reusing its
/// buffer (out must not alias input). `workspace`, when non-null,
/// supplies the packed phase weights and the column tiles.
void transposed_conv2d_into(const DenseTensor& input,
                            const DenseTensor& weights,
                            std::span<const float> bias,
                            const Conv2dSpec& spec, DenseTensor& out,
                            Workspace* workspace = nullptr);

[[nodiscard]] int transposed_conv_out_extent(int in_extent, int kernel,
                                             int stride, int padding);

/// Fully connected layer over flattened input. weights [out, in] stored
/// as a [out, in, 1, 1] tensor.
[[nodiscard]] DenseTensor fully_connected(const DenseTensor& input,
                                          const DenseTensor& weights,
                                          std::span<const float> bias);

/// 2x2 (or kxk) max pooling with stride = kernel.
[[nodiscard]] DenseTensor max_pool(const DenseTensor& input, int kernel);

/// kxk average pooling with stride = kernel.
[[nodiscard]] DenseTensor avg_pool(const DenseTensor& input, int kernel);

/// In-place ReLU.
void relu_inplace(DenseTensor& t) noexcept;

/// Per-channel affine normalization: y = x * gamma[c] + beta[c]
/// (inference-mode batchnorm with folded statistics).
[[nodiscard]] DenseTensor channel_affine(const DenseTensor& input,
                                         std::span<const float> gamma,
                                         std::span<const float> beta);

/// Channel-wise concatenation of two tensors with equal N/H/W.
[[nodiscard]] DenseTensor concat_channels(const DenseTensor& a,
                                          const DenseTensor& b);

/// Elementwise sum of two equal-shaped tensors.
[[nodiscard]] DenseTensor add(const DenseTensor& a, const DenseTensor& b);

/// Nearest-neighbour upsampling by integer factor.
[[nodiscard]] DenseTensor upsample_nearest(const DenseTensor& input,
                                           int factor);

}  // namespace evedge::nn

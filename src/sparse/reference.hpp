#pragma once

// Seed reference kernels, preserved verbatim from the original naive
// implementations. They are deliberately slow (checked at() per element,
// a scalar scatter) and exist for two reasons only:
//  - the randomized parity suite pins the fast kernels in nn/kernels.cpp
//    and sparse/sparse_ops.cpp against them, and
//  - bench_kernels times old-vs-new on identical inputs so the perf
//    trajectory is tracked in BENCH_kernels.json from PR 1 onward.
// Do not optimize these.

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"

namespace evedge::sparse::reference {

/// Direct dense convolution: the seed nn::conv2d 7-deep loop nest.
[[nodiscard]] DenseTensor conv2d(const DenseTensor& input,
                                 const DenseTensor& weights,
                                 std::span<const float> bias,
                                 const Conv2dSpec& spec);

/// The seed nn::transposed_conv2d: a per-output-channel scatter of every
/// non-zero input through its k x k taps, (ic, iy, ix) ascending. Kept
/// verbatim except that the output channels run in a plain loop instead
/// of a parallel_for (results are the same either way).
[[nodiscard]] DenseTensor transposed_conv2d(const DenseTensor& input,
                                            const DenseTensor& weights,
                                            std::span<const float> bias,
                                            const Conv2dSpec& spec);

/// The seed scatter sparse convolution (checked at() accumulation).
[[nodiscard]] DenseTensor sparse_conv2d(std::span<const CooChannel> input,
                                        const DenseTensor& weights,
                                        std::span<const float> bias,
                                        const Conv2dSpec& spec,
                                        ConvWork* work = nullptr);

/// The channel-major LIF step (nn::LifState's before its membrane went
/// site-major), kept as the oracle of the site-major one: per channel
/// plane, U = U * leak[c] + I; where U >= threshold[c] the site spikes
/// (1.0f) and U becomes U - threshold[c] (soft reset) or 0. `membrane`
/// and `current` are NCHW and equally shaped; `leak` and `threshold`
/// hold one value per channel. Returns the spike tensor and adds the
/// spike count to `spikes`.
[[nodiscard]] DenseTensor lif_step(DenseTensor& membrane,
                                   const DenseTensor& current,
                                   std::span<const float> leak,
                                   std::span<const float> threshold,
                                   bool soft_reset, std::uint64_t& spikes);

}  // namespace evedge::sparse::reference

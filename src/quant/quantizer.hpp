#pragma once

// Fake-quantization: values are rounded to the target precision's grid and
// immediately dequantized, so all arithmetic stays in float while the
// numerical error matches the target precision. INT8 uses symmetric
// per-tensor linear quantization (the paper: "the pretrained network is
// quantized linearly based on the layer bit-widths").

#include <span>

#include "quant/precision.hpp"
#include "sparse/tensor.hpp"

namespace evedge::quant {

/// Rounds one float to IEEE half-precision (round-to-nearest-even),
/// saturating to +-65504. Implemented with bit manipulation; exact for
/// normals and flushes half-denormals to nearest representable.
[[nodiscard]] float round_to_fp16(float v) noexcept;

/// Symmetric linear INT8 grid over [-max_abs, max_abs]:
/// q = clamp(round(v / scale), -127, 127), dequant = q * scale.
struct Int8Scale {
  float scale = 1.0f;

  /// Non-finite or non-positive ranges fall back to the unit grid
  /// (scale 1): a NaN/Inf range must not poison every quantized value.
  [[nodiscard]] static Int8Scale for_range(float max_abs) noexcept;
  /// Quantize-dequantize one value. Non-finite inputs are handled
  /// explicitly: +-Inf saturates to the grid edge, NaN maps to 0.
  [[nodiscard]] float apply(float v) const noexcept;
  /// The integer grid index of `v`: round half away from zero via the
  /// reciprocal multiply + biased truncation, saturated to +-127 (+-Inf
  /// saturates, NaN maps to 0). This IS the grid definition — the INT8
  /// kernels and the fake-quant reference both call it, so their
  /// rounding agrees bit for bit. Inline select-shaped branches: the
  /// kernels' quantization loops must vectorize.
  [[nodiscard]] int quantize(float v) const noexcept {
    float q = v * (1.0f / scale);
    q = q > 127.0f ? 127.0f : q;
    q = q < -127.0f ? -127.0f : q;
    q = q != q ? 0.0f : q;  // NaN (the only value failing q == q)
    return static_cast<int>(q + (q >= 0.0f ? 0.5f : -0.5f));
  }
};

/// Largest finite |v| in the span (0 for empty). Non-finite elements are
/// skipped: a NaN/Inf outlier must not silently poison the scale — the
/// resulting grid still covers every finite value.
[[nodiscard]] float max_abs(std::span<const float> values) noexcept;

/// Fake-quantizes every element of `values` in place to `precision`
/// (no-op for FP32). INT8 scale is computed from the span itself.
void fake_quantize(std::span<float> values, Precision precision) noexcept;

/// Fake-quantizes a tensor in place.
void fake_quantize(sparse::DenseTensor& tensor, Precision precision) noexcept;

/// Worst-case quantization step for a tensor with the given max-abs value
/// (half the INT8 bucket width; fp16 relative epsilon scaled by range).
[[nodiscard]] double quantization_step(float max_abs_value,
                                       Precision precision) noexcept;

/// One quantization step of the int8 grid covering `reference`: the
/// elementwise tolerance for comparing real-engine int8 output against
/// its fake-quant reference (integer accumulation is exact and both
/// paths share every rounding decision, so they differ by at most this).
[[nodiscard]] double output_quant_step(const sparse::DenseTensor& reference);

}  // namespace evedge::quant

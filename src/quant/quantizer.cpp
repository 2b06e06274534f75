#include "quant/quantizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace evedge::quant {

float round_to_fp16(float v) noexcept {
  if (!std::isfinite(v)) return v;
  constexpr float kHalfMax = 65504.0f;
  if (v > kHalfMax) return kHalfMax;
  if (v < -kHalfMax) return -kHalfMax;

  const auto bits = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t exponent = (bits >> 23) & 0xFFu;
  // Below half's smallest subnormal (2^-24): flush to zero.
  if (exponent < 127 - 24) return std::copysign(0.0f, v);

  // Round mantissa to 10 bits (half precision) with round-to-nearest-even.
  // For half-subnormal range (exponent < -14) widen the rounding step so
  // the grid matches half subnormals.
  int shift = 13;  // 23 - 10 mantissa bits
  if (exponent < 127 - 14) {
    shift += static_cast<int>((127u - 14u) - exponent);
    shift = std::min(shift, 23);
  }
  const std::uint32_t mask = (1u << shift) - 1u;
  const std::uint32_t remainder = bits & mask;
  const std::uint32_t halfway = 1u << (shift - 1);
  std::uint32_t truncated = bits & ~mask;
  if (remainder > halfway ||
      (remainder == halfway && ((bits >> shift) & 1u) != 0u)) {
    truncated += (1u << shift);
  }
  return std::bit_cast<float>(truncated);
}

Int8Scale Int8Scale::for_range(float max_abs) noexcept {
  if (!std::isfinite(max_abs) || max_abs <= 0.0f) return Int8Scale{1.0f};
  return Int8Scale{max_abs / 127.0f};
}

float Int8Scale::apply(float v) const noexcept {
  return static_cast<float>(quantize(v)) * scale;
}

float max_abs(std::span<const float> values) noexcept {
  float m = 0.0f;
  for (float v : values) {
    const float a = std::abs(v);
    if (std::isfinite(a)) m = std::max(m, a);
  }
  return m;
}

void fake_quantize(std::span<float> values, Precision precision) noexcept {
  switch (precision) {
    case Precision::kFp32:
      return;
    case Precision::kFp16:
      for (float& v : values) v = round_to_fp16(v);
      return;
    case Precision::kInt8: {
      const Int8Scale scale = Int8Scale::for_range(max_abs(values));
      for (float& v : values) v = scale.apply(v);
      return;
    }
  }
}

void fake_quantize(sparse::DenseTensor& tensor,
                   Precision precision) noexcept {
  fake_quantize(tensor.data(), precision);
}

double quantization_step(float max_abs_value, Precision precision) noexcept {
  switch (precision) {
    case Precision::kFp32:
      return 0.0;
    case Precision::kFp16:
      // Relative epsilon of half (2^-11 with rounding) times the range.
      return static_cast<double>(max_abs_value) * 4.8828125e-4;
    case Precision::kInt8:
      return static_cast<double>(max_abs_value) / 127.0 * 0.5;
  }
  return 0.0;
}

double output_quant_step(const sparse::DenseTensor& reference) {
  return static_cast<double>(max_abs(reference.data())) / 127.0;
}

}  // namespace evedge::quant

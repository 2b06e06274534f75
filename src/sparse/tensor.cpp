#include "sparse/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

namespace evedge::sparse {

void validate_shape(const TensorShape& shape) {
  if (shape.n <= 0 || shape.c <= 0 || shape.h <= 0 || shape.w <= 0) {
    throw std::invalid_argument(
        "tensor shape extents must be positive: [" + std::to_string(shape.n) +
        "," + std::to_string(shape.c) + "," + std::to_string(shape.h) + "," +
        std::to_string(shape.w) + "]");
  }
}

DenseTensor::DenseTensor(TensorShape shape, float fill) : shape_(shape) {
  validate_shape(shape_);
  data_.assign(shape_.element_count(), fill);
}

namespace {

[[nodiscard]] std::size_t flat_index(const TensorShape& s, int n, int c,
                                     int y, int x) {
  if (n < 0 || n >= s.n || c < 0 || c >= s.c || y < 0 || y >= s.h || x < 0 ||
      x >= s.w) {
    throw std::out_of_range("DenseTensor::at index out of range");
  }
  return ((static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
           static_cast<std::size_t>(c)) *
              static_cast<std::size_t>(s.h) +
          static_cast<std::size_t>(y)) *
             static_cast<std::size_t>(s.w) +
         static_cast<std::size_t>(x);
}

}  // namespace

float& DenseTensor::at(int n, int c, int y, int x) {
  return data_[flat_index(shape_, n, c, y, x)];
}

float DenseTensor::at(int n, int c, int y, int x) const {
  return data_[flat_index(shape_, n, c, y, x)];
}

void DenseTensor::reset(TensorShape shape) {
  validate_shape(shape);
  shape_ = shape;
  data_.resize(shape_.element_count());
}

void DenseTensor::fill_random(std::uint64_t seed, float range) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-range, range);
  for (float& v : data_) v = dist(rng);
}

std::size_t DenseTensor::count_nonzero(float tol) const noexcept {
  std::size_t count = 0;
  for (float v : data_) {
    if (std::abs(v) > tol) ++count;
  }
  return count;
}

double DenseTensor::density(float tol) const noexcept {
  return data_.empty() ? 0.0
                       : static_cast<double>(count_nonzero(tol)) /
                             static_cast<double>(data_.size());
}

namespace {

void require_same_shape(const DenseTensor& a, const DenseTensor& b) {
  if (!(a.shape() == b.shape())) {
    throw std::invalid_argument("tensor shape mismatch");
  }
}

}  // namespace

void copy_sample(const DenseTensor& src, int n, DenseTensor& out) {
  const TensorShape& s = src.shape();
  if (n < 0 || n >= s.n) {
    throw std::invalid_argument("copy_sample: lane out of range");
  }
  out.reset(TensorShape{1, s.c, s.h, s.w});
  const std::size_t block = src.stride_n();
  const float* from = src.raw() + static_cast<std::size_t>(n) * block;
  std::copy(from, from + block, out.raw());
}

void to_site_major(const DenseTensor& src, DenseTensor& dst) {
  const TensorShape& s = src.shape();
  dst.reset(site_major(s));
  const std::size_t plane = src.stride_c();
  const auto channels = static_cast<std::size_t>(s.c);
  for (int n = 0; n < s.n; ++n) {
    const float* from = src.raw() + static_cast<std::size_t>(n) * src.stride_n();
    float* to = dst.raw() + static_cast<std::size_t>(n) * src.stride_n();
    // Sites outer: the writes stream contiguously and each of the C
    // plane reads advances one element per site.
    for (std::size_t i = 0; i < plane; ++i) {
      for (std::size_t c = 0; c < channels; ++c) {
        to[i * channels + c] = from[c * plane + i];
      }
    }
  }
}

float max_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  require_same_shape(a, b);
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

double mean_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  require_same_shape(a, b);
  if (a.size() == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::abs(static_cast<double>(a.data()[i]) -
                    static_cast<double>(b.data()[i]));
  }
  return acc / static_cast<double>(a.size());
}

double relative_l2_error(const DenseTensor& a, const DenseTensor& b,
                         double eps) {
  require_same_shape(a, b);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a.data()[i]) -
                     static_cast<double>(b.data()[i]);
    num += d * d;
    den += static_cast<double>(b.data()[i]) *
           static_cast<double>(b.data()[i]);
  }
  return std::sqrt(num) / std::max(std::sqrt(den), eps);
}

}  // namespace evedge::sparse

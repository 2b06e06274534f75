#pragma once

// DenseTensor: a minimal NCHW float tensor used as the dense counterpart
// of sparse frames — the functional substrate for the network zoo and the
// reference implementation the sparse kernels are validated against.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace evedge::sparse {

/// NCHW shape. n = batch, c = channels, h = rows, w = columns.
struct TensorShape {
  int n = 1;
  int c = 1;
  int h = 1;
  int w = 1;

  [[nodiscard]] constexpr std::size_t element_count() const noexcept {
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(c) *
           static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
  }
  friend bool operator==(const TensorShape&, const TensorShape&) = default;
};

/// Throws std::invalid_argument unless all extents are positive.
void validate_shape(const TensorShape& shape);

/// The site-major twin of an NCHW shape: [N, H, W, C], held in
/// TensorShape's (n, c, h, w) fields in that order, so a site-major
/// tensor's at(n, y, x, c) reads channel c of site (y, x).
[[nodiscard]] constexpr TensorShape site_major(const TensorShape& s) noexcept {
  return TensorShape{s.n, s.h, s.w, s.c};
}

/// Row-major NCHW dense float tensor with value semantics.
class DenseTensor {
 public:
  DenseTensor() = default;
  explicit DenseTensor(TensorShape shape, float fill = 0.0f);

  [[nodiscard]] const TensorShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] float& at(int n, int c, int y, int x);
  [[nodiscard]] float at(int n, int c, int y, int x) const;

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  /// Unchecked raw storage pointer (hot-path kernels; callers own the
  /// bounds reasoning — tests should keep using the checked at()).
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  /// Row-major NCHW strides, in elements.
  [[nodiscard]] std::size_t stride_y() const noexcept {
    return static_cast<std::size_t>(shape_.w);
  }
  [[nodiscard]] std::size_t stride_c() const noexcept {
    return static_cast<std::size_t>(shape_.h) *
           static_cast<std::size_t>(shape_.w);
  }
  [[nodiscard]] std::size_t stride_n() const noexcept {
    return static_cast<std::size_t>(shape_.c) * stride_c();
  }

  /// Unchecked flat offset of (n, c, y, x).
  [[nodiscard]] std::size_t offset(int n, int c, int y, int x) const noexcept {
    return static_cast<std::size_t>(n) * stride_n() +
           static_cast<std::size_t>(c) * stride_c() +
           static_cast<std::size_t>(y) * stride_y() +
           static_cast<std::size_t>(x);
  }

  /// Re-shapes in place, reusing the existing allocation when capacity
  /// allows (the engine's output-buffer recycling hook). Element values
  /// are unspecified afterwards — callers must write every element.
  void reset(TensorShape shape);

  /// Deterministic uniform [-range, range) fill from `seed`.
  void fill_random(std::uint64_t seed, float range = 1.0f);

  /// Number of non-zero elements (|v| > tol).
  [[nodiscard]] std::size_t count_nonzero(float tol = 0.0f) const noexcept;

  /// Fraction of non-zero elements in [0, 1].
  [[nodiscard]] double density(float tol = 0.0f) const noexcept;

 private:
  TensorShape shape_{};
  std::vector<float> data_;
};

/// Copies batch lane `n` of `src` into `out` as a [1, C, H, W] tensor
/// (reusing `out`'s allocation when possible).
void copy_sample(const DenseTensor& src, int n, DenseTensor& out);

/// Transposes NCHW `src` into site-major `dst`, reshaped to
/// site_major(src.shape()) with its allocation reused.
void to_site_major(const DenseTensor& src, DenseTensor& dst);

/// Largest absolute elementwise difference; shapes must match.
[[nodiscard]] float max_abs_diff(const DenseTensor& a, const DenseTensor& b);

/// Mean absolute elementwise difference; shapes must match.
[[nodiscard]] double mean_abs_diff(const DenseTensor& a,
                                   const DenseTensor& b);

/// Relative L2 error ||a-b|| / max(||b||, eps); shapes must match.
[[nodiscard]] double relative_l2_error(const DenseTensor& a,
                                       const DenseTensor& b,
                                       double eps = 1e-12);

}  // namespace evedge::sparse

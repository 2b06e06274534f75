#include "nn/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"

namespace evedge::nn {

using sparse::conv_out_extent;
using sparse::validate_conv_spec;

namespace {

void validate_conv_inputs(const DenseTensor& input, const DenseTensor& weights,
                          std::span<const float> bias, const Conv2dSpec& spec,
                          const char* who) {
  validate_conv_spec(spec);
  if (input.shape().c != spec.in_channels) {
    throw std::invalid_argument(std::string(who) +
                                ": input channel mismatch");
  }
  const TensorShape& ws = weights.shape();
  if (ws.n != spec.out_channels || ws.c != spec.in_channels ||
      ws.h != spec.kernel || ws.w != spec.kernel) {
    throw std::invalid_argument(std::string(who) + ": weight shape mismatch");
  }
  if (!bias.empty() && static_cast<int>(bias.size()) != spec.out_channels) {
    throw std::invalid_argument(std::string(who) + ": bias size mismatch");
  }
}

/// First output index whose tap lands inside the input:
/// o * stride + k - padding >= 0.
[[nodiscard]] int first_valid_out(int k, int stride, int padding) noexcept {
  return padding > k ? (padding - k + stride - 1) / stride : 0;
}

/// Last output index whose tap lands inside an extent of `in`:
/// o * stride + k - padding <= in - 1 (may be < 0 when no tap fits).
[[nodiscard]] int last_valid_out(int in, int k, int stride,
                                 int padding) noexcept {
  const int num = in - 1 + padding - k;
  return num < 0 ? -1 : num / stride;
}

}  // namespace

bool conv2d_uses_gemm(const TensorShape& input,
                      const Conv2dSpec& spec) noexcept {
  if (spec.in_channels <= 0 || spec.out_channels <= 0 || spec.kernel <= 0 ||
      spec.stride <= 0 || spec.padding < 0) {
    return false;  // conv2d itself rejects the spec with a real error
  }
  const int out_h =
      (input.h + 2 * spec.padding - spec.kernel) / spec.stride + 1;
  const int out_w =
      (input.w + 2 * spec.padding - spec.kernel) / spec.stride + 1;
  if (out_h <= 0 || out_w <= 0) return false;
  const auto k2 = static_cast<std::size_t>(spec.kernel) *
                  static_cast<std::size_t>(spec.kernel);
  const std::size_t patch = static_cast<std::size_t>(spec.in_channels) * k2;
  const std::size_t pixels =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  const std::size_t macs =
      patch * pixels * static_cast<std::size_t>(spec.out_channels);
  // Below ~256K MACs the im2col materialization dominates; above ~512MB
  // the column matrix would thrash, so fall back to the direct path.
  return macs >= (std::size_t{1} << 18) &&
         patch * pixels <= (std::size_t{1} << 27);
}

namespace {

/// Shared entry bookkeeping for the _into paths: validates, shapes `out`
/// (reusing its buffer) and rejects aliasing.
void prepare_out(const DenseTensor& input, const DenseTensor& weights,
                 std::span<const float> bias, const Conv2dSpec& spec,
                 DenseTensor& out, int& out_h, int& out_w) {
  validate_conv_inputs(input, weights, bias, spec, "conv2d");
  if (&out == &input || &out == &weights) {
    throw std::invalid_argument("conv2d_into: out must not alias an input");
  }
  const TensorShape& is = input.shape();
  out_h = conv_out_extent(is.h, spec.kernel, spec.stride, spec.padding);
  out_w = conv_out_extent(is.w, spec.kernel, spec.stride, spec.padding);
  out.reset(TensorShape{is.n, spec.out_channels, out_h, out_w});
}

void conv2d_direct_into(const DenseTensor& input, const DenseTensor& weights,
                        std::span<const float> bias, const Conv2dSpec& spec,
                        DenseTensor& out) {
  int out_h = 0;
  int out_w = 0;
  prepare_out(input, weights, bias, spec, out, out_h, out_w);
  const TensorShape& is = input.shape();

  const float* in = input.raw();
  const float* w = weights.raw();
  float* o = out.raw();
  const std::size_t in_plane = input.stride_c();
  const std::size_t in_batch = input.stride_n();
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  const std::size_t out_batch =
      static_cast<std::size_t>(spec.out_channels) * out_plane;
  const std::size_t w_oc = weights.stride_n();

  for (int n = 0; n < is.n; ++n) {
    const float* in_n = in + static_cast<std::size_t>(n) * in_batch;
    float* out_n = o + static_cast<std::size_t>(n) * out_batch;
    core::parallel_for(0, spec.out_channels, [&](int oc) {
      const float b = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
      const float* w_base = w + static_cast<std::size_t>(oc) * w_oc;
      float* out_row = out_n + static_cast<std::size_t>(oc) * out_plane;
      for (int oy = 0; oy < out_h; ++oy) {
        const int iy0 = oy * spec.stride - spec.padding;
        for (int ox = 0; ox < out_w; ++ox) {
          const int ix0 = ox * spec.stride - spec.padding;
          float acc = b;
          const float* wp = w_base;
          for (int ic = 0; ic < spec.in_channels; ++ic) {
            const float* in_c = in_n + static_cast<std::size_t>(ic) * in_plane;
            for (int ky = 0; ky < spec.kernel; ++ky) {
              const int iy = iy0 + ky;
              if (iy < 0 || iy >= is.h) {
                wp += spec.kernel;
                continue;
              }
              const float* in_row =
                  in_c + static_cast<std::size_t>(iy) *
                             static_cast<std::size_t>(is.w);
              for (int kx = 0; kx < spec.kernel; ++kx) {
                const int ix = ix0 + kx;
                if (ix < 0 || ix >= is.w) continue;
                acc += in_row[ix] * wp[kx];
              }
              wp += spec.kernel;
            }
          }
          out_row[static_cast<std::size_t>(oy) *
                      static_cast<std::size_t>(out_w) +
                  static_cast<std::size_t>(ox)] = acc;
        }
      }
    });
  }
}

/// Unrolls one input image into the [patch x pixels] column matrix:
/// row (ic*k + ky)*k + kx holds the input value each output pixel sees
/// through that kernel tap (0 where the tap falls outside the input).
void im2col(const float* in_n, const TensorShape& is, const Conv2dSpec& spec,
            int out_h, int out_w, float* col) {
  const std::size_t pixels =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  const std::size_t in_plane = static_cast<std::size_t>(is.h) *
                               static_cast<std::size_t>(is.w);
  std::size_t r = 0;
  for (int ic = 0; ic < spec.in_channels; ++ic) {
    const float* in_c = in_n + static_cast<std::size_t>(ic) * in_plane;
    for (int ky = 0; ky < spec.kernel; ++ky) {
      const int oy_lo = first_valid_out(ky, spec.stride, spec.padding);
      const int oy_hi = std::min(
          out_h - 1, last_valid_out(is.h, ky, spec.stride, spec.padding));
      for (int kx = 0; kx < spec.kernel; ++kx, ++r) {
        float* dst = col + r * pixels;
        const int ox_lo = first_valid_out(kx, spec.stride, spec.padding);
        const int ox_hi = std::min(
            out_w - 1, last_valid_out(is.w, kx, spec.stride, spec.padding));
        for (int oy = 0; oy < out_h; ++oy) {
          float* dst_row = dst + static_cast<std::size_t>(oy) *
                                     static_cast<std::size_t>(out_w);
          if (oy < oy_lo || oy > oy_hi || ox_lo > ox_hi) {
            std::fill(dst_row, dst_row + out_w, 0.0f);
            continue;
          }
          const int iy = oy * spec.stride + ky - spec.padding;
          const float* src_row = in_c + static_cast<std::size_t>(iy) *
                                            static_cast<std::size_t>(is.w);
          std::fill(dst_row, dst_row + ox_lo, 0.0f);
          if (spec.stride == 1) {
            std::memcpy(dst_row + ox_lo, src_row + ox_lo + kx - spec.padding,
                        static_cast<std::size_t>(ox_hi - ox_lo + 1) *
                            sizeof(float));
          } else {
            for (int ox = ox_lo; ox <= ox_hi; ++ox) {
              dst_row[ox] = src_row[ox * spec.stride + kx - spec.padding];
            }
          }
          std::fill(dst_row + ox_hi + 1, dst_row + out_w, 0.0f);
        }
      }
    }
  }
}

void conv2d_gemm_into(const DenseTensor& input, const DenseTensor& weights,
                      std::span<const float> bias, const Conv2dSpec& spec,
                      DenseTensor& out, sparse::Workspace* workspace) {
  int out_h = 0;
  int out_w = 0;
  prepare_out(input, weights, bias, spec, out, out_h, out_w);
  const TensorShape& is = input.shape();

  const std::size_t patch = static_cast<std::size_t>(spec.in_channels) *
                            static_cast<std::size_t>(spec.kernel) *
                            static_cast<std::size_t>(spec.kernel);
  const std::size_t pixels =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  // With a workspace the column matrix is arena-owned and reused across
  // calls; without one it stays a per-call allocation (the column matrix
  // can reach hundreds of MB for large shapes — retaining it behind a
  // hidden thread_local would pin that for the thread's lifetime).
  std::vector<float> local_col;
  float* col_data;
  if (workspace != nullptr) {
    col_data = workspace->scratch().col_buffer(patch * pixels);
  } else {
    local_col.resize(patch * pixels);
    col_data = local_col.data();
  }

  const float* w = weights.raw();  // [Cout x patch], rows contiguous
  float* o = out.raw();
  const std::size_t out_batch =
      static_cast<std::size_t>(spec.out_channels) * pixels;

  // Register/L1 blocking: kOcBlock output rows share each column-matrix
  // read; kPixBlock keeps the accumulator tile resident.
  constexpr int kOcBlock = 4;
  constexpr std::size_t kPixBlock = 1024;

  for (int n = 0; n < is.n; ++n) {
    im2col(input.raw() + static_cast<std::size_t>(n) * input.stride_n(), is,
           spec, out_h, out_w, col_data);
    float* out_n = o + static_cast<std::size_t>(n) * out_batch;
    const int oc_blocks =
        (spec.out_channels + kOcBlock - 1) / kOcBlock;
    core::parallel_for(0, oc_blocks, [&](int blk) {
      const int oc0 = blk * kOcBlock;
      const int oc1 = std::min(spec.out_channels, oc0 + kOcBlock);
      float acc[kOcBlock][kPixBlock];
      for (std::size_t p0 = 0; p0 < pixels; p0 += kPixBlock) {
        const std::size_t plen = std::min(kPixBlock, pixels - p0);
        for (int oc = oc0; oc < oc1; ++oc) {
          const float b =
              bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
          std::fill(acc[oc - oc0], acc[oc - oc0] + plen, b);
        }
        for (std::size_t r = 0; r < patch; ++r) {
          const float* col_row = col_data + r * pixels + p0;
          for (int oc = oc0; oc < oc1; ++oc) {
            const float wv = w[static_cast<std::size_t>(oc) * patch + r];
            float* a = acc[oc - oc0];
            for (std::size_t p = 0; p < plen; ++p) a[p] += wv * col_row[p];
          }
        }
        for (int oc = oc0; oc < oc1; ++oc) {
          std::memcpy(out_n + static_cast<std::size_t>(oc) * pixels + p0,
                      acc[oc - oc0], plen * sizeof(float));
        }
      }
    });
  }
}

}  // namespace

DenseTensor conv2d_direct(const DenseTensor& input, const DenseTensor& weights,
                          std::span<const float> bias,
                          const Conv2dSpec& spec) {
  DenseTensor out;
  conv2d_direct_into(input, weights, bias, spec, out);
  return out;
}

DenseTensor conv2d_gemm(const DenseTensor& input, const DenseTensor& weights,
                        std::span<const float> bias, const Conv2dSpec& spec,
                        sparse::Workspace* workspace) {
  DenseTensor out;
  conv2d_gemm_into(input, weights, bias, spec, out, workspace);
  return out;
}

void conv2d_into(const DenseTensor& input, const DenseTensor& weights,
                 std::span<const float> bias, const Conv2dSpec& spec,
                 DenseTensor& out, sparse::Workspace* workspace) {
  // Both paths validate on entry; no need to validate twice here.
  if (conv2d_uses_gemm(input.shape(), spec)) {
    conv2d_gemm_into(input, weights, bias, spec, out, workspace);
  } else {
    conv2d_direct_into(input, weights, bias, spec, out);
  }
}

DenseTensor conv2d(const DenseTensor& input, const DenseTensor& weights,
                   std::span<const float> bias, const Conv2dSpec& spec,
                   sparse::Workspace* workspace) {
  DenseTensor out;
  conv2d_into(input, weights, bias, spec, out, workspace);
  return out;
}

int transposed_conv_out_extent(int in_extent, int kernel, int stride,
                               int padding) {
  const int out = (in_extent - 1) * stride - 2 * padding + kernel;
  if (out <= 0) {
    throw std::invalid_argument("transposed conv output extent <= 0");
  }
  return out;
}

DenseTensor transposed_conv2d(const DenseTensor& input,
                              const DenseTensor& weights,
                              std::span<const float> bias,
                              const Conv2dSpec& spec) {
  validate_conv_inputs(input, weights, bias, spec, "tconv2d");
  const TensorShape& is = input.shape();
  const int out_h = transposed_conv_out_extent(is.h, spec.kernel, spec.stride,
                                               spec.padding);
  const int out_w = transposed_conv_out_extent(is.w, spec.kernel, spec.stride,
                                               spec.padding);
  DenseTensor out(TensorShape{is.n, spec.out_channels, out_h, out_w});

  const float* in = input.raw();
  const float* w = weights.raw();
  float* o = out.raw();
  const std::size_t in_plane = input.stride_c();
  const std::size_t in_batch = input.stride_n();
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  const std::size_t out_batch =
      static_cast<std::size_t>(spec.out_channels) * out_plane;
  const std::size_t w_oc = weights.stride_n();
  const std::size_t w_ic = weights.stride_c();

  for (int n = 0; n < is.n; ++n) {
    const float* in_n = in + static_cast<std::size_t>(n) * in_batch;
    float* out_n = o + static_cast<std::size_t>(n) * out_batch;
    // Each worker owns a slice of output channels, so the scatter into
    // out_plane rows never races across threads.
    core::parallel_for(0, spec.out_channels, [&](int oc) {
      float* out_c = out_n + static_cast<std::size_t>(oc) * out_plane;
      const float b = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
      std::fill(out_c, out_c + out_plane, b);
      const float* w_base = w + static_cast<std::size_t>(oc) * w_oc;
      for (int ic = 0; ic < spec.in_channels; ++ic) {
        const float* in_c = in_n + static_cast<std::size_t>(ic) * in_plane;
        const float* w_k = w_base + static_cast<std::size_t>(ic) * w_ic;
        for (int iy = 0; iy < is.h; ++iy) {
          const float* in_row = in_c + static_cast<std::size_t>(iy) *
                                           static_cast<std::size_t>(is.w);
          for (int ix = 0; ix < is.w; ++ix) {
            const float v = in_row[ix];
            if (v == 0.0f) continue;
            for (int ky = 0; ky < spec.kernel; ++ky) {
              const int oy = iy * spec.stride + ky - spec.padding;
              if (oy < 0 || oy >= out_h) continue;
              float* out_row = out_c + static_cast<std::size_t>(oy) *
                                           static_cast<std::size_t>(out_w);
              const float* w_row =
                  w_k + static_cast<std::size_t>(ky) *
                            static_cast<std::size_t>(spec.kernel);
              for (int kx = 0; kx < spec.kernel; ++kx) {
                const int ox = ix * spec.stride + kx - spec.padding;
                if (ox < 0 || ox >= out_w) continue;
                out_row[ox] += v * w_row[kx];
              }
            }
          }
        }
      }
    });
  }
  return out;
}

DenseTensor fully_connected(const DenseTensor& input,
                            const DenseTensor& weights,
                            std::span<const float> bias) {
  const TensorShape& is = input.shape();
  const TensorShape& ws = weights.shape();
  const auto in_features = static_cast<std::size_t>(is.c) *
                           static_cast<std::size_t>(is.h) *
                           static_cast<std::size_t>(is.w);
  if (static_cast<std::size_t>(ws.c) != in_features || ws.h != 1 ||
      ws.w != 1) {
    throw std::invalid_argument("fully_connected: weight shape mismatch");
  }
  if (!bias.empty() && static_cast<int>(bias.size()) != ws.n) {
    throw std::invalid_argument("fully_connected: bias size mismatch");
  }
  DenseTensor out(TensorShape{is.n, ws.n, 1, 1});
  const float* in = input.raw();
  const float* w = weights.raw();
  float* o = out.raw();
  for (int n = 0; n < is.n; ++n) {
    const float* in_n = in + static_cast<std::size_t>(n) * in_features;
    float* out_n = o + static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(ws.n);
    core::parallel_for(0, ws.n, [&](int oc) {
      const float* w_row = w + static_cast<std::size_t>(oc) * in_features;
      float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < in_features; ++i) {
        acc += in_n[i] * w_row[i];
      }
      out_n[oc] = acc;
    });
  }
  return out;
}

namespace {

template <typename Reduce>
DenseTensor pool_impl(const DenseTensor& input, int kernel, float init,
                      Reduce reduce, bool average) {
  if (kernel <= 0) throw std::invalid_argument("pool kernel must be > 0");
  const TensorShape& is = input.shape();
  if (is.h % kernel != 0 || is.w % kernel != 0) {
    throw std::invalid_argument("pool: extent not divisible by kernel");
  }
  const int out_h = is.h / kernel;
  const int out_w = is.w / kernel;
  DenseTensor out(TensorShape{is.n, is.c, out_h, out_w});
  const float* in = input.raw();
  float* o = out.raw();
  const std::size_t in_plane = input.stride_c();
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const int planes = is.n * is.c;
  for (int p = 0; p < planes; ++p) {
    const float* in_p = in + static_cast<std::size_t>(p) * in_plane;
    float* out_p = o + static_cast<std::size_t>(p) * out_plane;
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float acc = init;
        for (int ky = 0; ky < kernel; ++ky) {
          const float* in_row =
              in_p + static_cast<std::size_t>(oy * kernel + ky) *
                         static_cast<std::size_t>(is.w) +
              static_cast<std::size_t>(ox * kernel);
          for (int kx = 0; kx < kernel; ++kx) {
            acc = reduce(acc, in_row[kx]);
          }
        }
        if (average) acc *= inv;
        out_p[static_cast<std::size_t>(oy) * static_cast<std::size_t>(out_w) +
              static_cast<std::size_t>(ox)] = acc;
      }
    }
  }
  return out;
}

}  // namespace

DenseTensor max_pool(const DenseTensor& input, int kernel) {
  return pool_impl(
      input, kernel, -std::numeric_limits<float>::infinity(),
      [](float a, float b) { return std::max(a, b); }, false);
}

DenseTensor avg_pool(const DenseTensor& input, int kernel) {
  return pool_impl(
      input, kernel, 0.0f, [](float a, float b) { return a + b; }, true);
}

void relu_inplace(DenseTensor& t) noexcept {
  for (float& v : t.data()) v = std::max(v, 0.0f);
}

DenseTensor channel_affine(const DenseTensor& input,
                           std::span<const float> gamma,
                           std::span<const float> beta) {
  const TensorShape& is = input.shape();
  if (static_cast<int>(gamma.size()) != is.c ||
      static_cast<int>(beta.size()) != is.c) {
    throw std::invalid_argument("channel_affine: parameter size mismatch");
  }
  DenseTensor out(is);
  const float* in = input.raw();
  float* o = out.raw();
  const std::size_t plane = input.stride_c();
  for (int n = 0; n < is.n; ++n) {
    for (int c = 0; c < is.c; ++c) {
      const float g = gamma[static_cast<std::size_t>(c)];
      const float b = beta[static_cast<std::size_t>(c)];
      const std::size_t base =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(is.c) +
           static_cast<std::size_t>(c)) *
          plane;
      const float* src = in + base;
      float* dst = o + base;
      for (std::size_t i = 0; i < plane; ++i) dst[i] = src[i] * g + b;
    }
  }
  return out;
}

DenseTensor concat_channels(const DenseTensor& a, const DenseTensor& b) {
  const TensorShape& as = a.shape();
  const TensorShape& bs = b.shape();
  if (as.n != bs.n || as.h != bs.h || as.w != bs.w) {
    throw std::invalid_argument("concat_channels: N/H/W mismatch");
  }
  DenseTensor out(TensorShape{as.n, as.c + bs.c, as.h, as.w});
  const std::size_t a_block = a.stride_n();
  const std::size_t b_block = b.stride_n();
  float* o = out.raw();
  for (int n = 0; n < as.n; ++n) {
    float* dst = o + static_cast<std::size_t>(n) * (a_block + b_block);
    std::memcpy(dst, a.raw() + static_cast<std::size_t>(n) * a_block,
                a_block * sizeof(float));
    std::memcpy(dst + a_block, b.raw() + static_cast<std::size_t>(n) * b_block,
                b_block * sizeof(float));
  }
  return out;
}

DenseTensor add(const DenseTensor& a, const DenseTensor& b) {
  if (!(a.shape() == b.shape())) {
    throw std::invalid_argument("add: shape mismatch");
  }
  DenseTensor out = a;
  float* o = out.raw();
  const float* rb = b.raw();
  const std::size_t size = out.size();
  for (std::size_t i = 0; i < size; ++i) o[i] += rb[i];
  return out;
}

DenseTensor upsample_nearest(const DenseTensor& input, int factor) {
  if (factor <= 0) throw std::invalid_argument("upsample factor must be > 0");
  const TensorShape& is = input.shape();
  DenseTensor out(TensorShape{is.n, is.c, is.h * factor, is.w * factor});
  const float* in = input.raw();
  float* o = out.raw();
  const std::size_t in_plane = input.stride_c();
  const std::size_t out_w = static_cast<std::size_t>(is.w) *
                            static_cast<std::size_t>(factor);
  const std::size_t out_plane = static_cast<std::size_t>(is.h) *
                                static_cast<std::size_t>(factor) * out_w;
  const int planes = is.n * is.c;
  for (int p = 0; p < planes; ++p) {
    const float* in_p = in + static_cast<std::size_t>(p) * in_plane;
    float* out_p = o + static_cast<std::size_t>(p) * out_plane;
    for (int y = 0; y < is.h; ++y) {
      const float* src = in_p + static_cast<std::size_t>(y) *
                                    static_cast<std::size_t>(is.w);
      // Expand one input row, then replicate it `factor` times.
      float* first = out_p + static_cast<std::size_t>(y) *
                                 static_cast<std::size_t>(factor) * out_w;
      for (int x = 0; x < is.w; ++x) {
        const float v = src[x];
        float* dst = first + static_cast<std::size_t>(x) *
                                 static_cast<std::size_t>(factor);
        for (int f = 0; f < factor; ++f) dst[f] = v;
      }
      for (int f = 1; f < factor; ++f) {
        std::memcpy(first + static_cast<std::size_t>(f) * out_w, first,
                    out_w * sizeof(float));
      }
    }
  }
  return out;
}

}  // namespace evedge::nn

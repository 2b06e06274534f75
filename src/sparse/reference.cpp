#include "sparse/reference.hpp"

#include <algorithm>
#include <stdexcept>

namespace evedge::sparse::reference {

namespace {

void validate_sparse_conv_inputs(std::span<const CooChannel> input,
                                 const DenseTensor& weights,
                                 std::span<const float> bias,
                                 const Conv2dSpec& spec) {
  validate_conv_spec(spec);
  if (static_cast<int>(input.size()) != spec.in_channels) {
    throw std::invalid_argument("reference sparse conv: channel mismatch");
  }
  const TensorShape& ws = weights.shape();
  if (ws.n != spec.out_channels || ws.c != spec.in_channels ||
      ws.h != spec.kernel || ws.w != spec.kernel) {
    throw std::invalid_argument("reference sparse conv: weight mismatch");
  }
  if (!bias.empty() && static_cast<int>(bias.size()) != spec.out_channels) {
    throw std::invalid_argument("reference sparse conv: bias mismatch");
  }
  for (std::size_t c = 1; c < input.size(); ++c) {
    if (input[c].height() != input[0].height() ||
        input[c].width() != input[0].width()) {
      throw std::invalid_argument("reference sparse conv: extents differ");
    }
  }
}

[[nodiscard]] std::size_t dense_mac_count(const Conv2dSpec& spec, int out_h,
                                          int out_w) {
  return static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w) *
         static_cast<std::size_t>(spec.out_channels) *
         static_cast<std::size_t>(spec.in_channels) *
         static_cast<std::size_t>(spec.kernel) *
         static_cast<std::size_t>(spec.kernel);
}

}  // namespace

DenseTensor conv2d(const DenseTensor& input, const DenseTensor& weights,
                   std::span<const float> bias, const Conv2dSpec& spec) {
  validate_conv_spec(spec);
  const TensorShape& is = input.shape();
  const TensorShape& ws = weights.shape();
  if (is.c != spec.in_channels) {
    throw std::invalid_argument("reference conv2d: input channel mismatch");
  }
  if (ws.n != spec.out_channels || ws.c != spec.in_channels ||
      ws.h != spec.kernel || ws.w != spec.kernel) {
    throw std::invalid_argument("reference conv2d: weight shape mismatch");
  }
  if (!bias.empty() && static_cast<int>(bias.size()) != spec.out_channels) {
    throw std::invalid_argument("reference conv2d: bias size mismatch");
  }
  const int out_h =
      conv_out_extent(is.h, spec.kernel, spec.stride, spec.padding);
  const int out_w =
      conv_out_extent(is.w, spec.kernel, spec.stride, spec.padding);
  DenseTensor out(TensorShape{is.n, spec.out_channels, out_h, out_w});
  for (int n = 0; n < is.n; ++n) {
    for (int oc = 0; oc < spec.out_channels; ++oc) {
      const float b = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
          float acc = b;
          for (int ic = 0; ic < spec.in_channels; ++ic) {
            for (int ky = 0; ky < spec.kernel; ++ky) {
              const int iy = oy * spec.stride + ky - spec.padding;
              if (iy < 0 || iy >= is.h) continue;
              for (int kx = 0; kx < spec.kernel; ++kx) {
                const int ix = ox * spec.stride + kx - spec.padding;
                if (ix < 0 || ix >= is.w) continue;
                acc += input.at(n, ic, iy, ix) * weights.at(oc, ic, ky, kx);
              }
            }
          }
          out.at(n, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

DenseTensor transposed_conv2d(const DenseTensor& input,
                              const DenseTensor& weights,
                              std::span<const float> bias,
                              const Conv2dSpec& spec) {
  validate_conv_spec(spec);
  const TensorShape& is = input.shape();
  const TensorShape& ws = weights.shape();
  if (is.c != spec.in_channels) {
    throw std::invalid_argument("reference tconv2d: input channel mismatch");
  }
  if (ws.n != spec.out_channels || ws.c != spec.in_channels ||
      ws.h != spec.kernel || ws.w != spec.kernel) {
    throw std::invalid_argument("reference tconv2d: weight shape mismatch");
  }
  if (!bias.empty() && static_cast<int>(bias.size()) != spec.out_channels) {
    throw std::invalid_argument("reference tconv2d: bias size mismatch");
  }
  const int out_h = (is.h - 1) * spec.stride - 2 * spec.padding + spec.kernel;
  const int out_w = (is.w - 1) * spec.stride - 2 * spec.padding + spec.kernel;
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("transposed conv output extent <= 0");
  }
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
    for (int oc = 0; oc < spec.out_channels; ++oc) {
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
    }
  }
  return out;
}

DenseTensor sparse_conv2d(std::span<const CooChannel> input,
                          const DenseTensor& weights,
                          std::span<const float> bias, const Conv2dSpec& spec,
                          ConvWork* work) {
  validate_sparse_conv_inputs(input, weights, bias, spec);
  const int in_h = input[0].height();
  const int in_w = input[0].width();
  const int out_h =
      conv_out_extent(in_h, spec.kernel, spec.stride, spec.padding);
  const int out_w =
      conv_out_extent(in_w, spec.kernel, spec.stride, spec.padding);

  DenseTensor out(TensorShape{1, spec.out_channels, out_h, out_w});
  if (!bias.empty()) {
    for (int oc = 0; oc < spec.out_channels; ++oc) {
      for (int y = 0; y < out_h; ++y) {
        for (int x = 0; x < out_w; ++x) {
          out.at(0, oc, y, x) = bias[static_cast<std::size_t>(oc)];
        }
      }
    }
  }

  std::size_t sparse_macs = 0;
  std::size_t nnz_in = 0;
  for (int ic = 0; ic < spec.in_channels; ++ic) {
    const CooChannel& ch = input[static_cast<std::size_t>(ic)];
    nnz_in += ch.nnz();
    for (const CooEntry& e : ch.entries()) {
      for (int ky = 0; ky < spec.kernel; ++ky) {
        const int oy_num = e.row + spec.padding - ky;
        if (oy_num < 0 || oy_num % spec.stride != 0) continue;
        const int oy = oy_num / spec.stride;
        if (oy >= out_h) continue;
        for (int kx = 0; kx < spec.kernel; ++kx) {
          const int ox_num = e.col + spec.padding - kx;
          if (ox_num < 0 || ox_num % spec.stride != 0) continue;
          const int ox = ox_num / spec.stride;
          if (ox >= out_w) continue;
          for (int oc = 0; oc < spec.out_channels; ++oc) {
            out.at(0, oc, oy, ox) += weights.at(oc, ic, ky, kx) * e.value;
          }
          sparse_macs += static_cast<std::size_t>(spec.out_channels);
        }
      }
    }
  }

  if (work != nullptr) {
    work->dense_macs += dense_mac_count(spec, out_h, out_w);
    work->sparse_macs += sparse_macs;
    work->nnz_in += nnz_in;
  }
  return out;
}

DenseTensor lif_step(DenseTensor& membrane, const DenseTensor& current,
                     std::span<const float> leak,
                     std::span<const float> threshold, bool soft_reset,
                     std::uint64_t& spikes_fired) {
  const TensorShape& shape = membrane.shape();
  if (!(current.shape() == shape) ||
      leak.size() != static_cast<std::size_t>(shape.c) ||
      threshold.size() != static_cast<std::size_t>(shape.c)) {
    throw std::invalid_argument("reference::lif_step: shape mismatch");
  }
  DenseTensor spikes(shape);
  const auto plane =
      static_cast<std::size_t>(shape.h) * static_cast<std::size_t>(shape.w);
  for (int n = 0; n < shape.n; ++n) {
    for (int c = 0; c < shape.c; ++c) {
      const float l = leak[static_cast<std::size_t>(c)];
      const float vth = threshold[static_cast<std::size_t>(c)];
      const std::size_t base =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape.c) +
           static_cast<std::size_t>(c)) *
          plane;
      for (std::size_t i = 0; i < plane; ++i) {
        float u = membrane.data()[base + i] * l + current.data()[base + i];
        if (u >= vth) {
          spikes.data()[base + i] = 1.0f;
          u = soft_reset ? u - vth : 0.0f;
          ++spikes_fired;
        }
        membrane.data()[base + i] = u;
      }
    }
  }
  return spikes;
}

}  // namespace evedge::sparse::reference

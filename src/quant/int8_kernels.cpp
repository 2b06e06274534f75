#include "quant/int8_kernels.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"

namespace evedge::quant {

using sparse::conv_out_extent;
using sparse::CooEntry;
using sparse::GatherGeometry;
using sparse::TensorShape;
using sparse::validate_conv_spec;

// Hot inner kernels are compiled twice on x86-64 ELF targets — an AVX2
// clone and the baseline — with glibc ifunc dispatch picking at load
// time. The int16 widening multiply-adds double their lane count under
// AVX2; every other platform transparently gets the default clone.
// Sanitizer builds drop the clones: ifunc resolvers run before the
// TSan/ASan runtimes initialize, so an instrumented resolver segfaults
// the process at load (the CI ThreadSanitizer job builds this way).
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) &&         \
    !defined(__SANITIZE_ADDRESS__)
#define EVEDGE_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define EVEDGE_SIMD_CLONES
#endif

namespace {

/// Exact int32 accumulation bound: patch * 127^2 must stay below 2^31.
constexpr std::size_t kMaxPatch = (std::size_t{1} << 31) / (127u * 127u);

void validate_activation_inputs(const DenseTensor& input,
                                const Int8ConvWeights& weights,
                                std::span<const float> bias,
                                const char* who) {
  if (input.shape().c != weights.spec.in_channels) {
    throw std::invalid_argument(std::string(who) +
                                ": input channel mismatch");
  }
  if (!bias.empty() &&
      static_cast<int>(bias.size()) != weights.spec.out_channels) {
    throw std::invalid_argument(std::string(who) + ": bias size mismatch");
  }
}

/// Quantizes `count` floats into the widened int16 compute grid.
EVEDGE_SIMD_CLONES
void quantize_slice(const float* src, std::size_t count, Int8Scale scale,
                    std::int16_t* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<std::int16_t>(scale.quantize(src[i]));
  }
}

/// Transposed int16 im2col: row p of the [pixels][padded] matrix holds
/// the quantized patch output pixel p sees, in the same [ic][ky][kx]
/// order as one `wide` weight row (zero-padded tail) — out[oc][p] is
/// then a contiguous fixed-trip dot product.
void im2col_transposed(const std::int16_t* qin, const TensorShape& is,
                       const Conv2dSpec& spec, int out_h, int out_w,
                       std::size_t padded, std::int16_t* colT) {
  const std::size_t in_plane = static_cast<std::size_t>(is.h) *
                               static_cast<std::size_t>(is.w);
  const std::size_t patch = static_cast<std::size_t>(spec.in_channels) *
                            static_cast<std::size_t>(spec.kernel) *
                            static_cast<std::size_t>(spec.kernel);
  // Interior x range: every kx tap in bounds. Border columns (at most
  // `padding / stride + 1` per side) take the checked path.
  int x_lo = 0;
  while (x_lo < out_w && x_lo * spec.stride - spec.padding < 0) ++x_lo;
  int x_hi = out_w;  // exclusive
  while (x_hi > x_lo &&
         (x_hi - 1) * spec.stride - spec.padding + spec.kernel > is.w) {
    --x_hi;
  }

  core::parallel_for(0, out_h, [&](int oy) {
    const int iy0 = oy * spec.stride - spec.padding;
    const bool y_interior = iy0 >= 0 && iy0 + spec.kernel <= is.h;
    std::int16_t* dst = colT + static_cast<std::size_t>(oy) *
                                   static_cast<std::size_t>(out_w) * padded;
    const auto checked_pixel = [&](int ox) {
      const int ix0 = ox * spec.stride - spec.padding;
      for (int ic = 0; ic < spec.in_channels; ++ic) {
        const std::int16_t* in_c =
            qin + static_cast<std::size_t>(ic) * in_plane;
        for (int ky = 0; ky < spec.kernel; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= is.h) {
            std::fill(dst, dst + spec.kernel, std::int16_t{0});
            dst += spec.kernel;
            continue;
          }
          const std::int16_t* row =
              in_c + static_cast<std::size_t>(iy) *
                         static_cast<std::size_t>(is.w);
          for (int kx = 0; kx < spec.kernel; ++kx) {
            const int ix = ix0 + kx;
            *dst++ = (ix < 0 || ix >= is.w) ? std::int16_t{0} : row[ix];
          }
        }
      }
      std::fill(dst, dst + (padded - patch), std::int16_t{0});
      dst += padded - patch;
    };

    int ox = 0;
    for (; ox < (y_interior ? x_lo : out_w); ++ox) checked_pixel(ox);
    if (y_interior) {
      // Interior run: no bounds checks; each kx row segment moves as
      // 8-byte chunks (one load/store per 4 lanes; the ≤3-lane overrun
      // is absorbed by the callers' guard lanes on qin/qcol and
      // overwritten by the next segment). Dispatched on the kernel
      // extent so the per-channel copy nest fully unrolls. The base
      // offset is formed from non-negative indices only (ix0 >= 0 for
      // every interior pixel) — no before-the-buffer intermediate
      // pointer.
      const std::int16_t* row0 = qin + static_cast<std::size_t>(iy0) *
                                           static_cast<std::size_t>(is.w);
      const auto interior_run = [&]<int K>() {
        for (; ox < x_hi; ++ox) {
          const std::int16_t* base =
              row0 + static_cast<std::size_t>(ox * spec.stride -
                                              spec.padding);
          for (int ic = 0; ic < spec.in_channels; ++ic) {
            const std::int16_t* in_c = base;
            for (int ky = 0; ky < K; ++ky) {
              for (int kx = 0; kx < K; kx += 4) {
                std::memcpy(dst + kx, in_c + kx, 8);
              }
              dst += K;
              in_c += is.w;
            }
            base += in_plane;
          }
          std::fill(dst, dst + (padded - patch), std::int16_t{0});
          dst += padded - patch;
        }
      };
      switch (spec.kernel) {
        case 1: interior_run.operator()<1>(); break;
        case 3: interior_run.operator()<3>(); break;
        case 5: interior_run.operator()<5>(); break;
        case 7: interior_run.operator()<7>(); break;
        default:
          for (; ox < x_hi; ++ox) {
            const std::int16_t* base =
                row0 + static_cast<std::size_t>(ox * spec.stride -
                                                spec.padding);
            for (int ic = 0; ic < spec.in_channels; ++ic) {
              const std::int16_t* in_c = base;
              for (int ky = 0; ky < spec.kernel; ++ky) {
                for (int kx = 0; kx < spec.kernel; kx += 4) {
                  std::memcpy(dst + kx, in_c + kx, 8);
                }
                dst += spec.kernel;
                in_c += is.w;
              }
              base += in_plane;
            }
            std::fill(dst, dst + (padded - patch), std::int16_t{0});
            dst += padded - patch;
          }
      }
      for (; ox < out_w; ++ox) checked_pixel(ox);
    }
  });
}

/// One pixel range of the output-channel-blocked dot kernel:
/// out[oc][p] = bias[oc] + dot(w[oc][:], colT[p][:]) * (sx * wscale[oc]),
/// int32 accumulation. Four channels share each column-row read; the
/// fixed-trip int16 inner loops vectorize to widening multiply-adds.
/// Every int8 kernel forms the dequantization factor as sx * wscale[oc]
/// in exactly this order, so dense and sparse results agree bitwise.
EVEDGE_SIMD_CLONES
void dot_gemm_chunk(const std::int16_t* colT, const std::int16_t* w,
                    std::size_t patch, std::size_t pixels, std::size_t p0,
                    std::size_t p1, int oc_count, const float* bias,
                    const float* wscale, float sx, float* out) {
  for (std::size_t p = p0; p < p1; ++p) {
    const std::int16_t* c = colT + p * patch;
    int oc = 0;
    for (; oc + 4 <= oc_count; oc += 4) {
      const std::int16_t* w0 = w + static_cast<std::size_t>(oc) * patch;
      const std::int16_t* w1 = w0 + patch;
      const std::int16_t* w2 = w1 + patch;
      const std::int16_t* w3 = w2 + patch;
      std::int32_t a0 = 0;
      std::int32_t a1 = 0;
      std::int32_t a2 = 0;
      std::int32_t a3 = 0;
      for (std::size_t r = 0; r < patch; ++r) {
        const std::int32_t cv = c[r];
        a0 += w0[r] * cv;
        a1 += w1[r] * cv;
        a2 += w2[r] * cv;
        a3 += w3[r] * cv;
      }
      const std::size_t o = static_cast<std::size_t>(oc) * pixels + p;
      const float b0 = bias == nullptr ? 0.0f : bias[oc];
      const float b1 = bias == nullptr ? 0.0f : bias[oc + 1];
      const float b2 = bias == nullptr ? 0.0f : bias[oc + 2];
      const float b3 = bias == nullptr ? 0.0f : bias[oc + 3];
      out[o] = b0 + static_cast<float>(a0) * (sx * wscale[oc]);
      out[o + pixels] = b1 + static_cast<float>(a1) * (sx * wscale[oc + 1]);
      out[o + 2 * pixels] =
          b2 + static_cast<float>(a2) * (sx * wscale[oc + 2]);
      out[o + 3 * pixels] =
          b3 + static_cast<float>(a3) * (sx * wscale[oc + 3]);
    }
    for (; oc < oc_count; ++oc) {
      const std::int16_t* wr = w + static_cast<std::size_t>(oc) * patch;
      std::int32_t acc = 0;
      for (std::size_t r = 0; r < patch; ++r) {
        acc += wr[r] * static_cast<std::int32_t>(c[r]);
      }
      const float b = bias == nullptr ? 0.0f : bias[oc];
      out[static_cast<std::size_t>(oc) * pixels + p] =
          b + static_cast<float>(acc) * (sx * wscale[oc]);
    }
  }
}

void dot_gemm(const std::int16_t* colT, const std::int16_t* w,
              std::size_t patch, std::size_t pixels, int oc_count,
              std::span<const float> bias, const float* wscale, float sx,
              float* out) {
  constexpr std::size_t kPixChunk = 2048;
  const int chunks = static_cast<int>((pixels + kPixChunk - 1) / kPixChunk);
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  core::parallel_for(0, chunks, [&](int ck) {
    const std::size_t p0 = static_cast<std::size_t>(ck) * kPixChunk;
    const std::size_t p1 = std::min(pixels, p0 + kPixChunk);
    dot_gemm_chunk(colT, w, patch, pixels, p0, p1, oc_count, bias_ptr,
                   wscale, sx, out);
  });
}

}  // namespace

Int8ConvWeights quantize_conv_weights(const DenseTensor& weights,
                                      const Conv2dSpec& spec,
                                      WeightGranularity granularity) {
  validate_conv_spec(spec);
  const TensorShape& ws = weights.shape();
  if (ws.n != spec.out_channels || ws.c != spec.in_channels ||
      ws.h != spec.kernel || ws.w != spec.kernel) {
    throw std::invalid_argument("quantize_conv_weights: shape mismatch");
  }
  const std::size_t patch = weights.stride_n();
  if (patch >= kMaxPatch) {
    throw std::invalid_argument(
        "quantize_conv_weights: patch too large for exact int32 "
        "accumulation (" +
        std::to_string(patch) + " taps)");
  }
  const auto oc_count = static_cast<std::size_t>(spec.out_channels);

  Int8ConvWeights out;
  out.spec = spec;
  out.patch = patch;
  // Pad room must also absorb the im2col interior path's chunked-copy
  // overrun (up to round_up(k,4)-k lanes past the final kx segment), so
  // an overrun can never cross into the next pixel's column row — that
  // row may belong to another worker.
  const std::size_t chunk_overrun =
      (4u - static_cast<std::size_t>(spec.kernel) % 4u) % 4u;
  out.padded_patch = (patch + chunk_overrun + 7u) & ~std::size_t{7};
  out.q.resize(oc_count * patch);
  out.wide.assign(oc_count * out.padded_patch, 0);
  out.packed.resize(oc_count * patch);
  out.scale.resize(oc_count);
  out.fake = DenseTensor(ws);

  const float* w = weights.raw();
  const Int8Scale tensor_scale = Int8Scale::for_range(
      max_abs(std::span<const float>(w, oc_count * patch)));
  float* fake = out.fake.raw();
  for (std::size_t oc = 0; oc < oc_count; ++oc) {
    const float* src = w + oc * patch;
    const Int8Scale s =
        granularity == WeightGranularity::kPerTensor
            ? tensor_scale
            : Int8Scale::for_range(
                  max_abs(std::span<const float>(src, patch)));
    out.scale[oc] = s.scale;
    for (std::size_t r = 0; r < patch; ++r) {
      const int qv = s.quantize(src[r]);
      out.q[oc * patch + r] = static_cast<std::int8_t>(qv);
      out.wide[oc * out.padded_patch + r] = static_cast<std::int16_t>(qv);
      out.packed[r * oc_count + oc] = static_cast<std::int16_t>(qv);
      fake[oc * patch + r] = static_cast<float>(qv) * s.scale;
    }
  }
  return out;
}

void quantize_activations_reference(const DenseTensor& input, Int8Scale scale,
                                    DenseTensor& out) {
  if (&out != &input) out = input;
  for (float& v : out.data()) v = scale.apply(v);
}

void int8_conv2d_into(const DenseTensor& input, const Int8ConvWeights& weights,
                      std::span<const float> bias, Int8Scale input_scale,
                      DenseTensor& out, Workspace* workspace) {
  validate_activation_inputs(input, weights, bias, "int8_conv2d");
  if (&out == &input) {
    throw std::invalid_argument("int8_conv2d: out must not alias input");
  }
  const Conv2dSpec& spec = weights.spec;
  const TensorShape& is = input.shape();
  const int out_h = conv_out_extent(is.h, spec.kernel, spec.stride,
                                    spec.padding);
  const int out_w = conv_out_extent(is.w, spec.kernel, spec.stride,
                                    spec.padding);
  out.reset(TensorShape{is.n, spec.out_channels, out_h, out_w});

  Workspace local;
  sparse::ConvScratch& s =
      (workspace != nullptr ? *workspace : local).scratch();
  const std::size_t sample = input.stride_n();
  const std::size_t pixels =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  // +8 guard lanes: the interior im2col path copies row segments in
  // 8-byte chunks and may read/write up to 3 lanes past the last one.
  // The qin guard lanes are zeroed so those reads never touch
  // uninitialized memory (the copied-in garbage lands in colT pad lanes
  // that are re-zeroed before the dot kernel reads them).
  std::int16_t* qin = s.qin_buffer(sample + 8);
  std::fill(qin + sample, qin + sample + 8, std::int16_t{0});
  std::int16_t* colT = s.qcol_buffer(weights.padded_patch * pixels + 8);

  for (int n = 0; n < is.n; ++n) {
    quantize_slice(input.raw() + static_cast<std::size_t>(n) * sample, sample,
                   input_scale, qin);
    im2col_transposed(qin, is, spec, out_h, out_w, weights.padded_patch,
                      colT);
    dot_gemm(colT, weights.wide.data(), weights.padded_patch, pixels,
             spec.out_channels, bias, weights.scale.data(),
             input_scale.scale,
             out.raw() + static_cast<std::size_t>(n) * out.stride_n());
  }
}

DenseTensor int8_conv2d(const DenseTensor& input,
                        const Int8ConvWeights& weights,
                        std::span<const float> bias, Int8Scale input_scale,
                        Workspace* workspace) {
  DenseTensor out;
  int8_conv2d_into(input, weights, bias, input_scale, out, workspace);
  return out;
}

void int8_transposed_conv2d_into(const DenseTensor& input,
                                 const Int8ConvWeights& weights,
                                 std::span<const float> bias,
                                 Int8Scale input_scale, DenseTensor& out,
                                 Workspace* workspace) {
  validate_activation_inputs(input, weights, bias, "int8_tconv2d");
  if (&out == &input) {
    throw std::invalid_argument("int8_tconv2d: out must not alias input");
  }
  const Conv2dSpec& spec = weights.spec;
  const TensorShape& is = input.shape();
  const int out_h =
      (is.h - 1) * spec.stride - 2 * spec.padding + spec.kernel;
  const int out_w =
      (is.w - 1) * spec.stride - 2 * spec.padding + spec.kernel;
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("int8_tconv2d: output extent <= 0");
  }
  out.reset(TensorShape{is.n, spec.out_channels, out_h, out_w});

  Workspace local;
  sparse::ConvScratch& s =
      (workspace != nullptr ? *workspace : local).scratch();
  const std::size_t sample = input.stride_n();
  const std::size_t in_plane = input.stride_c();
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  std::int16_t* qin = s.qin_buffer(sample);
  std::int32_t* iacc = s.iacc_buffer(
      static_cast<std::size_t>(spec.out_channels) * out_plane);
  const std::size_t k2 = static_cast<std::size_t>(spec.kernel) *
                         static_cast<std::size_t>(spec.kernel);

  for (int n = 0; n < is.n; ++n) {
    quantize_slice(input.raw() + static_cast<std::size_t>(n) * sample, sample,
                   input_scale, qin);
    float* out_n = out.raw() + static_cast<std::size_t>(n) * out.stride_n();
    // Each worker owns one output channel: the scatter never races.
    core::parallel_for(0, spec.out_channels, [&](int oc) {
      std::int32_t* acc = iacc + static_cast<std::size_t>(oc) * out_plane;
      std::fill(acc, acc + out_plane, 0);
      const std::int16_t* w_base =
          weights.wide.data() +
          static_cast<std::size_t>(oc) * weights.padded_patch;
      for (int ic = 0; ic < spec.in_channels; ++ic) {
        const std::int16_t* in_c =
            qin + static_cast<std::size_t>(ic) * in_plane;
        const std::int16_t* w_k =
            w_base + static_cast<std::size_t>(ic) * k2;
        for (int iy = 0; iy < is.h; ++iy) {
          const std::int16_t* in_row =
              in_c + static_cast<std::size_t>(iy) *
                         static_cast<std::size_t>(is.w);
          for (int ix = 0; ix < is.w; ++ix) {
            const std::int32_t qv = in_row[ix];
            if (qv == 0) continue;
            for (int ky = 0; ky < spec.kernel; ++ky) {
              const int oy = iy * spec.stride + ky - spec.padding;
              if (oy < 0 || oy >= out_h) continue;
              std::int32_t* acc_row =
                  acc + static_cast<std::size_t>(oy) *
                            static_cast<std::size_t>(out_w);
              const std::int16_t* w_row =
                  w_k + static_cast<std::size_t>(ky) *
                            static_cast<std::size_t>(spec.kernel);
              for (int kx = 0; kx < spec.kernel; ++kx) {
                const int ox = ix * spec.stride + kx - spec.padding;
                if (ox < 0 || ox >= out_w) continue;
                acc_row[ox] += qv * w_row[kx];
              }
            }
          }
        }
      }
      const float b = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
      const float dqv =
          input_scale.scale * weights.scale[static_cast<std::size_t>(oc)];
      float* out_c = out_n + static_cast<std::size_t>(oc) * out_plane;
      for (std::size_t i = 0; i < out_plane; ++i) {
        out_c[i] = b + static_cast<float>(acc[i]) * dqv;
      }
    });
  }
}

DenseTensor int8_transposed_conv2d(const DenseTensor& input,
                                   const Int8ConvWeights& weights,
                                   std::span<const float> bias,
                                   Int8Scale input_scale,
                                   Workspace* workspace) {
  DenseTensor out;
  int8_transposed_conv2d_into(input, weights, bias, input_scale, out,
                              workspace);
  return out;
}

DenseTensor int8_fully_connected(const DenseTensor& input,
                                 const Int8ConvWeights& weights,
                                 std::span<const float> bias,
                                 Int8Scale input_scale, Workspace* workspace) {
  const TensorShape& is = input.shape();
  const auto features = static_cast<std::size_t>(is.c) *
                        static_cast<std::size_t>(is.h) *
                        static_cast<std::size_t>(is.w);
  if (features != weights.patch) {
    throw std::invalid_argument("int8_fully_connected: feature mismatch");
  }
  if (!bias.empty() &&
      static_cast<int>(bias.size()) != weights.spec.out_channels) {
    throw std::invalid_argument("int8_fully_connected: bias size mismatch");
  }
  DenseTensor out(TensorShape{is.n, weights.spec.out_channels, 1, 1});

  Workspace local;
  sparse::ConvScratch& s =
      (workspace != nullptr ? *workspace : local).scratch();
  std::int16_t* qin = s.qin_buffer(weights.padded_patch);
  std::fill(qin + features, qin + weights.padded_patch, std::int16_t{0});

  for (int n = 0; n < is.n; ++n) {
    quantize_slice(input.raw() + static_cast<std::size_t>(n) * features,
                   features, input_scale, qin);
    float* out_n = out.raw() + static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(
                                       weights.spec.out_channels);
    // One output value per channel: reuse the dot kernel with pixels = 1.
    dot_gemm(qin, weights.wide.data(), weights.padded_patch, 1,
             weights.spec.out_channels, bias, weights.scale.data(),
             input_scale.scale, out_n);
  }
  return out;
}

namespace {

constexpr std::size_t kOcBlock = 8;
/// Widest accumulator row kept on the stack.
constexpr std::size_t kMaxStackAccum = 256;

/// One site range of the sparse int8 reduction: a single pass over each
/// site's quantized tap list accumulates every output channel in int32
/// against the packed [tap][oc] rows, then requantizes and emits COO
/// entries per channel. The accumulators are stack arrays up to
/// kMaxStackAccum channels; `kHeap` instantiates the same body over heap
/// rows for wider layers.
template <bool kHeap>
EVEDGE_SIMD_CLONES void reduce_sites_chunk(
    const sparse::ConvScratch& s, const std::int16_t* packed,
    std::size_t oc_n, std::size_t s0, std::size_t s1, const float* bias,
    const float* wscale, float sx, int out_w,
    std::vector<CooEntry>* per_oc) {
  float stack_dq[kHeap ? 1 : kMaxStackAccum];
  std::int32_t stack_acc[kHeap ? 1 : kMaxStackAccum];
  std::vector<float> heap_dq(kHeap ? oc_n : 0);
  std::vector<std::int32_t> heap_acc(kHeap ? oc_n : 0);
  float* dq = kHeap ? heap_dq.data() : stack_dq;
  std::int32_t* acc = kHeap ? heap_acc.data() : stack_acc;
  // Dequantization factors formed exactly as the dense kernel forms them
  // (sx * wscale[oc]) so shared sites agree bitwise.
  for (std::size_t j = 0; j < oc_n; ++j) dq[j] = sx * wscale[j];
  for (std::size_t si = s0; si < s1; ++si) {
    std::fill(acc, acc + oc_n, 0);
    const std::size_t t0 = s.site_ptr[si];
    const std::size_t t1 = s.site_ptr[si + 1];
    for (std::size_t t = t0; t < t1; ++t) {
      const std::int16_t* w_row =
          packed + static_cast<std::size_t>(s.taps[t].w_offset) * oc_n;
      const std::int32_t qv = s.qtaps[t];
      std::size_t j = 0;
      for (; j + kOcBlock <= oc_n; j += kOcBlock) {
        for (std::size_t jj = 0; jj < kOcBlock; ++jj) {
          acc[j + jj] += w_row[j + jj] * qv;
        }
      }
      for (; j < oc_n; ++j) acc[j] += w_row[j] * qv;
    }
    const std::int32_t row = s.sites[si] / out_w;
    const std::int32_t col = s.sites[si] % out_w;
    for (std::size_t j = 0; j < oc_n; ++j) {
      const float b = bias == nullptr ? 0.0f : bias[j];
      const float v = b + static_cast<float>(acc[j]) * dq[j];
      if (v != 0.0f) per_oc[j].push_back(CooEntry{row, col, v});
    }
  }
}

}  // namespace

std::vector<CooChannel> int8_sparse_conv2d_csr(
    std::span<const CooChannel> input, const Int8ConvWeights& weights,
    std::span<const float> bias, Int8Scale input_scale, ConvWork* work,
    Workspace* workspace) {
  Workspace local;
  Workspace& arena = workspace != nullptr ? *workspace : local;
  sparse::ConvScratch& s = arena.scratch();
  const GatherGeometry geo = sparse::build_gather_taps(
      input, weights.fake, bias, weights.spec, s);

  // Quantize the shared tap stream once; every site range reuses it.
  s.qtaps.resize(s.taps.size());
  for (std::size_t t = 0; t < s.taps.size(); ++t) {
    s.qtaps[t] = static_cast<std::int16_t>(
        input_scale.quantize(s.taps[t].value));
  }

  const auto oc_n = static_cast<std::size_t>(weights.spec.out_channels);
  std::vector<std::vector<CooEntry>> out_entries(oc_n);
  const std::size_t n_sites = s.sites.size();

  // Site ranges as in the FP32 gather reduction: range 0 emits straight
  // into out_entries, later ranges into their own lists, appended after
  // it in range order (the entry order of one range over all sites).
  const int ranges =
      sparse::gather_range_count(n_sites, core::parallel_thread_count());
  std::vector<std::vector<std::vector<CooEntry>>> later_entries(
      ranges > 1 ? static_cast<std::size_t>(ranges - 1) : 0);
  core::parallel_for(
      0, ranges,
      [&](int r) {
        const std::size_t s0 = n_sites * static_cast<std::size_t>(r) /
                               static_cast<std::size_t>(ranges);
        const std::size_t s1 = n_sites * static_cast<std::size_t>(r + 1) /
                               static_cast<std::size_t>(ranges);
        auto& per_oc = r == 0 ? out_entries
                              : later_entries[static_cast<std::size_t>(r - 1)];
        per_oc.resize(oc_n);
        for (auto& entries : per_oc) entries.reserve(s1 - s0);
        const auto reduce = oc_n > kMaxStackAccum ? reduce_sites_chunk<true>
                                                  : reduce_sites_chunk<false>;
        reduce(s, weights.packed.data(), oc_n, s0, s1,
               bias.empty() ? nullptr : bias.data(), weights.scale.data(),
               input_scale.scale, geo.out_w, per_oc.data());
      },
      ranges);
  for (std::size_t oc = 0; oc < oc_n && !later_entries.empty(); ++oc) {
    std::size_t total = out_entries[oc].size();
    for (const auto& per_oc : later_entries) total += per_oc[oc].size();
    out_entries[oc].reserve(total);
    for (const auto& per_oc : later_entries) {
      out_entries[oc].insert(out_entries[oc].end(), per_oc[oc].begin(),
                             per_oc[oc].end());
    }
  }

  sparse::clear_gather_scratch(input, s);

  std::vector<CooChannel> out;
  out.reserve(oc_n);
  for (auto& entries : out_entries) {
    out.push_back(CooChannel::from_sorted_entries(geo.out_h, geo.out_w,
                                                  std::move(entries)));
  }
  if (work != nullptr) {
    work->dense_macs += static_cast<std::size_t>(geo.out_h) *
                        static_cast<std::size_t>(geo.out_w) * oc_n *
                        weights.patch;
    work->sparse_macs += s.taps.size() * oc_n;
    work->nnz_in += geo.nnz_in;
  }
  return out;
}

}  // namespace evedge::quant

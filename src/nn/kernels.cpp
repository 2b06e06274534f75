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
  const std::size_t macs = static_cast<std::size_t>(spec.in_channels) * k2 *
                           static_cast<std::size_t>(out_h) *
                           static_cast<std::size_t>(out_w) *
                           static_cast<std::size_t>(spec.out_channels);
  // Below ~256K MACs building the column tiles costs more than it saves.
  return macs >= (std::size_t{1} << 18);
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

// ------------------------------------------------- tiled GEMM machinery
//
// Both GEMM kernels (conv2d_gemm_into, transposed_conv2d_into) unroll a
// few whole output rows at a time into a column tile and reduce it with
// one blocked loop. Tiles are split across workers that fork and join
// once per call, each reusing its own slice of the column buffer; every
// output pixel belongs to exactly one tile and sums its column rows in
// ascending order, so the result is bitwise independent of the tiling
// and of the thread count.

/// Column-tile budget in floats (256 KB): a tile holds as many whole
/// output rows as fit (at least one), so it stays cache-resident while
/// every output-channel block reads it.
constexpr std::size_t kColTileFloats = std::size_t{1} << 16;

[[nodiscard]] int ceil_div(int a, int b) noexcept { return (a + b - 1) / b; }

/// Output rows per tile, for rows of `row_floats` column floats: what
/// fits kColTileFloats, capped so `rows` splits into at least `chunks`
/// tiles (one per worker) when it has that many rows.
[[nodiscard]] int rows_per_tile(std::size_t row_floats, int rows,
                                int chunks) noexcept {
  const auto fit = static_cast<int>(std::clamp<std::size_t>(
      kColTileFloats / row_floats, 1, static_cast<std::size_t>(rows)));
  return std::min(fit, ceil_div(rows, chunks));
}

/// `size` floats of per-call scratch: the workspace's column buffer
/// (arena-owned, reused across calls) when there is one, else `local`.
[[nodiscard]] float* scratch_floats(sparse::Workspace* workspace,
                                    std::vector<float>& local,
                                    std::size_t size) {
  if (workspace != nullptr) return workspace->scratch().col_buffer(size);
  local.resize(size);
  return local.data();
}

/// Runs tile(t, col) for every t in [0, tiles): `workers` threads fork
/// and join once, each taking a contiguous run of tiles and its own
/// `tile_floats` slice of `cols`.
template <typename Tile>
void for_each_tile(int tiles, int workers, float* cols,
                   std::size_t tile_floats, const Tile& tile) {
  const int per = ceil_div(tiles, workers);
  core::parallel_for(
      0, workers,
      [&](int wk) {
        float* col = cols + static_cast<std::size_t>(wk) * tile_floats;
        const int end = std::min(tiles, (wk + 1) * per);
        for (int t = wk * per; t < end; ++t) tile(t, col);
      },
      workers);
}

/// The blocked reduction of one [rows x cols] column tile against
/// weights w = [out_channels x rows]:
///   acc(oc, q) = bias[oc] + sum over r ascending of w[oc][r] * col[r][q].
/// kOcBlock output channels share each column read (a full block in one
/// pass over the column row); kPixBlock keeps the accumulator block in
/// L1. store(oc, q0, acc, len) takes each finished run of tile columns
/// [q0, q0 + len).
template <typename Store>
void reduce_tile(const float* w, std::size_t rows, std::span<const float> bias,
                 int out_channels, const float* col, std::size_t cols,
                 const Store& store) {
  constexpr int kOcBlock = 4;
  constexpr std::size_t kPixBlock = 1024;
  float acc[kOcBlock][kPixBlock];
  for (int oc0 = 0; oc0 < out_channels; oc0 += kOcBlock) {
    const int oc1 = std::min(out_channels, oc0 + kOcBlock);
    for (std::size_t p0 = 0; p0 < cols; p0 += kPixBlock) {
      const std::size_t plen = std::min(kPixBlock, cols - p0);
      for (int oc = oc0; oc < oc1; ++oc) {
        const float b =
            bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
        std::fill(acc[oc - oc0], acc[oc - oc0] + plen, b);
      }
      if (oc1 - oc0 == kOcBlock) {
        const float* w_block = w + static_cast<std::size_t>(oc0) * rows;
        float* a0 = acc[0];
        float* a1 = acc[1];
        float* a2 = acc[2];
        float* a3 = acc[3];
        for (std::size_t r = 0; r < rows; ++r) {
          const float* col_row = col + r * cols + p0;
          const float w0 = w_block[r];
          const float w1 = w_block[rows + r];
          const float w2 = w_block[2 * rows + r];
          const float w3 = w_block[3 * rows + r];
          for (std::size_t p = 0; p < plen; ++p) {
            const float c = col_row[p];
            a0[p] += w0 * c;
            a1[p] += w1 * c;
            a2[p] += w2 * c;
            a3[p] += w3 * c;
          }
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          const float* col_row = col + r * cols + p0;
          for (int oc = oc0; oc < oc1; ++oc) {
            const float wv = w[static_cast<std::size_t>(oc) * rows + r];
            float* a = acc[oc - oc0];
            for (std::size_t p = 0; p < plen; ++p) a[p] += wv * col_row[p];
          }
        }
      }
      for (int oc = oc0; oc < oc1; ++oc) store(oc, p0, acc[oc - oc0], plen);
    }
  }
}

/// Unrolls output rows [row0, row0 + rows) of one input image into the
/// [patch x rows*out_w] column tile: row (ic*k + ky)*k + kx holds the
/// input value each of those output pixels sees through that kernel tap
/// (0 where the tap falls outside the input).
void im2col_rows(const float* in_n, const TensorShape& is,
                 const Conv2dSpec& spec, int out_w, int row0, int rows,
                 float* col) {
  const std::size_t cols =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(out_w);
  const std::size_t in_plane = static_cast<std::size_t>(is.h) *
                               static_cast<std::size_t>(is.w);
  std::size_t r = 0;
  for (int ic = 0; ic < spec.in_channels; ++ic) {
    const float* in_c = in_n + static_cast<std::size_t>(ic) * in_plane;
    for (int ky = 0; ky < spec.kernel; ++ky) {
      const int oy_lo = first_valid_out(ky, spec.stride, spec.padding);
      const int oy_hi = last_valid_out(is.h, ky, spec.stride, spec.padding);
      for (int kx = 0; kx < spec.kernel; ++kx, ++r) {
        float* dst = col + r * cols;
        const int ox_lo = first_valid_out(kx, spec.stride, spec.padding);
        const int ox_hi = std::min(
            out_w - 1, last_valid_out(is.w, kx, spec.stride, spec.padding));
        for (int oy = row0; oy < row0 + rows; ++oy) {
          float* dst_row = dst + static_cast<std::size_t>(oy - row0) *
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
  const int threads = core::parallel_thread_count();
  const int tile_rows = rows_per_tile(
      patch * static_cast<std::size_t>(out_w), out_h, ceil_div(threads, is.n));
  const int tiles_per_image = ceil_div(out_h, tile_rows);
  const int tiles = is.n * tiles_per_image;
  const int workers = std::max(1, std::min(threads, tiles));
  const std::size_t tile_floats = patch * static_cast<std::size_t>(tile_rows) *
                                  static_cast<std::size_t>(out_w);
  std::vector<float> local;
  float* cols = scratch_floats(
      workspace, local, static_cast<std::size_t>(workers) * tile_floats);

  const float* w = weights.raw();  // [Cout x patch], rows contiguous
  const std::size_t out_batch =
      static_cast<std::size_t>(spec.out_channels) * pixels;
  for_each_tile(tiles, workers, cols, tile_floats, [&](int t, float* col) {
    const int n = t / tiles_per_image;
    const int row0 = (t % tiles_per_image) * tile_rows;
    const int rows = std::min(tile_rows, out_h - row0);
    im2col_rows(input.raw() + static_cast<std::size_t>(n) * input.stride_n(),
                is, spec, out_w, row0, rows, col);
    float* out_tile = out.raw() + static_cast<std::size_t>(n) * out_batch +
                      static_cast<std::size_t>(row0) *
                          static_cast<std::size_t>(out_w);
    reduce_tile(w, patch, bias, spec.out_channels, col,
                static_cast<std::size_t>(rows) *
                    static_cast<std::size_t>(out_w),
                [&](int oc, std::size_t q0, const float* acc,
                    std::size_t len) {
                  std::memcpy(out_tile + static_cast<std::size_t>(oc) *
                                             pixels + q0,
                              acc, len * sizeof(float));
                });
  });
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

namespace {

/// One axis of the transposed conv's phase split. Output o lies in phase
/// r = (o + padding) mod stride, at phase index m = (o + padding) div
/// stride, i.e. o = m * stride + r - padding. It sees exactly the taps
/// kk = r + stride * j (j in [0, taps(r))), each at input m - j.
struct TconvAxis {
  int kernel = 0;
  int stride = 0;
  int padding = 0;
  int out = 0;  ///< output extent

  /// Kernel taps of phase r.
  [[nodiscard]] int taps(int r) const noexcept {
    return kernel / stride + (r < kernel % stride ? 1 : 0);
  }
  /// Taps of the phases before r (their offset in a phase-major order).
  [[nodiscard]] int taps_before(int r) const noexcept {
    return kernel / stride * r + std::min(r, kernel % stride);
  }
  /// First phase index whose output is >= 0.
  [[nodiscard]] int m_lo(int r) const noexcept {
    return first_valid_out(r, stride, padding);
  }
  /// Number of outputs in phase r.
  [[nodiscard]] int count(int r) const noexcept {
    return std::max(0, last_valid_out(out, r, stride, padding) - m_lo(r) + 1);
  }
  /// Largest phase output count over all phases.
  [[nodiscard]] int max_count() const noexcept {
    int best = 0;
    for (int r = 0; r < stride; ++r) best = std::max(best, count(r));
    return best;
  }
};

/// Unrolls phase rows [my0, my0 + rows) x phase columns [mx0, mx0 + cols)
/// of one input image into the phase's [Cin*ty*tx x rows*cols] column
/// tile. Row (ic, jy, jx), jy and jx descending, holds in[ic][my - jy]
/// [mx - jx] (0 outside the input): one shifted row copy per tap.
void phase_im2col(const float* in_n, const TensorShape& is, int ty, int tx,
                  int my0, int rows, int mx0, int cols, float* col) {
  const std::size_t in_plane = static_cast<std::size_t>(is.h) *
                               static_cast<std::size_t>(is.w);
  float* dst = col;
  for (int ic = 0; ic < is.c; ++ic) {
    const float* in_c = in_n + static_cast<std::size_t>(ic) * in_plane;
    for (int jy = ty - 1; jy >= 0; --jy) {
      for (int jx = tx - 1; jx >= 0; --jx) {
        // Columns c with input column mx0 + c - jx inside [0, is.w).
        const int c_lo = std::clamp(jx - mx0, 0, cols);
        const int c_hi = std::clamp(is.w + jx - mx0, c_lo, cols);
        for (int i = 0; i < rows; ++i, dst += cols) {
          const int iy = my0 + i - jy;
          if (iy < 0 || iy >= is.h || c_lo == c_hi) {
            std::fill(dst, dst + cols, 0.0f);
            continue;
          }
          const float* src = in_c + static_cast<std::size_t>(iy) *
                                        static_cast<std::size_t>(is.w);
          std::fill(dst, dst + c_lo, 0.0f);
          std::memcpy(dst + c_lo, src + (mx0 + c_lo - jx),
                      static_cast<std::size_t>(c_hi - c_lo) * sizeof(float));
          std::fill(dst + c_hi, dst + cols, 0.0f);
        }
      }
    }
  }
}

}  // namespace

void transposed_conv2d_into(const DenseTensor& input,
                            const DenseTensor& weights,
                            std::span<const float> bias,
                            const Conv2dSpec& spec, DenseTensor& out,
                            Workspace* workspace) {
  validate_conv_inputs(input, weights, bias, spec, "tconv2d");
  if (&out == &input || &out == &weights) {
    throw std::invalid_argument(
        "transposed_conv2d_into: out must not alias an input");
  }
  const TensorShape& is = input.shape();
  const int k = spec.kernel;
  const int s = spec.stride;
  const TconvAxis ay{k, s, spec.padding,
                     transposed_conv_out_extent(is.h, k, s, spec.padding)};
  const TconvAxis ax{k, s, spec.padding,
                     transposed_conv_out_extent(is.w, k, s, spec.padding)};
  out.reset(TensorShape{is.n, spec.out_channels, ay.out, ax.out});

  const int cin = spec.in_channels;
  const int cout = spec.out_channels;
  const std::size_t k2 =
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  const std::size_t w_size = static_cast<std::size_t>(cout) *
                             static_cast<std::size_t>(cin) * k2;
  // Phase (ry, rx) weights, packed [Cout x Cin*ty*tx] in the column-row
  // order, at phase-major offsets (every tap lies in exactly one phase).
  const auto phase_weights_at = [&](int ry, int rx) {
    return static_cast<std::size_t>(cout) * static_cast<std::size_t>(cin) *
           static_cast<std::size_t>(ay.taps_before(ry) * k +
                                    ay.taps(ry) * ax.taps_before(rx));
  };

  const int max_ph = ay.max_count();
  const int max_pw = ax.max_count();
  const std::size_t max_patch = static_cast<std::size_t>(cin) *
                                static_cast<std::size_t>(ay.taps(0)) *
                                static_cast<std::size_t>(ax.taps(0));
  const int phases = s * s;
  const int threads = core::parallel_thread_count();
  const int tile_rows =
      rows_per_tile(max_patch * static_cast<std::size_t>(max_pw), max_ph,
                    ceil_div(threads, is.n * phases));
  const int tiles_per_phase = ceil_div(max_ph, tile_rows);
  const int tiles = is.n * phases * tiles_per_phase;
  const int workers = std::max(1, std::min(threads, tiles));
  const std::size_t tile_floats = max_patch *
                                  static_cast<std::size_t>(tile_rows) *
                                  static_cast<std::size_t>(max_pw);
  std::vector<float> local;
  float* packed = scratch_floats(
      workspace, local,
      w_size + static_cast<std::size_t>(workers) * tile_floats);
  float* cols = packed + w_size;

  const float* w = weights.raw();
  for (int ry = 0; ry < s; ++ry) {
    for (int rx = 0; rx < s; ++rx) {
      float* dst = packed + phase_weights_at(ry, rx);
      for (int oc = 0; oc < cout; ++oc) {
        for (int ic = 0; ic < cin; ++ic) {
          const float* w_k = w + (static_cast<std::size_t>(oc) *
                                      static_cast<std::size_t>(cin) +
                                  static_cast<std::size_t>(ic)) *
                                     k2;
          for (int jy = ay.taps(ry) - 1; jy >= 0; --jy) {
            for (int jx = ax.taps(rx) - 1; jx >= 0; --jx) {
              *dst++ = w_k[static_cast<std::size_t>(ry + s * jy) *
                               static_cast<std::size_t>(k) +
                           static_cast<std::size_t>(rx + s * jx)];
            }
          }
        }
      }
    }
  }

  const std::size_t out_plane = static_cast<std::size_t>(ay.out) *
                                static_cast<std::size_t>(ax.out);
  for_each_tile(tiles, workers, cols, tile_floats, [&](int t, float* col) {
    const int n = t / (phases * tiles_per_phase);
    const int phase = t / tiles_per_phase % phases;
    const int ry = phase / s;
    const int rx = phase % s;
    const int row0 = t % tiles_per_phase * tile_rows;
    const int pw = ax.count(rx);
    const int rows = std::min(tile_rows, ay.count(ry) - row0);
    if (rows <= 0 || pw <= 0) return;
    const int ty = ay.taps(ry);
    const int tx = ax.taps(rx);
    const int my0 = ay.m_lo(ry) + row0;
    const int mx0 = ax.m_lo(rx);
    phase_im2col(input.raw() + static_cast<std::size_t>(n) * input.stride_n(),
                 is, ty, tx, my0, rows, mx0, pw, col);
    float* out_n = out.raw() + static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(cout) * out_plane;
    // Phase pixel (my, mx) lands at output (my*s + ry - p, mx*s + rx - p).
    const int oy0 = my0 * s + ry - spec.padding;
    const int ox0 = mx0 * s + rx - spec.padding;
    reduce_tile(
        packed + phase_weights_at(ry, rx),
        static_cast<std::size_t>(cin) * static_cast<std::size_t>(ty * tx),
        bias, cout, col,
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(pw),
        [&](int oc, std::size_t q0, const float* acc, std::size_t len) {
          float* out_c = out_n + static_cast<std::size_t>(oc) * out_plane;
          for (std::size_t i = 0; i < len;) {
            const auto q = q0 + i;
            const auto row = static_cast<int>(q / static_cast<std::size_t>(pw));
            const auto c = static_cast<int>(q % static_cast<std::size_t>(pw));
            const auto seg =
                std::min(len - i, static_cast<std::size_t>(pw - c));
            float* dst = out_c +
                         static_cast<std::size_t>(oy0 + row * s) *
                             static_cast<std::size_t>(ax.out) +
                         static_cast<std::size_t>(ox0 + c * s);
            for (std::size_t j = 0; j < seg; ++j) {
              dst[j * static_cast<std::size_t>(s)] = acc[i + j];
            }
            i += seg;
          }
        });
  });
}

DenseTensor transposed_conv2d(const DenseTensor& input,
                              const DenseTensor& weights,
                              std::span<const float> bias,
                              const Conv2dSpec& spec) {
  DenseTensor out;
  transposed_conv2d_into(input, weights, bias, spec, out);
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

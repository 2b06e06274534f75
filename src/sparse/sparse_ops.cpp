#include "sparse/sparse_ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"

namespace evedge::sparse {

void validate_conv_spec(const Conv2dSpec& spec) {
  if (spec.in_channels <= 0 || spec.out_channels <= 0) {
    throw std::invalid_argument("conv channels must be positive");
  }
  if (spec.kernel <= 0 || spec.stride <= 0 || spec.padding < 0) {
    throw std::invalid_argument("conv kernel/stride/padding invalid");
  }
}

int conv_out_extent(int in_extent, int kernel, int stride, int padding) {
  const int numerator = in_extent + 2 * padding - kernel;
  if (numerator < 0) {
    throw std::invalid_argument("conv kernel larger than padded input");
  }
  return numerator / stride + 1;
}

namespace {

void validate_conv_inputs(std::span<const CooChannel> input,
                          const DenseTensor& weights,
                          std::span<const float> bias,
                          const Conv2dSpec& spec) {
  validate_conv_spec(spec);
  if (static_cast<int>(input.size()) != spec.in_channels) {
    throw std::invalid_argument(
        "sparse conv: channel count mismatch, got " +
        std::to_string(input.size()) + " expected " +
        std::to_string(spec.in_channels));
  }
  const TensorShape& ws = weights.shape();
  if (ws.n != spec.out_channels || ws.c != spec.in_channels ||
      ws.h != spec.kernel || ws.w != spec.kernel) {
    throw std::invalid_argument("sparse conv: weight shape mismatch");
  }
  if (!bias.empty() && static_cast<int>(bias.size()) != spec.out_channels) {
    throw std::invalid_argument("sparse conv: bias size mismatch");
  }
  for (std::size_t c = 1; c < input.size(); ++c) {
    if (input[c].height() != input[0].height() ||
        input[c].width() != input[0].width()) {
      throw std::invalid_argument("sparse conv: input extents differ");
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

/// Default arena for callers that do not pass a Workspace: one per
/// thread, so the legacy call signatures stay allocation-free in steady
/// state without sharing mutable scratch across threads (the seed's
/// thread_local scratch design). Retention is bounded by the largest
/// activation served — Cin * plane floats plus bitmap/taps, a few MB at
/// DAVIS346 scale — unlike the dense im2col column matrix, which can
/// reach hundreds of MB and is therefore NOT retained without an
/// explicit workspace (see conv2d_gemm_into). Callers needing a release
/// path own a Workspace and call clear().
[[nodiscard]] Workspace& fallback_workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Scatters one sample through the kernel into dense output plane(s) at
/// `o` (size out_channels * out_h * out_w, bias already applied by the
/// caller). Returns the sparse MAC count.
std::size_t scatter_sample(std::span<const CooChannel> input, const float* w,
                           std::size_t w_oc_stride, const Conv2dSpec& spec,
                           int out_h, int out_w, float* o) {
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  std::size_t sparse_macs = 0;
  for (int ic = 0; ic < spec.in_channels; ++ic) {
    const CooChannel& ch = input[static_cast<std::size_t>(ic)];
    const std::size_t w_ic_base = static_cast<std::size_t>(ic) *
                                  static_cast<std::size_t>(spec.kernel) *
                                  static_cast<std::size_t>(spec.kernel);
    for (const CooEntry& e : ch.entries()) {
      // Scatter: output (oy, ox) sees input (r, c) through kernel tap
      // (ky, kx) iff oy*stride + ky - padding == r (same for x).
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
          const std::size_t out_idx =
              static_cast<std::size_t>(oy) * static_cast<std::size_t>(out_w) +
              static_cast<std::size_t>(ox);
          const float* wp = w + w_ic_base +
                            static_cast<std::size_t>(ky) *
                                static_cast<std::size_t>(spec.kernel) +
                            static_cast<std::size_t>(kx);
          float* op = o + out_idx;
          const float v = e.value;
          for (int oc = 0; oc < spec.out_channels; ++oc) {
            *op += *wp * v;
            op += out_plane;
            wp += w_oc_stride;
          }
          sparse_macs += static_cast<std::size_t>(spec.out_channels);
        }
      }
    }
  }
  return sparse_macs;
}

void fill_bias_planes(float* o, std::span<const float> bias, int out_channels,
                      std::size_t out_plane) {
  if (bias.empty()) return;
  for (int oc = 0; oc < out_channels; ++oc) {
    float* row = o + static_cast<std::size_t>(oc) * out_plane;
    std::fill(row, row + out_plane, bias[static_cast<std::size_t>(oc)]);
  }
}

/// out[i] += w[i] * v over one site row (the scatter route's inner
/// loop; contiguous in the output channel, so it vectorizes). A
/// one-channel row skips the vector loop's entry checks.
inline void add_scaled_row(float* __restrict out, const float* __restrict w,
                           float v, std::size_t n) noexcept {
  if (n == 1) {
    out[0] += w[0] * v;
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] += w[i] * v;
}

/// Scatters one sample through the kernel into the site-major rows at
/// `rows` ([out_h * out_w][out_channels], bias already applied by the
/// caller), against weights packed [tap offset][oc]. The loop nest is
/// scatter_sample's — ic, entries row-major, ky, kx — so every output
/// element sums its products in the same order. Returns the sparse MAC
/// count.
std::size_t scatter_rows(std::span<const CooChannel> input,
                         const float* packed_w, const Conv2dSpec& spec,
                         int out_h, int out_w, float* rows) {
  const auto oc_n = static_cast<std::size_t>(spec.out_channels);
  const auto k = static_cast<std::size_t>(spec.kernel);
  // Output column per kx, worked out once per entry (-1: none).
  std::vector<int> col_target(k);
  std::size_t sparse_macs = 0;
  for (int ic = 0; ic < spec.in_channels; ++ic) {
    const float* w_ic = packed_w + static_cast<std::size_t>(ic) * k * k * oc_n;
    for (const CooEntry& e : input[static_cast<std::size_t>(ic)].entries()) {
      for (int kx = 0; kx < spec.kernel; ++kx) {
        const int ox_num = e.col + spec.padding - kx;
        col_target[static_cast<std::size_t>(kx)] =
            ox_num < 0 || ox_num % spec.stride != 0 ||
                    ox_num / spec.stride >= out_w
                ? -1
                : ox_num / spec.stride;
      }
      for (int ky = 0; ky < spec.kernel; ++ky) {
        const int oy_num = e.row + spec.padding - ky;
        if (oy_num < 0 || oy_num % spec.stride != 0) continue;
        const int oy = oy_num / spec.stride;
        if (oy >= out_h) continue;
        float* row_y = rows + static_cast<std::size_t>(oy) *
                                  static_cast<std::size_t>(out_w) * oc_n;
        const float* w_ky = w_ic + static_cast<std::size_t>(ky) * k * oc_n;
        for (std::size_t kx = 0; kx < k; ++kx) {
          if (col_target[kx] < 0) continue;
          add_scaled_row(row_y + static_cast<std::size_t>(col_target[kx]) * oc_n,
                         w_ky + kx * oc_n, e.value, oc_n);
          sparse_macs += oc_n;
        }
      }
    }
  }
  return sparse_macs;
}

/// Packs [oc][ic][ky][kx] weights into [tap offset][oc] layout so the
/// per-tap lane loads in the reduction are contiguous (vectorizable).
void pack_weights(const DenseTensor& weights, std::vector<float>& packed) {
  const std::size_t oc_count = static_cast<std::size_t>(weights.shape().n);
  const std::size_t patch = weights.stride_n();
  packed.resize(oc_count * patch);
  const float* w = weights.raw();
  for (std::size_t oc = 0; oc < oc_count; ++oc) {
    const float* src = w + oc * patch;
    for (std::size_t off = 0; off < patch; ++off) {
      packed[off * oc_count + oc] = src[off];
    }
  }
}

/// Where the gather reduction's per-site sums go: per-channel COO entry
/// lists (a kConv consumer) or the site's row of a site-major current
/// (a spiking consumer; `rows` is [out_h * out_w][out_channels], zeroed
/// by the caller). Exactly one is set.
struct ReduceSink {
  std::vector<std::vector<CooEntry>>* entries = nullptr;
  float* rows = nullptr;
};

constexpr std::size_t kOcBlock = 8;
/// Fewest sites a reduction range takes (smaller planes run fewer
/// ranges than workers).
constexpr std::size_t kMinRangeSites = 64;
/// Widest accumulator row kept on the stack.
constexpr std::size_t kMaxStackAccum = 256;

/// Writes one site's sums into its current row. A zero sum lands as +0,
/// as the COO sink drops it and the densified carrier reads +0 there.
inline void store_row(float* row, const float* acc, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) row[j] = acc[j] != 0.0f ? acc[j] : 0.0f;
}

/// Reduces sites [s0, s1) of `s` one at a time: each site's taps are
/// walked once, every tap adding its packed (L1-resident) weight row,
/// scaled by the tap value, into the site's `oc_n` accumulators, which
/// start as the bias. Channels step in blocks of 8 so each tap's row
/// slice vectorizes. The sums go to the site's row of `rows` or, with
/// `rows` null, to `per_oc` as one entry per non-zero channel, in site
/// (row-major) order. The accumulators are stack arrays (aligned, never
/// aliased) up to kMaxStackAccum channels; `kHeap` instantiates the same
/// body over a heap row for wider layers.
template <bool kHeap>
void reduce_range(const ConvScratch& s, const float* packed_w,
                  std::span<const float> bias, std::size_t oc_n, int out_w,
                  std::size_t s0, std::size_t s1, float* rows,
                  std::vector<CooEntry>* per_oc) {
  float stack_init[kHeap ? 1 : kMaxStackAccum];
  float stack_acc[kHeap ? 1 : kMaxStackAccum];
  std::vector<float> heap_rows(kHeap ? 2 * oc_n : 0);
  float* init = kHeap ? heap_rows.data() : stack_init;
  float* acc = kHeap ? heap_rows.data() + oc_n : stack_acc;
  for (std::size_t j = 0; j < oc_n; ++j) {
    init[j] = bias.empty() ? 0.0f : bias[j];
  }
  for (std::size_t si = s0; si < s1; ++si) {
    for (std::size_t j = 0; j < oc_n; ++j) acc[j] = init[j];
    const std::size_t t0 = s.site_ptr[si];
    const std::size_t t1 = s.site_ptr[si + 1];
    for (std::size_t t = t0; t < t1; ++t) {
      const float* w_row =
          packed_w + static_cast<std::size_t>(s.taps[t].w_offset) * oc_n;
      const float v = s.taps[t].value;
      std::size_t j = 0;
      for (; j + kOcBlock <= oc_n; j += kOcBlock) {
        for (std::size_t jj = 0; jj < kOcBlock; ++jj) {
          acc[j + jj] += w_row[j + jj] * v;
        }
      }
      for (; j < oc_n; ++j) acc[j] += w_row[j] * v;
    }
    if (rows != nullptr) {
      store_row(rows + static_cast<std::size_t>(s.sites[si]) * oc_n, acc,
                oc_n);
      continue;
    }
    const std::int32_t row = s.sites[si] / out_w;
    const std::int32_t col = s.sites[si] % out_w;
    for (std::size_t j = 0; j < oc_n; ++j) {
      if (acc[j] != 0.0f) per_oc[j].push_back(CooEntry{row, col, acc[j]});
    }
  }
}

/// Reduces the per-site tap lists in `s` against every output channel
/// and hands each site's sums to `sink`: entries in site (row-major)
/// order, or the site's current row. The sites split into
/// gather_range_count ranges reduced in parallel; rows are disjoint and
/// each channel's entries are concatenated in range order, so the result
/// is bitwise independent of the thread count.
void reduce_sites(const ConvScratch& s, const float* packed_w,
                  std::span<const float> bias, int out_channels, int out_w,
                  const ReduceSink& sink) {
  const std::size_t n_sites = s.sites.size();
  const auto oc_n = static_cast<std::size_t>(out_channels);
  const int ranges =
      gather_range_count(n_sites, core::parallel_thread_count());
  // Range 0 emits straight into the sink's lists; later ranges into
  // their own, appended after it.
  std::vector<std::vector<std::vector<CooEntry>>> later_entries(
      sink.entries != nullptr && ranges > 1
          ? static_cast<std::size_t>(ranges - 1)
          : 0);
  core::parallel_for(
      0, ranges,
      [&](int r) {
        const std::size_t s0 = n_sites * static_cast<std::size_t>(r) /
                               static_cast<std::size_t>(ranges);
        const std::size_t s1 = n_sites * static_cast<std::size_t>(r + 1) /
                               static_cast<std::size_t>(ranges);
        std::vector<CooEntry>* per_oc = nullptr;
        if (sink.entries != nullptr) {
          auto& lists = r == 0 ? *sink.entries
                               : later_entries[static_cast<std::size_t>(r - 1)];
          lists.resize(oc_n);
          for (auto& entries : lists) entries.reserve(s1 - s0);
          per_oc = lists.data();
        }
        if (oc_n > kMaxStackAccum) {
          reduce_range<true>(s, packed_w, bias, oc_n, out_w, s0, s1,
                             sink.rows, per_oc);
        } else {
          reduce_range<false>(s, packed_w, bias, oc_n, out_w, s0, s1,
                              sink.rows, per_oc);
        }
      },
      ranges);
  if (later_entries.empty()) return;
  for (std::size_t oc = 0; oc < oc_n; ++oc) {
    auto& dst = (*sink.entries)[oc];
    std::size_t total = dst.size();
    for (const auto& lists : later_entries) total += lists[oc].size();
    dst.reserve(total);
    for (const auto& lists : later_entries) {
      dst.insert(dst.end(), lists[oc].begin(), lists[oc].end());
    }
  }
}

/// Gather front half shared by the float gather kernels and the public
/// build_gather_taps entry point (no validation — callers validated).
/// Collects the sorted active output-site list (bitmap dedup), then
/// scatter-builds one shared (weight offset, value) tap list per site by
/// a count/prefix/fill pass over the input non-zeros. Work is
/// proportional to nnz_in * k^2 (the tap count), NOT to
/// sites * Cin * k^2 like a per-site gather probe — the difference is
/// what keeps multi-channel mid-density layers (deep spiking stages)
/// ahead of the dense kernels.
///
/// Tap order per site is (ic, ky, kx) ascending: the fill pass iterates
/// channels outer and each channel's entries row-major, and for a fixed
/// site ascending input positions map to ascending (ky, kx) — exactly
/// the order the scatter kernel's entry loop reaches that site, so the
/// per-site reduction stays bitwise identical to the scatter result.
GatherGeometry build_taps_impl(std::span<const CooChannel> input,
                               const Conv2dSpec& spec, ConvScratch& s) {
  const int out_h = conv_out_extent(input[0].height(), spec.kernel,
                                    spec.stride, spec.padding);
  const int out_w = conv_out_extent(input[0].width(), spec.kernel,
                                    spec.stride, spec.padding);
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);

  std::uint8_t* act = s.active_buffer(out_plane);
  s.sites.clear();
  std::size_t nnz_in = 0;
  for (const CooChannel& ch : input) nnz_in += ch.nnz();

  // Single enumeration in (channel, entry, ky, kx) order into the
  // staging arrays, marking each scatter target as an output site on
  // first reach; taps are then redistributed per site by a stable
  // counting scatter, whose passes are division-free linear walks.
  // Column targets are hoisted out of the ky loop so target arithmetic
  // runs once per (entry, axis offset), not per (ky, kx). tap_site
  // carries the flat output index, rank-translated after the site sort.
  s.tap_stage.clear();
  s.tap_site.clear();
  constexpr int kMaxHoist = 32;
  std::int32_t col_target[kMaxHoist];
  const bool hoist_cols = spec.kernel <= kMaxHoist;
  for (int ic = 0; ic < spec.in_channels; ++ic) {
    const std::int32_t w_ic_base = ic * spec.kernel * spec.kernel;
    for (const CooEntry& e : input[static_cast<std::size_t>(ic)].entries()) {
      if (hoist_cols) {
        for (int kx = 0; kx < spec.kernel; ++kx) {
          const int ox_num = e.col + spec.padding - kx;
          col_target[kx] =
              (ox_num < 0 || ox_num % spec.stride != 0 ||
               ox_num / spec.stride >= out_w)
                  ? -1
                  : ox_num / spec.stride;
        }
      }
      for (int ky = 0; ky < spec.kernel; ++ky) {
        const int oy_num = e.row + spec.padding - ky;
        if (oy_num < 0 || oy_num % spec.stride != 0) continue;
        const int oy = oy_num / spec.stride;
        if (oy >= out_h) continue;
        const std::size_t row_base =
            static_cast<std::size_t>(oy) * static_cast<std::size_t>(out_w);
        const std::int32_t w_ky_base = w_ic_base + ky * spec.kernel;
        for (int kx = 0; kx < spec.kernel; ++kx) {
          int ox;
          if (hoist_cols) {
            ox = col_target[kx];
            if (ox < 0) continue;
          } else {
            const int ox_num = e.col + spec.padding - kx;
            if (ox_num < 0 || ox_num % spec.stride != 0) continue;
            ox = ox_num / spec.stride;
            if (ox >= out_w) continue;
          }
          const std::size_t out_idx = row_base + static_cast<std::size_t>(ox);
          if (act[out_idx] == 0) {
            act[out_idx] = 1;
            s.sites.push_back(static_cast<std::int32_t>(out_idx));
          }
          s.tap_site.push_back(static_cast<std::int32_t>(out_idx));
          s.tap_stage.push_back(GatherTap{w_ky_base + kx, e.value});
        }
      }
    }
  }
  // Row-major order keeps the output entries sorted; the rank map is the
  // inverse (flat output index -> position in the sorted site list).
  std::sort(s.sites.begin(), s.sites.end());
  if (s.rank.size() < out_plane) s.rank.resize(out_plane);
  for (std::size_t si = 0; si < s.sites.size(); ++si) {
    s.rank[static_cast<std::size_t>(s.sites[si])] =
        static_cast<std::int32_t>(si);
  }
  for (std::int32_t& ts : s.tap_site) {
    ts = s.rank[static_cast<std::size_t>(ts)];
  }
  const std::size_t n_sites = s.sites.size();
  const std::size_t n_taps = s.tap_stage.size();
  s.site_ptr.assign(n_sites + 1, 0);
  for (std::size_t t = 0; t < n_taps; ++t) {
    ++s.site_ptr[static_cast<std::size_t>(s.tap_site[t]) + 1];
  }
  for (std::size_t si = 0; si < n_sites; ++si) {
    s.site_ptr[si + 1] += s.site_ptr[si];
  }
  // Exact size: the int8 backend quantizes taps.size() values.
  s.taps.resize(n_taps);
  if (s.cursor.size() < n_sites) s.cursor.resize(n_sites);
  std::copy(s.site_ptr.begin(), s.site_ptr.begin() + n_sites,
            s.cursor.begin());
  for (std::size_t t = 0; t < n_taps; ++t) {
    s.taps[s.cursor[static_cast<std::size_t>(s.tap_site[t])]++] =
        s.tap_stage[t];
  }
  return GatherGeometry{out_h, out_w, nnz_in};
}

/// Stage 4: restore the active bitmap to all-zero, touching only the
/// sites build_taps_impl marked. (The rank map needs no restore: it is
/// only read at indices the current call marked active first.)
void clear_scratch_impl(std::span<const CooChannel> input, ConvScratch& s) {
  (void)input;
  for (const std::int32_t idx : s.sites) {
    s.active[static_cast<std::size_t>(idx)] = 0;
  }
}

/// Gather-kernel core of sparse_conv2d_csr / sparse_conv2d_csr_rows
/// (output sites = scatter targets of the input non-zeros): build the
/// site/tap lists, reduce them against every output channel, restore the
/// scratch. With `rows` null the sums come back as per-channel COO;
/// otherwise they land in `rows`, reshaped to the site-major
/// [1, out_h, out_w, out_channels] current (sites no tap reaches hold 0),
/// and the returned vector is empty.
std::vector<CooChannel> gather_conv_sample(
    std::span<const CooChannel> input, const DenseTensor& weights,
    std::span<const float> bias, const Conv2dSpec& spec, ConvScratch& s,
    ConvWork* work, const float* shared_packed_w,
    DenseTensor* rows = nullptr) {
  const GatherGeometry geo = build_taps_impl(input, spec, s);

  const std::size_t sparse_macs =
      s.taps.size() * static_cast<std::size_t>(spec.out_channels);

  const float* packed_w = shared_packed_w;
  if (packed_w == nullptr) {
    pack_weights(weights, s.packed_w);
    packed_w = s.packed_w.data();
  }
  std::vector<std::vector<CooEntry>> out_entries;
  ReduceSink sink;
  if (rows != nullptr) {
    rows->reset(TensorShape{1, geo.out_h, geo.out_w, spec.out_channels});
    std::fill(rows->raw(), rows->raw() + rows->size(), 0.0f);
    sink.rows = rows->raw();
  } else {
    out_entries.resize(static_cast<std::size_t>(spec.out_channels));
    sink.entries = &out_entries;
  }
  reduce_sites(s, packed_w, bias, spec.out_channels, geo.out_w, sink);

  clear_scratch_impl(input, s);

  std::vector<CooChannel> out;
  if (rows == nullptr) {
    out.reserve(static_cast<std::size_t>(spec.out_channels));
    for (auto& entries : out_entries) {
      // Entries were produced in site (row-major) order, unique and
      // non-zero — adopt them without the from_entries sort/dedup pass.
      out.push_back(CooChannel::from_sorted_entries(geo.out_h, geo.out_w,
                                                    std::move(entries)));
    }
  }
  if (work != nullptr) {
    work->dense_macs += dense_mac_count(spec, geo.out_h, geo.out_w);
    work->sparse_macs += sparse_macs;
    work->nnz_in += geo.nnz_in;
  }
  return out;
}

/// Validates a caller-provided pre-packed weight span (size must match
/// the [tap][oc] transposition exactly; empty means "pack here").
[[nodiscard]] const float* check_prepacked(std::span<const float> packed,
                                           const DenseTensor& weights) {
  if (packed.empty()) return nullptr;
  const std::size_t expected =
      static_cast<std::size_t>(weights.shape().n) * weights.stride_n();
  if (packed.size() != expected) {
    throw std::invalid_argument(
        "sparse conv: packed_weights size mismatch (got " +
        std::to_string(packed.size()) + ", expected " +
        std::to_string(expected) + ")");
  }
  return packed.data();
}

}  // namespace

DenseTensor sparse_conv2d(std::span<const CooChannel> input,
                          const DenseTensor& weights,
                          std::span<const float> bias, const Conv2dSpec& spec,
                          ConvWork* work) {
  validate_conv_inputs(input, weights, bias, spec);
  const int out_h = conv_out_extent(input[0].height(), spec.kernel,
                                    spec.stride, spec.padding);
  const int out_w = conv_out_extent(input[0].width(), spec.kernel,
                                    spec.stride, spec.padding);

  DenseTensor out(TensorShape{1, spec.out_channels, out_h, out_w});
  const std::size_t out_plane =
      static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
  float* o = out.raw();
  fill_bias_planes(o, bias, spec.out_channels, out_plane);

  // weights are [oc][ic][ky][kx]: fixing (ic, ky, kx) leaves a constant
  // oc-stride walk of Cin*k*k elements.
  const std::size_t sparse_macs = scatter_sample(
      input, weights.raw(), weights.stride_n(), spec, out_h, out_w, o);

  if (work != nullptr) {
    work->dense_macs += dense_mac_count(spec, out_h, out_w);
    work->sparse_macs += sparse_macs;
    std::size_t nnz_in = 0;
    for (const CooChannel& ch : input) nnz_in += ch.nnz();
    work->nnz_in += nnz_in;
  }
  return out;
}

void sparse_conv2d_rows(std::span<const CooChannel> input,
                        const DenseTensor& weights,
                        std::span<const float> bias, const Conv2dSpec& spec,
                        std::span<const float> packed_weights,
                        DenseTensor& current, ConvWork* work) {
  validate_conv_inputs(input, weights, bias, spec);
  const float* packed_w = check_prepacked(packed_weights, weights);
  if (packed_w == nullptr) {
    throw std::invalid_argument("sparse_conv2d_rows: packed_weights required");
  }
  const int out_h = conv_out_extent(input[0].height(), spec.kernel,
                                    spec.stride, spec.padding);
  const int out_w = conv_out_extent(input[0].width(), spec.kernel,
                                    spec.stride, spec.padding);
  current.reset(TensorShape{1, out_h, out_w, spec.out_channels});
  float* rows = current.raw();
  if (bias.empty()) {
    std::fill(rows, rows + current.size(), 0.0f);
  } else {
    // Every site row starts as the bias: write the first, then double
    // the filled prefix (one copy call per doubling, not per site).
    std::copy(bias.begin(), bias.end(), rows);
    for (std::size_t filled = bias.size(); filled < current.size();) {
      const std::size_t n = std::min(filled, current.size() - filled);
      std::copy(rows, rows + n, rows + filled);
      filled += n;
    }
  }
  const std::size_t sparse_macs =
      scatter_rows(input, packed_w, spec, out_h, out_w, rows);

  if (work != nullptr) {
    work->dense_macs += dense_mac_count(spec, out_h, out_w);
    work->sparse_macs += sparse_macs;
    std::size_t nnz_in = 0;
    for (const CooChannel& ch : input) nnz_in += ch.nnz();
    work->nnz_in += nnz_in;
  }
}

std::vector<CooChannel> sparse_conv2d_csr(std::span<const CooChannel> input,
                                          const DenseTensor& weights,
                                          std::span<const float> bias,
                                          const Conv2dSpec& spec,
                                          ConvWork* work, Workspace* workspace,
                                          std::span<const float> packed_weights) {
  validate_conv_inputs(input, weights, bias, spec);
  Workspace& arena = workspace != nullptr ? *workspace : fallback_workspace();
  return gather_conv_sample(input, weights, bias, spec, arena.scratch(), work,
                            check_prepacked(packed_weights, weights));
}

void sparse_conv2d_csr_rows(std::span<const CooChannel> input,
                            const DenseTensor& weights,
                            std::span<const float> bias,
                            const Conv2dSpec& spec, DenseTensor& current,
                            ConvWork* work, Workspace* workspace,
                            std::span<const float> packed_weights) {
  validate_conv_inputs(input, weights, bias, spec);
  Workspace& arena = workspace != nullptr ? *workspace : fallback_workspace();
  (void)gather_conv_sample(input, weights, bias, spec, arena.scratch(), work,
                           check_prepacked(packed_weights, weights), &current);
}

void pack_conv_weights(const DenseTensor& weights, std::vector<float>& packed) {
  pack_weights(weights, packed);
}

GatherGeometry build_gather_taps(std::span<const CooChannel> input,
                                 const DenseTensor& weights,
                                 std::span<const float> bias,
                                 const Conv2dSpec& spec,
                                 ConvScratch& scratch) {
  validate_conv_inputs(input, weights, bias, spec);
  return build_taps_impl(input, spec, scratch);
}

int gather_range_count(std::size_t n_sites, int threads) noexcept {
  const std::size_t by_sites = (n_sites + kMinRangeSites - 1) / kMinRangeSites;
  return static_cast<int>(
      std::min(by_sites, static_cast<std::size_t>(std::max(threads, 1))));
}

void clear_gather_scratch(std::span<const CooChannel> input,
                          ConvScratch& scratch) {
  clear_scratch_impl(input, scratch);
}

std::vector<CooChannel> dense_to_channels(const DenseTensor& dense,
                                          std::size_t* scanned_elements) {
  const TensorShape& s = dense.shape();
  if (s.n != 1) {
    throw std::invalid_argument("dense_to_channels expects batch 1");
  }
  if (scanned_elements != nullptr) *scanned_elements += s.element_count();
  // The raw scan emits entries already sorted and unique, so the
  // channels adopt them without the from_entries sort/dedup pass.
  const std::size_t plane = dense.stride_c();
  std::vector<CooChannel> channels;
  channels.reserve(static_cast<std::size_t>(s.c));
  for (int c = 0; c < s.c; ++c) {
    const float* p = dense.raw() + static_cast<std::size_t>(c) * plane;
    // Count first so the entry vector is allocated exactly once.
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < plane; ++i) {
      if (p[i] != 0.0f) ++nnz;
    }
    std::vector<CooEntry> entries;
    entries.reserve(nnz);
    for (int y = 0; y < s.h; ++y) {
      const float* row = p + static_cast<std::size_t>(y) *
                                 static_cast<std::size_t>(s.w);
      for (int x = 0; x < s.w; ++x) {
        if (row[x] != 0.0f) entries.push_back(CooEntry{y, x, row[x]});
      }
    }
    channels.push_back(CooChannel::from_sorted_entries(s.h, s.w,
                                                       std::move(entries)));
  }
  return channels;
}

void channels_into_slice(std::span<const CooChannel> channels,
                         DenseTensor& dense, int n) {
  const TensorShape& s = dense.shape();
  if (n < 0 || n >= s.n) {
    throw std::invalid_argument("channels_into_slice: sample out of range");
  }
  if (channels.empty() || static_cast<int>(channels.size()) != s.c ||
      channels[0].height() != s.h || channels[0].width() != s.w) {
    throw std::invalid_argument("channels_into_slice: shape mismatch");
  }
  float* slice = dense.raw() + static_cast<std::size_t>(n) * dense.stride_n();
  std::fill(slice, slice + dense.stride_n(), 0.0f);
  const std::size_t plane = dense.stride_c();
  for (std::size_t c = 0; c < channels.size(); ++c) {
    float* p = slice + c * plane;
    for (const CooEntry& e : channels[c].entries()) {
      p[static_cast<std::size_t>(e.row) * static_cast<std::size_t>(s.w) +
        static_cast<std::size_t>(e.col)] = e.value;
    }
  }
}

void channels_into_rows(std::span<const CooChannel> channels,
                        DenseTensor& rows) {
  if (channels.empty()) {
    throw std::invalid_argument("channels_into_rows: empty input");
  }
  const int h = channels[0].height();
  const int w = channels[0].width();
  rows.reset(TensorShape{1, h, w, static_cast<int>(channels.size())});
  std::fill(rows.raw(), rows.raw() + rows.size(), 0.0f);
  const std::size_t c_count = channels.size();
  for (std::size_t c = 0; c < c_count; ++c) {
    if (channels[c].height() != h || channels[c].width() != w) {
      throw std::invalid_argument("channels_into_rows: extent mismatch");
    }
    for (const CooEntry& e : channels[c].entries()) {
      rows.raw()[(static_cast<std::size_t>(e.row) * static_cast<std::size_t>(w) +
                  static_cast<std::size_t>(e.col)) *
                     c_count +
                 c] = e.value;
    }
  }
}

void relu_sample_inplace(SparseSample& sample) noexcept {
  for (CooChannel& ch : sample) ch.prune_negative();
}

double sample_density(const SparseSample& sample) noexcept {
  if (sample.empty()) return 0.0;
  std::size_t nnz = 0;
  std::size_t total = 0;
  for (const CooChannel& ch : sample) {
    nnz += ch.nnz();
    total += static_cast<std::size_t>(ch.height()) *
             static_cast<std::size_t>(ch.width());
  }
  return total > 0 ? static_cast<double>(nnz) / static_cast<double>(total)
                   : 0.0;
}

DenseTensor channels_to_dense(std::span<const CooChannel> channels) {
  if (channels.empty()) {
    throw std::invalid_argument("channels_to_dense: empty input");
  }
  const int h = channels[0].height();
  const int w = channels[0].width();
  DenseTensor out(
      TensorShape{1, static_cast<int>(channels.size()), h, w});
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].height() != h || channels[c].width() != w) {
      throw std::invalid_argument("channels_to_dense: extent mismatch");
    }
    float* plane = out.raw() + c * out.stride_c();
    for (const CooEntry& e : channels[c].entries()) {
      plane[static_cast<std::size_t>(e.row) * static_cast<std::size_t>(w) +
            static_cast<std::size_t>(e.col)] = e.value;
    }
  }
  return out;
}

}  // namespace evedge::sparse

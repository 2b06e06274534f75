#pragma once

// Sparse compute kernels that the paper's E2SF feeds: the scatter sparse
// convolution and the gather (CSR-output) convolution, which keeps the
// dense conv's output sites and sums. Dense reference convolutions live
// in evedge::nn; tests cross-validate the two implementations on random
// inputs.

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/tensor.hpp"
#include "sparse/workspace.hpp"

namespace evedge::sparse {

/// One sparse activation: in_channels COO channels sharing extents.
using SparseSample = std::vector<CooChannel>;

/// Geometry of a 2-D convolution (square kernel).
struct Conv2dSpec {
  int in_channels = 1;
  int out_channels = 1;
  int kernel = 3;
  int stride = 1;
  int padding = 1;
};

void validate_conv_spec(const Conv2dSpec& spec);

/// Output spatial extent of a convolution over an h x w input.
[[nodiscard]] int conv_out_extent(int in_extent, int kernel, int stride,
                                  int padding);

/// Work accounting for one convolution application.
struct ConvWork {
  std::size_t dense_macs = 0;   ///< MACs a dense kernel would execute
  std::size_t sparse_macs = 0;  ///< MACs the sparse kernel executed
  std::size_t nnz_in = 0;       ///< input non-zeros
};

/// Sparse convolution: scatter each input non-zero through the kernel into
/// a dense output [1, out_channels, out_h, out_w].
/// `weights` is [out_channels, in_channels, k, k]; `bias` is per output
/// channel (empty = no bias). `work`, when non-null, accumulates counters.
[[nodiscard]] DenseTensor sparse_conv2d(std::span<const CooChannel> input,
                                        const DenseTensor& weights,
                                        std::span<const float> bias,
                                        const Conv2dSpec& spec,
                                        ConvWork* work = nullptr);

/// Site-major twin of sparse_conv2d, the spiking scatter route: writes
/// `current`, reshaped to [1, out_h, out_w, out_channels]
/// (site_major; allocation reused), by scattering each (input non-zero,
/// tap) into its output site's row against weights packed [tap
/// offset][oc]. Each element sums its bias, then its products in
/// sparse_conv2d's order (ic, entries row-major, ky, kx), so `current`
/// is bitwise the site-major transposition of sparse_conv2d's output.
/// `packed_weights` must be pack_conv_weights(weights) (the gather
/// route's layout; callers pack once per layer).
void sparse_conv2d_rows(std::span<const CooChannel> input,
                        const DenseTensor& weights,
                        std::span<const float> bias, const Conv2dSpec& spec,
                        std::span<const float> packed_weights,
                        DenseTensor& current, ConvWork* work = nullptr);

/// CSR-output sparse convolution: the same scatter arithmetic as
/// sparse_conv2d, routed to sorted CooChannels (via from_sorted_entries)
/// instead of a dense tensor, so sparse layers chain without a
/// densify/sparsify round-trip. Entries exist only at output sites
/// reached by at least one input tap; `bias` (when non-empty) is added at
/// those active sites only — inactive sites stay implicit zeros, unlike
/// the dense variant which fills them with the bias value. At active
/// sites the result is bitwise identical to sparse_conv2d's, for any
/// thread count. `workspace`, when non-null, supplies the scratch arena;
/// otherwise a thread-local fallback arena is used. `packed_weights`,
/// when non-empty, must be the [tap offset][oc] transposition of
/// `weights` (pack_conv_weights) — chain callers pack each layer once
/// instead of once per invocation.
[[nodiscard]] std::vector<CooChannel> sparse_conv2d_csr(
    std::span<const CooChannel> input, const DenseTensor& weights,
    std::span<const float> bias, const Conv2dSpec& spec,
    ConvWork* work = nullptr, Workspace* workspace = nullptr,
    std::span<const float> packed_weights = {});

/// Site-major sink of sparse_conv2d_csr, the spiking gather route: the
/// same reduction, with each active site's per-channel sums written to
/// its row of `current`, reshaped to [1, out_h, out_w, out_channels]
/// (allocation reused); sites no tap reaches hold 0. Bitwise the
/// site-major densification of sparse_conv2d_csr's output, for any
/// thread count. Arguments as in sparse_conv2d_csr.
void sparse_conv2d_csr_rows(
    std::span<const CooChannel> input, const DenseTensor& weights,
    std::span<const float> bias, const Conv2dSpec& spec,
    DenseTensor& current, ConvWork* work = nullptr,
    Workspace* workspace = nullptr,
    std::span<const float> packed_weights = {});

// --- Gather front-end (shared with alternative compute backends) ---------

/// Output geometry of one gather-kernel invocation.
struct GatherGeometry {
  int out_h = 0;
  int out_w = 0;
  std::size_t nnz_in = 0;  ///< input non-zeros seen while gathering
};

/// Builds the gather-kernel front half for one sample into `scratch`:
/// the sorted active output-site list and the shared per-site (weight
/// offset, value) tap lists (sites / taps / site_ptr), scatter-built in
/// O(nnz * k^2) by a count/prefix/fill pass over the input non-zeros.
/// This is the geometry stage the float reduction in sparse_conv2d_csr
/// consumes; it is exposed so alternative backends (the INT8 engine) can
/// run their own reduction over the identical tap stream. `weights` is
/// only used for shape validation. Callers MUST call clear_gather_scratch
/// with the same input before reusing `scratch` for another sample.
[[nodiscard]] GatherGeometry build_gather_taps(
    std::span<const CooChannel> input, const DenseTensor& weights,
    std::span<const float> bias, const Conv2dSpec& spec,
    ConvScratch& scratch);

/// How the gather reductions split `n_sites` active output sites across
/// `threads` workers: into min(threads, ceil(n_sites / 64)) equal
/// contiguous ranges (none without sites); range r covers
/// [n_sites * r / count, n_sites * (r + 1) / count). Every range reduces
/// its sites one at a time, so the split never changes an output.
[[nodiscard]] int gather_range_count(std::size_t n_sites,
                                     int threads) noexcept;

/// Restores the active bitmap of `scratch` to all-zero, touching only
/// the sites build_gather_taps marked for `input`.
void clear_gather_scratch(std::span<const CooChannel> input,
                          ConvScratch& scratch);

/// Dense [1, C, H, W] tensor -> C sparse channels (the encode step whose
/// cost E2SF eliminates). `scanned_elements`, when non-null, receives the
/// number of dense elements visited (the encode cost driver).
[[nodiscard]] std::vector<CooChannel> dense_to_channels(
    const DenseTensor& dense, std::size_t* scanned_elements = nullptr);

/// C sparse channels -> dense [1, C, H, W].
[[nodiscard]] DenseTensor channels_to_dense(
    std::span<const CooChannel> channels);

// --- Chain boundaries (engine sparse-carrier entry points) ----------------
// The density-adaptive engine keeps activations in COO form between
// consecutive sparse-routed layers and crosses representations only at
// route boundaries. These are those boundary crossings; the chain-head
// sparsify is dense_to_channels above.

/// Packs [oc][ic][ky][kx] conv weights into the [tap offset][oc] layout
/// the gather reduction consumes. Chains pack each layer once (e.g. per
/// run) and pass the result to the kernels above via `packed_weights`.
void pack_conv_weights(const DenseTensor& weights, std::vector<float>& packed);

/// Densifies `channels` into sample `n` of `dense` (route-exit boundary):
/// zero-fills the slice, then scatters the stored entries. `dense` must
/// already have the matching [N, C, H, W] shape.
void channels_into_slice(std::span<const CooChannel> channels,
                         DenseTensor& dense, int n);

/// Densifies `channels` into site-major rows: `rows` is reshaped to
/// [1, H, W, C] (allocation reused), zero-filled, and each stored entry
/// written to its site's row (a COO synaptic current crossing into the
/// LIF step's layout).
void channels_into_rows(std::span<const CooChannel> channels,
                        DenseTensor& rows);

/// Sparse ReLU over a whole sample (prune_negative per channel).
void relu_sample_inplace(SparseSample& sample) noexcept;

/// Mean stored-entry fraction across the sample's channels (density
/// telemetry for the execution planner).
[[nodiscard]] double sample_density(const SparseSample& sample) noexcept;

}  // namespace evedge::sparse

#pragma once

// Workspace: a reusable scratch arena for the compute kernels. Every
// per-call std::vector the hot paths used to allocate (im2col column
// matrices, active-site bitmaps and rank maps, tap lists) is
// owned here instead, so steady-state inference performs no scratch
// allocations: buffers grow monotonically to the high-water mark of the
// shapes they have served and are reused across layers, samples and
// run() calls. FunctionalNetwork owns one Workspace (nn::Workspace is an
// alias) holding one ConvScratch; samples run one after another, so they
// share it.
//
// Thread-safety contract: a Workspace may be used by one thread at a
// time. Kernels that parallelize internally split their loops inside
// one invocation and read the scratch the calling thread built.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace evedge::sparse {

/// One non-zero input tap seen by an active output site: the offset into
/// one output channel's [Cin, k, k] weight block plus the input value.
/// Built once per sample, then reduced against every output channel.
struct GatherTap {
  std::int32_t w_offset = 0;
  float value = 0.0f;
};

/// Scratch for one kernel invocation on one sample. The `active` bitmap
/// is kept all-zero between uses (kernels restore the indices they
/// touched), so reuse costs nothing when the active set is sparse.
struct ConvScratch {
  std::vector<float> col;              ///< im2col column matrix
  std::vector<std::uint8_t> active;    ///< active-site bitmap
  std::vector<std::int32_t> sites;     ///< sorted active flat indices
  std::vector<GatherTap> taps;         ///< per-site tap lists
  std::vector<std::size_t> site_ptr;   ///< CSR-style index into taps
  /// Flat output index -> position in `sites` (the scatter-built tap
  /// construction's inverse map). Only entries for the current call's
  /// active sites are written, so it needs no clearing between calls.
  std::vector<std::int32_t> rank;
  std::vector<std::size_t> cursor;     ///< per-site fill cursor (taps build)
  // Single-pass tap staging: taps in enumeration order plus their site
  // rank, redistributed into per-site CSR order by a stable counting
  // scatter (no second enumeration pass).
  std::vector<GatherTap> tap_stage;
  std::vector<std::int32_t> tap_site;
  std::vector<float> packed_w;         ///< weights transposed [tap][oc]

  // INT8 engine scratch: quantized values live in the int8 grid
  // [-127, 127] but are stored widened to int16 so the reduction loops
  // vectorize to widening multiply-adds on commodity SIMD.
  std::vector<std::int16_t> qin;       ///< quantized input activations
  std::vector<std::int16_t> qcol;      ///< transposed int8 column matrix
  std::vector<std::int16_t> qtaps;     ///< quantized per-site tap values
  std::vector<std::int32_t> iacc;      ///< int32 accumulation planes

  /// Grows `col` to at least `size` elements and returns its data.
  [[nodiscard]] float* col_buffer(std::size_t size);
  /// Grows `active` to at least `size` zeroed flags.
  [[nodiscard]] std::uint8_t* active_buffer(std::size_t size);
  /// Grows `qin` to at least `size` elements and returns its data.
  [[nodiscard]] std::int16_t* qin_buffer(std::size_t size);
  /// Grows `qcol` to at least `size` elements and returns its data.
  [[nodiscard]] std::int16_t* qcol_buffer(std::size_t size);
  /// Grows `iacc` to at least `size` elements and returns its data.
  [[nodiscard]] std::int32_t* iacc_buffer(std::size_t size);
};

/// Scratch arena shared across layers and inference calls.
class Workspace {
 public:
  /// The kernel scratch every invocation on this workspace reuses.
  [[nodiscard]] ConvScratch& scratch() noexcept { return scratch_; }

  /// Keyed packed-weight slot for chained sparse execution: the engine
  /// packs each sparse-routed layer's [tap][oc] weight rows once per run
  /// under its node id and hands the span to every kernel invocation of
  /// that layer (timesteps, samples), instead of re-packing per call.
  /// References are stable until clear().
  [[nodiscard]] std::vector<float>& packed_slot(int key);

  /// Total bytes currently retained (observability / tests; the arena
  /// never shrinks on its own).
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

  /// Releases every buffer (memory-pressure hook; the next calls regrow).
  void clear() noexcept;

 private:
  ConvScratch scratch_;
  // node-keyed packed-weight chains (unordered_map: stable references).
  std::unordered_map<int, std::vector<float>> packed_slots_;
};

}  // namespace evedge::sparse

namespace evedge::nn {
/// The engine-facing name: FunctionalNetwork owns an nn::Workspace and
/// threads it through every kernel it invokes.
using Workspace = sparse::Workspace;
using sparse::ConvScratch;
}  // namespace evedge::nn

#pragma once

// CooChannel: one sparse 2-D channel in coordinate (COO) format — sorted
// row-major coordinates with float values and no duplicates. This is the
// building block of the two-channel sparse frames E2SF emits (paper §4.1:
// "store the row indices, column indices and their corresponding
// polarities as separate channels, similar to the sparse COO format").

#include <cstdint>
#include <span>
#include <vector>

namespace evedge::sparse {

/// One non-zero entry of a sparse channel.
struct CooEntry {
  std::int32_t row = 0;
  std::int32_t col = 0;
  float value = 0.0f;

  friend bool operator==(const CooEntry&, const CooEntry&) = default;
};

/// Sparse 2-D channel. Invariants (enforced on construction/mutation):
///  - entries sorted by (row, col), strictly increasing (no duplicates)
///  - all coordinates inside [0, height) x [0, width)
///  - no explicitly stored zero values
class CooChannel {
 public:
  CooChannel() = default;
  CooChannel(int height, int width);

  /// Builds from arbitrary (possibly unsorted / duplicated) entries by
  /// sorting and accumulating duplicates; zero-sum entries are dropped.
  [[nodiscard]] static CooChannel from_entries(int height, int width,
                                               std::vector<CooEntry> entries);

  /// Adopts entries the caller guarantees to already satisfy the class
  /// invariants (sorted by (row, col), unique, in-range, non-zero) — the
  /// contract kernel outputs meet by construction. O(1): no sort, no
  /// checks; violations surface via validate().
  [[nodiscard]] static CooChannel from_sorted_entries(
      int height, int width, std::vector<CooEntry> entries);

  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] const std::vector<CooEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return entries_.size(); }
  [[nodiscard]] double density() const noexcept;

  /// Accumulates `value` at (row, col); erases the entry if it cancels to
  /// zero. O(log n + n) worst case (vector insert); intended for
  /// construction-time accumulation, not inner loops.
  void accumulate(std::int32_t row, std::int32_t col, float value);

  /// Value at (row, col); 0 when absent. O(log n).
  [[nodiscard]] float at(std::int32_t row, std::int32_t col) const noexcept;

  /// Sparse ReLU: removes all negative entries. Implicit zeros already
  /// satisfy relu(0) == 0, so afterwards the channel densifies to exactly
  /// relu() of its previous dense image. Keeps ordering; invalidates the
  /// cached row index.
  void prune_negative() noexcept;

  /// CSR-style row index: row_ptr()[r] .. row_ptr()[r+1] delimit the
  /// entries of row r inside entries(); size is height()+1 and
  /// row_ptr()[height()] == nnz(). Built lazily on first access (O(h+nnz))
  /// and cached until the next mutation; not safe to build concurrently —
  /// call once before handing the channel to parallel workers.
  [[nodiscard]] const std::vector<std::int32_t>& row_ptr() const;

  /// O(1) slice of the entries in row `row` (requires 0 <= row < height).
  [[nodiscard]] std::span<const CooEntry> row_span(std::int32_t row) const;

  /// Sum of all stored values.
  [[nodiscard]] double value_sum() const noexcept;

  /// Throws std::logic_error if an invariant is violated (test hook).
  void validate() const;

 private:
  int height_ = 0;
  int width_ = 0;
  std::vector<CooEntry> entries_;
  // Lazy CSR row index cache; row_ptr_valid_ is reset by any mutation.
  mutable std::vector<std::int32_t> row_ptr_;
  mutable bool row_ptr_valid_ = false;
};

/// c = a + scale_b * b (merge-union). Extents must match.
[[nodiscard]] CooChannel add(const CooChannel& a, const CooChannel& b,
                             float scale_b = 1.0f);

/// Elementwise scaling (entries with zero result are removed).
[[nodiscard]] CooChannel scale(const CooChannel& a, float factor);

}  // namespace evedge::sparse

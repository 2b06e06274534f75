#pragma once

// Dynamic Sparse Frame Aggregator (DSFA, paper §4.2, Fig. 6).
//
// Sparse frames from E2SF are staged in an event buffer partitioned into
// merge buckets of capacity MBsize. An incoming frame Evf_k goes into the
// earliest AVL bucket provided (i) its delay w.r.t. the bucket's earliest
// frame is within MtTh and (ii) the relative change between its spatial
// density and the bucket's merged density is below MdTh; otherwise the
// bucket is marked FULL and the next bucket is tried (cBatch opens a new
// bucket per frame). When the buffer occupancy exceeds EBufsize — or the
// hardware goes idle — buckets are combined per cMode, pushed to the
// per-task inference queue (discarding the oldest entry when full) and
// concatenated into a batched merged-sparse-frame representation.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sparse/sparse_frame.hpp"

namespace evedge::core {

using sparse::MergeMode;
using sparse::SparseFrame;

struct DsfaConfig {
  std::size_t event_buffer_size = 8;     ///< EBufsize, in frames
  std::size_t merge_bucket_capacity = 4; ///< MBsize, frames per bucket
  MergeMode merge_mode = MergeMode::kAdd;  ///< cMode
  double max_time_delay_us = 40'000.0;   ///< MtTh
  double max_density_change = 0.75;      ///< MdTh (relative change)
  std::size_t inference_queue_capacity = 4;
};

/// One dispatched batch: each element is a combined merge bucket; the
/// batch is what gets concatenated into the network's input.
struct MergedBatch {
  std::vector<SparseFrame> frames;

  [[nodiscard]] bool empty() const noexcept { return frames.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return frames.size(); }
};

/// Aggregation statistics for the ablation benches.
struct DsfaStats {
  std::size_t frames_in = 0;
  std::size_t buckets_dispatched = 0;
  std::size_t batches_dispatched = 0;
  /// Merged frames dropped from a full inference queue (oldest-first).
  std::size_t frames_discarded = 0;
  std::size_t time_threshold_closures = 0;
  std::size_t density_threshold_closures = 0;
  std::size_t capacity_closures = 0;

  /// Mean source frames merged per dispatched bucket.
  [[nodiscard]] double mean_merge_factor() const noexcept {
    return buckets_dispatched > 0
               ? static_cast<double>(frames_in) /
                     static_cast<double>(buckets_dispatched)
               : 0.0;
  }
};

class DynamicSparseFrameAggregator {
 public:
  explicit DynamicSparseFrameAggregator(DsfaConfig config);

  /// Stages one sparse frame (time-ordered arrivals required). May
  /// trigger an internal dispatch when the event buffer overflows; any
  /// dispatched batch is retrievable through take_ready_batch().
  void push(SparseFrame frame);

  /// Hardware-idle hook (paper: "if the hardware platform becomes
  /// available before the event buffer reaches full capacity, we dispatch
  /// the available merge buckets"). Combines whatever is staged.
  void dispatch_available();

  /// Pops the oldest ready batch from the inference queue, if any.
  [[nodiscard]] std::optional<MergedBatch> take_ready_batch();

  /// Frames currently staged in the event buffer (all buckets).
  [[nodiscard]] std::size_t buffered_frames() const noexcept;

  [[nodiscard]] const DsfaStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DsfaConfig& config() const noexcept { return config_; }

 private:
  struct MergeBucket {
    std::vector<SparseFrame> frames;
    bool full = false;

    [[nodiscard]] bool available(std::size_t capacity) const noexcept {
      return !full && frames.size() < capacity;
    }
  };

  void dispatch_all_buckets();

  DsfaConfig config_;
  std::vector<MergeBucket> buckets_;
  std::deque<MergedBatch> inference_queue_;
  DsfaStats stats_;
};

}  // namespace evedge::core

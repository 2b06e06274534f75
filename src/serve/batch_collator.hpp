#pragma once

// BatchCollator: deadline- and size-triggered cross-stream micro-batching
// over the shared FrameQueue. Each worker drives its own collator: the
// first frame of a batch is awaited indefinitely (no busy wait), then the
// batch keeps filling until either max_batch frames are collated or
// max_wait_us has elapsed since the first frame landed — the classic
// serving trade of a bounded latency tax for batched-kernel throughput.
// Frames from different streams coalesce freely: run_events gives every
// batch lane its own LIF state and per-sample arithmetic, so cross-stream
// batches are bitwise identical to per-stream serial execution.

#include <cstdint>
#include <vector>

#include "serve/frame_queue.hpp"

namespace evedge::serve {

struct CollatorConfig {
  int max_batch = 8;         ///< size trigger (>= 1)
  double max_wait_us = 2000; ///< deadline trigger, from the first frame
};

class BatchCollator {
 public:
  explicit BatchCollator(CollatorConfig config);

  /// Collates the next batch into `out` (cleared first). Blocks for the
  /// first frame; returns false when the queue is closed and drained
  /// (worker shutdown), true otherwise with 1..max frames, where max is
  /// `max_batch_override` when > 0 (the degradation ladder's widened
  /// batches) and config().max_batch otherwise.
  [[nodiscard]] bool collect(FrameQueue& queue, std::vector<ReadyFrame>& out,
                             int max_batch_override = 0);

  [[nodiscard]] const CollatorConfig& config() const noexcept {
    return config_;
  }

  /// Trace-clock stamp at which the last collected batch became ready —
  /// where its collate.wait spans end and the worker's per-frame
  /// frame.inference spans start. 0 when tracing was off.
  [[nodiscard]] std::uint64_t ready_ns() const noexcept { return ready_ns_; }

 private:
  CollatorConfig config_;
  /// Per-frame pop timestamps of the batch being collected (tracing
  /// only) — scratch for the "collate.wait" lineage spans emitted when
  /// the batch is ready. One worker drives one collator, so no locking.
  std::vector<std::uint64_t> pop_ns_;
  std::uint64_t ready_ns_ = 0;
};

}  // namespace evedge::serve

#pragma once

// FrameQueue: the bounded, lock-guarded hand-off between per-stream
// ingress stages and the inference worker pool. Multi-producer (one
// ingress thread per stream), multi-consumer (each worker collates from
// it). Two overflow policies:
//
//   kBlock      push() blocks until a slot frees — lossless backpressure
//               that throttles ingress to inference speed (the parity
//               configuration: every frame is served, serving output is
//               bitwise identical to per-stream serial execution).
//   kDropOldest push() displaces the oldest queued frame and returns it
//               so the producer can account the drop per stream — the
//               latency-bounded configuration (the freshest data wins,
//               mirroring DSFA's own inference-queue discard rule).
//
// The policy can be switched mid-run (set_policy — the degradation
// ladder's rung 1); switching to kDropOldest wakes producers blocked
// under kBlock. close() wakes every blocked producer and consumer;
// consumers drain the remaining frames and then observe end-of-stream.
// requeue() is the supervision path: a worker returning the unprocessed
// frames of a failed batch pushes them to the FRONT (they are the
// oldest in-flight work), bypassing both the capacity bound and the
// closed flag — the requeuing worker itself is still draining, so the
// frames cannot strand.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "sparse/sparse_frame.hpp"

namespace evedge::serve {

/// One merged frame ready for inference, with its provenance and the
/// timing the collator, SLO shedding and stats need.
struct ReadyFrame {
  int stream_id = -1;
  std::int64_t seq = -1;  ///< per-stream dispatch index (0, 1, ...)
  sparse::SparseFrame frame;
  /// First queue admission; preserved across requeues so SLO age and
  /// reported latency span the frame's whole time in the system.
  std::chrono::steady_clock::time_point enqueue_tp{};
  int attempts = 0;  ///< failed inference attempts so far (retry budget)
};

enum class OverflowPolicy : std::uint8_t { kBlock, kDropOldest };

class FrameQueue {
 public:
  FrameQueue(std::size_t capacity, OverflowPolicy policy);

  /// Enqueues one frame (stamps enqueue_tp unless already set). Under
  /// kBlock, blocks while the queue is full. Returns std::nullopt once
  /// pushed; the frame itself if the queue closed first (the caller
  /// owns frames the queue never accepted — compare (stream_id, seq) to
  /// tell a rejection from a kDropOldest displacement); or the
  /// displaced oldest frame when a full queue ran kDropOldest.
  [[nodiscard]] std::optional<ReadyFrame> push(ReadyFrame frame);

  /// Returns a failed batch's frame to the FRONT of the queue for
  /// retry. Never blocks, never displaces, ignores the capacity bound
  /// and the closed flag (see the class comment for why that is safe).
  void requeue(ReadyFrame frame);

  /// Blocks until a frame is available or the queue is closed and
  /// drained (std::nullopt = end of stream).
  [[nodiscard]] std::optional<ReadyFrame> pop();

  /// Like pop(), but gives up at `deadline` (std::nullopt = no frame by
  /// then, or closed and drained). The collator's follow-up pops.
  [[nodiscard]] std::optional<ReadyFrame> pop_until(
      std::chrono::steady_clock::time_point deadline);

  /// Marks end of input: blocked producers return their frames, blocked
  /// consumers drain what is queued and then see end-of-stream.
  void close();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] OverflowPolicy policy() const;
  /// Switches the overflow policy mid-run; kBlock -> kDropOldest wakes
  /// every producer blocked on a full queue (their frames are admitted
  /// under the new policy).
  void set_policy(OverflowPolicy policy);
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] bool closed() const;

  /// Depth telemetry, sampled at every push: high-water mark and mean.
  [[nodiscard]] std::size_t peak_depth() const;
  [[nodiscard]] double mean_depth() const;
  /// Total frames displaced by kDropOldest.
  [[nodiscard]] std::size_t dropped() const;
  /// Total frames returned for retry via requeue().
  [[nodiscard]] std::size_t requeued() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<ReadyFrame> queue_;
  OverflowPolicy policy_;  ///< guarded by mutex_ (set_policy)
  bool closed_ = false;
  std::size_t peak_depth_ = 0;
  std::size_t depth_samples_ = 0;
  std::size_t depth_sum_ = 0;
  std::size_t dropped_ = 0;
  std::size_t requeued_ = 0;
};

}  // namespace evedge::serve

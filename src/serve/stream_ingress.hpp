#pragma once

// StreamIngress: the per-stream front half of the online pipeline
// (Fig. 4), run concurrently for N cameras. Each instance walks one
// EventStream on its own thread: grayscale-clock intervals are sliced
// and E2SF-binned, the resulting sparse frames staged through a
// per-stream DSFA, and every dispatched merged frame enqueued into the
// shared FrameQueue as a ReadyFrame carrying the stream id and the
// per-stream dispatch index.
//
// Robustness: each dispatched frame is validated before admission
// (frame_fault_of) — malformed frames (out-of-range COO coordinates,
// non-finite values, inverted bin timing, geometry mismatch) are
// quarantined with a typed FrameFault instead of flowing downstream to
// index kernels out of range. A quarantined frame still consumes its
// seq and counts as enqueued + failed, so (stream, seq) keys and the
// accounting invariant survive. An attached FaultInjector can corrupt,
// stall, or disconnect the stream at exact (stream, seq) sites; a
// disconnect (injected or a real ingress-thread exception, which the
// runtime routes to mark_failed) fails only this stream.
//
// Ingest order is deterministic per stream — collect_frames() runs the
// identical E2SF+DSFA pipeline without a queue, faults, or validation,
// so (stream_id, seq) keys line up exactly between concurrent serving
// and per-stream serial execution.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "events/event_stream.hpp"
#include "serve/fault.hpp"
#include "serve/frame_queue.hpp"
#include "serve/journal.hpp"
#include "serve/serve_stats.hpp"

namespace evedge::obs {
class Counter;
}  // namespace evedge::obs

namespace evedge::serve {

struct IngressConfig {
  core::E2sfConfig e2sf{};
  core::DsfaConfig dsfa{};
  double frame_rate_hz = 30.0;  ///< grayscale (APS) frame clock
  /// Real-time pacing: 0 = open loop (push as fast as produced —
  /// saturation benchmarking); otherwise the stream is replayed at
  /// `pace_speedup` x real time (1 = sensor-faithful arrival times).
  double pace_speedup = 0.0;
};

/// Structural validity check for one frame against the stream geometry:
/// kNone when well-formed, otherwise the first defect found (geometry
/// mismatch, out-of-range coordinate, non-finite value, t_end <
/// t_start). This is the ingress admission gate; downstream kernels
/// index COO coordinates unchecked and rely on it.
[[nodiscard]] FrameFault frame_fault_of(const sparse::SparseFrame& frame,
                                        int height, int width) noexcept;

/// The runtime's view of one stream producer: run() on a dedicated
/// thread until the stream ends, per-stream accounting afterwards.
/// Implemented by StreamIngress (in-process EventStream walk) and
/// WireStreamIngress (network receive path) — ServingRuntime drives
/// both through this interface, so the queue/worker/report machinery
/// is written once.
class IngressBase {
 public:
  virtual ~IngressBase() = default;

  /// Runs the stream to completion (single-shot, dedicated thread).
  virtual void run() = 0;

  /// Marks this stream failed; the runtime calls it when the ingress
  /// thread dies on an exception.
  virtual void mark_failed(std::string reason) = 0;

  /// Per-stream accounting, valid after run() returns.
  [[nodiscard]] virtual const StreamServeStats& stats() const noexcept = 0;

  /// Frames this ingress quarantined, in seq order; valid after run().
  [[nodiscard]] virtual const std::vector<QuarantinedFrame>& quarantined()
      const noexcept = 0;
};

class StreamIngress final : public IngressBase {
 public:
  /// The stream and queue must outlive the ingress. `stream_id` tags
  /// every enqueued frame.
  StreamIngress(int stream_id, const events::EventStream& stream,
                IngressConfig config, FrameQueue& queue);

  /// Attaches a fault injector (nullptr detaches); must be called
  /// before run(). The injector must outlive the ingress.
  void attach_faults(FaultInjector* injector) noexcept {
    faults_ = injector;
  }

  /// Attaches the crash-consistent fault journal (nullptr detaches);
  /// fired faults and quarantines at this ingress are appended as
  /// (site, fault, action) entries. Must outlive the ingress.
  void attach_journal(FaultJournal* journal) noexcept {
    journal_ = journal;
  }

  /// Attaches this stream's labeled enqueue counter (nullptr detaches);
  /// bumped once per dispatched frame, mirroring stats().enqueued. The
  /// runtime resolves the series up front, so the hot path is one null
  /// check plus one atomic add. Must outlive the ingress.
  void attach_dispatch_counter(obs::Counter* counter) noexcept {
    dispatch_counter_ = counter;
  }

  /// Runs the stream to completion (call on a dedicated thread): E2SF ->
  /// DSFA -> queue. Returns when every dispatched frame was enqueued (or
  /// the queue closed early, or an injected disconnect fired).
  /// Single-shot.
  void run() override;

  /// Marks this stream failed (stats().ingress_failed + reason). The
  /// runtime calls this when the ingress thread dies on an exception;
  /// injected disconnects call it from inside run().
  void mark_failed(std::string reason) override;

  /// Per-stream accounting, valid after run() returns.
  [[nodiscard]] const StreamServeStats& stats() const noexcept override {
    return stats_;
  }
  /// Frames this ingress quarantined (validation failures), in seq
  /// order; valid after run() returns.
  [[nodiscard]] const std::vector<QuarantinedFrame>& quarantined()
      const noexcept override {
    return quarantined_;
  }

  /// The merged frames this stream dispatches, in dispatch order — the
  /// same E2SF+DSFA pipeline run offline (no queue, no threads, no
  /// faults). Serial baselines and parity checks consume this; element
  /// i corresponds to ReadyFrame seq i.
  [[nodiscard]] static std::vector<sparse::SparseFrame> collect_frames(
      const events::EventStream& stream, const IngressConfig& config);

 private:
  int stream_id_;
  const events::EventStream& stream_;
  IngressConfig config_;
  FrameQueue& queue_;
  FaultInjector* faults_ = nullptr;
  FaultJournal* journal_ = nullptr;
  obs::Counter* dispatch_counter_ = nullptr;
  StreamServeStats stats_;
  std::vector<QuarantinedFrame> quarantined_;
};

}  // namespace evedge::serve

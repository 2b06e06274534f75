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
// seq, counts as enqueued, and is reported to the runtime's outcome
// record as failed, so (stream, seq) keys and the accounting invariant
// survive. An attached FaultInjector can corrupt, stall, or disconnect
// the stream at exact (stream, seq) sites; a disconnect (injected or a
// real ingress-thread exception, which the runtime routes to
// mark_failed) fails only this stream.
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
///
/// The base holds what both share: the ingress-side stats, the fault
/// journal, and the two hooks the runtime installs before run(). A
/// frame rejected at admission is reported through the quarantine hook
/// when it happens, so it enters the runtime's outcome record live, as
/// a failed frame; every dispatched frame (rejects included) bumps the
/// stream's dispatch counter. The ingress itself counts no outcome.
class IngressBase {
 public:
  virtual ~IngressBase() = default;

  /// Runs the stream to completion (single-shot, dedicated thread).
  virtual void run() = 0;

  /// Marks this stream failed (stats().ingress_failed + the first
  /// reason). The runtime calls it when the ingress thread dies on an
  /// exception; injected disconnects call it from inside run().
  void mark_failed(std::string reason);

  /// Installs the runtime's hooks; call before run(). `quarantine`
  /// receives every frame rejected at admission, on the ingress thread.
  /// `dispatched` counts every dispatched frame, mirroring
  /// stats().enqueued; nullptr (metrics off) costs one null check per
  /// frame. `journal` (nullptr = off) receives fired faults and
  /// quarantines as (site, fault, action) lines. Both pointers must
  /// outlive the ingress.
  void attach_runtime(FailureSink quarantine, obs::Counter* dispatched,
                      FaultJournal* journal);

  /// Ingress-side accounting (enqueued, raw frames, density, wire
  /// lanes, ingress failure), valid after run() returns. Outcomes —
  /// completed, shed, failed — live in the runtime's record.
  [[nodiscard]] const StreamServeStats& stats() const noexcept {
    return stats_;
  }

 protected:
  explicit IngressBase(int stream_id);

  /// Counts one dispatched frame: stats().enqueued and the dispatch
  /// counter.
  void count_dispatch();
  /// Admission reject of frame `seq`: journals it under `action`,
  /// reports it through the quarantine hook, and counts it dispatched.
  /// The caller still advances its seq past the frame, so (stream, seq)
  /// keys stay aligned.
  void reject(std::int64_t seq, FrameFault fault, const char* action);

  int stream_id_;
  StreamServeStats stats_;
  FaultJournal* journal_ = nullptr;

 private:
  FailureSink on_quarantine_;
  obs::Counter* dispatch_counter_ = nullptr;
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

  /// Runs the stream to completion (call on a dedicated thread): E2SF ->
  /// DSFA -> queue. Returns when every dispatched frame was enqueued (or
  /// the queue closed early, or an injected disconnect fired).
  /// Single-shot.
  void run() override;

  /// The merged frames this stream dispatches, in dispatch order — the
  /// same E2SF+DSFA pipeline run offline (no queue, no threads, no
  /// faults). Serial baselines and parity checks consume this; element
  /// i corresponds to ReadyFrame seq i.
  [[nodiscard]] static std::vector<sparse::SparseFrame> collect_frames(
      const events::EventStream& stream, const IngressConfig& config);

 private:
  const events::EventStream& stream_;
  IngressConfig config_;
  FrameQueue& queue_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace evedge::serve

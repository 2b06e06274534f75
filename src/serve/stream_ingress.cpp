#include "serve/stream_ingress.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evedge::serve {

namespace {

/// Drives one stream through E2SF + DSFA, invoking `sink(frame)` for
/// every dispatched merged frame in dispatch order. `raw_frames` counts
/// the E2SF bins pushed into DSFA.
template <typename Sink>
void ingest(const events::EventStream& stream, const IngressConfig& config,
            core::DynamicSparseFrameAggregator& dsfa,
            std::size_t& raw_frames, const Sink& sink) {
  // One shared clock construction with simulate_pipeline: serving and
  // the simulation frame identically by design, not by copy.
  const events::FrameClock clock =
      events::FrameClock::spanning(stream, config.frame_rate_hz);
  const core::Event2SparseFrame e2sf(stream.geometry(), config.e2sf);
  const auto drain = [&] {
    while (auto batch = dsfa.take_ready_batch()) {
      for (sparse::SparseFrame& frame : batch->frames) {
        if (!sink(std::move(frame))) return false;
      }
    }
    return true;
  };
  for (std::size_t i = 0; i < clock.interval_count(); ++i) {
    const events::TimeUs t0 = clock.timestamps[i];
    const events::TimeUs t1 = clock.timestamps[i + 1];
    {
      // Span covers conversion + DSFA merge only; the queue push (which
      // may block) happens in drain() outside it.
      const obs::ScopedSpan span("ingress", "e2sf.interval");
      for (sparse::SparseFrame& frame :
           e2sf.convert(stream.slice(t0, t1), t0, t1)) {
        ++raw_frames;
        dsfa.push(std::move(frame));
      }
    }
    if (!drain()) return;
  }
  dsfa.dispatch_available();
  (void)drain();
}

[[nodiscard]] FrameFault channel_fault(const sparse::CooChannel& channel,
                                       int height, int width) noexcept {
  for (const sparse::CooEntry& e : channel.entries()) {
    if (e.row < 0 || e.row >= height || e.col < 0 || e.col >= width) {
      return FrameFault::kOutOfBoundsCoordinate;
    }
    if (!std::isfinite(e.value)) return FrameFault::kNonFiniteValue;
  }
  return FrameFault::kNone;
}

}  // namespace

FrameFault frame_fault_of(const sparse::SparseFrame& frame, int height,
                          int width) noexcept {
  if (frame.height() != height || frame.width() != width) {
    return FrameFault::kGeometryMismatch;
  }
  if (frame.t_end < frame.t_start) return FrameFault::kBadTiming;
  if (const FrameFault f = channel_fault(frame.positive(), height, width);
      f != FrameFault::kNone) {
    return f;
  }
  return channel_fault(frame.negative(), height, width);
}

IngressBase::IngressBase(int stream_id) : stream_id_(stream_id) {
  stats_.stream_id = stream_id;
}

void IngressBase::mark_failed(std::string reason) {
  stats_.ingress_failed = true;
  if (stats_.failure_reason.empty()) {
    stats_.failure_reason = std::move(reason);
  }
}

void IngressBase::attach_runtime(FailureSink quarantine,
                                 obs::Counter* dispatched,
                                 FaultJournal* journal) {
  on_quarantine_ = std::move(quarantine);
  dispatch_counter_ = dispatched;
  journal_ = journal;
}

void IngressBase::count_dispatch() {
  ++stats_.enqueued;
  if (dispatch_counter_ != nullptr) dispatch_counter_->add();
}

void IngressBase::reject(std::int64_t seq, FrameFault fault,
                         const char* action) {
  if (journal_ != nullptr) {
    journal_->append("quarantine", "stream=" + std::to_string(stream_id_) +
                                       " seq=" + std::to_string(seq) +
                                       " fault=" + to_string(fault) +
                                       " action=" + action);
  }
  if (on_quarantine_) {
    on_quarantine_(QuarantinedFrame{stream_id_, seq, fault, 0});
  }
  count_dispatch();
}

StreamIngress::StreamIngress(int stream_id,
                             const events::EventStream& stream,
                             IngressConfig config, FrameQueue& queue)
    : IngressBase(stream_id),
      stream_(stream),
      config_(std::move(config)),
      queue_(queue) {}

void StreamIngress::run() {
  core::DynamicSparseFrameAggregator dsfa(config_.dsfa);
  const auto wall_start = std::chrono::steady_clock::now();
  const int height = stream_.geometry().height;
  const int width = stream_.geometry().width;
  double density_sum = 0.0;
  std::int64_t seq = 0;

  ingest(stream_, config_, dsfa, stats_.raw_frames,
         [&](sparse::SparseFrame frame) {
           if (config_.pace_speedup > 0.0) {
             // Sensor-faithful arrival: the merged frame exists once its
             // last bin closes (t_end), replayed at pace_speedup x.
             const auto arrival =
                 wall_start + std::chrono::microseconds(static_cast<long long>(
                                  static_cast<double>(frame.t_end -
                                                      stream_.t_begin()) /
                                  config_.pace_speedup));
             std::this_thread::sleep_until(arrival);
           }
           // Injected stream-site faults at this exact (stream, seq).
           if (faults_ != nullptr) {
             const auto journal_fire = [&](const char* action) {
               if (journal_ == nullptr) return;
               journal_->append(
                   "inject", "stream=" + std::to_string(stream_id_) +
                                 " seq=" + std::to_string(seq) +
                                 " action=" + action);
             };
             for (const FaultSpec& spec :
                  faults_->at_stream(stream_id_, seq)) {
               switch (spec.type) {
                 case FaultType::kStreamStall:
                   faults_->record(FaultType::kStreamStall);
                   journal_fire("stall");
                   obs::Tracer::instant("fault", "fault.stream_stall",
                                        "stream", stream_id_, "seq", seq);
                   std::this_thread::sleep_for(
                       std::chrono::duration<double, std::milli>(
                           spec.delay_ms));
                   break;
                 case FaultType::kStreamDisconnect:
                   faults_->record(FaultType::kStreamDisconnect);
                   journal_fire("disconnect");
                   obs::Tracer::instant("fault", "fault.stream_disconnect",
                                        "stream", stream_id_, "seq", seq);
                   mark_failed("injected stream disconnect");
                   return false;  // stop ingesting; stream dies here
                 case FaultType::kCorruptFrame:
                   faults_->record(FaultType::kCorruptFrame);
                   journal_fire("corrupt");
                   obs::Tracer::instant("fault", "fault.corrupt_frame",
                                        "stream", stream_id_, "seq", seq);
                   FaultInjector::corrupt(spec, frame);
                   break;
                 default:
                   break;  // worker-site faults never land here
               }
             }
           }
           density_sum += frame.density();
           // Admission gate: quarantine malformed frames here, where
           // the defect can still be attributed to its (stream, seq).
           // Costs one pass over the frame's entries.
           const FrameFault fault = frame_fault_of(frame, height, width);
           if (fault != FrameFault::kNone) {
             reject(seq, fault, "ingress-reject");
             ++seq;  // the seq is consumed: downstream keys stay aligned
             return true;
           }
           ReadyFrame ready;
           ready.stream_id = stream_id_;
           ready.seq = seq;
           ready.frame = std::move(frame);
           obs::Tracer::instant("ingress", "frame.dispatch", "stream",
                                stream_id_, "seq", seq);
           std::optional<ReadyFrame> rejected = queue_.push(std::move(ready));
           if (rejected.has_value() && rejected->stream_id == stream_id_ &&
               rejected->seq == seq) {
             // Identity match = the queue closed and never accepted this
             // frame (a kDropOldest displacement would return an OLDER
             // frame — possibly ours, but with a smaller seq).
             return false;
           }
           // Under kDropOldest a displaced frame may belong to any
           // stream; the runtime reconciles per-stream drops as the
           // enqueued - completed - shed - failed residual once the
           // queue drains.
           ++seq;
           count_dispatch();
           return true;
         });

  if (stats_.enqueued > 0) {
    stats_.mean_frame_density =
        density_sum / static_cast<double>(stats_.enqueued);
  }
}

std::vector<sparse::SparseFrame> StreamIngress::collect_frames(
    const events::EventStream& stream, const IngressConfig& config) {
  core::DynamicSparseFrameAggregator dsfa(config.dsfa);
  std::vector<sparse::SparseFrame> frames;
  std::size_t raw = 0;
  ingest(stream, config, dsfa, raw, [&](sparse::SparseFrame frame) {
    frames.push_back(std::move(frame));
    return true;
  });
  return frames;
}

}  // namespace evedge::serve

#include "serve/wire_ingress.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"

namespace evedge::serve {

WireStreamIngress::WireStreamIngress(int stream_id, IngressConfig config,
                                     WireIngressConfig wire_config,
                                     FrameQueue& queue,
                                     TransportAcceptor acceptor)
    : IngressBase(stream_id),
      config_(std::move(config)),
      wire_config_(std::move(wire_config)),
      queue_(queue),
      acceptor_(std::move(acceptor)) {}

void WireStreamIngress::on_hello(const wire::StreamHeader& header) {
  header_ = header;
  e2sf_.emplace(events::SensorGeometry{header.width, header.height},
                config_.e2sf);
  dsfa_.emplace(config_.dsfa);
  if (header.data_packets > 0) {
    // Rebuild the exact offline grid: FrameClock::spanning(stream, rate)
    // is uniform(t_begin, round(1e6/rate), (t_end - t_begin)/period + 2)
    // and hello carries the full 64-bit t_begin (epoch) and t_end.
    const auto period = static_cast<events::TimeUs>(
        std::llround(1e6 / config_.frame_rate_hz));
    const auto n_frames = static_cast<std::size_t>(
                              (header.t_end_us - header.epoch_us) /
                              period) +
                          2;
    clock_ = events::FrameClock::uniform(header.epoch_us, period, n_frames);
    have_grid_ = true;
  }
}

bool WireStreamIngress::dispatch(sparse::SparseFrame frame) {
  density_sum_ += frame.density();
  const FrameFault fault =
      frame_fault_of(frame, header_.height, header_.width);
  if (fault != FrameFault::kNone) {
    reject(seq_, fault, "wire-ingress-reject");
    ++seq_;  // seq consumed: (stream, seq) keys stay aligned
    return true;
  }
  ReadyFrame ready;
  ready.stream_id = stream_id_;
  ready.seq = seq_;
  ready.frame = std::move(frame);
  obs::Tracer::instant("ingress", "frame.dispatch", "stream", stream_id_,
                       "seq", seq_);
  std::optional<ReadyFrame> rejected = queue_.push(std::move(ready));
  if (rejected.has_value() && rejected->stream_id == stream_id_ &&
      rejected->seq == seq_) {
    // Identity match = the queue closed and never accepted this frame
    // (see StreamIngress::run for the drop-oldest distinction). Stop
    // receiving: close the live transport so the session unblocks.
    abort_ = true;
    if (current_ != nullptr) current_->close();
    return false;
  }
  ++seq_;
  count_dispatch();
  return true;
}

bool WireStreamIngress::drain_dsfa() {
  while (auto batch = dsfa_->take_ready_batch()) {
    for (sparse::SparseFrame& frame : batch->frames) {
      if (!dispatch(std::move(frame))) return false;
    }
  }
  return true;
}

void WireStreamIngress::process_intervals(bool flush) {
  if (!have_grid_ || abort_) return;
  while (next_interval_ < clock_.interval_count()) {
    const events::TimeUs t0 = clock_.timestamps[next_interval_];
    const events::TimeUs t1 = clock_.timestamps[next_interval_ + 1];
    // An interval is provably complete once a received event sits at or
    // beyond its right edge (events arrive time-ordered). Without that
    // proof only a flush (end-of-stream) may close it.
    if (!flush && (buffered_.empty() || buffered_.back().t < t1)) break;
    const auto split = std::lower_bound(
        buffered_.begin(), buffered_.end(), t1,
        [](const events::Event& e, events::TimeUs t) { return e.t < t; });
    const std::span<const events::Event> window(
        buffered_.data(),
        static_cast<std::size_t>(split - buffered_.begin()));
    for (sparse::SparseFrame& frame : e2sf_->convert(window, t0, t1)) {
      ++stats_.raw_frames;
      dsfa_->push(std::move(frame));
    }
    buffered_.erase(buffered_.begin(), split);
    ++next_interval_;
    if (!drain_dsfa()) return;
  }
}

void WireStreamIngress::on_events(std::span<const events::Event> batch) {
  if (abort_) return;
  buffered_.insert(buffered_.end(), batch.begin(), batch.end());
  process_intervals(/*flush=*/false);
}

void WireStreamIngress::run() {
  wire::WireSink sink;
  sink.hello = [this](const wire::StreamHeader& h) { on_hello(h); };
  sink.events = [this](std::span<const events::Event> batch,
                       std::uint32_t) { on_events(batch); };
  sink.rejected = [this](wire::PacketError error) {
    if (journal_ != nullptr) {
      journal_->append("wire-reject",
                       "stream=" + std::to_string(stream_id_) +
                           " fault=" + wire::to_string(error) +
                           " action=quarantine-packet");
    }
  };
  wire::WireReceiver receiver(wire_config_.receiver, std::move(sink));

  int losses = 0;
  std::size_t accepted_transports = 0;
  while (!receiver.eos() && !abort_) {
    std::unique_ptr<wire::Transport> transport =
        acceptor_(wire_config_.accept_timeout);
    if (!transport) {
      if (++losses > wire_config_.max_session_losses) {
        mark_failed("wire: no connection");
        break;
      }
      continue;
    }
    // Every transport accepted beyond the first is a mid-stream
    // reconnect (the session state carried across the gap).
    if (accepted_transports++ > 0) {
      ++stats_.wire_reconnects;
      obs::Tracer::instant("wire", "wire.reaccept", "stream", stream_id_);
    }
    current_ = transport.get();
    const wire::ServeOutcome outcome = receiver.serve(*transport);
    if (outcome == wire::ServeOutcome::kEndOfStream && !abort_) {
      receiver.linger(*transport);  // let the peer consume the last ack
    }
    current_ = nullptr;
    transport->close();
    if (outcome == wire::ServeOutcome::kEndOfStream || abort_) break;
    // Peer closed or stalled: await the sender's reconnect. The session
    // state (next seq, unwrapper, pending buffer) carries across, so a
    // resumed sender loses nothing that was acked.
    if (++losses > wire_config_.max_session_losses) {
      mark_failed(std::string("wire: session lost (") +
                  wire::to_string(outcome) + ")");
      break;
    }
  }
  receiver.finish();
  wire_stats_ = receiver.stats();

  if (receiver.eos() && !abort_) {
    process_intervals(/*flush=*/true);
    if (!abort_ && dsfa_.has_value()) {
      dsfa_->dispatch_available();
      (void)drain_dsfa();
    }
  }

  stats_.wire_packets_seen = wire_stats_.packets_seen;
  stats_.wire_packets_accepted = wire_stats_.packets_accepted;
  stats_.rejected_packets = wire_stats_.rejected_packets;
  stats_.duplicate_packets = wire_stats_.duplicate_packets;
  stats_.wire_resumes = wire_stats_.resumes_served;
  stats_.wire_heartbeats = wire_stats_.heartbeats_seen;
  stats_.wire_rewinds = wire_stats_.rewinds_seen;
  stats_.wire_resyncs = wire_stats_.resyncs;
  if (stats_.enqueued > 0) {
    stats_.mean_frame_density =
        density_sum_ / static_cast<double>(stats_.enqueued);
  }
}

}  // namespace evedge::serve

#pragma once

// WireStreamIngress: the network twin of StreamIngress. Instead of
// walking an in-memory EventStream it serves a wire session — accepts
// a transport (and re-accepts after disconnects), runs the hardened
// WireReceiver over it, and feeds the accepted, exactly-once, in-order
// event flow through the SAME E2SF + DSFA pipeline into the shared
// FrameQueue.
//
// Grid parity: the hello packet carries the stream's full 64-bit epoch
// and end timestamp, from which this ingress rebuilds the exact
// FrameClock::spanning grid the offline path uses — so every frame
// decoded from an unaffected packet is bitwise identical to
// StreamIngress::collect_frames / run_serial, (stream, seq) keys
// aligned. Intervals are converted as soon as the event flow crosses
// their right edge (events arrive time-ordered, so a later event
// proves the interval complete); the tail flushes at end-of-stream.
//
// Hardening: rejected packets (truncated / CRC-failed / malformed) are
// quarantined into the stream's packet lanes by the receiver — never
// an ingress-thread death; stalled peers trip the receiver's stall
// timeout and burn one session loss; reconnects resume from the last
// cumulative ack with zero acked frames lost. Malformed FRAMES (after
// decode) still go through the frame_fault_of quarantine gate exactly
// like in-process ingress.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/stream_ingress.hpp"
#include "wire/session.hpp"
#include "wire/transport.hpp"

namespace evedge::serve {

/// Supplies the receiver side of successive connections for one wire
/// stream: the first call yields the initial connection, later calls
/// the reconnects. nullptr = nothing within the timeout. Called only
/// from the ingress thread.
using TransportAcceptor = std::function<std::unique_ptr<wire::Transport>(
    std::chrono::milliseconds)>;

struct WireIngressConfig {
  wire::WireReceiverConfig receiver{};
  /// Patience per acceptor call.
  std::chrono::milliseconds accept_timeout{1000};
  /// Consecutive lost sessions (accept timeouts, dead or stalled
  /// peers) tolerated before the stream is marked failed.
  int max_session_losses = 10;
};

class WireStreamIngress final : public IngressBase {
 public:
  WireStreamIngress(int stream_id, IngressConfig config,
                    WireIngressConfig wire_config, FrameQueue& queue,
                    TransportAcceptor acceptor);

  void run() override;

  /// Raw receiver-side session counters, valid after run().
  [[nodiscard]] const wire::WireRecvStats& wire_stats() const noexcept {
    return wire_stats_;
  }
  /// The stream header announced by the peer (valid once run() saw a
  /// hello).
  [[nodiscard]] const wire::StreamHeader& stream_header() const noexcept {
    return header_;
  }

 private:
  void on_hello(const wire::StreamHeader& header);
  void on_events(std::span<const events::Event> batch);
  /// Converts every grid interval whose right edge the event flow has
  /// crossed (all of them when `flush`), pushing frames through DSFA
  /// and dispatching merged output after each interval — the exact
  /// cadence of the offline ingest.
  void process_intervals(bool flush);
  /// Admission gate + enqueue, mirroring StreamIngress: returns false
  /// when the queue closed under us (sets abort_).
  bool dispatch(sparse::SparseFrame frame);
  bool drain_dsfa();

  IngressConfig config_;
  WireIngressConfig wire_config_;
  FrameQueue& queue_;
  TransportAcceptor acceptor_;
  wire::WireRecvStats wire_stats_;

  // Streaming pipeline state (built on hello).
  wire::StreamHeader header_{};
  bool have_grid_ = false;
  std::optional<core::Event2SparseFrame> e2sf_;
  std::optional<core::DynamicSparseFrameAggregator> dsfa_;
  events::FrameClock clock_;
  std::size_t next_interval_ = 0;
  std::vector<events::Event> buffered_;
  std::int64_t seq_ = 0;
  double density_sum_ = 0.0;
  bool abort_ = false;
  wire::Transport* current_ = nullptr;
};

}  // namespace evedge::serve

#pragma once

// Sequence-numbered wire sessions: a go-back-N ARQ layer that makes the
// EVWP packet stream lossless over hostile transports.
//
//   WireSender    pre-encodes the stream into seq-numbered packets
//                 (hello + data... + end-of-stream), sends inside a
//                 bounded window, retransmits from the cumulative-ack
//                 base on timeout, heartbeats while idle, and — when
//                 the link dies — reconnects through its
//                 TransportFactory and resumes from the receiver's
//                 answering ack (zero acked frames retransmitted
//                 blindly, zero unacked frames lost).
//   WireReceiver  frames bytes (PacketFramer), accepts data packets
//                 exactly once in seq order through a bounded reorder
//                 buffer, quarantines rejected packets into counters
//                 instead of dying, unwraps 32-bit wire timestamps onto
//                 the 64-bit timeline, sends cumulative acks (every
//                 ack_interval packets, immediately on a gap, and in
//                 answer to resume handshakes), and detects stalled
//                 peers via read timeouts + heartbeat silence.
//
// Accounting partition (checked by the serve layer):
//   packets_seen == packets_accepted + rejected_packets
//                   + duplicate_packets
// where `seen` counts framed data/end-of-stream packets plus framing
// rejections; control packets (hello, heartbeat, ack, resume) are
// tallied separately. The partition is exact once the reorder buffer
// has drained (end of session — orphaned buffered packets are flushed
// as kUnresolvedGap rejections).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "events/event_stream.hpp"
#include "wire/packet.hpp"
#include "wire/transport.hpp"

namespace evedge::wire {

// ------------------------------------------------------------- sender

using TransportFactory = std::function<std::unique_ptr<Transport>()>;

struct WireSenderConfig {
  std::uint32_t session_id = 1;
  /// Events per data packet (<= kMaxEventsPerPacket).
  std::size_t events_per_packet = 256;
  /// Max unacked data packets in flight (go-back-N window). Keep at or
  /// below the receiver's reorder window so buffered out-of-order
  /// packets are never discarded in a fault-free exchange.
  std::size_t window = 32;
  /// Retransmit from the window base after this long without an ack.
  std::chrono::milliseconds rto{40};
  /// Heartbeat cadence while idle (window full / all sent).
  std::chrono::milliseconds heartbeat_interval{15};
  /// Patience for the resume handshake's answering ack.
  std::chrono::milliseconds resume_timeout{500};
  /// Consecutive failed reconnect attempts before giving up.
  int max_reconnects = 10;
};

struct WireSendStats {
  std::size_t data_packets = 0;  ///< first transmissions (incl. eos)
  std::size_t retransmits = 0;   ///< go-back-N rewound packet sends
  std::size_t heartbeats = 0;
  std::size_t acks_received = 0;
  std::size_t reconnects = 0;
  bool completed = false;  ///< every packet through end-of-stream acked
};

/// Reliable sender for one EventStream. run() blocks until the
/// receiver has acked the end-of-stream marker (completed = true) or
/// reconnection is exhausted (completed = false).
class WireSender {
 public:
  WireSender(const events::EventStream& stream, WireSenderConfig config,
             TransportFactory factory);

  [[nodiscard]] WireSendStats run();

  /// Data packets the stream encodes to (excluding end-of-stream).
  [[nodiscard]] std::uint32_t data_packet_count() const noexcept {
    return static_cast<std::uint32_t>(packets_.size()) - 1;
  }

 private:
  /// Serves one connection; true once everything is acked.
  bool serve_connection(Transport& transport, WireSendStats& stats);

  WireSenderConfig config_;
  TransportFactory factory_;
  std::vector<std::uint8_t> hello_;
  /// packets_[seq] = encoded bytes; the last entry is end-of-stream.
  std::vector<std::vector<std::uint8_t>> packets_;
  std::uint32_t base_ = 0;       ///< lowest unacked seq
  std::uint32_t next_send_ = 0;  ///< next seq to (re)transmit
  std::uint32_t sent_high_ = 0;  ///< highest seq ever sent + 1
};

// ----------------------------------------------------------- receiver

struct WireReceiverConfig {
  /// Per-recv_some read timeout (the poll granularity).
  std::chrono::milliseconds read_timeout{5};
  /// No bytes at all (not even heartbeats) for this long -> stalled.
  std::chrono::milliseconds stall_timeout{1000};
  /// Out-of-order packets buffered while awaiting the gap fill.
  std::size_t reorder_window = 64;
  /// Cumulative ack cadence (also sent immediately on gaps / resume /
  /// end-of-stream).
  std::size_t ack_interval = 8;
  /// Post-end-of-stream grace (linger()): how long to keep the link
  /// open for the peer to consume the final ack before closing.
  std::chrono::milliseconds linger_timeout{250};
};

struct WireRecvStats {
  std::size_t packets_seen = 0;
  std::size_t packets_accepted = 0;
  std::size_t rejected_packets = 0;
  std::size_t duplicate_packets = 0;
  std::size_t control_packets = 0;  ///< hello / heartbeat / ack / resume
  std::size_t reordered_buffered = 0;
  std::size_t acks_sent = 0;
  std::size_t resumes_served = 0;
  std::size_t heartbeats_seen = 0;
  // Session-health observables (outside the accounting partition): the
  // receiver cannot see the sender's retransmit counter directly, but a
  // go-back-N rewind is visible as the data seq jumping backwards, and
  // a framing resynchronization as a kBadMagic rejection.
  std::size_t rewinds_seen = 0;  ///< data seq went backwards (ARQ rewind)
  std::size_t resyncs = 0;       ///< kBadMagic framing resynchronizations

  [[nodiscard]] bool accounting_ok() const noexcept {
    return packets_seen ==
           packets_accepted + rejected_packets + duplicate_packets;
  }
};

/// Where accepted traffic goes. Callbacks run on the serve() caller's
/// thread, strictly in stream order, exactly once per seq.
struct WireSink {
  std::function<void(const StreamHeader&)> hello;
  std::function<void(std::span<const events::Event>, std::uint32_t seq)>
      events;
  std::function<void(std::int64_t t_end_us)> eos;
  std::function<void(PacketError)> rejected;
};

enum class ServeOutcome : std::uint8_t {
  kEndOfStream,  ///< clean end-of-stream accepted and acked
  kPeerClosed,   ///< transport EOF / closed; caller may await reconnect
  kStalled,      ///< stall_timeout of total silence
};

[[nodiscard]] const char* to_string(ServeOutcome outcome) noexcept;

class WireReceiver {
 public:
  WireReceiver(WireReceiverConfig config, WireSink sink);

  /// Pumps one connection until end-of-stream, link death, or stall.
  /// Call again with the replacement transport after a reconnect — the
  /// session state (next seq, unwrapper, stats) carries across. Called
  /// once the session is past end-of-stream, it answers the sender
  /// (hello, resume, duplicate data) with the final cumulative ack
  /// until the peer closes (kEndOfStream) or stalls: a sender whose
  /// final ack was lost reconnects for it, so completion does not
  /// depend on linger()'s window.
  [[nodiscard]] ServeOutcome serve(Transport& transport);

  /// Post-end-of-stream grace: the final cumulative ack may still be
  /// unread by the peer when the caller closes — and an abrupt close of
  /// a TCP socket with unread inbound bytes (the sender's heartbeats)
  /// RSTs the connection, discarding that ack in flight. Keeps the link
  /// open, draining and answering traffic, until the peer closes (the
  /// completed sender closes first) or `linger_timeout` elapses. Returns
  /// true when the peer closed after this link carried the final ack (it
  /// consumed that ack); false when the window elapsed or the final ack
  /// never made it onto the link, so the peer may reconnect for it.
  [[nodiscard]] bool linger(Transport& transport);

  [[nodiscard]] const WireRecvStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] bool eos() const noexcept { return eos_; }
  [[nodiscard]] std::uint32_t next_expected() const noexcept {
    return next_expected_;
  }

  /// Closes the accounting partition when the caller abandons the
  /// session before end-of-stream: orphaned reorder-buffer entries are
  /// flushed as kUnresolvedGap rejections. Idempotent; serve() calls
  /// it automatically on a clean end-of-stream.
  void finish() { flush_orphans(); }

 private:
  void handle(const Framed& framed, Transport& transport);
  void accept_in_order(const PacketHeader& header,
                       std::span<const std::uint8_t> payload);
  void drain_reorder_buffer();
  void send_ack(Transport& transport);
  void flush_orphans();

  WireReceiverConfig config_;
  WireSink sink_;
  PacketFramer framer_;
  WireRecvStats stats_;

  bool have_hello_ = false;
  StreamHeader stream_header_{};
  std::uint32_t session_id_for_ack_ = 0;
  std::unique_ptr<TimestampUnwrapper> unwrapper_;
  std::int64_t min_t_us_ = 0;

  std::uint32_t next_expected_ = 0;
  std::int64_t prev_data_seq_ = -1;  ///< last data seq seen (rewind probe)
  std::size_t since_ack_ = 0;
  bool final_ack_sent_ = false;  ///< this link carried the final ack
  bool eos_ = false;
  /// seq -> (header, payload copy) awaiting the gap fill.
  std::map<std::uint32_t,
           std::pair<PacketHeader, std::vector<std::uint8_t>>>
      pending_;
  std::vector<events::Event> decode_scratch_;
};

}  // namespace evedge::wire

#include "wire/session.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.hpp"

namespace evedge::wire {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kRecvChunk = 4096;

}  // namespace

const char* to_string(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kEndOfStream: return "end-of-stream";
    case ServeOutcome::kPeerClosed: return "peer-closed";
    case ServeOutcome::kStalled: return "stalled";
  }
  return "?";
}

// ------------------------------------------------------------- sender

WireSender::WireSender(const events::EventStream& stream,
                       WireSenderConfig config, TransportFactory factory)
    : config_(std::move(config)), factory_(std::move(factory)) {
  const std::size_t per_packet =
      std::min(config_.events_per_packet, kMaxEventsPerPacket);
  const auto& events = stream.events();
  StreamHeader header;
  header.width = static_cast<std::uint16_t>(stream.geometry().width);
  header.height = static_cast<std::uint16_t>(stream.geometry().height);
  header.epoch_us = events.empty() ? 0 : events.front().t;
  header.t_end_us = events.empty() ? 0 : events.back().t;

  std::uint32_t seq = 0;
  for (std::size_t i = 0; i < events.size(); i += per_packet) {
    const std::size_t n = std::min(per_packet, events.size() - i);
    std::vector<std::uint8_t> bytes;
    encode_data(config_.session_id, seq++,
                std::span<const events::Event>(events.data() + i, n),
                bytes);
    packets_.push_back(std::move(bytes));
  }
  header.data_packets = seq;
  std::vector<std::uint8_t> eos;
  encode_eos(config_.session_id, seq, header.t_end_us, eos);
  packets_.push_back(std::move(eos));
  encode_hello(config_.session_id, header, hello_);
}

bool WireSender::serve_connection(Transport& transport,
                                  WireSendStats& stats) {
  // Handshake: hello (idempotent) then resume; the receiver answers
  // with a cumulative ack telling us where to pick up.
  if (!transport.send(hello_.data(), hello_.size())) return false;
  {
    std::vector<std::uint8_t> resume;
    encode_resume(config_.session_id,
                  sent_high_ == 0 ? kNoneAcked : sent_high_ - 1, resume);
    if (!transport.send(resume.data(), resume.size())) return false;
  }

  PacketFramer framer;  // per-connection: a reconnect frames clean
  std::uint8_t rbuf[kRecvChunk];
  const auto consume_acks = [&](std::size_t n) {
    framer.feed(rbuf, n);
    bool any = false;
    while (auto framed = framer.next()) {
      if (framed->error != PacketError::kNone ||
          framed->header.type != PacketType::kAck) {
        continue;
      }
      std::uint32_t acked = kNoneAcked;
      if (!decode_u32_payload(framed->payload, acked)) continue;
      ++stats.acks_received;
      any = true;
      const std::uint32_t new_base = acked == kNoneAcked ? 0 : acked + 1;
      if (new_base > base_) {
        base_ = new_base;
        if (next_send_ < base_) next_send_ = base_;
      }
    }
    return any;
  };

  const auto resume_deadline = Clock::now() + config_.resume_timeout;
  bool resumed = false;
  while (!resumed) {
    if (Clock::now() >= resume_deadline) return false;
    const std::ptrdiff_t n =
        transport.recv_some(rbuf, sizeof rbuf,
                            std::chrono::milliseconds(5));
    if (n < 0) return false;
    if (n > 0 && consume_acks(static_cast<std::size_t>(n))) resumed = true;
  }
  next_send_ = base_;

  const auto give_up_after =
      std::max(config_.resume_timeout, 10 * config_.rto);
  auto last_ack_rx = Clock::now();
  auto last_progress = last_ack_rx;  // base_ advance, not mere ack receipt
  auto last_rewind = last_ack_rx;
  auto last_send = last_ack_rx;
  int dup_acks = 0;  // cumulative acks since the base last moved

  while (base_ < packets_.size()) {
    // Fill the window.
    bool sent_any = false;
    while (next_send_ < packets_.size() &&
           next_send_ - base_ < config_.window) {
      const auto& bytes = packets_[next_send_];
      if (!transport.send(bytes.data(), bytes.size())) return false;
      if (next_send_ < sent_high_) {
        ++stats.retransmits;
      } else {
        ++stats.data_packets;
        sent_high_ = next_send_ + 1;
      }
      ++next_send_;
      sent_any = true;
      last_send = Clock::now();
    }

    const std::ptrdiff_t n = transport.recv_some(
        rbuf, sizeof rbuf,
        sent_any ? std::chrono::milliseconds(0)
                 : std::chrono::milliseconds(5));
    if (n < 0) return false;
    const std::uint32_t base_before = base_;
    if (n > 0 && consume_acks(static_cast<std::size_t>(n))) {
      last_ack_rx = Clock::now();
      if (base_ > base_before) {
        last_progress = last_ack_rx;
        dup_acks = 0;
      } else {
        ++dup_acks;  // receiver re-acked behind us: it is missing data
      }
    }

    const auto now = Clock::now();
    if (now - last_ack_rx > give_up_after) return false;
    // Retransmit when the *base* stalls, not when acks stop arriving:
    // heartbeat-elicited duplicate acks keep the link chatty while the
    // receiver is stuck on a gap, so an ack-receipt timer never fires.
    // Duplicate cumulative acks are the gap signal itself — rewind fast
    // on a burst of them, and on the rto as the quiet-link backstop.
    const bool rto_fired =
        now - std::max(last_progress, last_rewind) > config_.rto;
    const bool dup_fired =
        dup_acks >= 3 && now - last_rewind > config_.rto / 4;
    if (base_ < packets_.size() && next_send_ > base_ &&
        (rto_fired || dup_fired)) {
      if (dup_fired) {
        obs::Tracer::instant("wire", "wire.fast_rewind", "base",
                             static_cast<std::int64_t>(base_));
      } else {
        obs::Tracer::instant("wire", "wire.rewind", "base",
                             static_cast<std::int64_t>(base_));
      }
      next_send_ = base_;  // go-back-N: rewind to the unacked base
      last_rewind = now;
      dup_acks = 0;
    }
    if (now - last_send > config_.heartbeat_interval) {
      std::vector<std::uint8_t> hb;
      encode_heartbeat(config_.session_id,
                       sent_high_ == 0 ? kNoneAcked : sent_high_ - 1, 0,
                       hb);
      if (!transport.send(hb.data(), hb.size())) return false;
      ++stats.heartbeats;
      last_send = now;
    }
  }
  return true;
}

WireSendStats WireSender::run() {
  WireSendStats stats;
  int failures = 0;
  bool first = true;
  while (base_ < packets_.size()) {
    std::unique_ptr<Transport> transport = factory_();
    if (!transport) {
      if (++failures > config_.max_reconnects) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    if (!first) {
      ++stats.reconnects;
      obs::Tracer::instant("wire", "wire.reconnect", "base",
                           static_cast<std::int64_t>(base_));
    }
    first = false;
    const std::uint32_t before = base_;
    const bool done = serve_connection(*transport, stats);
    transport->close();
    if (done) {
      stats.completed = true;
      break;
    }
    // A connection that advanced the ack base made progress; only
    // consecutive no-progress attempts burn the reconnect budget.
    failures = base_ > before ? 0 : failures + 1;
    if (failures > config_.max_reconnects) break;
  }
  return stats;
}

// ----------------------------------------------------------- receiver

WireReceiver::WireReceiver(WireReceiverConfig config, WireSink sink)
    : config_(std::move(config)), sink_(std::move(sink)) {}

void WireReceiver::send_ack(Transport& transport) {
  std::vector<std::uint8_t> ack;
  encode_ack(session_id_for_ack_,
             next_expected_ == 0 ? kNoneAcked : next_expected_ - 1, ack);
  // Best effort: if the link is dying the next recv notices.
  if (transport.send(ack.data(), ack.size()) && eos_) final_ack_sent_ = true;
  ++stats_.acks_sent;
  since_ack_ = 0;
}

void WireReceiver::accept_in_order(const PacketHeader& header,
                                   std::span<const std::uint8_t> payload) {
  if (header.type == PacketType::kEndOfStream) {
    ++stats_.packets_accepted;
    ++next_expected_;
    eos_ = true;
    if (sink_.eos) sink_.eos(stream_header_.t_end_us);
    return;
  }
  if (header.event_count == 0) {
    // Zero-length data packet: legal, consumes its seq, moves nothing —
    // in particular it must NOT touch the timestamp unwrapper (its
    // t_base is unspecified).
    ++stats_.packets_accepted;
    ++next_expected_;
    return;
  }
  const std::int64_t base = unwrapper_->unwrap(header.t_base);
  decode_scratch_.clear();
  const PacketError err = decode_events(
      payload, header.event_count, base, min_t_us_, stream_header_.width,
      stream_header_.height, decode_scratch_);
  if (err != PacketError::kNone) {
    // CRC passed but the content is invalid: the sender encoded bad
    // data, so a retransmission would be byte-identical. Quarantine the
    // packet and advance — stalling would livelock the session.
    ++stats_.rejected_packets;
    ++next_expected_;
    if (sink_.rejected) sink_.rejected(err);
    return;
  }
  ++stats_.packets_accepted;
  ++next_expected_;
  min_t_us_ = decode_scratch_.back().t;
  unwrapper_->advance(min_t_us_);
  if (sink_.events) {
    sink_.events(std::span<const events::Event>(decode_scratch_),
                 header.seq);
  }
}

void WireReceiver::drain_reorder_buffer() {
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == next_expected_;
       it = pending_.erase(it)) {
    accept_in_order(it->second.first,
                    std::span<const std::uint8_t>(it->second.second));
  }
}

void WireReceiver::flush_orphans() {
  for ([[maybe_unused]] auto& [seq, packet] : pending_) {
    ++stats_.rejected_packets;
    if (sink_.rejected) sink_.rejected(PacketError::kUnresolvedGap);
  }
  pending_.clear();
}

void WireReceiver::handle(const Framed& framed, Transport& transport) {
  if (framed.error != PacketError::kNone) {
    ++stats_.packets_seen;
    ++stats_.rejected_packets;
    if (framed.error == PacketError::kBadMagic) {
      // The framer skipped garbage to find the next magic — a byte-level
      // resynchronization, the health signal behind kBadMagic.
      ++stats_.resyncs;
      obs::Tracer::instant("wire", "wire.resync");
    }
    if (sink_.rejected) sink_.rejected(framed.error);
    return;
  }
  const PacketHeader& header = framed.header;
  switch (header.type) {
    case PacketType::kHello: {
      ++stats_.control_packets;
      if (have_hello_) {
        // Idempotent across reconnects. Past end-of-stream a hello can
        // only come from a sender that missed the final ack: answer it.
        if (eos_) send_ack(transport);
        return;
      }
      StreamHeader sh;
      if (!decode_hello(framed.payload, sh)) return;
      stream_header_ = sh;
      session_id_for_ack_ = header.session_id;
      unwrapper_ = std::make_unique<TimestampUnwrapper>(sh.epoch_us);
      min_t_us_ = sh.epoch_us;
      have_hello_ = true;
      if (sink_.hello) sink_.hello(sh);
      return;
    }
    case PacketType::kHeartbeat:
      ++stats_.control_packets;
      ++stats_.heartbeats_seen;
      // The echoed high seq reveals a tail gap while the sender idles;
      // a fresh ack resets its retransmit clock either way.
      if (header.seq != kNoneAcked && header.seq + 1 > next_expected_) {
        send_ack(transport);
      }
      return;
    case PacketType::kAck:
      ++stats_.control_packets;  // not receiver-bound traffic; ignore
      return;
    case PacketType::kResume:
      ++stats_.control_packets;
      ++stats_.resumes_served;
      send_ack(transport);
      return;
    case PacketType::kData:
    case PacketType::kEndOfStream:
      break;
  }

  ++stats_.packets_seen;
  // Rewind probe: go-back-N redelivery starts with a data seq below the
  // previously seen one. One backwards transition == one sender rewind
  // (the redelivered run then climbs again).
  if (static_cast<std::int64_t>(header.seq) < prev_data_seq_) {
    ++stats_.rewinds_seen;
    obs::Tracer::instant("wire", "wire.rewind_seen", "seq",
                         static_cast<std::int64_t>(header.seq));
  }
  prev_data_seq_ = static_cast<std::int64_t>(header.seq);
  if (!have_hello_) {
    // Data before hello: nothing to decode against. Reject without
    // consuming the seq — the sender's rewind redelivers it after the
    // hello lands.
    ++stats_.rejected_packets;
    if (sink_.rejected) sink_.rejected(PacketError::kUnresolvedGap);
    return;
  }
  if (header.seq < next_expected_ || pending_.count(header.seq) != 0) {
    ++stats_.duplicate_packets;
    // The sender clearly rewound behind us — re-ack so it fast-forwards.
    send_ack(transport);
    return;
  }
  if (header.seq == next_expected_) {
    accept_in_order(header, framed.payload);
    drain_reorder_buffer();
    ++since_ack_;
    if (eos_ || since_ack_ >= config_.ack_interval) send_ack(transport);
    return;
  }
  // Out of order: buffer inside the window, ack the gap immediately.
  if (header.seq - next_expected_ <= config_.reorder_window &&
      pending_.size() < config_.reorder_window) {
    pending_.emplace(
        header.seq,
        std::make_pair(header,
                       std::vector<std::uint8_t>(framed.payload.begin(),
                                                 framed.payload.end())));
    ++stats_.reordered_buffered;
    send_ack(transport);
    return;
  }
  ++stats_.rejected_packets;  // beyond the window: discard, ARQ recovers
  if (sink_.rejected) sink_.rejected(PacketError::kUnresolvedGap);
  send_ack(transport);
}

ServeOutcome WireReceiver::serve(Transport& transport) {
  framer_.reset();  // new byte stream: frame from a clean slate
  final_ack_sent_ = false;
  // A session already past end-of-stream has nothing left to accept,
  // but its sender may have lost the final ack and reconnected for it:
  // answer (hello, resume, duplicate data) with the final cumulative
  // ack until the peer closes.
  const bool answering = eos_;
  auto last_activity = Clock::now();
  std::uint8_t rbuf[kRecvChunk];
  while (answering || !eos_) {
    const std::ptrdiff_t n =
        transport.recv_some(rbuf, sizeof rbuf, config_.read_timeout);
    if (n < 0) {
      return answering ? ServeOutcome::kEndOfStream
                       : ServeOutcome::kPeerClosed;
    }
    if (n == 0) {
      if (Clock::now() - last_activity > config_.stall_timeout) {
        return ServeOutcome::kStalled;
      }
      continue;
    }
    last_activity = Clock::now();
    framer_.feed(rbuf, static_cast<std::size_t>(n));
    while (auto framed = framer_.next()) handle(*framed, transport);
  }
  flush_orphans();  // eos accepted: any stragglers are orphans
  return ServeOutcome::kEndOfStream;
}

bool WireReceiver::linger(Transport& transport) {
  const auto deadline = Clock::now() + config_.linger_timeout;
  std::uint8_t rbuf[kRecvChunk];
  while (Clock::now() < deadline) {
    const std::ptrdiff_t n =
        transport.recv_some(rbuf, sizeof rbuf, config_.read_timeout);
    // Closed after the final ack went out: the peer consumed it.
    if (n < 0) return final_ack_sent_;
    if (n == 0) continue;
    framer_.feed(rbuf, static_cast<std::size_t>(n));
    while (auto framed = framer_.next()) handle(*framed, transport);
  }
  return false;
}

}  // namespace evedge::wire
